"""Set partitions of {1..n}: enumeration, the non-crossing family, kernels.

Blocks are kept in a canonical form (elements ascending inside a block,
blocks ordered by their minimum) so that partitions compare and hash
structurally.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .algebra import check_bytes

# The charges below count partitions or patterns at min(n, _COUNT_LENGTH) points:
# exact up to there and far past any byte budget beyond it, so that a huge n is
# rejected without big-integer arithmetic that would itself take minutes.
_COUNT_LENGTH = 64


class Partition:
    """A partition of {1..n} into disjoint nonempty blocks."""

    __slots__ = ("n", "blocks")

    def __init__(self, n, blocks):
        if n < 1:
            raise ValueError(f"ground set size must be positive, got {n}")
        blocks = [tuple(sorted(b)) for b in blocks]
        if any(not b for b in blocks):
            raise ValueError("blocks must be nonempty")
        elements = sorted(x for b in blocks for x in b)
        if elements != list(range(1, n + 1)):
            raise ValueError(
                f"blocks must partition {{1..{n}}} exactly, got elements {elements}"
            )
        self.n = n
        self.blocks = tuple(sorted(blocks, key=lambda b: b[0]))

    @property
    def num_blocks(self):
        return len(self.blocks)

    def __eq__(self, other):
        return (
            isinstance(other, Partition)
            and self.n == other.n
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return hash((self.n, self.blocks))

    def __repr__(self):
        inner = ", ".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)
        return f"Partition({self.n}, [{inner}])"


def _all_partitions_charge(n):
    """(bytes, description) of enumerate_all(n): Bell(n) partitions, each charged
    an upper bound of the measured peak per partition."""
    m = min(n, _COUNT_LENGTH)
    return 4096 + _pattern_count(m, m) * (256 + 72 * n), f"all partitions of {n} points"


def enumerate_all(n):
    """All partitions of {1..n} in canonical form.

    Grows partitions element by element: each new element either joins an
    existing block or opens a new one, so every partition appears once.
    """
    if n < 1:
        raise ValueError(f"full partition enumeration needs n >= 1, got {n}")
    check_bytes(*_all_partitions_charge(n))
    partial = [[[1]]]
    for x in range(2, n + 1):
        grown = []
        for blocks in partial:
            for idx in range(len(blocks)):
                copy = [list(b) for b in blocks]
                copy[idx].append(x)
                grown.append(copy)
            grown.append([list(b) for b in blocks] + [[x]])
        partial = grown
    return [Partition(n, blocks) for blocks in partial]


def is_noncrossing(p):
    """True iff no two blocks interleave as s1 < t1 < s2 < t2.

    Two sorted blocks cross exactly when their merged sequence alternates
    between the blocks for at least four runs.
    """
    for a, b in itertools.combinations(p.blocks, 2):
        runs = 0
        last = None
        ia = ib = 0
        while ia < len(a) or ib < len(b):
            take_a = ib >= len(b) or (ia < len(a) and a[ia] < b[ib])
            if take_a:
                ia += 1
            else:
                ib += 1
            if take_a != last:
                runs += 1
                last = take_a
                if runs >= 4:
                    return False
    return True


def _first_block_splits(m, candidates):
    """(block, gaps) for every block of 0 drawn from candidates within 1..m-1.

    The gaps are the ranges strictly between consecutive members of the
    block and after its last one.  No block can cross the block of 0, so
    the gaps are independent: this is the first-block decomposition that
    both recursions below fill in.
    """
    for r in range(len(candidates) + 1):
        for chosen in itertools.combinations(candidates, r):
            block = (0,) + chosen
            yield block, [range(a + 1, b) for a, b in zip(block, chosen + (m,))]


@lru_cache(maxsize=32)
def _noncrossing_local(m):
    """Non-crossing partitions of {0..m-1} as tuples of blocks.

    Each gap of the block of 0 is filled recursively, which yields every
    non-crossing partition once.
    """
    if m == 0:
        return ((),)
    out = []
    for block, gaps in _first_block_splits(m, range(1, m)):
        gap_choices = [
            tuple(
                tuple(tuple(g[x] for x in bl) for bl in blocks)
                for blocks in _noncrossing_local(len(g))
            )
            for g in gaps
        ]
        for combo in itertools.product(*gap_choices):
            out.append((block,) + tuple(itertools.chain.from_iterable(combo)))
    return tuple(out)


@lru_cache(maxsize=1 << 15)
def _nc_size_profiles(pattern):
    """Block-size profiles of non-crossing partitions refining a kernel.

    Returns ((sizes, count), ...) where `sizes` is a sorted tuple of block
    sizes and `count` how many admissible partitions share it.  The block
    of the first position may only recruit later positions with the same
    pattern value; the gaps in between recurse independently.
    """
    if not pattern:
        return (((), 1),)
    m = len(pattern)
    candidates = tuple(p for p in range(1, m) if pattern[p] == pattern[0])
    out = {}
    for block, gaps in _first_block_splits(m, candidates):
        combined = {(): 1}
        for g in gaps:
            sub = _nc_size_profiles(canonical_pattern(pattern[p] for p in g))
            merged = {}
            for sizes_a, ca in combined.items():
                for sizes_b, cb in sub:
                    key = tuple(sorted(sizes_a + sizes_b))
                    merged[key] = merged.get(key, 0) + ca * cb
            combined = merged
        for sizes, count in combined.items():
            key = tuple(sorted(sizes + (len(block),)))
            out[key] = out.get(key, 0) + count
    return tuple(sorted(out.items()))


@lru_cache(maxsize=256)
def _profile_counts(patterns):
    """The count matrix of a sequence of patterns, and its block-size profiles.

    counts[r, c] is how many non-crossing partitions refining the kernel of
    patterns[r] have the profile whose block sizes, padded with zeros, are
    row c of `sizes`.  A partition sum whose terms depend only on block
    sizes is counts @ (one term per profile).
    """
    rows = [dict(_nc_size_profiles(p)) for p in patterns]
    profiles = sorted(set().union(*rows))
    counts = np.array([[row.get(prof, 0) for prof in profiles] for row in rows], dtype=float)
    width = max(map(len, profiles))
    sizes = np.array([prof + (0,) * (width - len(prof)) for prof in profiles], dtype=np.intp)
    counts.flags.writeable = sizes.flags.writeable = False  # shared by every caller
    return counts, sizes


@lru_cache(maxsize=256)  # every tensor request of a scan asks again
def _profile_counts_charge(k, n):
    """(bytes, description) of _profile_counts over the kernel patterns of
    {1..k}^n, bounded above.

    There are p(n) block-size profiles of n points, p the partition
    function.  Per pattern and profile: the float64 count, the entry of the
    pattern's profile row and the cached (sizes, count) pair with its
    sizes tuple of up to n ints.  Per length: the recursion's scratch,
    which doubles with each point (it alone sets the peak at k = 1).  The
    rates were measured with tracemalloc; the tests hold the charge above
    the peak.
    """
    m = min(n, _COUNT_LENGTH)
    profiles = [1] + [0] * m  # p(0..m), built up one part size at a time
    for part in range(1, m + 1):
        for total in range(part, m + 1):
            profiles[total] += profiles[total - part]
    nbytes = 4096 + (256 << m) + _pattern_count(k, m) * profiles[m] * (192 + 8 * n)
    return nbytes, f"block-size profile counts of {k}^{n} tuples"


def _noncrossing_charge(n):
    """(bytes, description) of enumerate_noncrossing(n): Catalan(n) partitions,
    each charged an upper bound of the measured peak per partition (the
    cached local tuples included)."""
    m = min(n, _COUNT_LENGTH)
    count = math.comb(2 * m, m) // (m + 1)
    return 4096 + count * (512 + 48 * n), f"non-crossing partitions of {n} points"


def enumerate_noncrossing(n):
    """All non-crossing partitions of {1..n}; the count is the n-th Catalan number."""
    if n < 1:
        raise ValueError(f"non-crossing enumeration needs n >= 1, got {n}")
    check_bytes(*_noncrossing_charge(n))
    return [
        Partition(n, [tuple(x + 1 for x in b) for b in blocks])
        for blocks in _noncrossing_local(n)
    ]


def leq(p, q):
    """Refinement order: p <= q iff each block of p lies inside a block of q."""
    if p.n != q.n:
        raise ValueError(f"cannot compare partitions of sizes {p.n} and {q.n}")
    owner = {}
    for bi, b in enumerate(q.blocks):
        for x in b:
            owner[x] = bi
    return all(len({owner[x] for x in b}) == 1 for b in p.blocks)


def kernel(indices):
    """Partition of positions 1..len(indices) grouping equal index values."""
    indices = tuple(indices)
    if not indices:
        raise ValueError("kernel of an empty tuple is undefined")
    groups = {}
    for pos, v in enumerate(indices, start=1):
        groups.setdefault(v, []).append(pos)
    return Partition(len(indices), groups.values())


def canonical_pattern(indices):
    """Relabel values by order of first appearance; kernels agree iff patterns do."""
    seen = {}
    return tuple(seen.setdefault(v, len(seen)) for v in indices)


def _pattern_count(k, n):
    """How many kernel patterns {1..k}^n has: the Stirling numbers S(n, j), summed over j <= k."""
    k = min(k, n)  # S(n, j) = 0 for j > n
    row = [1] + [0] * k  # S(0, j) for j = 0..k
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return sum(row)


def _pattern_table_charge(k, n):
    """(bytes, description) of _pattern_table(k, n), bounded above.

    Per tuple: the index and label arrays (n entries each), the
    relabelling scratch and the int64 and int32 id arrays.  Per pattern:
    its tuple of n ints and the list it is built from.  Per position:
    ravel_multi_index's int64 casting buffer of up to 8192 entries.  The
    rates were measured with tracemalloc; the tests hold the charge above
    the peak.
    """
    m = min(n, _COUNT_LENGTH)
    itemsize = np.min_scalar_type(k).itemsize
    per_tuple = (2 * n + 2) * itemsize + 32
    per_pattern = 128 + 17 * n
    nbytes = 8192 + 69632 * n + k**m * per_tuple + _pattern_count(k, m) * per_pattern
    return nbytes, f"kernel-pattern table of {k}^{n} tuples"


@lru_cache(maxsize=32)
def _pattern_table(k, n):
    """canonical_pattern of every tuple in {1..k}^n (C order), vectorised.

    Returns the pattern id of every tuple plus the pattern list.  Values are relabelled by first occurrence one position at a time over
    all rows.  A canonical pattern is itself a tuple of the table and the
    least one of its class, so the patterns, in C order of first occurrence,
    are exactly the rows that equal their own pattern.
    """
    shape = (k,) * n
    tuples = np.indices(shape, dtype=np.min_scalar_type(k)).reshape(n, -1)
    labels = np.empty_like(tuples)
    used = np.zeros_like(tuples[0])
    for p in range(n):
        label = used.copy()
        for q in range(p):
            same = tuples[q] == tuples[p]
            label[same] = labels[q][same]
        labels[p] = label
        used += label == used  # earlier labels are all below `used`
    home = np.ravel_multi_index(labels, shape)
    is_pattern = home == np.arange(len(home))
    ids = (np.cumsum(is_pattern) - 1)[home].astype(np.int32)
    patterns = tuple(map(tuple, labels[:, is_pattern].T.tolist()))
    return ids, patterns


def interval_blocks(p):
    """Blocks made of consecutive integers, in ascending order of minimum."""
    return [b for b in p.blocks if b[-1] - b[0] == len(b) - 1]


def first_interval_block(p):
    """The interval block with the smallest minimum.

    Only non-crossing partitions are guaranteed to contain an interval
    block, so crossing input is rejected.
    """
    if not is_noncrossing(p):
        raise ValueError("partition has crossing blocks; no interval block is guaranteed")
    return interval_blocks(p)[0]


def delete_block(p, block):
    """Remove a block and relabel the remaining elements to {1..n-len(block)}."""
    block = tuple(sorted(block))
    if block not in p.blocks:
        raise ValueError(f"{block} is not a block of {p!r}")
    rest = [b for b in p.blocks if b != block]
    if not rest:
        raise ValueError("cannot delete the only block of a partition")
    remaining = sorted(x for b in rest for x in b)
    rank = {x: i + 1 for i, x in enumerate(remaining)}
    return Partition(len(remaining), [tuple(rank[x] for x in b) for b in rest])
