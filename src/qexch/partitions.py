"""Set partitions of {1..n}: enumeration, the non-crossing family, kernels.

The one format underneath is the row of block leaders (entry x is the least
element of x's block): enumeration grows or reads such rows, and kernels and
the refinement order test them.  A Partition holds canonical blocks (ascending,
ordered by their minimum) to compare and hash; no list of them is cached.
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

# partitions per profile group, which bounds _profile_counts' masks per pattern
_GROUP_ROWS = 1 << 12


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
    """All partitions of {1..n}, grown as rows of block leaders: each new element
    joins an existing block or opens a new one, so every partition appears once."""
    if n < 1:
        raise ValueError(f"full partition enumeration needs n >= 1, got {n}")
    check_bytes(*_all_partitions_charge(n))
    rows = [(0,)]
    for x in range(1, n):
        rows = [row + (lead,) for row in rows for lead in (*dict.fromkeys(row), x)]
    return [_partition(row) for row in rows]


def is_noncrossing(p):
    """True iff no two blocks interleave as s1 < t1 < s2 < t2.

    Read left to right, a block opens at its least element and closes at
    its greatest; two blocks cross exactly when some element belongs to a
    block other than the innermost open one.
    """
    owner = {x: b for b in p.blocks for x in b}
    open_blocks = []
    for x in range(1, p.n + 1):
        b = owner[x]
        if x == b[0]:
            open_blocks.append(b)
        elif open_blocks[-1] is not b:
            return False
        if x == b[-1]:
            open_blocks.pop()
    return True


@lru_cache(maxsize=32)
def _noncrossing_local(m):
    """Non-crossing partitions of {0..m-1}, one int8 row each: entry x is the
    least element of x's block.  The block of 0 is chosen first; no block can
    cross it, so each gap it leaves is filled independently and recursively,
    the last gap varying fastest."""
    if m == 0:
        return np.zeros((1, 0), dtype=np.int8)
    parts = []
    for r in range(m):
        for chosen in itertools.combinations(range(1, m), r):
            gaps = [range(a + 1, b) for a, b in zip((0,) + chosen, chosen + (m,))]
            subs = [_noncrossing_local(len(g)) + g.start for g in gaps]
            rows = np.zeros((math.prod(map(len, subs)), m), dtype=np.int8)
            before = 1
            for g, sub in zip(gaps, subs):
                rows.reshape(before, len(sub), -1, m)[..., g.start:g.stop] = sub[:, None, :]
                before *= len(sub)
            parts.append(rows)
    table = np.concatenate(parts)
    table.flags.writeable = False  # cached and shared
    return table


@lru_cache(maxsize=32)
def _nc_profile_groups(n):
    """((sizes, rows), ...): the rows of _noncrossing_local(n) whose sorted block
    sizes are `sizes`, at most _GROUP_ROWS rows to a group."""
    table = _noncrossing_local(n)
    sizes = np.zeros((len(table), n + 1), dtype=np.int8)  # a spare 0: no row is empty
    for x in range(n):
        sizes[:, x] = (table == x).sum(axis=1)
    sizes.sort(axis=1)
    keys = sizes.view(f"V{n + 1}")[:, 0]  # each row's bytes as one sortable key
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    groups = []
    for j, row in enumerate(first):
        rows, profile = table[group == j], tuple(s for s in sizes[row].tolist() if s)
        groups += [(profile, rows[s:s + _GROUP_ROWS]) for s in range(0, len(rows), _GROUP_ROWS)]
    return tuple(groups)


@lru_cache(maxsize=256)
def _profile_counts(shape, data):
    """The count matrix of the patterns in data, an int8 array of `shape` (P, n)
    holding one pattern of length n to a row, and its block-size profiles.

    counts[r, c] is how many non-crossing partitions refining the kernel of
    pattern r (the pattern agrees at each position with its block leader)
    have the block sizes of row c of `sizes`, padded with zeros.  A sum of
    terms that depend only on block sizes is counts @ (one term per row).
    """
    count, n = shape
    values = np.frombuffer(data, dtype=np.int8).reshape(shape).T.copy()
    agree = [values == values[x] for x in range(n)]  # [x][l, r]: r equal at x and l
    columns = {}
    for profile, leaders in _nc_profile_groups(n):
        below = np.ones((len(leaders), count), dtype=bool)
        for x in range(1, n):  # position 0 leads its own block
            below &= agree[x][leaders[:, x]]
        column = columns.setdefault(profile, np.zeros(count))
        column += below.sum(axis=0)
    profiles = sorted(prof for prof, column in columns.items() if column.any())
    counts = np.column_stack([columns[prof] for prof in profiles])
    width = max(map(len, profiles))
    sizes = np.array([prof + (0,) * (width - len(prof)) for prof in profiles], dtype=np.intp)
    counts.flags.writeable = sizes.flags.writeable = False  # shared by every caller
    return counts, sizes


def _catalan(m):
    return math.comb(2 * m, m) // (m + 1)


@lru_cache(maxsize=256)  # every tensor request of a scan asks again
def _profile_counts_charge(k, n):
    """(bytes, description) of _profile_counts over the kernel patterns of
    {1..k}^n, bounded above by the sizes of the arrays it builds; the work
    grows like Catalan(n) x #patterns x n and is bounded by the same arrays.

    Per pattern: the float64 count matrix of p(n) profiles twice (columns
    and stack), n agreement masks of n booleans, one group's mask and its
    gather scratch (a boolean per partition each) and 96 bytes of indices.
    A group has at most _GROUP_ROWS partitions and at most the largest
    Narayana number N(n, b), the count of those with b blocks.  Per row of
    NC(n): 8n + 64 bytes for the cold tables of every length up to n, the
    groups and their scratch.  Per profile: 512 bytes of Python objects.
    """
    m = min(n, _COUNT_LENGTH)
    profiles = [1] + [0] * m  # p(0..m), built up one part size at a time
    for part in range(1, m + 1):
        for total in range(part, m + 1):
            profiles[total] += profiles[total - part]
    narayana = max(math.comb(m, b) * math.comb(m, b - 1) // m for b in range(1, m + 1))
    group = min(_GROUP_ROWS, narayana)
    per_pattern = 16 * profiles[m] + n * n + 2 * group + 96
    nbytes = 65536 + 512 * profiles[m] + 8 * group + _pattern_count(k, m) * per_pattern
    return nbytes + _catalan(m) * (8 * n + 64), f"block-size profile counts of {k}^{n} tuples"


def _noncrossing_charge(n):
    """(bytes, description) of enumerate_noncrossing(n): Catalan(n) partitions,
    each charged an upper bound of the measured peak per partition (the
    cached table included)."""
    m = min(n, _COUNT_LENGTH)
    return 4096 + _catalan(m) * (512 + 48 * n), f"non-crossing partitions of {n} points"


def _partition(row):
    """The partition of {1..len(row)} into the positions of equal entries, so a row of
    block leaders reads as its partition; the blocks come out canonical, unchecked."""
    blocks = {}
    for x, lead in enumerate(row, start=1):
        blocks.setdefault(lead, []).append(x)
    p = object.__new__(Partition)
    p.n, p.blocks = len(row), tuple(map(tuple, blocks.values()))
    return p


def _leaders(p):
    """p's row of block leaders: entry x - 1 is the least element of x's block, less one."""
    lead = {x: b[0] - 1 for b in p.blocks for x in b}
    return [lead[x] for x in range(1, p.n + 1)]


def enumerate_noncrossing(n):
    """All Catalan(n) non-crossing partitions of {1..n}: a new tuple read off the int8 table."""
    if n < 1:
        raise ValueError(f"non-crossing enumeration needs n >= 1, got {n}")
    check_bytes(*_noncrossing_charge(n))
    return tuple(map(_partition, _noncrossing_local(n).tolist()))


def leq(p, q):
    """Refinement order: p <= q iff each element shares a q-block with its p-block's leader."""
    if p.n != q.n:
        raise ValueError(f"cannot compare partitions of sizes {p.n} and {q.n}")
    q_row = _leaders(q)
    return all(q_row[x] == q_row[lead] for x, lead in enumerate(_leaders(p)))


def kernel(indices):
    """Partition of positions 1..len(indices) grouping equal index values."""
    indices = tuple(indices)
    if not indices:
        raise ValueError("kernel of an empty tuple is undefined")
    return _partition(indices)


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


@lru_cache(maxsize=256)  # every tensor request of a scan asks again
def _pattern_table_charge(k, n):
    """(bytes, description) of _pattern_table(k, n), bounded above.

    Per tuple: the index and label arrays (n entries each), the
    relabelling scratch and the int64 and int32 id arrays.  Per pattern:
    its labels, gathered and then copied as one int8 row.  Per position:
    ravel_multi_index's int64 casting buffer of up to 8192 entries.  The
    rates were measured with tracemalloc; the tests hold the charge above
    the peak.
    """
    m = min(n, _COUNT_LENGTH)
    itemsize = np.min_scalar_type(k).itemsize
    per_tuple = (2 * n + 2) * itemsize + 32
    nbytes = 8192 + 69632 * n + k**m * per_tuple + _pattern_count(k, m) * (itemsize + 1) * n
    return nbytes, f"kernel-pattern table of {k}^{n} tuples"


@lru_cache(maxsize=32)
def _pattern_table(k, n):
    """canonical_pattern of every tuple in {1..k}^n (C order), vectorised.

    Returns the int32 pattern id of every tuple and the int8 row of each
    pattern, both read-only.  A row holds first-occurrence labels, not the
    block leaders of _noncrossing_local: the tuple (1, 2, 1, 3) is the row
    (0, 1, 0, 2) here and the leader row (0, 1, 0, 3) there.  _profile_counts
    reads only which entries of a row are equal, so it takes either.  Values are
    relabelled by first occurrence one position at a time over all rows.  A
    canonical pattern is itself a tuple of the table and the least one of its
    class, so the patterns, in C order of first occurrence, are exactly the
    rows that equal their own pattern.
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
    rows = labels[:, is_pattern].T.astype(np.int8, order="C")
    ids.flags.writeable = rows.flags.writeable = False  # cached and shared
    return ids, rows


def interval_blocks(p):
    """Blocks made of consecutive integers, in ascending order of minimum."""
    return [b for b in p.blocks if b[-1] - b[0] == len(b) - 1]


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


def _peeling_steps(pi, peel="min"):
    """(start, length) of each block that interval peeling removes from a non-crossing
    pi: the interval block of least ("min") or greatest ("max") minimum, then
    the same in what is left, relabelled, until one block remains."""
    if peel not in ("min", "max"):
        raise ValueError(f"unknown peel rule {peel!r}")
    if not is_noncrossing(pi):
        raise ValueError("interval peeling is defined for non-crossing partitions only")
    steps = []
    while pi.num_blocks > 1:
        block = interval_blocks(pi)[0 if peel == "min" else -1]
        steps.append((block[0], len(block)))
        pi = delete_block(pi, block)
    return tuple(steps)
