"""Finite-dimensional magic unitaries.

A magic unitary is a k x k array of d x d orthogonal projections whose rows
and columns each form a partition of unity.  Permutation matrices are the
commutative examples; block constructions from arbitrary projections give
genuinely non-commuting ones for k >= 4.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    ResidualReport,
    _check_at_least,
    _worst,
    as_matrix,
    check_bytes,
    frobenius,
)
from .partitions import (
    _leaders, _noncrossing_charge, enumerate_noncrossing, is_noncrossing, kernel, leq,
)


class MagicUnitary:
    """k x k array of d x d projections; entries[i, j] is 0-indexed."""

    __slots__ = ("k", "d", "entries")

    def __init__(self, entries):
        arr = np.asarray(entries, dtype=complex)
        if arr.ndim != 4 or arr.shape[0] != arr.shape[1] or arr.shape[2] != arr.shape[3]:
            raise ValueError(f"entries must have shape (k, k, d, d), got {arr.shape}")
        if 0 in arr.shape:
            raise ValueError(f"a magic unitary needs k >= 1 and d >= 1, got shape {arr.shape}")
        # finite exactly when the extremes of the real and imaginary parts are: no mask is built
        extremes = (f(part) for part in (arr.real, arr.imag) for f in (np.max, np.min))
        if not all(map(math.isfinite, extremes)):
            raise ValueError("entries contain non-finite values")
        self.k = arr.shape[0]
        self.d = arr.shape[2]
        self.entries = arr

    def entry(self, i, j):
        """Entry u_ij with 1-based row and column indices."""
        if not (1 <= i <= self.k and 1 <= j <= self.k):
            raise ValueError(f"indices ({i}, {j}) outside 1..{self.k}")
        return self.entries[i - 1, j - 1]


_buffers = threading.local()


def _workspace(k, n, d, r):
    """Two flat views of k**n * d * d * r entries into the calling thread's buffers.

    The two buffers are kept between calls, grow to the largest size asked
    for so far and never shrink.  Growth is charged first, so a thread
    holds at most 2 * MAX_BYTES: the transient peak of one contraction,
    kept until the thread exits.
    """
    size = k**n * d * d * r
    pair = getattr(_buffers, "pair", ())
    if not pair or pair[0].size < size:
        check_bytes(*_coaction_charge(k, n, d, r))
        pair = _buffers.pair = ()  # the old pair is freed before the new one is allocated
        pair = _buffers.pair = (np.empty(size, dtype=complex), np.empty(size, dtype=complex))
    return pair[0][:size], pair[1][:size]


# numpy's bundled OpenBLAS hands a zgemm of 2**16 or more multiply-adds to its
# thread pool; every product of the coaction kernel stays below that.
_GEMM_MACS = 1 << 16


@functools.lru_cache(maxsize=256)
def _tile(length, unit):
    """Largest divisor t of length with t * unit < _GEMM_MACS, or length itself
    when a single row of unit multiply-adds already reaches the cap."""
    cap = (_GEMM_MACS - 1) // unit
    if length <= cap or cap == 0:
        return length
    return next(t for t in range(cap, 0, -1) if length % t == 0)


def _coaction_all(entries, w, n):
    """R[i] = sum_j u[i1 j1] ... u[in jn] (x) w[j] for every tuple i.

    entries has shape (k, k, d, d), w shape (k**n, r) for any width r and
    the result (k**n, d, d, r).  Positions are contracted from the right,
    so the matrix order of the word is preserved, and the running tensor
    stays laid out as (r, j_1..j_{s-1}, a, i_s..i_n, c), a being the row of
    the partial word: the pair (j_{s-1}, a) contracted next is adjacent, so
    no position copies.  Position n multiplies w, read as
    ((r j_1..j_{n-1}), j_n), by G[j, (a i c)] = u_ij[a, c]; each position
    s < n multiplies M[(a i), (j x)] = u_ij[a, x] into a reshape view of
    the running tensor.

    Every product is tiled below _GEMM_MACS multiply-adds, so the whole
    contraction runs on the calling thread.  Position n reads w as
    (-1, rows, k) tiles against a broadcast G; position s splits the
    trailing axis of its view into (-1, cols) and does one batched matmul
    over (batch, tile).  rows and cols are the largest divisors of their
    axes under the cap (_tile).  numpy's OpenBLAS 0.3.31 gives a zgemm of
    2**16 or more multiply-adds to its second thread (per-thread CPU
    ticks: 62 208 stayed on the caller, 65 536 moved); on two cores that
    thread burned as much CPU as the caller for no wall-time gain, and its
    hand-off sometimes stalled a k=4, n=6 call from 0.5 ms to 16 ms.  A
    tile splits rows or columns, never the summed index, so every entry
    keeps its value; only the sign of an exact zero may follow OpenBLAS's
    blocking.

    Every position reads one of the calling thread's two workspace
    buffers (see _workspace) and writes the other, so a call that does
    not grow them maps no fresh pages.  The result is a transposed view of
    the final (r, a, i_1..i_n, c) buffer: the caller may modify it in
    place, and it stays valid until the same thread calls _coaction_all
    again.  A caller that keeps it longer must copy it.  w must not be a
    view of the workspace.
    """
    k, d = entries.shape[0], entries.shape[2]
    r = w.shape[1]
    src, dst = _workspace(k, n, d, r)
    g = entries.transpose(1, 2, 0, 3).reshape(k, d * k * d)
    m = entries.transpose(2, 0, 1, 3).reshape(d * k, k * d)
    rows = _tile(r * k ** (n - 1), k * d * k * d)
    np.matmul(w.T.reshape(-1, rows, k), g, out=src.reshape(-1, rows, d * k * d))
    for s in range(n - 1, 0, -1):
        batch = r * k ** (s - 1)
        cols = _tile(k ** (n - s) * d, d * k * k * d)
        src_tiles, dst_tiles = (
            b.reshape(batch, k * d, -1, cols).transpose(0, 2, 1, 3) for b in (src, dst)
        )
        np.matmul(m, src_tiles, out=dst_tiles)
        src, dst = dst, src
    return src.reshape(r, d, k**n, d).transpose(2, 1, 3, 0)


def _coaction_charge(k, n, d, r=1):
    """(bytes, description) of one coaction buffer: k**n * d * d * r complex entries."""
    return 16 * k**n * d * d * r, f"coaction tensor with {k}^{n} {d}x{d} values of width {r}"


def _collapse_charge(k, n, d):
    """(bytes, description) of collapse_sum_all's working set over {1..k}^n.

    Three coaction tensors (the two workspace buffers and the returned
    copy) and the float seed of k**n entries.
    """
    what = f"coaction tensor with {k}^{n} {d}x{d} values in two workspace buffers and a copy"
    return 48 * k**n * d * d + 8 * k**n, f"collapse working set: the {what}, and its seed"


def ensure_projection(q):
    """Re-symmetrize and validate an orthogonal projection.

    Inputs are repaired by (q + q*)/2 only; a residual above DEFAULT_TOL
    after that is a hard error, since downstream identities rely on exact
    algebra.
    """
    q = as_matrix(q, name="projection")
    h = (q + q.conj().T) / 2
    with np.errstate(over="ignore", invalid="ignore"):
        residual = _worst([frobenius(q - h), frobenius(h @ h - h)])[0]
    if not residual <= DEFAULT_TOL:
        raise ValueError(f"matrix is not a projection (residual {residual:.2e})")
    return h


def from_permutation(sigma, d=1):
    """Magic unitary of a permutation: u_ij = delta(sigma(i), j) * identity.

    sigma is given as the sequence (sigma(1), ..., sigma(k)).
    """
    sigma = [int(s) for s in sigma]
    k = len(sigma)
    if sorted(sigma) != list(range(1, k + 1)):
        raise ValueError(f"{sigma} is not a permutation of 1..{k}")
    check_bytes(16 * k * k * d * d, f"a {k}x{k} magic unitary of {d}x{d} entries")
    entries = np.zeros((k, k, d, d), dtype=complex)
    for i, image in enumerate(sigma):
        entries[i, image - 1] = np.eye(d)
    return MagicUnitary(entries)


def block_chain(qs):
    """Block-diagonal 2r x 2r magic unitary from projections q_1..q_r.

    Each q contributes a 2x2 block [[q, 1-q], [1-q, q]].  Each q is validated
    as it is written, so no two re-symmetrized copies are held at once.
    """
    r = len(qs)
    if not r:
        raise ValueError("need at least one projection")
    for t, q in enumerate(qs):
        q = ensure_projection(q)
        if not t:
            d = q.shape[0]
            check_bytes(64 * r * r * d * d, f"a {2 * r}x{2 * r} magic unitary of {d}x{d} entries")
            entries = np.zeros((2 * r, 2 * r, d, d), dtype=complex)
            eye = np.eye(d)
        elif q.shape[0] != d:
            raise ValueError("all projections must share one dimension")
        entries[2 * t, 2 * t] = entries[2 * t + 1, 2 * t + 1] = q
        np.subtract(eye, q, out=entries[2 * t, 2 * t + 1])  # 1 - q, with no temporary
        entries[2 * t + 1, 2 * t] = entries[2 * t, 2 * t + 1]
    return MagicUnitary(entries)


def block_pair(q1, q2):
    """The 4 x 4 two-projection magic unitary."""
    return block_chain([q1, q2])


def _projection_from_rng(rng, d, rank):
    gauss = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q_mat, _ = np.linalg.qr(gauss)
    cols = q_mat[:, :rank]
    proj = cols @ cols.conj().T
    return (proj + proj.conj().T) / 2


def random_projection(d, rank, seed):
    """Deterministic pseudo-random rank-`rank` orthogonal projection in M_d."""
    if not 0 <= rank <= d:
        raise ValueError(f"rank must be in 0..{d}, got {rank}")
    check_bytes(16 * 7 * d * d, f"a {d}x{d} projection with its QR working set of 7 such arrays")
    if rank == 0:
        return np.zeros((d, d), dtype=complex)
    if rank == d:
        return np.eye(d, dtype=complex)
    return _projection_from_rng(np.random.default_rng(seed), d, rank)


def noncommuting_projection_pair(d, seed):
    """Seeded pair of rank-1 projections with commutator norm at least 0.01.

    Degenerate draws are discarded and resampled, so the pair is generic by
    construction while staying deterministic in the seed.
    """
    if d < 2:
        raise ValueError(f"no non-commuting projections exist in dimension d={d}")
    rng = np.random.default_rng(seed)
    for _ in range(100):
        p = _projection_from_rng(rng, d, 1)
        q = _projection_from_rng(rng, d, 1)
        if frobenius(p @ q - q @ p) >= 0.01:
            return p, q
    raise RuntimeError("no non-commuting pair found in 100 draws")


def _max_norm(stack):
    """The largest Frobenius norm of a stack of matrices, 0.0 for none (_worst)."""
    return _worst(np.linalg.norm(stack.reshape(-1, stack.shape[-2] * stack.shape[-1]), axis=1))[0]


def verify_relations(u, tol=DEFAULT_TOL):
    """Residual report: projections, row/column orthogonality and sums,
    and the derived orthogonality sum_k u_ik u_jk = delta_ij.  Orthogonality
    is read one row or column at a time, so no array is larger than u's
    k x k array of d x d entries."""
    ent = u.entries
    k, d = u.k, u.d
    eye = np.eye(d)
    off = ~np.eye(k, dtype=bool)

    res = {}
    res["hermitian"] = _max_norm(ent - ent.conj().transpose(0, 1, 3, 2))
    res["idempotent"] = _max_norm(np.einsum("ijab,ijbc->ijac", ent, ent) - ent)

    for name, lines in (("row_orthogonality", ent), ("column_orthogonality", ent.swapaxes(0, 1))):
        pairs = (np.einsum("kab,lbc->klac", line, line)[off] for line in lines)
        res[name] = _worst([_max_norm(p) for p in pairs])[0]

    res["row_sums"] = _max_norm(ent.sum(axis=1) - eye)
    res["column_sums"] = _max_norm(ent.sum(axis=0) - eye)

    gram_rows = np.einsum("ikab,jkbc->ijac", ent, ent)
    gram_rows[np.eye(k, dtype=bool)] -= eye
    res["orthogonal_matrix_rows"] = _max_norm(gram_rows)
    gram_cols = np.einsum("kiab,kjbc->ijac", ent, ent)
    gram_cols[np.eye(k, dtype=bool)] -= eye
    res["orthogonal_matrix_columns"] = _max_norm(gram_cols)
    return ResidualReport("magic unitary relations", res, tol)


def word_product(u, i, j):
    """Ordered product u_{i(1)j(1)} ... u_{i(n)j(n)} for 1-based index tuples."""
    i = tuple(i)
    j = tuple(j)
    if len(i) != len(j):
        raise ValueError(f"index tuples differ in length: {len(i)} vs {len(j)}")
    if not i:
        raise ValueError("index tuples must be nonempty")
    acc = u.entry(i[0], j[0]).copy()
    for a, b in zip(i[1:], j[1:]):
        acc = acc @ u.entry(a, b)
    return acc


def unsafe_bruteforce_sum(u, i, pi):
    """Sum of u-words over all j with ker j >= pi, for any partition pi.

    Computed literally as the sum with one free index per block of pi: the
    reference that collapse_sum_all is tested against.  For valid magic
    unitaries and non-crossing pi the result collapses to the identity when
    ker i >= pi and to zero otherwise; that collapse is what callers assert,
    not what this function assumes.  No non-crossing guard: for crossing pi
    the collapse can genuinely fail on non-commuting representations, and
    this entry point measures that.
    """
    i = tuple(i)
    if len(i) != pi.n:
        raise ValueError(f"index tuple length {len(i)} != partition size {pi.n}")
    which = {x: t for t, b in enumerate(pi.blocks) for x in b}  # the block of each position
    total = np.zeros((u.d, u.d), dtype=complex)
    for values in itertools.product(range(1, u.k + 1), repeat=pi.num_blocks):
        total += word_product(u, i, [values[which[x]] for x in range(1, pi.n + 1)])
    return total


def collapse_expected(i, pi):
    """Whether the collapse sum should equal the identity: ker i >= pi."""
    return leq(pi, kernel(i))


def collapse_sum_all(u, pi):
    """Collapse sums for every index tuple i at once.

    Returns a new array of shape (k,)*n + (d, d); entry [i1-1, ..., in-1]
    is unsafe_bruteforce_sum(u, (i1..in), pi).  Same block sum as that
    reference, evaluated as the coaction on the tensor
    1[ker j >= pi] and copied out of the coaction workspace.  The whole
    working set is charged before any work (_collapse_charge).
    """
    if not is_noncrossing(pi):
        raise ValueError("crossing partition rejected")
    check_bytes(*_collapse_charge(u.k, pi.n, u.d))
    w = kernel_indicator(pi, u.k).reshape(-1, 1).astype(float)
    return _coaction_all(u.entries, w, pi.n).reshape((u.k,) * pi.n + (u.d, u.d)).copy()


def kernel_indicator(pi, k):
    """Boolean array over {1..k}^n: True where the tuple is constant on each block."""
    grids = np.indices((k,) * pi.n, sparse=True)
    mask = np.ones((k,) * pi.n, dtype=bool)
    for x, lead in enumerate(_leaders(pi)):
        if lead != x:  # every element agrees with its block's leader
            mask &= grids[x] == grids[lead]
    return mask


def collapse_lemma_residual(u, n_max):
    """Largest Frobenius distance of a collapse sum from its target.

    Scans every non-crossing pi of n <= n_max points and every tuple i; the
    target is the identity where ker i >= pi and zero elsewhere.  The
    target is subtracted on the d x d diagonal of collapse_sum_all's copy
    in place, which gives the difference bitwise without building it.
    The partitions and the collapse sums of the longest length are charged
    before the first contraction.
    """
    _check_at_least("n_max", n_max, 1)
    check_bytes(*_noncrossing_charge(n_max))  # first: it is cheap for any n_max
    check_bytes(*_collapse_charge(u.k, n_max, u.d))
    devs = []
    for n in range(1, n_max + 1):
        for pi in enumerate_noncrossing(n):
            diff = collapse_sum_all(u, pi).reshape(-1, u.d, u.d)
            ind = kernel_indicator(pi, u.k).reshape(-1)
            for a in range(u.d):
                diff[:, a, a] -= ind
            devs.append(_max_norm(diff))
    return _worst(devs)[0]
