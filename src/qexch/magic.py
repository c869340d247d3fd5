"""Finite-dimensional magic unitaries.

A magic unitary is a k x k array of d x d orthogonal projections whose rows
and columns each form a partition of unity.  Permutation matrices are the
commutative examples; block constructions from arbitrary projections give
genuinely non-commuting ones for k >= 4.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import _severity, as_matrix, frobenius
from .partitions import enumerate_noncrossing, is_noncrossing, kernel, leq

PROJECTION_TOL = 1e-8


class MagicUnitary:
    """k x k array of d x d projections; entries[i, j] is 0-indexed."""

    __slots__ = ("k", "d", "entries")

    def __init__(self, entries):
        arr = np.asarray(entries, dtype=complex)
        if arr.ndim != 4 or arr.shape[0] != arr.shape[1] or arr.shape[2] != arr.shape[3]:
            raise ValueError(f"entries must have shape (k, k, d, d), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("entries contain non-finite values")
        self.k = arr.shape[0]
        self.d = arr.shape[2]
        self.entries = arr

    def entry(self, i, j):
        """Entry u_ij with 1-based row and column indices."""
        if not (1 <= i <= self.k and 1 <= j <= self.k):
            raise ValueError(f"indices ({i}, {j}) outside 1..{self.k}")
        return self.entries[i - 1, j - 1]


def _coaction_all(entries, w, n):
    """R[i] = sum_j u[i1 j1] ... u[in jn] (x) w[j] for every tuple i.

    entries has shape (k, k, d, d), w shape (k**n, r) for any width r and
    the result (k**n, d, d, r).  Positions are contracted from the right,
    so the matrix order of the word is preserved: position n is one product
    of F[(i a c), j] = u_ij[a, c] with w, and each position s < n one
    matmul of M[(i a), (j x)] = u_ij[a, x] with the running tensor laid out
    as ((j_s x), c, j_1..j_{s-1}, i_{s+1}..i_n, b), after i_{s+1} and j_s
    trade places: the one copy a position costs.
    """
    k, d = entries.shape[0], entries.shape[2]
    f = entries.transpose(0, 2, 3, 1).reshape(k * d * d, k)
    m = entries.transpose(0, 2, 1, 3).reshape(k * d, k * d)
    t = f @ w.reshape(k ** (n - 1), k, -1).transpose(1, 0, 2).reshape(k, -1)
    for s in range(n - 1, 0, -1):
        t = t.reshape(k, d, d, k ** (s - 1), k, -1).swapaxes(0, 4)
        t = m @ t.reshape(k * d, -1)
    # ((i_1 a c), i_2..i_n, b) -> (i_1..i_n, a, c, b)
    t = t.reshape(k, d, d, k ** (n - 1), -1).transpose(0, 3, 1, 2, 4)
    return t.reshape(k**n, d, d, -1)


def ensure_projection(q, tol=PROJECTION_TOL):
    """Re-symmetrize and validate an orthogonal projection.

    Inputs are repaired by (q + q*)/2 only; a residual above tol after that
    is a hard error, since downstream identities rely on exact algebra.
    """
    q = as_matrix(q, name="projection")
    h = (q + q.conj().T) / 2
    with np.errstate(over="ignore", invalid="ignore"):
        residual = max(frobenius(q - h), frobenius(h @ h - h), key=_severity)
    if not residual <= tol:
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
    entries = np.zeros((k, k, d, d), dtype=complex)
    for i, image in enumerate(sigma):
        entries[i, image - 1] = np.eye(d)
    return MagicUnitary(entries)


def block_chain(qs):
    """Block-diagonal 2r x 2r magic unitary from projections q_1..q_r.

    Each q contributes a 2x2 block [[q, 1-q], [1-q, q]].
    """
    qs = [ensure_projection(q) for q in qs]
    if not qs:
        raise ValueError("need at least one projection")
    d = qs[0].shape[0]
    if any(q.shape[0] != d for q in qs):
        raise ValueError("all projections must share one dimension")
    r = len(qs)
    eye = np.eye(d)
    entries = np.zeros((2 * r, 2 * r, d, d), dtype=complex)
    for t, q in enumerate(qs):
        entries[2 * t, 2 * t] = q
        entries[2 * t, 2 * t + 1] = eye - q
        entries[2 * t + 1, 2 * t] = eye - q
        entries[2 * t + 1, 2 * t + 1] = q
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
    if rank == 0:
        return np.zeros((d, d), dtype=complex)
    if rank == d:
        return np.eye(d, dtype=complex)
    return _projection_from_rng(np.random.default_rng(seed), d, rank)


def noncommuting_projection_pair(d, seed, min_commutator=0.01, max_tries=100):
    """Seeded pair of rank-1 projections with commutator norm at least the floor.

    Degenerate draws are discarded and resampled, so the pair is generic by
    construction while staying deterministic in the seed.
    """
    if d < 2:
        raise ValueError(f"no non-commuting projections exist in dimension d={d}")
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        p = _projection_from_rng(rng, d, 1)
        q = _projection_from_rng(rng, d, 1)
        if frobenius(p @ q - q @ p) >= min_commutator:
            return p, q
    raise RuntimeError(f"no non-commuting pair found in {max_tries} draws")


@dataclass
class RelationsReport:
    """Residuals of the defining relations plus the derived orthogonality."""

    residuals: dict
    tolerance: float

    @property
    def max_residual(self):
        return max(self.residuals.values(), key=_severity)

    @property
    def passed(self):
        return self.max_residual <= self.tolerance

    def summary(self):
        lines = [f"magic unitary relations (tol={self.tolerance:g})"]
        for name, value in self.residuals.items():
            mark = "ok" if value <= self.tolerance else "FAIL"
            lines.append(f"  {name:<22s} {value:.3e}  {mark}")
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


def _max_norm(stack):
    flat = np.asarray(stack).reshape(-1, stack.shape[-2] * stack.shape[-1])
    if flat.size == 0:
        return 0.0
    return float(np.linalg.norm(flat, axis=1).max())


def verify_relations(u, tol=1e-9):
    """Residual report: projections, row/column orthogonality and sums,
    and the derived orthogonality sum_k u_ik u_jk = delta_ij."""
    ent = u.entries
    k, d = u.k, u.d
    eye = np.eye(d)
    off = ~np.eye(k, dtype=bool)

    res = {}
    res["hermitian"] = _max_norm(ent - ent.conj().transpose(0, 1, 3, 2))
    res["idempotent"] = _max_norm(np.einsum("ijab,ijbc->ijac", ent, ent) - ent)

    row_pairs = np.einsum("ikab,ilbc->kliac", ent, ent)
    res["row_orthogonality"] = _max_norm(row_pairs[off])
    col_pairs = np.einsum("kiab,libc->kliac", ent, ent)
    res["column_orthogonality"] = _max_norm(col_pairs[off])

    res["row_sums"] = _max_norm(ent.sum(axis=1) - eye)
    res["column_sums"] = _max_norm(ent.sum(axis=0) - eye)

    gram_rows = np.einsum("ikab,jkbc->ijac", ent, ent)
    gram_rows[np.eye(k, dtype=bool)] -= eye
    res["orthogonal_matrix_rows"] = _max_norm(gram_rows)
    gram_cols = np.einsum("kiab,kjbc->ijac", ent, ent)
    gram_cols[np.eye(k, dtype=bool)] -= eye
    res["orthogonal_matrix_columns"] = _max_norm(gram_cols)
    return RelationsReport(residuals=res, tolerance=tol)


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


def interval_collapse_sum(u, i, pi):
    """Sum of u-words over all j with ker j >= pi, for non-crossing pi.

    Computed literally as the sum with one free index per block of pi.
    For valid magic unitaries the result collapses to the identity when
    ker i >= pi and to zero otherwise; that collapse is what callers
    assert, not what this function assumes.
    """
    if not is_noncrossing(pi):
        raise ValueError(
            "crossing partition rejected; use unsafe_bruteforce_sum to probe it"
        )
    return unsafe_bruteforce_sum(u, i, pi)


def unsafe_bruteforce_sum(u, i, pi):
    """The same block sum without the non-crossing guard.

    For crossing partitions the collapse identity can genuinely fail on
    non-commuting representations; this entry point exists to measure that.
    """
    i = tuple(i)
    if len(i) != pi.n:
        raise ValueError(f"index tuple length {len(i)} != partition size {pi.n}")
    blocks = pi.blocks
    total = np.zeros((u.d, u.d), dtype=complex)
    j = [0] * pi.n
    for values in itertools.product(range(1, u.k + 1), repeat=len(blocks)):
        for block, v in zip(blocks, values):
            for pos in block:
                j[pos - 1] = v
        total += word_product(u, i, j)
    return total


def collapse_expected(i, pi):
    """Whether the collapse sum should equal the identity: ker i >= pi."""
    return leq(pi, kernel(i))


def collapse_sum_all(u, pi):
    """Collapse sums for every index tuple i at once.

    Returns an array of shape (k,)*n + (d, d); entry [i1-1, ..., in-1] is
    interval_collapse_sum(u, (i1..in), pi).  Same block sum as the scalar
    entry point, evaluated as the coaction on the tensor 1[ker j >= pi].
    """
    if not is_noncrossing(pi):
        raise ValueError("crossing partition rejected")
    w = kernel_indicator(pi, u.k).reshape(-1, 1).astype(float)
    return _coaction_all(u.entries, w, pi.n).reshape((u.k,) * pi.n + (u.d, u.d))


def kernel_indicator(pi, k):
    """Boolean array over {1..k}^n: True where the tuple is constant on each block."""
    n = pi.n
    grids = np.indices((k,) * n)
    mask = np.ones((k,) * n, dtype=bool)
    for block in pi.blocks:
        first = block[0] - 1
        for pos in block[1:]:
            mask &= grids[first] == grids[pos - 1]
    return mask


def collapse_lemma_residual(u, n_max):
    """Largest Frobenius distance of a collapse sum from its target.

    Scans every non-crossing pi of n <= n_max points and every tuple i; the
    target is the identity where ker i >= pi and zero elsewhere.
    """
    eye = np.eye(u.d)
    devs = []
    for n in range(1, n_max + 1):
        for pi in enumerate_noncrossing(n):
            target = kernel_indicator(pi, u.k)[..., None, None] * eye
            diff = (collapse_sum_all(u, pi) - target).reshape(-1, u.d * u.d)
            devs.append(np.linalg.norm(diff, axis=1).max())
    # np.max, unlike max(), lets a NaN through
    return float(np.max(devs, initial=0.0))
