"""Distribution-invariance verifiers.

Each check compares a moment oracle against the coaction of a magic
unitary (or of the plain permutation group), reports the worst residual
and where it occurred, and never raises on a failed identity - only on
malformed input.  All three invariance scans are exhaustive: every
index tuple of every length up to n_max gets a residual.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    BPolynomial,
    ConcreteMomentFunctional,
    _check_at_least,
    _worst,
    center,
    check_bytes,
    frobenius,
    product_expectation,
)
from .cumulants import _check_order, check_mixed_cumulants
from .magic import (
    MagicUnitary, _coaction_all, _coaction_charge, ensure_projection, verify_relations,
)
from .partitions import _pattern_table, _pattern_table_charge, canonical_pattern

# oracle -> {(k, n): read-only scalar moment tensor}, kept by its last scan (_scan_lengths)
_kept = weakref.WeakKeyDictionary()


@dataclass
class TupleRecord:
    n: int
    indices: tuple
    residual: float


@dataclass
class InvarianceReport:
    """Worst residual per word length for one invariance check."""

    tolerance: float
    per_length: list = field(default_factory=list)

    @property
    def worst(self):
        """The record of the first length whose residual is within 1e-12 relative of the largest."""
        at = _worst([r.residual for r in self.per_length])[1]
        return None if at is None else self.per_length[at]

    @property
    def max_residual(self):
        return _worst([r.residual for r in self.per_length])[0]

    @property
    def passed(self):
        return self.max_residual <= self.tolerance


def _check_scan(mf, k, n, u, r, decorations=0):
    """Check a scan of lengths 1..n before any work: the oracle's request, then one charge at
    length n of every length's seed (r complex entries per tuple) and the decorations, 20
    bytes per tuple of residuals and witness masks, and the request's arrays with u's two
    workspace buffers and the seed's copy that _coaction_all reads, or for u = None the
    larger of the request and the kernel-pattern table with the orbit gather's index and
    value per tuple: the gather and its table come after the request's arrays are freed."""
    mf._check_tensor(k, n)  # the length first: the charges compute k**n
    request = sum(nbytes for nbytes, _ in mf._tensor_charges(k, n))
    if u is None:
        table, what = _pattern_table_charge(k, n)
        acting = max(request, table + 24 * k**n)
    else:
        buffer, what = _coaction_charge(k, n, u.d, r)
        acting, what = request + 2 * buffer + 16 * r * k**n, f"{what} in two workspace buffers"
    seeds = 16 * r * (sum(k**m for m in range(1, n + 1)) + decorations)
    check_bytes(seeds + acting + 20 * k**n, f"scan working set: the {what}, the moment "
                f"tensors of lengths 1..{n} and their residuals")


def _orbit_gather(k, w, n):
    """w read at each tuple's kernel pattern, in the layout of _coaction_all's result."""
    ids, rows = _pattern_table(k, n)
    reps = np.ravel_multi_index(rows.T, (k,) * n)
    return w[reps[ids]].T.reshape(-1, 1, k**n, 1).transpose(2, 1, 3, 0)


def _scan_lengths(mf, k, n_max, tol, u=None, decorations=None):
    """Shared driver: build the tensor w per length, act on it with u's coaction
    (S_k's for u = None: _orbit_gather), compare.

    w is mf's scalar moment tensor, kept for mf read-only (_kept), or given
    decorations its expectation tensor decorated by the first n - 1.  Every kept
    tensor the scan will not read is dropped before the charge; each scan fills
    its own dict, so threads scanning one oracle may rebuild a tensor, never read
    a wrong one.  The action gives a (k**n, d, d, r) transposed view of a
    C-ordered (r, d, k**n, d) buffer, maybe in _coaction_all's per-thread
    workspace.  The identity holds exactly when it equals I_d (x) w at every
    tuple, so w is subtracted in place on its d x d diagonal and each tuple's
    residual is reduced from it in one pass, before the next action.
    """
    _check_at_least("k", k, 1)
    _check_at_least("n_max", n_max, 1)
    kept = _kept[mf] = {key: t for key, t in _kept.get(mf, {}).copy().items()
                        if decorations is None and key[0] == k and key[1] <= n_max}
    _check_scan(mf, k, n_max, u, 1 if decorations is None else mf.b_dim**2)
    act = partial(_orbit_gather, k) if u is None else partial(_coaction_all, u.entries)
    per_length = []
    for n in range(1, n_max + 1):
        if decorations is not None:
            w = mf.expectation_tensor(k, n, list(decorations[: n - 1]))
        elif (w := kept.get((k, n))) is None:
            w = kept[k, n] = mf.scalar_moment_tensor(k, n)
            w.flags.writeable = False
        w = w.reshape(k**n, -1)
        diffs = act(w, n).transpose(3, 1, 0, 2)
        for a in range(diffs.shape[1]):
            diffs[:, a, :, a] -= w.T
        v = diffs.view(float)
        residuals = np.einsum("raic,raic->i", v, v)
        np.sqrt(residuals, out=residuals)  # in place: a second array per length cost page faults
        peak, at = _worst(residuals)  # the witness: the first tuple in C order near the peak
        at = np.unravel_index(at, (k,) * n)
        per_length.append(TupleRecord(n, tuple(int(x) + 1 for x in at), peak))
    return InvarianceReport(tolerance=tol, per_length=per_length)


def check_quantum_invariance(mf, u, n_max, tol=DEFAULT_TOL):
    """Compare phi(x_i...) against the magic-unitary coaction for all words.

    For each length n and tuple i the right-hand side is the j-sum of
    u-words weighted by phi(x_{j1}...x_{jn}); the identity demands it equal
    phi(x_{i1}...x_{in}) times the identity matrix.  Every tuple i of every
    length 1..n_max is checked.
    """
    return _scan_lengths(mf, u.k, n_max, tol, u)


def check_classical_exchangeability(mf, k, n_max, tol=DEFAULT_TOL):
    """Invariance of scalar moments under relabelling by permutations of 1..k.

    The orbits of S_k on {1..k}^n are the kernel classes, so the moments
    are invariant exactly when phi(x_i...) equals phi(x_p(i)...) for every
    tuple i, where p(i) is the canonical pattern of i.  Every tuple of
    every length 1..n_max is checked against its pattern, whose table the
    scan charges with its working set.
    """
    return _scan_lengths(mf, k, n_max, tol)


def check_E_invariance(mf, u, decorations, n_max, tol=DEFAULT_TOL):
    """The B-valued version of quantum invariance.

    u-entries and expectation values live in different algebras, so the
    identity is tested in their tensor product: the coaction of u acts on
    the tensor E[...], and the result must equal 1_d (x) E[...], a word of
    length n decorated by the first n - 1 decorations.  B must be
    commutative.  Like the scalar check, it scans every tuple of every length.
    """
    if isinstance(mf, ConcreteMomentFunctional) and not mf.context.is_commutative():
        raise ValueError("E-invariance check requires a commutative subalgebra B")
    if len(decorations) < n_max - 1:
        raise ValueError(f"need at least {n_max - 1} decorations for n_max={n_max}")
    return _scan_lengths(mf, u.k, n_max, tol, u, decorations)


def _factorization_pivot(variables, l):
    """The variable at the 1-based position l, which must occur nowhere else in variables."""
    variables = tuple(variables)
    if not 1 <= l <= len(variables):
        raise ValueError(f"position l={l} outside 1..{len(variables)}")
    pivot = variables[l - 1]
    if variables.count(pivot) > 1:
        raise ValueError(f"variable {pivot} at position {l} also occurs elsewhere in {variables}")
    return pivot


def check_factorization(mf, variables, polys, l):
    """Residual of pulling E through the polynomial at a unique position.

    The position l is 1-based; its variable index must not occur anywhere
    else in the tuple (that is a usage error, not a failed check).  The
    oracle's kept tensors are dropped first; none is read.
    """
    _kept.pop(mf, None)
    variables, polys = tuple(variables), list(polys)  # lhs checks one polynomial per variable
    pivot = _factorization_pivot(variables, l)
    lhs = product_expectation(mf, polys, variables)
    mean = product_expectation(mf, [polys[l - 1]], [pivot])
    # not validated: a non-finite mean must surface in the residual
    replaced = polys[: l - 1] + [BPolynomial._from_words(mean.shape[0], ((mean,),))] + polys[l:]
    rhs = product_expectation(mf, replaced, variables)
    return frobenius(lhs - rhs)


def _random_polynomial(mf, rng):
    """Two words, each of degree 1 or 2, with coefficients drawn by mf.random_coeff."""
    word_list = []
    for _ in range(2):
        degree = int(rng.integers(1, 3))
        word_list.append(tuple(mf.random_coeff(rng) for _ in range(degree + 1)))
    return BPolynomial(word_list)


@dataclass
class FreenessReport:
    """Both freeness criteria: centered alternating products and mixed cumulants."""

    centered_max: float
    centered_worst: tuple
    mixed_max: float
    mixed_worst: tuple
    tolerance: float

    @property
    def centered_pass(self):
        return self.centered_max <= self.tolerance

    @property
    def mixed_pass(self):
        return self.mixed_max <= self.tolerance

    @property
    def consistent(self):
        return self.centered_pass == self.mixed_pass

    @property
    def passed(self):
        return self.centered_pass and self.mixed_pass


def check_freeness(mf, variables, n_max, tol=DEFAULT_TOL, seed=0):
    """Run both freeness criteria over the given variables.

    (a) every alternating product of E-centered random polynomials, three
    draws per tuple, has zero expectation; (b) every mixed cumulant
    vanishes.  The criteria agree in exact arithmetic; both residuals are
    reported.  The oracle's kept tensors are dropped first; none is read.
    """
    _check_at_least("n_max", n_max, 2)  # the shortest alternating product
    _kept.pop(mf, None)
    _check_order(n_max)  # the longest mixed cumulant
    values = sorted(set(variables))
    for v in values:  # a single variable passes, but only one that exists
        mf._check_word((v,), None)
    if len(values) < 2:
        return FreenessReport(0.0, (), 0.0, (), tol)
    # the longest product word, n_max factors of degree at most 2, before the first draw
    mf._check_word(values[:1] * (2 * n_max), None)
    rng = np.random.default_rng(seed)
    # a leading 0 with no tuple: a criterion whose residuals are all 0 names no witness
    tuples, vals = [()], [0.0]
    for m in range(2, n_max + 1):
        for tup in itertools.product(values, repeat=m):
            if any(tup[t] == tup[t + 1] for t in range(m - 1)):
                continue
            for _ in range(3):
                polys = [
                    center(_random_polynomial(mf, rng), v, mf) for v in tup
                ]
                vals.append(frobenius(product_expectation(mf, polys, tup)))
                tuples.append(tup)
    centered_max, at = _worst(vals)
    mixed = check_mixed_cumulants(mf, values, n_max, tol=tol)
    return FreenessReport(
        centered_max=centered_max,
        centered_worst=tuples[at],
        mixed_max=mixed.max_residual,
        mixed_worst=mixed.witnesses["mixed_cumulant"],
        tolerance=tol,
    )


def crossing_sum_probe(p, q, s, variant="plain"):
    """The two-projection power sums that obstruct crossing kernels.

    plain:  (pq)^s + (p q')^s + (p' q)^s + (p' q')^s
    capped: the same powers multiplied back by p or p' on the right,
    where primes denote complements.  Returns (matrix, Frobenius distance
    from the identity); the distance vanishes exactly when p and q commute.
    """
    if s < 2:
        raise ValueError(f"power s must be >= 2, got {s}")
    if variant not in ("plain", "capped"):
        raise ValueError(f"unknown variant {variant!r}")
    p = ensure_projection(p)
    q = ensure_projection(q)
    if p.shape != q.shape:
        raise ValueError("projections must have the same dimension")
    d = p.shape[0]
    eye = np.eye(d)
    pc, qc = eye - p, eye - q
    pairs = [(p, q, p), (p, qc, p), (pc, q, pc), (pc, qc, pc)]
    total = np.zeros((d, d), dtype=complex)
    for left, right, cap in pairs:
        power = np.linalg.matrix_power(left @ right, s)
        total += power @ cap if variant == "capped" else power
    return total, frobenius(total - eye)


def permutation_coordinate_unitary(n):
    """Coordinate functions on the permutations of n points, as a magic unitary.

    The algebra of functions on S_n is realized diagonally on C^{n!}; the
    (i, j) entry is the indicator of sigma(i) = j.  For n <= 3 this is the
    whole story: no non-commuting representations exist.
    """
    perms = list(itertools.permutations(range(1, n + 1)))
    size = len(perms)
    entries = np.zeros((n, n, size, size), dtype=complex)
    for which, sigma in enumerate(perms):
        for i in range(1, n + 1):
            entries[i - 1, sigma[i - 1] - 1, which, which] = 1.0
    return MagicUnitary(entries)


@dataclass
class ColumnModelReport:
    """Exact arithmetic of the first-column model over the permutation group."""

    n: int
    psi_u11: Fraction
    psi_u11_u21: Fraction
    free_prediction: Fraction
    exchangeable: bool
    relations_exact: bool
    contradiction: bool

    @property
    def passed(self):
        return self.exchangeable and self.relations_exact and self.contradiction

    def summary(self):
        lines = [
            f"column model over the permutations of {self.n} points "
            f"(uniform state on {math.factorial(self.n)} atoms)",
            f"  psi(u11)        = {self.psi_u11}",
            f"  psi(u11 u21)    = {self.psi_u11_u21}",
            f"  column exchangeable under relabelling: {self.exchangeable}",
            f"  defining relations hold exactly:       {self.relations_exact}",
            "  identical distribution + freeness over C*1 would force "
            f"psi(u11 u21) = psi(u11)^2 = {self.free_prediction},",
            f"  but psi(u11 u21) = {self.psi_u11_u21}; hence psi(u11) would be 0, "
            f"contradicting psi(u11) = {self.psi_u11} > 0: "
            + ("CONTRADICTION ESTABLISHED" if self.contradiction else "no contradiction"),
        ]
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


def finite_counterexample(n):
    """Quantum-exchangeable but not free: the first column of the n-point model.

    Supported for n in {2, 3}, where every magic unitary representation
    commutes and the invariant state is the uniform average over the
    permutation group.  The model is permutation_coordinate_unitary(n),
    whose entries are 0/1 diagonals over its atoms, so every value is an
    exact rational.  The column is exchangeable when psi of every row
    tuple of length <= 3 equals psi of its kernel pattern, the orbit
    representative under relabelling.
    """
    if n not in (2, 3):
        raise ValueError("the commutative column model is only valid for n in {2, 3}")
    u = permutation_coordinate_unitary(n)
    column = np.diagonal(u.entries[:, 0], axis1=1, axis2=2).real

    def psi(rows):
        # the uniform state of a product of diagonals: its atom count over u.d
        return Fraction(float(column[[r - 1 for r in rows]].prod(axis=0).sum())) / u.d

    psi_u11 = psi([1])
    psi_u11_u21 = psi([1, 2])
    exchangeable = all(
        psi(t) == psi([p + 1 for p in canonical_pattern(t)])
        for m in range(1, 4)
        for t in itertools.product(range(1, n + 1), repeat=m)
    )
    free_prediction = psi_u11 * psi_u11
    contradiction = psi_u11_u21 != free_prediction and psi_u11 > 0
    return ColumnModelReport(
        n=n,
        psi_u11=psi_u11,
        psi_u11_u21=psi_u11_u21,
        free_prediction=free_prediction,
        exchangeable=exchangeable,
        relations_exact=verify_relations(u, tol=0.0).passed,
        contradiction=contradiction,
    )
