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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

import numpy as np

from .algebra import (
    BPolynomial,
    ConcreteMomentFunctional,
    _severity,
    center,
    frobenius,
    product_expectation,
)
from .cumulants import check_mixed_cumulants
from .magic import MagicUnitary, _coaction_all, ensure_projection
from .partitions import _pattern_table

DEFAULT_TOL = 1e-8


@dataclass
class TupleRecord:
    n: int
    indices: tuple
    residual: float


@dataclass
class InvarianceReport:
    """Worst residual per word length for one invariance check."""

    check: str
    tolerance: float
    per_length: list = field(default_factory=list)

    @property
    def worst(self):
        return max(self.per_length, key=lambda r: _severity(r.residual), default=None)

    @property
    def max_residual(self):
        w = self.worst
        return 0.0 if w is None else w.residual

    @property
    def passed(self):
        return self.max_residual <= self.tolerance

    def summary(self):
        lines = [f"{self.check} (tol={self.tolerance:g})"]
        for rec in self.per_length:
            mark = "ok" if rec.residual <= self.tolerance else "FAIL"
            lines.append(f"  n={rec.n}: residual {rec.residual:.3e} at i={rec.indices}  {mark}")
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


def _witness_index(residuals):
    """Flat index of the witness tuple of one length.

    The first tuple in C order whose residual is within 1e-12 relative of
    the maximum, or the first NaN or inf: many tuples often tie up to the
    last bit, and the witness must not move with rounding noise.
    """
    peak = residuals.max()
    return int(np.argmax(~np.isfinite(residuals) | (residuals >= peak * (1 - 1e-12))))


def _scan_lengths(mf, k, n_max, tol, make_seed, act, check_name):
    """Shared driver: build the tensor w per length, act on it, compare.

    make_seed(n) gives w with one row per tuple and act(w, n) a fresh
    (k**n, d, d, r) array.  The invariance identity holds exactly when
    act(w, n) equals I_d (x) w at every tuple, so w is subtracted in place
    on the d x d diagonal.
    """
    if mf.variable_count is not None and k > mf.variable_count:
        raise ValueError(
            f"k={k} needs {k} variables, functional has {mf.variable_count}"
        )
    per_length = []
    for n in range(1, n_max + 1):
        w = make_seed(n).reshape(k**n, -1)
        diffs = act(w, n)
        diag = np.arange(diffs.shape[1])
        diffs[:, diag, diag] -= w[:, None, :]
        residuals = np.linalg.norm(diffs.reshape(len(diffs), -1), axis=1)
        indices = np.unravel_index(_witness_index(residuals), (k,) * n)
        per_length.append(
            TupleRecord(n, tuple(int(x) + 1 for x in indices), float(residuals.max()))
        )
    return InvarianceReport(check=check_name, tolerance=tol, per_length=per_length)


def check_quantum_invariance(mf, u, n_max, tol=DEFAULT_TOL):
    """Compare phi(x_i...) against the magic-unitary coaction for all words.

    For each length n and tuple i the right-hand side is the j-sum of
    u-words weighted by phi(x_{j1}...x_{jn}); the identity demands it equal
    phi(x_{i1}...x_{in}) times the identity matrix.  Every tuple i of every
    length 1..n_max is checked.
    """
    return _scan_lengths(
        mf, u.k, n_max, tol, partial(mf.scalar_moment_tensor, u.k),
        partial(_coaction_all, u.entries), "quantum_invariance",
    )


def check_classical_exchangeability(mf, k, n_max, tol=DEFAULT_TOL):
    """Invariance of scalar moments under relabelling by permutations of 1..k.

    The orbits of S_k on {1..k}^n are the kernel classes, so the moments
    are invariant exactly when phi(x_i...) equals phi(x_p(i)...) for every
    tuple i, where p(i) is the canonical pattern of i.  Every tuple of
    every length 1..n_max is checked against its pattern.
    """
    def orbit_gather(w, n):
        ids, patterns = _pattern_table(k, n)
        reps = np.ravel_multi_index(tuple(zip(*patterns)), (k,) * n)
        return w[reps[ids]].reshape(-1, 1, 1, 1)

    return _scan_lengths(
        mf, k, n_max, tol, partial(mf.scalar_moment_tensor, k), orbit_gather,
        "classical_invariance",
    )


def check_E_invariance(mf, u, decorations=None, n_max=3, tol=DEFAULT_TOL):
    """The B-valued version of quantum invariance.

    u-entries and expectation values live in different algebras, so the
    identity is tested in their tensor product: the coaction of u acts on
    the tensor E[...], and the result must equal 1_d (x) E[...].  B must
    be commutative.  Like the scalar check, it scans every tuple of every
    length.
    """
    if isinstance(mf, ConcreteMomentFunctional):
        if not mf.context.subalgebra.is_commutative():
            raise ValueError("E-invariance check requires a commutative subalgebra B")
    if decorations is not None and len(decorations) < n_max - 1:
        raise ValueError(f"need at least {n_max - 1} decorations for n_max={n_max}")

    def make_seed(n):
        decs = None if decorations is None else list(decorations[: n - 1])
        return mf.expectation_tensor(u.k, n, decs)

    return _scan_lengths(
        mf, u.k, n_max, tol, make_seed, partial(_coaction_all, u.entries), "e_invariance"
    )


def check_factorization(mf, variables, polys, l):
    """Residual of pulling E through the polynomial at a unique position.

    The position l is 1-based; its variable index must not occur anywhere
    else in the tuple (that is a usage error, not a failed check).
    """
    variables = tuple(variables)
    polys = list(polys)
    if len(polys) != len(variables):
        raise ValueError("need one polynomial per variable")
    if not 1 <= l <= len(variables):
        raise ValueError(f"position l={l} outside 1..{len(variables)}")
    pivot = variables[l - 1]
    if any(v == pivot for pos, v in enumerate(variables, 1) if pos != l):
        raise ValueError(
            f"variable {pivot} at position {l} also occurs elsewhere in {variables}"
        )
    lhs = product_expectation(mf, polys, variables)
    mean = product_expectation(mf, [polys[l - 1]], [pivot])
    replaced = polys[: l - 1] + [BPolynomial.constant(mean)] + polys[l:]
    rhs = product_expectation(mf, replaced, variables)
    return frobenius(lhs - rhs)


def _random_polynomial(mf, rng, max_degree=2, words=2):
    word_list = []
    for _ in range(words):
        degree = int(rng.integers(1, max_degree + 1))
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
    vacuous: bool = False

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

    def summary(self):
        if self.vacuous:
            return "freeness: single variable, vacuously free  PASS"
        lines = [
            f"freeness (tol={self.tolerance:g})",
            f"  centered alternating products: max {self.centered_max:.3e} "
            f"at {self.centered_worst}  {'ok' if self.centered_pass else 'FAIL'}",
            f"  mixed cumulants:               max {self.mixed_max:.3e} "
            f"at {self.mixed_worst}  {'ok' if self.mixed_pass else 'FAIL'}",
        ]
        if not self.consistent:
            lines.append("  WARNING: the two criteria disagree")
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


def check_freeness(mf, variables, n_max=4, tol=DEFAULT_TOL, seed=0, polys_per_tuple=3):
    """Run both freeness criteria over the given variables.

    (a) every alternating product of E-centered polynomials has zero
    expectation; (b) every mixed cumulant vanishes.  The criteria agree in
    exact arithmetic; both residuals are reported.
    """
    values = sorted(set(variables))
    if len(values) < 2:
        return FreenessReport(0.0, (), 0.0, (), tol, vacuous=True)
    rng = np.random.default_rng(seed)
    centered_max = 0.0
    centered_worst = ()
    for m in range(2, n_max + 1):
        for tup in itertools.product(values, repeat=m):
            if any(tup[t] == tup[t + 1] for t in range(m - 1)):
                continue
            for _ in range(polys_per_tuple):
                polys = [
                    center(_random_polynomial(mf, rng), v, mf) for v in tup
                ]
                val = frobenius(product_expectation(mf, polys, tup))
                if _severity(val) > _severity(centered_max):
                    centered_max, centered_worst = val, tup
    cyclic = tuple(values[t % len(values)] for t in range(n_max))
    mixed = check_mixed_cumulants(mf, cyclic, tol=tol)
    return FreenessReport(
        centered_max=centered_max,
        centered_worst=centered_worst,
        mixed_max=mixed.max_mixed,
        mixed_worst=mixed.worst_tuple,
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
    permutation group.  All values are exact rationals.
    """
    if n not in (2, 3):
        raise ValueError("the commutative column model is only valid for n in {2, 3}")
    perms = list(itertools.permutations(range(1, n + 1)))
    count = len(perms)

    def column_indicator(row):
        # u_{row,1} as a 0/1 vector over the permutation atoms
        return [1 if sigma[row - 1] == 1 else 0 for sigma in perms]

    def psi(rows):
        vec = [1] * count
        for row in rows:
            ind = column_indicator(row)
            vec = [a * b for a, b in zip(vec, ind)]
        return Fraction(sum(vec), count)

    psi_u11 = psi([1])
    psi_u11_u21 = psi([1, 2])

    exchangeable = True
    for m in range(1, 4):
        for tup in itertools.product(range(1, n + 1), repeat=m):
            base = psi(tup)
            for sigma in perms:
                if psi([sigma[r - 1] for r in tup]) != base:
                    exchangeable = False

    # exact check of the defining relations on the function model
    relations = True
    atoms = range(count)

    def u(i, j):
        return [1 if perms[a][i - 1] == j else 0 for a in atoms]

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            vec = u(i, j)
            if any(v * v != v for v in vec):
                relations = False
        row_sum = [sum(u(i, j)[a] for j in range(1, n + 1)) for a in atoms]
        col_sum = [sum(u(j, i)[a] for j in range(1, n + 1)) for a in atoms]
        if any(v != 1 for v in row_sum + col_sum):
            relations = False
    for i in range(1, n + 1):
        for j1, j2 in itertools.combinations(range(1, n + 1), 2):
            if any(a * b != 0 for a, b in zip(u(i, j1), u(i, j2))):
                relations = False
            if any(a * b != 0 for a, b in zip(u(j1, i), u(j2, i))):
                relations = False

    free_prediction = psi_u11 * psi_u11
    contradiction = psi_u11_u21 != free_prediction and psi_u11 > 0
    return ColumnModelReport(
        n=n,
        psi_u11=psi_u11,
        psi_u11_u21=psi_u11_u21,
        free_prediction=free_prediction,
        exchangeable=exchangeable,
        relations_exact=relations,
        contradiction=contradiction,
    )
