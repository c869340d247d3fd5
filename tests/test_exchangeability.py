"""Invariance checkers, freeness detection, the crossing probe, and the column model."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qexch.algebra import (
    BPolynomial,
    ConcreteMomentFunctional,
    pinching_context,
    scalar_context,
)
from qexch.cumulants import (
    CumulantMomentFunctional,
    check_mixed_cumulants,
    random_spec,
    semicircular_spec,
)
from qexch.exchangeability import (
    InvarianceReport,
    TupleRecord,
    _witness_index,
    check_classical_exchangeability,
    check_E_invariance,
    check_factorization,
    check_freeness,
    check_quantum_invariance,
    crossing_sum_probe,
    finite_counterexample,
    permutation_coordinate_unitary,
)
from qexch.magic import (
    MagicUnitary,
    _coaction_all,
    block_chain,
    block_pair,
    from_permutation,
    noncommuting_projection_pair,
    random_projection,
    verify_relations,
    word_product,
)


def bernoulli_functional(count=4):
    """count commuting independent +-1 variables, uniform product state."""
    dim = 2**count
    elements = []
    for t in range(count):
        diag = np.array(
            [1.0 - 2.0 * ((b >> (count - 1 - t)) & 1) for b in range(dim)]
        )
        elements.append(np.diag(diag).astype(complex))
    ctx = scalar_context(np.eye(dim) / dim)
    return ConcreteMomentFunctional(ctx, elements)


def spectral_projection_pair(d, seed):
    """Two exactly commuting projections built from one eigenbasis."""
    rng = np.random.default_rng(seed)
    gauss = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    basis, _ = np.linalg.qr(gauss)
    p = np.outer(basis[:, 0], basis[:, 0].conj())
    q = np.outer(basis[:, 1], basis[:, 1].conj())
    return (p + p.conj().T) / 2, (q + q.conj().T) / 2


# -- quantum invariance ----------------------------------------------------------

def test_free_semicircular_is_quantum_invariant():
    mf = CumulantMomentFunctional(semicircular_spec())
    u = block_pair(*noncommuting_projection_pair(2, seed=3))
    report = check_quantum_invariance(mf, u, n_max=6)
    assert report.passed
    assert report.max_residual <= 1e-8


def test_random_free_spec_invariant_on_larger_unitary():
    rng = np.random.default_rng(0)
    mf = CumulantMomentFunctional(random_spec(rng, 5))
    p, q = noncommuting_projection_pair(2, seed=5)
    u = block_chain([p, q, random_projection(2, 1, seed=6)])
    report = check_quantum_invariance(mf, u, n_max=5)
    assert report.passed


def test_permutation_unitary_reduces_to_classical_invariance():
    mf = bernoulli_functional()
    u = from_permutation([2, 1, 4, 3], d=2)
    report = check_quantum_invariance(mf, u, n_max=4)
    assert report.passed
    assert report.max_residual <= 1e-12


def test_classical_bernoulli_fails_quantum_invariance():
    mf = bernoulli_functional()
    u = block_pair(*noncommuting_projection_pair(2, seed=11))
    report = check_quantum_invariance(mf, u, n_max=4)
    assert not report.passed
    worst = report.worst
    assert worst.n == 4
    assert worst.residual > 0.01


def test_unitary_larger_than_family_rejected():
    mf = bernoulli_functional(count=2)
    u = block_pair(*noncommuting_projection_pair(2, seed=1))
    with pytest.raises(ValueError):
        check_quantum_invariance(mf, u, n_max=2)


def test_long_words_scanned_exhaustively():
    mf = CumulantMomentFunctional(semicircular_spec())
    u = block_pair(*noncommuting_projection_pair(2, seed=2))
    report = check_quantum_invariance(mf, u, n_max=9)
    assert report.passed
    assert len(report.per_length) == 9


def test_witness_ignores_last_bit_noise_on_ties():
    rng = np.random.default_rng(0)
    residuals = np.full(64, 0.68712)
    residuals[:10] = 0.5
    for _ in range(50):
        step = rng.integers(-1, 2, size=residuals.size)
        toward = np.copysign(np.inf, step)
        noisy = np.where(step == 0, residuals, np.nextafter(residuals, toward))
        assert _witness_index(noisy) == 10


def test_witness_is_first_non_finite_residual():
    assert _witness_index(np.array([1.0, np.inf, np.nan, 2.0])) == 1
    assert _witness_index(np.array([1.0, 2.0, np.nan, np.inf])) == 2
    assert _witness_index(np.zeros(5)) == 0


class _NaNAtLength(CumulantMomentFunctional):
    """A free family whose moment tensor carries one NaN at word length `bad`."""

    def __init__(self, spec, bad):
        super().__init__(spec)
        self.bad = bad

    def scalar_moment_tensor(self, k, n):
        phi = super().scalar_moment_tensor(k, n)
        if n == self.bad:
            phi = phi.copy()
            phi.reshape(-1)[-1] = np.nan
        return phi


@pytest.mark.parametrize("bad", [1, 3])
def test_nan_residual_at_any_length_fails(bad):
    mf = _NaNAtLength(semicircular_spec(), bad)
    u = block_pair(*noncommuting_projection_pair(2, seed=3))
    report = check_quantum_invariance(mf, u, n_max=3)
    assert not report.passed
    assert report.worst.n == bad
    assert np.isnan(report.max_residual)


@pytest.mark.parametrize(
    "residuals", [[np.nan, 1e-16], [1e-16, np.nan], [1e-16, np.inf, 1e-16]]
)
def test_invariance_report_non_finite_is_worst(residuals):
    report = InvarianceReport(
        check="quantum_invariance",
        tolerance=1e-8,
        per_length=[TupleRecord(n, (1,) * n, r) for n, r in enumerate(residuals, 1)],
    )
    assert not np.isfinite(report.worst.residual)
    assert not report.passed
    assert "FAIL" in report.summary().splitlines()[-1]


class _NaNMixedAtLength4(CumulantMomentFunctional):
    """A free family whose mixed moments of length 4 are NaN."""

    def moment(self, variables, coeffs=None):
        value = super().moment(variables, coeffs)
        return value * np.nan if len(variables) == 4 and len(set(variables)) > 1 else value


def test_nan_mixed_moment_fails_freeness():
    report = check_freeness(_NaNMixedAtLength4(semicircular_spec()), (1, 2), n_max=4)
    assert np.isnan(report.centered_max) and np.isnan(report.mixed_max)
    assert not report.centered_pass and not report.mixed_pass
    assert not report.passed


def test_nan_mixed_moment_fails_mixed_cumulants():
    report = check_mixed_cumulants(_NaNMixedAtLength4(semicircular_spec()), (1, 2, 1, 2))
    assert np.isnan(report.max_mixed)
    assert report.worst_tuple == (1, 1, 1, 2)  # the first mixed tuple of length 4
    assert not report.passed


def test_nan_moment_fails_classical_exchangeability():
    mf = _NaNAtLength(semicircular_spec(), 2)
    report = check_classical_exchangeability(mf, 3, 3)
    assert not report.passed
    assert report.worst.n == 2


# -- the coaction kernel against the literal j-sum ----------------------------------------

def _literal_coaction(u, w, n):
    """sum_j word_product(u, i, j) (x) w[j] for every tuple i, one word at a time."""
    tuples = list(itertools.product(range(1, u.k + 1), repeat=n))
    out = np.zeros((len(tuples), u.d, u.d, w.shape[1]), dtype=complex)
    for a, i in enumerate(tuples):
        for b, j in enumerate(tuples):
            out[a] += np.multiply.outer(word_product(u, i, j), w[b])
    return out


def _random_w(rng, count, r):
    return rng.standard_normal((count, r)) + 1j * rng.standard_normal((count, r))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    st.sampled_from(["block_chain", "permutation"]),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
def test_coaction_kernel_matches_literal_sum(kind, blocks, n, d, seed):
    # the scalar path: r = 1
    rng = np.random.default_rng(seed)
    if kind == "block_chain":
        u = block_chain([random_projection(d, int(rng.integers(0, d + 1)), (seed, t))
                         for t in range(blocks)])
    else:
        u = from_permutation(rng.permutation(2 * blocks) + 1, d=d)
    w = _random_w(rng, u.k**n, 1)
    got = _coaction_all(u.entries, w, n)
    assert got.shape == (u.k**n, d, d, 1)
    assert np.max(np.abs(got - _literal_coaction(u, w, n))) <= 1e-12


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    st.sampled_from(["block_chain", "permutation"]),
    st.integers(1, 2),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
def test_coaction_kernel_matches_literal_sum_on_rectangular_seed(kind, blocks, n, m, seed):
    # the E-invariance path: w[j] is an m x m value flattened to r = m * m
    rng = np.random.default_rng(seed)
    d = 2
    if kind == "block_chain":
        u = block_chain([random_projection(d, 1, (seed, t)) for t in range(blocks)])
    else:
        u = from_permutation(rng.permutation(2 * blocks) + 1, d=d)
    w = _random_w(rng, u.k**n, m * m)
    got = _coaction_all(u.entries, w, n)
    assert got.shape == (u.k**n, d, d, m * m)
    assert np.max(np.abs(got - _literal_coaction(u, w, n))) <= 1e-12


# -- classical exchangeability ------------------------------------------------------

def test_iid_diagonal_model_classically_exchangeable():
    mf = bernoulli_functional()
    report = check_classical_exchangeability(mf, 4, 4)
    assert report.passed
    assert report.max_residual == 0.0


def test_cumulant_backed_family_classically_exchangeable():
    mf = CumulantMomentFunctional(random_spec(np.random.default_rng(1), 4))
    report = check_classical_exchangeability(mf, 4, 4)
    assert report.passed


def test_non_identically_distributed_family_fails_at_length_one():
    ctx = scalar_context(np.diag([0.6, 0.4]))
    mf = ConcreteMomentFunctional(ctx, [np.eye(2), 2.0 * np.eye(2)])
    report = check_classical_exchangeability(mf, 2, 3)
    assert not report.passed
    first = report.per_length[0]
    assert first.residual > 0.1
    assert first.indices == (2,)  # phi(x_2) against its pattern's phi(x_1)
    assert all(type(x) is int for rec in report.per_length for x in rec.indices)


def _permutation_loop_residuals(mf, k, n_max):
    """The literal oracle: max over every sigma in S_k of |phi(x_i) - phi(x_sigma(i))|."""
    out = []
    for n in range(1, n_max + 1):
        phi = mf.scalar_moment_tensor(k, n)
        worst = 0.0
        for perm in itertools.permutations(range(k)):
            permuted = phi[np.ix_(*([np.asarray(perm)] * n))]
            worst = max(worst, float(np.abs(phi - permuted).max()))
        out.append(worst)
    return out


def _random_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2


@st.composite
def concrete_families(draw):
    """(mf, k) with 2 <= k <= 4: k commuting i.i.d. two-point variables, one of
    them possibly rescaled, or k random Hermitian 3 x 3 matrices under a random state."""
    k = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["iid", "rescaled", "random"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        density = a @ a.conj().T
        elements = [_random_hermitian(rng, 3) for _ in range(k)]
        return ConcreteMomentFunctional(scalar_context(density / np.trace(density)), elements), k
    values, p = rng.standard_normal(2), rng.uniform(0.1, 0.9)
    bits = np.array(list(itertools.product((0, 1), repeat=k)))  # one row per atom
    weights = np.prod(np.where(bits == 0, p, 1 - p), axis=1)
    elements = [np.diag(values[bits[:, t]]).astype(complex) for t in range(k)]
    if kind == "rescaled":
        elements[-1] = elements[-1] * rng.uniform(1.5, 2.0)
    return ConcreteMomentFunctional(scalar_context(np.diag(weights)), elements), k


@settings(max_examples=40, deadline=None, derandomize=True)
@given(concrete_families(), st.integers(1, 4))
def test_pattern_scan_agrees_with_permutation_loop(family, n_max):
    # new <= old: the pattern of i lies in the orbit of i.  old <= 2 new: i and
    # sigma(i) share one pattern, so the triangle inequality runs through it.
    # Both up to rounding, since the driver's norm and np.abs round differently.
    mf, k = family
    report = check_classical_exchangeability(mf, k, n_max)
    old = _permutation_loop_residuals(mf, k, n_max)
    new = [rec.residual for rec in report.per_length]
    assert len(new) == n_max
    for a, b in zip(new, old):
        assert a <= b * (1 + 1e-12) and b <= 2 * a * (1 + 1e-12)
    assert report.passed == (max(old) <= 1e-8)


class _PerturbedAt(CumulantMomentFunctional):
    """A free family with the moment of one tuple (1-based) moved by 1e-3."""

    def __init__(self, spec, tup):
        super().__init__(spec)
        self.tup = tup

    def scalar_moment_tensor(self, k, n):
        phi = super().scalar_moment_tensor(k, n)
        if n == len(self.tup):
            phi = phi.copy()
            phi[tuple(x - 1 for x in self.tup)] += 1e-3
        return phi


def test_classical_scan_covers_every_tuple_at_k7():
    # 7! = 5040 permutations; every tuple is compared with its pattern
    spec = random_spec(np.random.default_rng(5), 4)
    report = check_classical_exchangeability(CumulantMomentFunctional(spec), 7, 4)
    assert report.passed
    assert [rec.n for rec in report.per_length] == [1, 2, 3, 4]
    report = check_classical_exchangeability(_PerturbedAt(spec, (7, 2, 7, 5)), 7, 4)
    assert not report.passed
    worst = report.worst
    assert (worst.n, worst.indices) == (4, (7, 2, 7, 5))
    assert abs(worst.residual - 1e-3) <= 1e-12


def test_classical_k_above_variable_count_rejected():
    with pytest.raises(ValueError, match="k=5"):
        check_classical_exchangeability(bernoulli_functional(count=4), 5, 2)


# -- E-level invariance ----------------------------------------------------------------

def test_scalar_b_e_invariance_coincides_with_quantum():
    mf = CumulantMomentFunctional(random_spec(np.random.default_rng(2), 4))
    u = block_pair(*noncommuting_projection_pair(2, seed=4))
    rep_e = check_E_invariance(mf, u, n_max=4)
    rep_q = check_quantum_invariance(mf, u, n_max=4)
    assert rep_e.passed and rep_q.passed
    for a, b in zip(rep_e.per_length, rep_q.per_length):
        assert abs(a.residual - b.residual) <= 1e-12


def test_diagonal_b_e_invariance_with_decorations():
    rng = np.random.default_rng(3)
    mf = CumulantMomentFunctional(random_spec(rng, 4, b_dim=2))
    p, q = noncommuting_projection_pair(2, seed=7)
    u = block_chain([p, q, random_projection(2, 1, seed=8)])
    decorations = [mf.random_coeff(rng) for _ in range(3)]
    report = check_E_invariance(mf, u, decorations=decorations, n_max=4)
    assert report.passed
    assert report.max_residual <= 1e-8


def test_permutation_unitary_e_invariance_for_identically_distributed():
    rng = np.random.default_rng(4)
    mf = CumulantMomentFunctional(random_spec(rng, 4, b_dim=2))
    u = from_permutation([3, 1, 2, 4], d=1)
    decorations = [mf.random_coeff(rng) for _ in range(3)]
    report = check_E_invariance(mf, u, decorations=decorations, n_max=4)
    assert report.passed


def test_noncommutative_b_rejected():
    rng = np.random.default_rng(5)
    ctx = pinching_context([[0, 1]])  # B is all of M_2: noncommutative
    xs = [rng.standard_normal((2, 2)) for _ in range(2)]
    mf = ConcreteMomentFunctional(ctx, xs)
    u = from_permutation([2, 1], d=1)
    with pytest.raises(ValueError):
        check_E_invariance(mf, u, n_max=2)


def test_concrete_scalar_b_e_invariance_for_iid_family():
    mf = bernoulli_functional()
    u = from_permutation([4, 3, 2, 1], d=2)
    rng = np.random.default_rng(6)
    decorations = [mf.random_coeff(rng) for _ in range(2)]
    report = check_E_invariance(mf, u, decorations=decorations, n_max=3)
    assert report.passed
    assert report.max_residual <= 1e-12


def biased_bernoulli_functional(count=4, plus_weight=0.25):
    """count commuting independent +-1 variables with a biased product state."""
    dim = 2**count
    elements = []
    weights = np.ones(dim)
    for t in range(count):
        signs = np.array(
            [1.0 - 2.0 * ((b >> (count - 1 - t)) & 1) for b in range(dim)]
        )
        elements.append(np.diag(signs).astype(complex))
        weights *= np.where(signs > 0, plus_weight, 1.0 - plus_weight)
    ctx = scalar_context(np.diag(weights).astype(complex))
    return ConcreteMomentFunctional(ctx, elements)


def test_non_free_independent_families_caught_by_some_seeded_unitary():
    # independent commuting families have trivial tails, so failing scalar
    # freeness must show up against some non-commuting unitary
    for mf in (bernoulli_functional(count=4), biased_bernoulli_functional(count=4)):
        assert not check_freeness(mf, (1, 2), n_max=4).passed
        found = False
        for seed in range(10):
            u = block_pair(*noncommuting_projection_pair(2, seed=seed))
            if not check_quantum_invariance(mf, u, n_max=4).passed:
                found = True
                break
        assert found


def test_identical_copies_expose_the_amalgamation_base():
    # four copies of one matrix: constant moments make the coaction telescope
    # through the row sums, so quantum invariance holds even though the family
    # is far from free over the scalars.  Its conditional independence lives
    # over the algebra the copies generate, which scalar centering ignores.
    mf = ConcreteMomentFunctional(
        scalar_context(np.diag([0.7, 0.2, 0.1])),
        [np.diag([1.0, 2.0, 3.0]).astype(complex)] * 4,
    )
    assert not check_freeness(mf, (1, 2), n_max=3).passed
    for seed in range(3):
        u = block_pair(*noncommuting_projection_pair(2, seed=seed))
        assert check_quantum_invariance(mf, u, n_max=4).passed


# -- factorization ------------------------------------------------------------------------

def test_factorization_single_position_is_exact():
    mf = CumulantMomentFunctional(random_spec(np.random.default_rng(6), 4))
    p = BPolynomial([(mf.identity_coeff(), mf.identity_coeff())])
    assert check_factorization(mf, (1,), [p], l=1) <= 1e-12


def test_factorization_for_free_families():
    rng = np.random.default_rng(7)
    mf = CumulantMomentFunctional(random_spec(rng, 4))
    for variables, l in [((1, 2), 2), ((1, 2, 1), 2), ((1, 2, 3), 1), ((1, 2, 3, 1), 3)]:
        for _ in range(5):
            polys = [
                BPolynomial(
                    [
                        (mf.random_coeff(rng), mf.random_coeff(rng)),
                        (mf.random_coeff(rng), mf.random_coeff(rng), mf.random_coeff(rng)),
                    ]
                )
                for _ in variables
            ]
            assert check_factorization(mf, variables, polys, l) <= 1e-9


def test_factorization_fails_for_dependent_family():
    # x1 = x3 share their matrix with x2 under a skewed state
    ctx = scalar_context(np.diag([0.7, 0.3]))
    x = np.diag([2.0, 1.0]).astype(complex)
    mf = ConcreteMomentFunctional(ctx, [x, x.copy()])
    polys = [BPolynomial.variable(2) for _ in range(3)]
    residual = check_factorization(mf, (1, 2, 1), polys, l=2)
    assert residual > 1e-3


def test_factorization_precondition_is_an_error():
    mf = CumulantMomentFunctional(semicircular_spec())
    polys = [BPolynomial([(mf.identity_coeff(), mf.identity_coeff())]) for _ in range(3)]
    with pytest.raises(ValueError):
        check_factorization(mf, (1, 2, 1), polys, l=1)
    with pytest.raises(ValueError):
        check_factorization(mf, (1, 2, 1), polys, l=5)


# -- freeness ---------------------------------------------------------------------------------

def test_free_family_passes_both_criteria():
    mf = CumulantMomentFunctional(random_spec(np.random.default_rng(8), 4))
    report = check_freeness(mf, (1, 2), n_max=4)
    assert report.passed
    assert report.consistent


def test_bernoulli_pair_fails_both_criteria_together():
    mf = bernoulli_functional(count=2)
    report = check_freeness(mf, (1, 2), n_max=4)
    assert not report.centered_pass
    assert not report.mixed_pass
    assert report.consistent


def test_single_variable_is_vacuously_free():
    mf = CumulantMomentFunctional(semicircular_spec())
    report = check_freeness(mf, (1,))
    assert report.vacuous and report.passed


# -- crossing sum probe ------------------------------------------------------------------------

def test_crossing_sum_commuting_projections_give_identity():
    p = np.diag([1.0, 0.0])
    q = np.diag([0.0, 1.0])
    for s in (2, 3, 4):
        for variant in ("plain", "capped"):
            _, dist = crossing_sum_probe(p, q, s, variant)
            assert dist <= 1e-14


def test_crossing_sum_quarter_angle_matches_symbolic_oracle():
    # independent exact 2x2 computation with sympy rationals
    sympy = pytest.importorskip("sympy")
    half = sympy.Rational(1, 2)
    P = sympy.Matrix([[1, 0], [0, 0]])
    Q = sympy.Matrix([[half, half], [half, half]])  # theta = pi/4
    eye = sympy.eye(2)
    total = sympy.zeros(2, 2)
    for a, b in [(P, Q), (P, eye - Q), (eye - P, Q), (eye - P, eye - Q)]:
        total += (a * b) ** 2
    diff = total - eye
    exact = sympy.sqrt(sum(abs(diff[i, j]) ** 2 for i in range(2) for j in range(2)))

    theta = np.pi / 4
    q = np.array(
        [
            [np.cos(theta) ** 2, np.cos(theta) * np.sin(theta)],
            [np.cos(theta) * np.sin(theta), np.sin(theta) ** 2],
        ]
    )
    _, dist = crossing_sum_probe(np.diag([1.0, 0.0]), q, 2)
    assert abs(dist - float(exact)) <= 1e-12
    assert dist > 0.1


def test_crossing_sum_degenerate_projection_is_silent():
    p = random_projection(2, 1, seed=9)
    for variant in ("plain", "capped"):
        _, dist = crossing_sum_probe(p, np.eye(2), 2, variant)
        assert dist <= 1e-14
        _, dist0 = crossing_sum_probe(p, np.zeros((2, 2)), 3, variant)
        assert dist0 <= 1e-14


def test_crossing_sum_iff_on_seeded_samples():
    for idx in range(30):
        d = 2 if idx < 15 else 3
        if idx % 2 == 0:
            p, q = noncommuting_projection_pair(d, seed=(20, idx))
            comm = np.linalg.norm(p @ q - q @ p)
            assert comm >= 0.01
            for s in (2, 3):
                for variant in ("plain", "capped"):
                    _, dist = crossing_sum_probe(p, q, s, variant)
                    assert dist > 1e-4, (idx, s, variant)
        else:
            p, q = spectral_projection_pair(d, seed=(21, idx))
            assert np.linalg.norm(p @ q - q @ p) <= 1e-10
            for s in (2, 3):
                for variant in ("plain", "capped"):
                    _, dist = crossing_sum_probe(p, q, s, variant)
                    assert dist <= 1e-10, (idx, s, variant)


def test_crossing_sum_input_validation():
    p = random_projection(2, 1, seed=0)
    with pytest.raises(ValueError):
        crossing_sum_probe(p, p, 1)
    with pytest.raises(ValueError):
        crossing_sum_probe(p, p, 2, variant="other")
    with pytest.raises(ValueError):
        crossing_sum_probe(np.array([[0.5, 0], [0, 0]]), p, 2)


# -- the small-n column model --------------------------------------------------------------------

def test_counterexample_n2():
    report = finite_counterexample(2)
    assert report.psi_u11 == Fraction(1, 2)
    assert report.psi_u11_u21 == Fraction(0)
    assert report.exchangeable
    assert report.relations_exact
    assert report.contradiction
    assert report.passed


def test_counterexample_n3():
    report = finite_counterexample(3)
    assert report.psi_u11 == Fraction(1, 3)
    assert report.psi_u11_u21 == Fraction(0)
    assert report.free_prediction == Fraction(1, 9)
    assert report.passed


def test_counterexample_rejects_other_sizes():
    for n in (1, 4, 5):
        with pytest.raises(ValueError):
            finite_counterexample(n)


def test_coordinate_unitary_is_exactly_magic():
    for n in (2, 3):
        u = permutation_coordinate_unitary(n)
        assert u.k == n
        rep = verify_relations(u)
        assert rep.max_residual == 0.0


def test_column_moments_match_urn_arithmetic():
    # psi of a column word is 1/n on constant rows and 0 otherwise
    u = permutation_coordinate_unitary(3)
    dim = u.d
    psi = lambda m: complex(np.trace(m)) / dim
    for rows in itertools.product(range(1, 4), repeat=2):
        prod = u.entry(rows[0], 1) @ u.entry(rows[1], 1)
        expected = (1.0 / 3.0) if rows[0] == rows[1] else 0.0
        assert abs(psi(prod) - expected) <= 1e-14
