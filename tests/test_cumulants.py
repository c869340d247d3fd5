"""rho_pi evaluation, moment/cumulant transforms, and cumulant-backed oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qexch.algebra import (
    MAX_TENSOR_TUPLES,
    BPolynomial,
    ConcreteMomentFunctional,
    center,
    pinching_context,
    product_expectation,
    scalar_context,
)
from qexch.cumulants import (
    CumulantExtractor,
    CumulantMomentFunctional,
    CumulantSpec,
    check_mixed_cumulants,
    cumulants_to_moments,
    moment_family,
    moments_to_cumulants,
    random_spec,
    rho_pi,
    semicircular_spec,
)
from qexch.partitions import Partition, _pattern_table, canonical_pattern, enumerate_noncrossing

NC10 = Partition(10, [[1, 10], [2, 5, 9], [3, 4], [6], [7, 8]])


def random_matrix(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


# -- independent scalar oracles -------------------------------------------------

def scalar_free_cumulants(moments, n_max):
    """Scalar moment -> cumulant inversion, written from scratch.

    Uses its own partition enumeration (grow one element at a time) and its
    own crossing test, so it shares no code path with the library.
    """

    def all_partitions(n):
        parts = [[[1]]]
        for x in range(2, n + 1):
            nxt = []
            for blocks in parts:
                for i in range(len(blocks)):
                    nxt.append([b + [x] if j == i else list(b) for j, b in enumerate(blocks)])
                nxt.append([list(b) for b in blocks] + [[x]])
            parts = nxt
        return parts

    def crossing(blocks):
        owner = {}
        for bi, b in enumerate(blocks):
            for x in b:
                owner[x] = bi
        n = sum(len(b) for b in blocks)
        for s1, t1, s2, t2 in itertools.combinations(range(1, n + 1), 4):
            if owner[s1] == owner[s2] != owner[t1] == owner[t2]:
                return True
        return False

    kappa = {}
    for n in range(1, n_max + 1):
        total = 0.0
        for blocks in all_partitions(n):
            if crossing(blocks):
                continue
            if len(blocks) == 1:
                continue
            term = 1.0
            for b in blocks:
                term *= kappa[len(b)]
            total += term
        kappa[n] = moments[n] - total
    return kappa


def count_noncrossing_pairings(n):
    """Pairings of {1..2n} with no crossing, by direct recursive matching."""

    def rec(points):
        if not points:
            return 1
        first = points[0]
        total = 0
        for idx in range(1, len(points)):
            partner = points[idx]
            inside = points[1:idx]
            outside = points[idx + 1 :]
            total += rec(inside) * rec(outside)
        return total

    return rec(list(range(2 * n)))


# -- rho_pi ----------------------------------------------------------------------

def test_rho_pi_one_block_is_base_case():
    rng = np.random.default_rng(0)
    ctx = scalar_context(np.eye(2) / 2)
    fam = moment_family(ctx)
    args = [random_matrix(rng, 2) for _ in range(4)]
    got = rho_pi(fam, Partition(4, [[1, 2, 3, 4]]), args)
    assert np.allclose(got, fam(args))


def test_rho_pi_matches_hand_coded_nesting_on_nc10():
    rng = np.random.default_rng(1)
    ctx = scalar_context(np.diag([0.4, 0.6]))
    fam = moment_family(ctx)
    a = [None] + [random_matrix(rng, 2) for _ in range(10)]
    r = lambda *xs: fam(xs)
    expected = r(
        a[1] @ r(a[2] @ r(a[3], a[4]), a[5] @ r(a[6]) @ r(a[7], a[8]), a[9]),
        a[10],
    )
    got = rho_pi(fam, NC10, a[1:])
    assert np.linalg.norm(got - expected) <= 1e-10


def test_rho_pi_singletons_scalar_factorize():
    rng = np.random.default_rng(2)
    ctx = scalar_context(np.eye(2) / 2)
    fam = moment_family(ctx)
    args = [random_matrix(rng, 2) for _ in range(3)]
    got = rho_pi(fam, Partition(3, [[1], [2], [3]]), args)
    expected = fam([args[0]]) @ fam([args[1]]) @ fam([args[2]])
    assert np.allclose(got, expected)


def test_rho_pi_peel_order_independence():
    rng = np.random.default_rng(3)
    ctx = pinching_context([[0], [1]])
    fam = moment_family(ctx)
    for n in (3, 4, 5):
        for pi in enumerate_noncrossing(n):
            args = [random_matrix(rng, 2) for _ in range(n)]
            lo = rho_pi(fam, pi, args, peel="min")
            hi = rho_pi(fam, pi, args, peel="max")
            assert np.linalg.norm(lo - hi) <= 1e-12


def test_rho_pi_rejects_crossing_and_bad_arity():
    ctx = scalar_context(np.eye(2) / 2)
    fam = moment_family(ctx, max_order=3)
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        rho_pi(fam, Partition(4, [[1, 3], [2, 4]]), [random_matrix(rng, 2)] * 4)
    with pytest.raises(ValueError):
        fam([random_matrix(rng, 2)] * 5)


# -- moments -> cumulants -----------------------------------------------------------

def test_kappa_closed_forms_scalar_b():
    rng = np.random.default_rng(5)
    ctx = scalar_context(np.diag([0.3, 0.7]))
    E = ctx.expect
    for _ in range(10):
        xs = [random_matrix(rng, 2) for _ in range(3)]
        mf = ConcreteMomentFunctional(ctx, xs)
        table = moments_to_cumulants(mf, (1, 2, 3))
        a1, a2, a3 = xs
        k1 = E(a1)
        k2 = E(a1 @ a2) - E(a1) @ E(a2)
        k3 = (
            E(a1 @ a2 @ a3)
            - E(a1) @ E(a2 @ a3)
            - E(a1 @ E(a2) @ a3)
            - E(a1 @ a2) @ E(a3)
            + 2 * E(a1) @ E(a2) @ E(a3)
        )
        assert np.linalg.norm(table[1] - k1) <= 1e-10
        assert np.linalg.norm(table[2] - k2) <= 1e-10
        assert np.linalg.norm(table[3] - k3) <= 1e-10


def test_kappa_closed_forms_operator_valued_b():
    # the same displays hold verbatim over a diagonal subalgebra
    rng = np.random.default_rng(6)
    ctx = pinching_context([[0], [1]])
    E = ctx.expect
    xs = [random_matrix(rng, 2) for _ in range(3)]
    mf = ConcreteMomentFunctional(ctx, xs)
    table = moments_to_cumulants(mf, (1, 2, 3))
    a1, a2, a3 = xs
    assert np.linalg.norm(table[2] - (E(a1 @ a2) - E(a1) @ E(a2))) <= 1e-10
    k3 = (
        E(a1 @ a2 @ a3)
        - E(a1) @ E(a2 @ a3)
        - E(a1 @ E(a2) @ a3)
        - E(a1 @ a2) @ E(a3)
        + 2 * E(a1) @ E(a2) @ E(a3)
    )
    assert np.linalg.norm(table[3] - k3) <= 1e-10


def test_kappa_against_independent_scalar_recursion():
    # one-dimensional concrete model: moments are plain numbers
    rng = np.random.default_rng(7)
    for _ in range(10):
        value = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        ctx = scalar_context(np.eye(1))
        mf = ConcreteMomentFunctional(ctx, [np.array([[value]])])
        table = moments_to_cumulants(mf, (1, 1, 1, 1))
        moments = {n: value**n for n in range(1, 5)}
        oracle = scalar_free_cumulants(moments, 4)
        for n in range(1, 5):
            assert abs(table[n][0, 0] - oracle[n]) <= 1e-10


def test_transform_order_guard():
    mf = CumulantMomentFunctional(semicircular_spec())
    with pytest.raises(ValueError):
        moments_to_cumulants(mf, (1,) * 9)


# -- cumulants -> moments ------------------------------------------------------------

def test_semicircular_moments_count_noncrossing_pairings():
    mf = CumulantMomentFunctional(semicircular_spec())
    for m in range(1, 4):
        even = mf.scalar_moment((1,) * (2 * m))
        assert abs(even - count_noncrossing_pairings(m)) <= 1e-12
        odd = mf.scalar_moment((1,) * (2 * m - 1))
        assert abs(odd) <= 1e-12
    assert abs(mf.scalar_moment((1,) * 2) - 1) <= 1e-12
    assert abs(mf.scalar_moment((1,) * 4) - 2) <= 1e-12
    assert abs(mf.scalar_moment((1,) * 6) - 5) <= 1e-12


def test_third_moment_with_third_cumulant():
    spec = CumulantSpec({2: [1.0], 3: [1.0]})
    mf = CumulantMomentFunctional(spec)
    assert abs(mf.scalar_moment((1, 1, 1)) - 1.0) <= 1e-12


def test_mixed_word_with_zero_means_vanishes():
    spec = CumulantSpec({2: [1.0]})
    mf = CumulantMomentFunctional(spec)
    assert abs(mf.scalar_moment((1, 2))) == 0.0


def test_cumulant_cutoff_zeroes_high_orders():
    spec = CumulantSpec({2: [1.0], 4: [5.0]}, max_order=3)
    mf = CumulantMomentFunctional(spec)
    # only pairings survive: the order-4 cumulant is above the cutoff
    assert abs(mf.scalar_moment((1,) * 4) - 2.0) <= 1e-12


@pytest.mark.parametrize(
    "kappa, weights, message",
    [
        ({2: [np.nan]}, None, "order-2"),
        ({2: [1.0], 3: [np.inf]}, None, "order-3"),
        ({2: [1.0]}, [np.nan], "weights"),
    ],
)
def test_spec_rejects_non_finite_values(kappa, weights, message):
    with pytest.raises(ValueError, match=message):
        CumulantSpec(kappa, weights=weights)


def test_moments_beyond_cutoff_are_still_defined():
    spec = CumulantSpec({2: [1.0]}, max_order=2)
    mf = CumulantMomentFunctional(spec)
    assert abs(mf.scalar_moment((1,) * 8) - 14.0) <= 1e-12  # pairings of 8 points


def test_word_length_cap():
    mf = CumulantMomentFunctional(semicircular_spec())
    with pytest.raises(ValueError):
        mf.moment((1,) * 13)


def test_moment_tensor_tuple_cap():
    mf = CumulantMomentFunctional(semicircular_spec())
    n = MAX_TENSOR_TUPLES.bit_length()  # smallest n with 2**n above the cap
    with pytest.raises(ValueError):
        mf.scalar_moment_tensor(2, n)
    with pytest.raises(ValueError):
        mf.expectation_tensor(2, n)


def test_pattern_table_matches_canonical_pattern_loop():
    for k in range(1, 6):
        for n in range(1, 7):
            if k**n > 5000:
                continue
            ids = []
            patterns = {}
            for tup in itertools.product(range(k), repeat=n):
                ids.append(patterns.setdefault(canonical_pattern(tup), len(patterns)))
            got_ids, got_patterns = _pattern_table(k, n)
            assert got_ids.tolist() == ids, (k, n)
            assert got_patterns == tuple(patterns), (k, n)


def test_decorations_multiply_through_for_commutative_b():
    spec = random_spec(np.random.default_rng(8), 4, b_dim=2)
    mf = CumulantMomentFunctional(spec)
    rng = np.random.default_rng(9)
    coeffs = tuple(mf.random_coeff(rng) for _ in range(4))
    got = mf.moment((1, 1, 1), coeffs)
    plain = mf.moment((1, 1, 1))
    product = np.eye(2, dtype=complex)
    for c in coeffs:
        product = product @ c
    assert np.allclose(got, plain @ product)


def test_nondiagonal_coefficients_rejected():
    mf = CumulantMomentFunctional(random_spec(np.random.default_rng(0), 3, b_dim=2))
    bad = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError):
        mf.moment((1,), (bad, np.eye(2)))


# -- round trips -----------------------------------------------------------------------

@pytest.mark.parametrize("b_dim", [1, 2])
def test_round_trip_spec_to_moments_to_spec(b_dim):
    rng = np.random.default_rng(10 + b_dim)
    for trial in range(5):
        spec = random_spec(rng, 6, b_dim=b_dim)
        mf = CumulantMomentFunctional(spec)
        table = moments_to_cumulants(mf, (1,) * 6)
        for n in range(1, 7):
            recovered = np.diag(table[n])
            assert np.linalg.norm(recovered - spec.value(n)) <= 1e-10


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(1, 2), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_round_trip_moments_to_cumulants_to_moments(b_dim, order, seed):
    rng = np.random.default_rng(seed)
    mf = CumulantMomentFunctional(random_spec(rng, order, b_dim=b_dim))
    table = moments_to_cumulants(mf, (1,) * 6)
    again = CumulantMomentFunctional(
        CumulantSpec({n: np.diag(v) for n, v in table.items()}, b_dim=b_dim)
    )
    for n in range(1, 7):
        assert np.abs(again.scalar_moment_tensor(2, n) - mf.scalar_moment_tensor(2, n)).max() <= 1e-10
        word = tuple(int(v) for v in rng.integers(1, 4, size=n))
        coeffs = [mf.random_coeff(rng) for _ in range(n + 1)]
        assert np.abs(again.moment(word, coeffs) - mf.moment(word, coeffs)).max() <= 1e-10


def test_cumulants_to_moments_function_matches_functional():
    spec = random_spec(np.random.default_rng(11), 4)
    mf = CumulantMomentFunctional(spec)
    assert np.allclose(
        cumulants_to_moments(spec, (1, 1, 2)), mf.moment((1, 1, 2))
    )


# -- freeness by construction -------------------------------------------------------------

def test_cumulant_backed_family_satisfies_freeness_definition():
    rng = np.random.default_rng(12)
    spec = random_spec(rng, 5)
    mf = CumulantMomentFunctional(spec)
    for n in (2, 3, 4, 5):
        for _ in range(3):
            tup = [1 + (t % 2) for t in range(n)]  # alternating 1,2,1,2,...
            polys = []
            for v in tup:
                raw = BPolynomial(
                    [
                        (mf.random_coeff(rng), mf.random_coeff(rng)),
                        (mf.random_coeff(rng), mf.random_coeff(rng), mf.random_coeff(rng)),
                    ]
                )
                polys.append(center(raw, v, mf))
            value = product_expectation(mf, polys, tup)
            assert np.linalg.norm(value) <= 1e-9


def _filter_oracle(spec, pattern):
    """The kernel sum by filtering the full non-crossing list by the kernel constraint."""
    total = np.zeros(spec.b_dim, dtype=complex)
    for pi in enumerate_noncrossing(len(pattern)):
        if any(len({pattern[pos - 1] for pos in b}) != 1 for b in pi.blocks):
            continue
        term = np.ones(spec.b_dim, dtype=complex)
        for b in pi.blocks:
            term = term * spec.value(len(b))
        total += term
    return total


def test_kernel_sum_matches_partition_filter_oracle():
    spec = random_spec(np.random.default_rng(15), 6, b_dim=2)
    rng = np.random.default_rng(16)
    for n in range(1, 7):
        for _ in range(8):
            pattern = canonical_pattern(int(v) for v in rng.integers(0, 3, size=n))
            got = spec.kernel_sum([pattern])
            assert got.shape == (1, 2)
            assert np.linalg.norm(got[0] - _filter_oracle(spec, pattern)) <= 1e-12
        # a whole pattern table in one call: one row per pattern
        _, patterns = _pattern_table(3, n)
        rows = spec.kernel_sum(patterns)
        assert rows.shape == (len(patterns), 2)
        for pattern, row in zip(patterns, rows):
            assert np.linalg.norm(row - _filter_oracle(spec, pattern)) <= 1e-12


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(1, 5),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
def test_moment_tensors_match_filter_oracle_at_every_tuple(b_dim, k, n, order, seed):
    rng = np.random.default_rng(seed)
    kappa = {s: rng.uniform(-1, 1, b_dim) for s in range(1, order + 1)}
    weights = rng.dirichlet(np.ones(b_dim))
    spec = CumulantSpec(kappa, b_dim=b_dim, weights=weights)
    mf = CumulantMomentFunctional(spec)
    decorations = [mf.random_coeff(rng) for _ in range(n - 1)]
    deco = np.ones(b_dim, dtype=complex)
    for c in decorations:
        deco = deco * np.diag(c)
    phi = mf.scalar_moment_tensor(k, n)
    expect = mf.expectation_tensor(k, n, decorations)
    oracle = {}
    for i in itertools.product(range(k), repeat=n):
        pattern = canonical_pattern(i)
        if pattern not in oracle:
            oracle[pattern] = _filter_oracle(spec, pattern)
        assert abs(phi[i] - weights @ oracle[pattern]) <= 1e-12
        assert np.abs(expect[i] - np.diag(oracle[pattern] * deco)).max() <= 1e-12


# -- mixed cumulant reports -----------------------------------------------------------------

def test_mixed_cumulants_vanish_for_cumulant_backing():
    mf = CumulantMomentFunctional(random_spec(np.random.default_rng(13), 4))
    report = check_mixed_cumulants(mf, (1, 2, 1, 2), tol=1e-12)
    assert report.passed
    assert report.max_mixed <= 1e-12


def test_mixed_cumulants_detect_identical_variables():
    rng = np.random.default_rng(14)
    ctx = scalar_context(np.diag([0.5, 0.5]))
    x = random_matrix(rng, 2)
    mf = ConcreteMomentFunctional(ctx, [x, x.copy()])
    report = check_mixed_cumulants(mf, (1, 2), tol=1e-9)
    assert not report.passed
    # kappa_2(x1, x2) = E[x^2] - E[x]^2 for identical copies
    expected = ctx.expect(x @ x) - ctx.expect(x) @ ctx.expect(x)
    assert abs(report.max_mixed - np.linalg.norm(expected)) <= 1e-10


def test_mixed_cumulants_detect_tensor_independent_bernoulli_pair():
    # two commuting independent +-1 variables on C^4 with the product state
    diag1 = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    diag2 = np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex)
    ctx = scalar_context(np.eye(4) / 4)
    mf = ConcreteMomentFunctional(ctx, [diag1, diag2])
    report = check_mixed_cumulants(mf, (1, 2, 1, 2), tol=1e-9)
    assert not report.passed
    extractor = CumulantExtractor(mf)
    k4 = extractor.kappa_word((1, 2, 1, 2))
    # scalar value 1 embedded as 1*I_4: E[e1 e2 e1 e2] = 1 and nothing cancels it
    assert abs(k4[0, 0] - 1.0) <= 1e-12


def test_mixed_cumulants_requires_two_variables():
    mf = CumulantMomentFunctional(semicircular_spec())
    with pytest.raises(ValueError):
        check_mixed_cumulants(mf, (1, 1))
