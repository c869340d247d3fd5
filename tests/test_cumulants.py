"""rho_pi evaluation, moment/cumulant transforms, and cumulant-backed oracles."""

import itertools
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qexch import cli
from qexch.algebra import (
    MAX_BYTES,
    BPolynomial,
    ConcreteMomentFunctional,
    MomentFunctional,
    center,
    expand_product,
    pinching_context,
    product_expectation,
    scalar_context,
)
from qexch.cumulants import (
    MAX_WORD_LENGTH,
    CumulantExtractor,
    CumulantMomentFunctional,
    CumulantSpec,
    check_mixed_cumulants,
    moment_family,
    moments_to_cumulants,
    random_spec,
    rho_pi,
)
from qexch.partitions import (
    Partition,
    _pattern_table,
    _pattern_table_charge,
    canonical_pattern,
    delete_block,
    enumerate_noncrossing,
    interval_blocks,
    is_noncrossing,
)


def semicircular_spec(b_dim=1):
    """Unit variance, all other cumulants zero."""
    return CumulantSpec({2: np.ones(b_dim)}, b_dim=b_dim)


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
    fam = moment_family(ctx)
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError, match="non-crossing"):
        rho_pi(fam, Partition(4, [[1, 3], [2, 4]]), [random_matrix(rng, 2)] * 4)
    with pytest.raises(ValueError, match="got 5 arguments for a partition of 4"):
        rho_pi(fam, Partition(4, [[1, 2], [3, 4]]), [random_matrix(rng, 2)] * 5)


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


class _RecursiveExtractor:
    """The recursive extraction that CumulantExtractor replaced, kept as its reference.

    Every call checks its request again, and kappa_pi peels one interval
    block per recursive call; the arithmetic is CumulantExtractor's, in the
    same order.
    """

    def __init__(self, mf):
        self.mf = mf
        self._cache = {}

    def kappa_word(self, variables, coeffs=None):
        variables, coeffs = self.mf._check_word(variables, coeffs)
        n = len(variables)
        coeffs = coeffs or (self.mf.identity_coeff(),) * (n + 1)
        key = (variables, tuple(c.tobytes() for c in coeffs))
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        total = self.mf.moment(variables, coeffs)
        for pi in enumerate_noncrossing(n):
            if pi.num_blocks > 1:
                total = total - self.kappa_partition(pi, variables, coeffs)
        self._cache[key] = total
        return total

    def kappa_partition(self, pi, variables, coeffs=None):
        variables, coeffs = self.mf._check_word(variables, coeffs)
        coeffs = coeffs or (self.mf.identity_coeff(),) * (len(variables) + 1)
        assert pi.n == len(variables) and is_noncrossing(pi)
        if pi.num_blocks == 1:
            return self.kappa_word(variables, coeffs)
        block = interval_blocks(pi)[0]
        s, r = block[0], len(block)
        eye = self.mf.identity_coeff()
        inner_vars = variables[s - 1 : s - 1 + r]
        inner_coeffs = (eye,) + coeffs[s : s + r - 1] + (eye,)
        value = self.kappa_word(inner_vars, inner_coeffs)
        merged = coeffs[s - 1] @ value @ coeffs[s + r - 1]
        new_vars = variables[: s - 1] + variables[s - 1 + r :]
        new_coeffs = coeffs[: s - 1] + (merged,) + coeffs[s + r :]
        return self.kappa_partition(delete_block(pi, block), new_vars, new_coeffs)


def _reference_oracles():
    rng = np.random.default_rng(41)
    # B = M_2 (+) C inside M_3: a non-central, non-commutative amalgamation base
    pinched = ConcreteMomentFunctional(
        pinching_context([[0, 1], [2]]), [random_matrix(rng, 3) for _ in range(3)]
    )
    diagonal = ConcreteMomentFunctional(
        pinching_context([[0], [1], [2]]), [random_matrix(rng, 3) for _ in range(2)]
    )
    spec = CumulantMomentFunctional(random_spec(rng, 5, b_dim=2))
    return {"pinched M_2+C": pinched, "pinched C^3": diagonal, "cumulant b_dim 2": spec}


@pytest.mark.parametrize("name", ["pinched M_2+C", "pinched C^3", "cumulant b_dim 2"])
def test_extractor_matches_the_recursive_reference_bitwise(name):
    mf = _reference_oracles()[name]
    rng = np.random.default_rng(42)
    extractor, reference = CumulantExtractor(mf), _RecursiveExtractor(mf)
    compared = 0
    for n in range(1, 6):
        for _ in range(3):
            word = tuple(int(v) for v in rng.integers(1, mf.variable_count or 2, size=n, endpoint=True))
            decorated = tuple(mf.random_coeff(rng) for _ in range(n + 1))
            for coeffs in (None, decorated):
                assert np.array_equal(extractor.kappa_word(word, coeffs),
                                      reference.kappa_word(word, coeffs))
                for pi in enumerate_noncrossing(n):
                    assert np.array_equal(extractor.kappa_partition(pi, word, coeffs),
                                          reference.kappa_partition(pi, word, coeffs))
                    compared += 1
    assert compared == 2 * 3 * (1 + 2 + 5 + 14 + 42)  # two decorations of three words per n


def test_extractor_checks_each_request():
    mf = CumulantMomentFunctional(semicircular_spec())
    extractor = CumulantExtractor(mf)
    crossing = Partition(4, [[1, 3], [2, 4]])
    with pytest.raises(ValueError, match="non-crossing partitions only"):
        extractor.kappa_partition(crossing, (1, 1, 1, 1))
    with pytest.raises(ValueError, match="partition size does not match"):
        extractor.kappa_partition(Partition(2, [[1], [2]]), (1, 1, 1))
    with pytest.raises(ValueError, match="word length <= 8"):
        extractor.kappa_partition(Partition(10, [[1], list(range(2, 11))]), (1,) * 10)
    with pytest.raises(ValueError, match="word length <= 8"):
        extractor.kappa_word((1,) * 9)


def test_extractor_keys_hold_each_distinct_coefficient_once():
    # 128x128 coefficients: keyed by their bytes, the keys of this scan alone held 63.5 MiB
    scenario = Path(__file__).resolve().parent / "scenarios" / "concrete_dim128.json"
    mf = cli.build_functional(json.loads(scenario.read_text())["functional"])
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        report = check_mixed_cumulants(mf, (1, 2), 4)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert report.max_residual > 1.0  # the two variables are not free
    assert peak < 32 * 2**20, peak


# -- cumulants -> moments ------------------------------------------------------------

def test_semicircular_moments_count_noncrossing_pairings():
    mf = CumulantMomentFunctional(semicircular_spec())
    for m in range(1, 4):
        even = mf.phi(mf.moment((1,) * (2 * m)))
        assert abs(even - count_noncrossing_pairings(m)) <= 1e-12
        odd = mf.phi(mf.moment((1,) * (2 * m - 1)))
        assert abs(odd) <= 1e-12
    assert abs(mf.phi(mf.moment((1,) * 2)) - 1) <= 1e-12
    assert abs(mf.phi(mf.moment((1,) * 4)) - 2) <= 1e-12
    assert abs(mf.phi(mf.moment((1,) * 6)) - 5) <= 1e-12


def test_third_moment_with_third_cumulant():
    spec = CumulantSpec({2: [1.0], 3: [1.0]})
    mf = CumulantMomentFunctional(spec)
    assert abs(mf.phi(mf.moment((1, 1, 1))) - 1.0) <= 1e-12


def test_mixed_word_with_zero_means_vanishes():
    spec = CumulantSpec({2: [1.0]})
    mf = CumulantMomentFunctional(spec)
    assert abs(mf.phi(mf.moment((1, 2)))) == 0.0


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
    spec = CumulantSpec({2: [1.0]})
    mf = CumulantMomentFunctional(spec)
    assert abs(mf.phi(mf.moment((1,) * 8)) - 14.0) <= 1e-12  # pairings of 8 points


def test_word_length_cap():
    mf = CumulantMomentFunctional(semicircular_spec())
    with pytest.raises(ValueError):
        mf.moment((1,) * 13)


def test_moment_tensor_tuple_cap():
    # 2^21 tuples: words over the length cap, and a pattern table over the budget;
    # 4^11 tuples: a 64 MiB tensor whose pattern table alone is over the budget
    mf = CumulantMomentFunctional(semicircular_spec())
    assert 16 * 4**11 <= MAX_BYTES < _pattern_table_charge(4, 11)[0]
    assert _pattern_table_charge(2, 21)[0] > MAX_BYTES
    identity = lambda k, n: mf.expectation_tensor(k, n, [np.eye(1)] * (n - 1))
    for route in (mf.scalar_moment_tensor, identity):
        with pytest.raises(ValueError):
            route(2, 21)
        with pytest.raises(ValueError, match=r"kernel-pattern table of 4\^11 tuples is too large"):
            route(4, 11)


def test_admitted_tensor_lengths_keep_their_frontier():
    # the longest tensor each k in 1..12 admits may grow, never shrink below these;
    # k = 3 at 12 points stays refused (test_cli's cumulant_k3_n12)
    mf = CumulantMomentFunctional(semicircular_spec())

    def admitted(k, n):
        try:
            mf._check_tensor(k, n)
        except ValueError:
            return False
        return True

    longest = [max(n for n in range(1, MAX_WORD_LENGTH + 1) if admitted(k, n)) for k in range(1, 13)]
    frontier = [12, 12, 10, 9, 9, 8, 7, 7, 7, 6, 6, 6]
    assert all(got >= floor for got, floor in zip(longest, frontier)), longest


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


# -- products of polynomials: each oracle's own route against the word expansion -----------

def _generic(mf, polys, variables):
    return MomentFunctional.product_expectation(mf, polys, variables)


def _own(mf, polys, variables):
    return mf.product_expectation(polys, variables)


def _random_product_oracle(kind, dim, order, rng):
    """Three variables over a scalar or pinching B (dim <= 4), or a cumulant family."""
    if kind == "cumulant":
        return CumulantMomentFunctional(random_spec(rng, order, b_dim=min(dim, 3)))
    if kind == "scalar":
        a = random_matrix(rng, dim)
        density = a @ a.conj().T
        ctx = scalar_context(density / np.trace(density))
    else:
        cut = int(rng.integers(1, dim)) if dim > 1 else dim
        ctx = pinching_context([b for b in (list(range(cut)), list(range(cut, dim))) if b])
    return ConcreteMomentFunctional(ctx, [random_matrix(rng, dim) for _ in range(3)])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.sampled_from(["scalar", "pinching", "cumulant"]),
    st.integers(1, 4),
    st.integers(1, 5),
    st.lists(st.integers(1, 3), min_size=1, max_size=4),
    st.integers(0, 3),
    st.integers(0, 2**32 - 1),
)
def test_product_expectation_matches_word_expansion(kind, dim, order, variables, degree, seed):
    rng = np.random.default_rng(seed)
    mf = _random_product_oracle(kind, dim, order, rng)
    polys = []
    for _ in variables:
        words = []
        for _ in range(int(rng.integers(1, 4))):
            n = int(rng.integers(0, degree + 1))
            words.append(tuple(mf.random_coeff(rng) for _ in range(n + 1)))
        polys.append(BPolynomial(words))
    got = _own(mf, polys, variables)
    want = _generic(mf, polys, variables)
    # relative to the size of the summed word moments, which sets the rounding
    scale = sum(
        np.linalg.norm(mf.moment(v, c)) for v, c in expand_product(polys, variables)
    )
    assert np.linalg.norm(got - want) <= 1e-12 * max(scale, 1.0)


PRODUCT_ROUTES = pytest.mark.parametrize("route", [_generic, _own], ids=["generic", "own"])


@PRODUCT_ROUTES
def test_product_rejects_variable_out_of_range(route):
    mf = ConcreteMomentFunctional(scalar_context(np.eye(2) / 2), [np.eye(2), np.eye(2)])
    x = BPolynomial([(np.eye(2), np.eye(2))])
    with pytest.raises(ValueError, match="variable index 3 outside 1..2"):
        route(mf, [x, x], [1, 3])


@PRODUCT_ROUTES
@pytest.mark.parametrize("kind", ["concrete", "cumulant"])
def test_product_rejects_coefficient_dimension(route, kind):
    if kind == "cumulant":
        mf = CumulantMomentFunctional(semicircular_spec(b_dim=2))
    else:
        mf = ConcreteMomentFunctional(scalar_context(np.eye(2) / 2), [np.eye(2)])
    x = BPolynomial([(np.eye(3), np.eye(3))])
    with pytest.raises(ValueError, match="coefficient must be 2x2, got 3x3"):
        route(mf, [x], [1])


@pytest.mark.parametrize("kind", ["concrete", "cumulant"])
def test_center_rejects_coefficient_dimension(kind):
    if kind == "cumulant":
        mf = CumulantMomentFunctional(semicircular_spec(b_dim=2))
    else:
        mf = ConcreteMomentFunctional(scalar_context(np.eye(2) / 2), [np.eye(2)])
    with pytest.raises(ValueError, match="coefficient must be 2x2, got 3x3"):
        center(BPolynomial([(np.eye(3), np.eye(3))]), 1, mf)


@PRODUCT_ROUTES
@pytest.mark.parametrize("polys, variables, message", [
    ([BPolynomial([(np.eye(1), np.eye(1))])], [1, 2], "need one variable index per polynomial"),
    ([], [], "empty product"),
])
def test_product_rejects_malformed_factor_lists(route, polys, variables, message):
    mf = CumulantMomentFunctional(semicircular_spec())
    with pytest.raises(ValueError, match=message):
        route(mf, polys, variables)


@PRODUCT_ROUTES
def test_cumulant_product_rejects_offdiagonal_coefficient(route):
    mf = CumulantMomentFunctional(semicircular_spec(b_dim=2))
    p = BPolynomial([(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))])
    with pytest.raises(ValueError, match="coefficients must be diagonal"):
        route(mf, [p, BPolynomial([(np.eye(2), np.eye(2))])], [1, 2])


@PRODUCT_ROUTES
def test_cumulant_product_caps_the_longest_word(route):
    mf = CumulantMomentFunctional(semicircular_spec())
    one = np.eye(1)
    p7 = BPolynomial([(one,) * 8, (one,)])
    p6 = BPolynomial([(one,) * 7])
    with pytest.raises(ValueError, match=f"exceeds the cap {MAX_WORD_LENGTH}"):
        route(mf, [p7, p6], [1, 2])
    route(mf, [p6, p6], [1, 2])  # twelve letters are within the cap


# -- one request contract: every route rejects a malformed request alike --------------------

def _contract_oracle(kind):
    """Two variables over a 2x2 diagonal B, words of at most MAX_WORD_LENGTH letters."""
    if kind == "concrete":
        ctx = pinching_context([[0], [1]])
        mf = ConcreteMomentFunctional(ctx, [np.diag([1.0, -1.0]), np.eye(2)])
        mf.max_word_length = MAX_WORD_LENGTH
    else:
        mf = CumulantMomentFunctional(semicircular_spec(b_dim=2))
        mf.variable_count = 2
    return mf


def _inner(mf, word, coeffs):
    """The inner coefficients of a decorated word, identities for an undecorated one."""
    return [np.eye(mf.b_dim)] * (len(word) - 1) if coeffs is None else coeffs[1:-1]


def _as_polys(mf, word):
    return [BPolynomial([(np.eye(mf.b_dim), np.eye(mf.b_dim))])] * len(word), word


# route(mf, word, coeffs); a tensor route asks for {1..max(word)}^len(word) with the inner
# coefficients as its decorations
CONTRACT_ROUTES = {
    "moment": lambda mf, w, c: mf.moment(w, c),
    "product_expectation": lambda mf, w, c: mf.product_expectation(*_as_polys(mf, w)),
    "generic product_expectation":
        lambda mf, w, c: MomentFunctional.product_expectation(mf, *_as_polys(mf, w)),
    "scalar_moment_tensor": lambda mf, w, c: mf.scalar_moment_tensor(max(w), len(w)),
    "generic scalar_moment_tensor":
        lambda mf, w, c: MomentFunctional.scalar_moment_tensor(mf, max(w), len(w)),
    "expectation_tensor":
        lambda mf, w, c: mf.expectation_tensor(max(w), len(w), _inner(mf, w, c)),
    "generic expectation_tensor":
        lambda mf, w, c: MomentFunctional.expectation_tensor(mf, max(w), len(w), _inner(mf, w, c)),
    "kappa_word": lambda mf, w, c: CumulantExtractor(mf).kappa_word(w, c),
}
DECORATED_ROUTES = ("moment", "expectation_tensor", "generic expectation_tensor", "kappa_word")
CONTRACT_REQUESTS = {
    "variable out of range": ((1, 3), None, "variable index 3 outside 1..2"),
    "word above the cap": ((1,) * 13, None, "word length 13 exceeds the cap 12"),
    "wrong decoration count": ((1, 2), (np.eye(2),) * 2, "word of length 2 needs 3 coefficients, got 2"),
}


@pytest.mark.parametrize("kind", ["concrete", "cumulant"])
@pytest.mark.parametrize("route, request_name", [
    (route, name)
    for name in CONTRACT_REQUESTS
    for route in CONTRACT_ROUTES
    if name != "wrong decoration count" or route in DECORATED_ROUTES
])
def test_every_route_rejects_a_malformed_request_alike(kind, route, request_name):
    word, coeffs, message = CONTRACT_REQUESTS[request_name]
    mf = _contract_oracle(kind)
    with pytest.raises(ValueError) as info:
        CONTRACT_ROUTES[route](mf, word, coeffs)
    assert str(info.value) == message


@pytest.mark.parametrize("kind", ["concrete", "cumulant"])
def test_tensor_entry_cap_counts_the_values_of_each_tuple(kind):
    # 4^10 scalar values fit the budget, but 16x16 values are 2^28 entries of 16 bytes
    assert 16 * 4**10 <= MAX_BYTES < 16 * 4**10 * 16**2
    if kind == "concrete":
        mf = ConcreteMomentFunctional(scalar_context(np.eye(16) / 16), [np.eye(16)] * 4)
    else:
        mf = CumulantMomentFunctional(semicircular_spec(b_dim=16))
    identity = lambda k, n: mf.expectation_tensor(k, n, [np.eye(16)] * (n - 1))
    for route in (mf.scalar_moment_tensor, identity):
        with pytest.raises(ValueError, match=r"moment tensor with 4\^10 16x16 values is too large"):
            route(4, 10)


# -- mixed cumulant reports -----------------------------------------------------------------

def test_mixed_cumulants_vanish_for_cumulant_backing():
    mf = CumulantMomentFunctional(random_spec(np.random.default_rng(13), 4))
    report = check_mixed_cumulants(mf, (1, 2), 4, tol=1e-12)
    assert report.passed
    assert report.max_residual <= 1e-12


def test_mixed_cumulants_detect_identical_variables():
    rng = np.random.default_rng(14)
    ctx = scalar_context(np.diag([0.5, 0.5]))
    x = random_matrix(rng, 2)
    mf = ConcreteMomentFunctional(ctx, [x, x.copy()])
    report = check_mixed_cumulants(mf, (1, 2), 2, tol=1e-9)
    assert not report.passed
    # kappa_2(x1, x2) = E[x^2] - E[x]^2 for identical copies
    expected = ctx.expect(x @ x) - ctx.expect(x) @ ctx.expect(x)
    assert abs(report.max_residual - np.linalg.norm(expected)) <= 1e-10


def test_mixed_cumulants_detect_tensor_independent_bernoulli_pair():
    # two commuting independent +-1 variables on C^4 with the product state
    diag1 = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    diag2 = np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex)
    ctx = scalar_context(np.eye(4) / 4)
    mf = ConcreteMomentFunctional(ctx, [diag1, diag2])
    report = check_mixed_cumulants(mf, (1, 2), 4, tol=1e-9)
    assert not report.passed
    extractor = CumulantExtractor(mf)
    k4 = extractor.kappa_word((1, 2, 1, 2))
    # scalar value 1 embedded as 1*I_4: E[e1 e2 e1 e2] = 1 and nothing cancels it
    assert abs(k4[0, 0] - 1.0) <= 1e-12


def test_mixed_cumulants_requires_two_variables():
    mf = CumulantMomentFunctional(semicircular_spec())
    with pytest.raises(ValueError):
        check_mixed_cumulants(mf, (1, 1), 2)
