"""Contexts, conditional expectations, polynomials, and moment oracles."""

import inspect
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qexch import algebra, cli, cumulants, exchangeability, magic
from qexch.algebra import (
    MAX_BYTES,
    BPolynomial,
    ConcreteMomentFunctional,
    MomentFunctional,
    SubalgebraWithExpectation,
    center,
    eval_polynomial,
    expand_product,
    pinching_context,
    product_expectation,
    scalar_context,
    verify_context,
)


def random_matrix(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


# -- the one tolerance and the one residual report -----------------------------

def _public_functions(module):
    """(name, function) for every public function and method defined in module."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            yield from ((f"{name}.{m}", f) for m, f in vars(obj).items() if inspect.isfunction(f))
        elif inspect.isfunction(obj):
            yield name, obj


def test_every_tol_default_is_the_one_default(tmp_path):
    defaults = {
        f"{module.__name__}.{name}": inspect.signature(fn).parameters["tol"].default
        for module in (algebra, cumulants, exchangeability, magic)
        for name, fn in _public_functions(module)
        if "tol" in inspect.signature(fn).parameters
    }
    # the seven checks that report residuals; a projection or membership test has no tol
    assert "qexch.magic.verify_relations" in defaults and len(defaults) >= 7
    assert defaults == dict.fromkeys(defaults, algebra.DEFAULT_TOL)
    assert algebra.DEFAULT_TOL == 1e-8
    # a scenario without a tolerance, run without --tol
    scenario = tmp_path / "s.json"
    scenario.write_text('{"name": "s", "functional": null, "checks": []}')
    args = cli.build_parser().parse_args(["verify", str(scenario)])
    default = cli.load_scenario(scenario)["tolerance"]
    assert cli._flag(args, "tol", cli._check_tol, default) == algebra.DEFAULT_TOL


class _Overridden(SubalgebraWithExpectation):
    """B of an honest kind, with E replaced by change(E, a): no kind builds a faulty E."""

    __slots__ = ("change",)

    def __init__(self, honest, change):
        for name in SubalgebraWithExpectation.__slots__:
            setattr(self, name, getattr(honest, name))
        self.change = change

    def expect(self, a):
        return self.change(super().expect, np.asarray(a, dtype=complex))


def _nan_off_hermitian(expect, a):
    """E on Hermitian matrices and NaN on every other matrix."""
    out = expect(a)
    return out if np.allclose(a, a.conj().T) else np.full_like(out, np.nan)


# finite, but its square is inf - inf off the diagonal
_OVERFLOWING = np.array([[1e200, 1e200], [1e200, -1e200]])


@pytest.mark.parametrize("produce", [
    lambda: magic.verify_relations(magic.MagicUnitary(_OVERFLOWING[None, None])),
    # the first matrix unit is Hermitian, so a max that let NaN lose would pass this
    lambda: verify_context(_Overridden(scalar_context(np.eye(2) / 2), _nan_off_hermitian)),
    lambda: cumulants.check_mixed_cumulants(
        ConcreteMomentFunctional(scalar_context(np.eye(2) / 2), [_OVERFLOWING] * 2), (1, 2), 2
    ),
], ids=["verify_relations", "verify_context", "check_mixed_cumulants"])
def test_nan_residual_fails_closed(produce):
    with np.errstate(over="ignore", invalid="ignore"):
        rep = produce()
    assert isinstance(rep, algebra.ResidualReport)
    assert np.isnan(rep.max_residual)
    assert not rep.passed
    assert rep.summary().endswith("\nFAIL") and " nan" in rep.summary()


# -- contexts and expectation axioms -------------------------------------------

def test_scalar_context_passes():
    ctx = scalar_context(np.diag([0.6, 0.4]))
    report = verify_context(ctx, samples=30, tol=1e-12)
    assert report.passed
    assert report.max_residual <= 1e-12


def test_diagonal_pinching_passes():
    ctx = pinching_context([[0], [1]])
    report = verify_context(ctx, samples=30, tol=1e-12)
    assert report.passed


def test_block_pinching_passes():
    ctx = pinching_context([[0, 1], [2]])
    assert verify_context(ctx, samples=20, tol=1e-12).passed


def test_transpose_map_fails_bimodule():
    # transpose fixes the diagonal subalgebra but reverses left/right actions
    report = verify_context(_Overridden(pinching_context([[0], [1]]), lambda expect, a: a.T))
    assert not report.passed
    assert report.residuals["bimodule"] > 1e-3
    assert report.residuals["expectation_fixes_b"] == 0.0


@st.composite
def _density_and_blocks(draw):
    """A seed for a random density, and blocks that partition 0..d-1 in a random order."""
    d = draw(st.integers(1, 6))
    order = draw(st.permutations(range(d)))
    cuts = draw(st.lists(st.booleans(), min_size=d - 1, max_size=d - 1))
    blocks = [[order[0]]]
    for x, cut in zip(order[1:], cuts):
        if cut:
            blocks.append([])
        blocks[-1].append(x)
    return draw(st.integers(0, 2**32 - 1)), blocks


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_density_and_blocks())
def test_kinds_match_their_dense_expectation_maps(case):
    seed, blocks = case
    rng = np.random.default_rng(seed)
    d = sum(map(len, blocks))
    g = random_matrix(rng, d)
    rho = g @ g.conj().T / np.trace(g @ g.conj().T)
    mask = np.zeros((d, d))
    for block in blocks:
        mask[np.ix_(block, block)] = 1.0
    units = []
    for block in blocks:
        for x, y in itertools.product(block, repeat=2):
            units.append(np.zeros((d, d), dtype=complex))
            units[-1][x, y] = 1.0
    # each kind, the d^2 x d^2 map of E on row-major vectors, and a basis of B
    kinds = [
        (scalar_context(rho), np.outer(np.eye(d).reshape(-1), rho.T.reshape(-1)), [np.eye(d)]),
        (pinching_context(blocks), np.diag(mask.reshape(-1)), units),
    ]
    for ctx, e_map, basis in kinds:
        a = random_matrix(rng, d)
        stack = rng.standard_normal((2, 3, d, d)) + 1j * rng.standard_normal((2, 3, d, d))
        dense = (stack.reshape(-1, d * d) @ e_map.T).reshape(stack.shape)
        np.testing.assert_allclose(ctx.expect(a), (e_map @ a.reshape(-1)).reshape(d, d),
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(ctx.expect_all(stack), dense, rtol=0, atol=1e-13)
        # one coefficient per basis element, every real part drawn before the imaginary ones
        draws = np.random.default_rng(seed)
        coef = draws.standard_normal(len(basis)) + 1j * draws.standard_normal(len(basis))
        expected = sum(c * b for c, b in zip(coef, basis))
        assert np.array_equal(ctx.random_element(np.random.default_rng(seed)), expected)
    pinched = ConcreteMomentFunctional(kinds[1][0], [mask])
    if max(map(len, blocks)) >= 2:
        with pytest.raises(ValueError, match="requires a commutative subalgebra B"):
            exchangeability.check_E_invariance(pinched, magic.from_permutation([2, 1]),
                                               [np.eye(d)] * 2)
    else:
        assert pinched.context.is_commutative()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_density_and_blocks())
def test_one_object_holds_the_state_its_expectation_preserves(case):
    seed, blocks = case
    rng = np.random.default_rng(seed)
    d = sum(map(len, blocks))
    g = random_matrix(rng, d)
    rho = g @ g.conj().T / np.trace(g @ g.conj().T)
    # scalar kind: E is read off the state's own density, so phi o E = phi
    ctx = scalar_context(rho)
    a = random_matrix(rng, d)
    assert abs(ctx.phi(ctx.expect(a)) - ctx.phi(a)) <= 1e-12
    assert verify_context(ctx).passed
    assert ctx.residuals()["state_preserved"] <= 1e-14
    # off trace one, phi o E = tr(rho) phi: the residual is |tr rho - 1| |rho|
    assert scalar_context(2 * rho).residuals()["state_preserved"] == pytest.approx(
        2 * np.linalg.norm(rho), rel=1e-12)
    # pinching kind: a block-diagonal density is preserved, mass off the blocks is not
    pinched = pinching_context(blocks)
    on_blocks = pinched.expect(rho)  # the pinching of a state is a state
    kept = pinching_context(blocks, on_blocks)
    assert verify_context(kept).passed and kept.residuals()["state_preserved"] == 0.0
    moved = pinching_context(blocks, rho)
    report = verify_context(moved)
    off = np.abs(rho - on_blocks).max()
    assert report.residuals["state_compatibility"] == pytest.approx(off, rel=0, abs=1e-12)
    assert report.passed == (len(blocks) == 1)
    # the closed form is the mass off the blocks, which the sampled axiom reads entry by entry
    preserved = moved.residuals()["state_preserved"]
    assert preserved == pytest.approx(np.linalg.norm(rho - on_blocks), rel=0, abs=1e-14)
    assert (preserved <= 1e-14) == (len(blocks) == 1)
    # verify_context keeps its nine names, the sampled state_compatibility among them
    assert list(report.residuals) == [
        "state_hermitian", "state_trace", "state_negativity", "expectation_unital",
        "expectation_fixes_b", "expectation_range", "bimodule", "positivity_spot",
        "state_compatibility"]


def test_pinching_charges_its_mask_before_building_it():
    itemsize = pinching_context([[0]]).mask.itemsize
    d = math.isqrt(MAX_BYTES // itemsize) + 1  # the first dim whose mask exceeds MAX_BYTES
    assert itemsize * (d - 1) ** 2 <= MAX_BYTES < itemsize * d * d
    with pytest.raises(ValueError, match=f"over the budget of {MAX_BYTES}"):
        pinching_context([[x] for x in range(d)])


def test_scalar_context_holds_no_dense_map():
    # a dim**4-entry complex map of E would alone be 256 MiB at dim 64
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        ctx = scalar_context(np.eye(64) / 64)
        ctx.expect(np.ones((64, 64)))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def test_state_residuals_detect_bad_density():
    bad = scalar_context(np.diag([0.9, 0.3]))
    assert bad.residuals()["state_trace"] > 0.1


# -- polynomials -----------------------------------------------------------------

def test_eval_constant_polynomial(rng):
    b0 = random_matrix(rng, 2)
    p = BPolynomial([(b0,)])
    assert np.allclose(eval_polynomial(p, random_matrix(rng, 2)), b0)


def test_eval_identity_word(rng):
    a = random_matrix(rng, 3)
    p = BPolynomial([(np.eye(3), np.eye(3))])
    assert np.allclose(eval_polynomial(p, a), a)


def test_eval_degree_two_word_against_direct_product(rng):
    for _ in range(10):
        b0, b1, b2 = (random_matrix(rng, 2) for _ in range(3))
        a = random_matrix(rng, 2)
        p = BPolynomial([(b0, b1, b2)])
        assert np.allclose(eval_polynomial(p, a), b0 @ a @ b1 @ a @ b2)


def test_eval_polynomial_is_linear(rng):
    a = random_matrix(rng, 2)
    w1 = (random_matrix(rng, 2), random_matrix(rng, 2))
    w2 = (random_matrix(rng, 2), random_matrix(rng, 2), random_matrix(rng, 2))
    both = eval_polynomial(BPolynomial([w1, w2]), a)
    sep = eval_polynomial(BPolynomial([w1]), a) + eval_polynomial(BPolynomial([w2]), a)
    assert np.allclose(both, sep)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_density_rejected(bad):
    density = np.eye(2) / 2
    density[0, 1] = bad
    with pytest.raises(ValueError, match="density contains non-finite entries"):
        scalar_context(density)
    with pytest.raises(ValueError, match="density contains non-finite entries"):
        pinching_context([[0], [1]], density)


def test_pinching_density_must_match_the_blocks():
    with pytest.raises(ValueError, match="density must be 2x2, got 3x3"):
        pinching_context([[0], [1]], np.eye(3) / 3)


def test_dimension_mismatch_rejected(rng):
    p = BPolynomial([(np.eye(2), np.eye(2))])
    with pytest.raises(ValueError):
        eval_polynomial(p, random_matrix(rng, 3))


# -- moment functionals ------------------------------------------------------------

def test_concrete_decorated_word_matches_matrix_arithmetic(rng):
    ctx = pinching_context([[0], [1]])
    xs = [random_matrix(rng, 2) for _ in range(2)]
    mf = ConcreteMomentFunctional(ctx, xs)
    b0, b1 = np.diag([1.0, 2.0]), np.diag([0.5, -1.0])
    got = mf.moment((1, 2), (b0, b1, b0))
    assert np.allclose(got, ctx.expect(b0 @ xs[0] @ b1 @ xs[1] @ b0))


def test_moment_multilinearity_in_decorations(rng):
    ctx = scalar_context(np.diag([0.7, 0.3]))
    mf = ConcreteMomentFunctional(ctx, [random_matrix(rng, 2)])
    eye = mf.identity_coeff()
    z = 1.3 - 0.4j
    a = mf.moment((1,), (z * eye, eye))
    b = mf.moment((1,), (eye, eye))
    assert np.allclose(a, z * b)


def test_moment_bimodule_covariance(rng):
    ctx = pinching_context([[0], [1]])
    xs = [random_matrix(rng, 2) for _ in range(2)]
    mf = ConcreteMomentFunctional(ctx, xs)
    b = np.diag([2.0, -1.0]).astype(complex)
    eye = mf.identity_coeff()
    left = mf.moment((1, 2), (b, eye, eye))
    assert np.allclose(left, b @ mf.moment((1, 2)))
    right = mf.moment((1, 2), (eye, eye, b))
    assert np.allclose(right, mf.moment((1, 2)) @ b)


def test_phi_compatible_with_expectation_on_words(rng):
    ctx = pinching_context([[0], [1]])
    xs = [random_matrix(rng, 2) for _ in range(3)]
    mf = ConcreteMomentFunctional(ctx, xs)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        word = tuple(int(v) for v in rng.integers(1, 4, size=n))
        value = mf.moment(word)
        prod = mf._word_matrix(word, None)
        assert abs(ctx.phi(value) - ctx.phi(prod)) <= 1e-12


def test_empty_word_returns_leading_coefficient(rng):
    ctx = scalar_context(np.eye(2) / 2)
    mf = ConcreteMomentFunctional(ctx, [random_matrix(rng, 2)])
    b0 = 3.5 * np.eye(2)
    assert np.allclose(mf.moment((), (b0,)), b0)
    assert np.allclose(mf.moment(()), np.eye(2))


def test_variable_index_out_of_range(rng):
    ctx = scalar_context(np.eye(2) / 2)
    mf = ConcreteMomentFunctional(ctx, [random_matrix(rng, 2)])
    with pytest.raises(ValueError):
        mf.moment((2,))


def test_tensor_helpers_match_entrywise_loops(rng):
    ctx = pinching_context([[0], [1]])
    xs = [random_matrix(rng, 2) for _ in range(3)]
    mf = ConcreteMomentFunctional(ctx, xs)
    fast = mf.scalar_moment_tensor(3, 3)
    slow = MomentFunctional.scalar_moment_tensor(mf, 3, 3)
    np.testing.assert_allclose(fast, slow, atol=1e-13)
    decs = [ctx.random_element(rng) for _ in range(2)]
    fast_e = mf.expectation_tensor(3, 3, decs)
    slow_e = MomentFunctional.expectation_tensor(mf, 3, 3, decs)
    np.testing.assert_allclose(fast_e, slow_e, atol=1e-13)


# -- centering ----------------------------------------------------------------------

def test_center_scalar_example(rng):
    ctx = scalar_context(np.diag([0.5, 0.5]))
    x = random_matrix(rng, 2)
    mf = ConcreteMomentFunctional(ctx, [x])
    p = BPolynomial([(np.eye(2), np.eye(2))])
    centered = center(p, 1, mf)
    assert len(centered.words) == 2
    mean = ctx.phi(x)
    assert np.allclose(centered.words[1][0], -mean * np.eye(2))


def test_center_gives_zero_mean_and_is_idempotent(rng):
    ctx = pinching_context([[0], [1]])
    xs = [random_matrix(rng, 2) for _ in range(2)]
    mf = ConcreteMomentFunctional(ctx, xs)
    words = [
        (mf.random_coeff(rng), mf.random_coeff(rng)),
        (mf.random_coeff(rng), mf.random_coeff(rng), mf.random_coeff(rng)),
    ]
    p = BPolynomial(words)
    c1 = center(p, 2, mf)
    mean = sum(mf.moment((2,) * (len(w) - 1), w) for w in c1.words)
    assert np.linalg.norm(mean) <= 1e-12
    c2 = center(c1, 2, mf)
    assert np.linalg.norm(c2.words[-1][0]) <= 1e-12


# -- products of polynomials ---------------------------------------------------------

def test_expand_product_matches_direct_expectation(rng):
    ctx = scalar_context(np.diag([0.25, 0.75]))
    xs = [random_matrix(rng, 2) for _ in range(2)]
    mf = ConcreteMomentFunctional(ctx, xs)
    p1 = BPolynomial([(np.eye(2), np.eye(2)), (0.7 * np.eye(2),)])
    p2 = BPolynomial([(2.0 * np.eye(2), np.eye(2), np.eye(2))])
    direct = ctx.expect(
        (xs[0] + 0.7 * np.eye(2)) @ (2.0 * xs[1] @ xs[1])
    )
    # the oracle's own route and the generic word expansion
    assert np.allclose(product_expectation(mf, [p1, p2], [1, 2]), direct)
    assert np.allclose(MomentFunctional.product_expectation(mf, [p1, p2], [1, 2]), direct)


def test_expand_product_merges_constant_words():
    words = expand_product(
        [BPolynomial([(2.0 * np.eye(2),)]), BPolynomial([(np.eye(2), np.eye(2))])], [1, 2]
    )
    assert len(words) == 1
    variables, coeffs = words[0]
    assert variables == (2,)
    assert np.allclose(coeffs[0], 2.0 * np.eye(2))
