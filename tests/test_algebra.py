"""Contexts, conditional expectations, polynomials, and moment oracles."""

import inspect

import numpy as np
import pytest

from qexch import algebra, cli, cumulants, exchangeability, magic
from qexch.algebra import (
    AlgebraContext,
    BPolynomial,
    ConcreteMomentFunctional,
    MomentFunctional,
    State,
    SubalgebraWithExpectation,
    center,
    eval_polynomial,
    expand_product,
    pinching_context,
    product_expectation,
    scalar_context,
    scalar_subalgebra,
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


class _NaNOffHermitian(SubalgebraWithExpectation):
    """E = phi(.) 1 on Hermitian matrices and NaN on every other matrix."""

    def expect(self, a):
        out = super().expect(a)
        return out if np.allclose(a, a.conj().T) else np.full_like(out, np.nan)


# finite, but its square is inf - inf off the diagonal
_OVERFLOWING = np.array([[1e200, 1e200], [1e200, -1e200]])


@pytest.mark.parametrize("produce", [
    lambda: magic.verify_relations(magic.MagicUnitary(_OVERFLOWING[None, None])),
    # the first matrix unit is Hermitian, so a max that let NaN lose would pass this
    lambda: verify_context(AlgebraContext(
        State(np.eye(2) / 2), _NaNOffHermitian([np.eye(2)], scalar_subalgebra(np.eye(2) / 2).e_map)
    )),
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
    d = 2
    tmap = np.zeros((d * d, d * d), dtype=complex)
    for x in range(d):
        for y in range(d):
            tmap[y * d + x, x * d + y] = 1.0
    basis = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    sub = SubalgebraWithExpectation(basis, tmap)
    report = verify_context(AlgebraContext(State(np.eye(d) / d), sub))
    assert not report.passed
    assert report.residuals["bimodule"] > 1e-3


def test_identity_must_be_in_span():
    with pytest.raises(ValueError):
        SubalgebraWithExpectation([np.diag([1.0, 0.0])], np.eye(4))


def test_state_residuals_detect_bad_density():
    bad = State(np.diag([0.9, 0.3]))
    assert bad.residuals()["state_trace"] > 0.1


# -- polynomials -----------------------------------------------------------------

def test_eval_constant_polynomial(rng):
    b0 = random_matrix(rng, 2)
    p = BPolynomial.constant(b0)
    assert np.allclose(eval_polynomial(p, random_matrix(rng, 2)), b0)


def test_eval_identity_word(rng):
    a = random_matrix(rng, 3)
    p = BPolynomial.variable(3)
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
def test_non_finite_expectation_map_rejected(bad):
    e_map = scalar_subalgebra(np.eye(2) / 2).e_map.copy()
    e_map[0, 3] = bad
    with pytest.raises(ValueError, match="e_map contains non-finite entries"):
        SubalgebraWithExpectation([np.eye(2)], e_map)


def test_dimension_mismatch_rejected(rng):
    p = BPolynomial.variable(2)
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
    decs = [ctx.subalgebra.random_element(rng) for _ in range(2)]
    fast_e = mf.expectation_tensor(3, 3, decs)
    slow_e = MomentFunctional.expectation_tensor(mf, 3, 3, decs)
    np.testing.assert_allclose(fast_e, slow_e, atol=1e-13)


# -- centering ----------------------------------------------------------------------

def test_center_scalar_example(rng):
    ctx = scalar_context(np.diag([0.5, 0.5]))
    x = random_matrix(rng, 2)
    mf = ConcreteMomentFunctional(ctx, [x])
    p = BPolynomial.variable(2)
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
        [BPolynomial.constant(2.0 * np.eye(2)), BPolynomial.variable(2)], [1, 2]
    )
    assert len(words) == 1
    variables, coeffs = words[0]
    assert variables == (2,)
    assert np.allclose(coeffs[0], 2.0 * np.eye(2))
