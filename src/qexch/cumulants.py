"""Operator-valued free cumulants.

Three pieces live here: the partitioned functional rho_pi obtained by
collapsing interval blocks of a non-crossing partition, the recursive
moment -> cumulant extraction for arbitrary moment oracles, and
cumulant-backed moment oracles that realize an identically distributed
family whose mixed cumulants vanish by construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import MAX_TENSOR_TUPLES, MomentFunctional, _severity, as_matrix, frobenius
from .partitions import (
    _pattern_table,
    _profile_counts,
    canonical_pattern,
    delete_block,
    enumerate_noncrossing,
    interval_blocks,
    is_noncrossing,
)

MAX_TRANSFORM_ORDER = 8
MAX_WORD_LENGTH = 12


@lru_cache(maxsize=16)
def _noncrossing(n):
    return tuple(enumerate_noncrossing(n))


class MultilinearFamily:
    """A family rho_n of multilinear B-valued maps for n = 1..max_order."""

    def __init__(self, max_order, evaluate):
        self.max_order = max_order
        self._evaluate = evaluate

    def __call__(self, args):
        args = tuple(args)
        if not 1 <= len(args) <= self.max_order:
            raise ValueError(
                f"arity {len(args)} outside the family range 1..{self.max_order}"
            )
        return self._evaluate(args)


def moment_family(ctx, max_order=MAX_WORD_LENGTH):
    """The moment functionals rho_n(a_1..a_n) = E[a_1 ... a_n] of a context."""

    def evaluate(args):
        acc = args[0]
        for a in args[1:]:
            acc = acc @ a
        return ctx.expect(acc)

    return MultilinearFamily(max_order, evaluate)


def rho_pi(rho, pi, args, peel="min"):
    """Evaluate rho_pi by repeatedly collapsing an interval block.

    The collapsed value multiplies the element just before the block, or
    the element just after it when the block starts at position one.  The
    result is independent of which interval block is peeled whenever rho
    respects the B-module structure; `peel` selects the interval block with
    the smallest ("min") or largest ("max") minimum, the former being the
    deterministic default.
    """
    args = [np.asarray(a, dtype=complex) for a in args]
    if len(args) != pi.n:
        raise ValueError(f"got {len(args)} arguments for a partition of {pi.n}")
    if peel not in ("min", "max"):
        raise ValueError(f"unknown peel rule {peel!r}")
    if not is_noncrossing(pi):
        raise ValueError("rho_pi is defined for non-crossing partitions only")
    if pi.num_blocks == 1:
        return rho(args)
    candidates = interval_blocks(pi)
    block = candidates[0] if peel == "min" else candidates[-1]
    start, r = block[0], len(block)
    value = rho(args[start - 1 : start - 1 + r])
    rest = args[: start - 1] + args[start - 1 + r :]
    if start == 1:
        rest[0] = value @ rest[0]
    else:
        rest[start - 2] = rest[start - 2] @ value
    return rho_pi(rho, delete_block(pi, block), rest, peel=peel)


class CumulantExtractor:
    """Cumulants of decorated words, extracted from a moment oracle.

    kappa_word inverts the partition-sum relation: the moment of a word
    equals the sum of kappa_pi over non-crossing pi, and every pi other
    than the one-block partition only involves cumulants of shorter words.
    Results are cached per (variables, coefficients) signature.
    """

    def __init__(self, mf):
        self.mf = mf
        self._cache = {}

    def _normalize(self, variables, coeffs):
        variables = tuple(int(v) for v in variables)
        if coeffs is None:
            eye = self.mf.identity_coeff()
            coeffs = (eye,) * (len(variables) + 1)
        else:
            coeffs = tuple(as_matrix(c, self.mf.b_dim) for c in coeffs)
            if len(coeffs) != len(variables) + 1:
                raise ValueError("need one more coefficient than variables")
        return variables, coeffs

    def kappa_word(self, variables, coeffs=None):
        variables, coeffs = self._normalize(variables, coeffs)
        n = len(variables)
        if n == 0:
            raise ValueError("cumulants of the empty word are undefined")
        if n > MAX_TRANSFORM_ORDER:
            raise ValueError(
                f"cumulant extraction supports word length <= {MAX_TRANSFORM_ORDER}"
            )
        key = (variables, tuple(c.tobytes() for c in coeffs))
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        total = self.mf.moment(variables, coeffs)
        for pi in _noncrossing(n):
            if pi.num_blocks > 1:
                total = total - self.kappa_partition(pi, variables, coeffs)
        self._cache[key] = total
        return total

    def kappa_partition(self, pi, variables, coeffs=None):
        """kappa_pi of a decorated word, by interval peeling.

        The inner block keeps the decorations between its own variables;
        its cumulant value is merged into the coefficient at the junction,
        which realizes the B-module threading rules.
        """
        variables, coeffs = self._normalize(variables, coeffs)
        if pi.n != len(variables):
            raise ValueError("partition size does not match word length")
        if not is_noncrossing(pi):
            raise ValueError("kappa_pi is indexed by non-crossing partitions only")
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


def moments_to_cumulants(mf, variables, decorations=None, n_max=None):
    """Cumulant table for the prefixes of a decorated word.

    Returns {m: kappa_m} for m = 1..n_max where kappa_m is the cumulant of
    the word on variables[:m] with decorations[:m+1].
    """
    variables = tuple(variables)
    if n_max is None:
        n_max = len(variables)
    if n_max > len(variables):
        raise ValueError("n_max exceeds the number of supplied variables")
    if n_max > MAX_TRANSFORM_ORDER:
        raise ValueError(f"n_max must be <= {MAX_TRANSFORM_ORDER}")
    extractor = CumulantExtractor(mf)
    table = {}
    for m in range(1, n_max + 1):
        coeffs = None if decorations is None else tuple(decorations[: m + 1])
        table[m] = extractor.kappa_word(variables[:m], coeffs)
    return table


@dataclass
class MixedCumulantReport:
    """Largest mixed cumulant found among tuples over the given variables."""

    max_mixed: float
    worst_tuple: tuple
    tolerance: float
    checked: int

    @property
    def passed(self):
        return self.max_mixed <= self.tolerance

    def summary(self):
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"mixed cumulants: max {self.max_mixed:.3e} at {self.worst_tuple} "
            f"over {self.checked} tuples (tol={self.tolerance:g})  {verdict}"
        )


def check_mixed_cumulants(mf, variables, decorations=None, tol=1e-9):
    """Scan every mixed tuple over the distinct values of `variables`.

    Tuples of each length from 2 up to len(variables) are formed from the
    distinct variable indices; decorations, when given, apply only at full
    length.  A free family passes, any dependence shows up as a nonzero
    mixed cumulant.
    """
    variables = tuple(variables)
    values = sorted(set(variables))
    if len(values) < 2:
        raise ValueError("need at least two distinct variables")
    extractor = CumulantExtractor(mf)
    worst = 0.0
    worst_tuple = ()
    checked = 0
    for m in range(2, len(variables) + 1):
        for tup in itertools.product(values, repeat=m):
            if len(set(tup)) < 2:
                continue
            coeffs = decorations if (decorations is not None and m == len(variables)) else None
            norm = frobenius(extractor.kappa_word(tup, coeffs))
            checked += 1
            if _severity(norm) > _severity(worst):
                worst, worst_tuple = norm, tup
    return MixedCumulantReport(
        max_mixed=worst, worst_tuple=worst_tuple, tolerance=tol, checked=checked
    )


class CumulantSpec:
    """Cumulants of one identically distributed family over commutative B.

    B is represented diagonally: every value is the diagonal of a b_dim x
    b_dim matrix.  kappa[n] is the order-n cumulant of a single variable;
    cumulants of order above max_order and all cumulants mixing distinct
    variables vanish.  `weights` define the state on B used for scalar
    moments (uniform by default).
    """

    def __init__(self, kappa, b_dim=1, max_order=None, weights=None):
        self.b_dim = int(b_dim)
        if self.b_dim < 1:
            raise ValueError("b_dim must be positive")
        table = {}
        for order, value in dict(kappa).items():
            order = int(order)
            if order < 1:
                raise ValueError(f"cumulant orders start at 1, got {order}")
            vec = np.atleast_1d(np.asarray(value, dtype=complex))
            if vec.shape != (self.b_dim,):
                raise ValueError(
                    f"order-{order} value must have {self.b_dim} diagonal entries"
                )
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"order-{order} value is not finite")
            table[order] = vec
        if max_order is None:
            max_order = max(table) if table else 1
        self.max_order = int(max_order)
        self.kappa = {n: v for n, v in table.items() if n <= self.max_order}
        if weights is None:
            weights = np.full(self.b_dim, 1.0 / self.b_dim)
        self.weights = np.asarray(weights, dtype=complex)
        if self.weights.shape != (self.b_dim,):
            raise ValueError("weights must have one entry per diagonal component")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite")
        self._zero = np.zeros(self.b_dim, dtype=complex)

    def value(self, order):
        return self.kappa.get(order, self._zero)

    def kernel_sum(self, patterns):
        """Sums over non-crossing partitions below the kernels of the patterns.

        One row per canonical pattern.  Each admissible partition contributes
        the product of its block cumulants; the restriction to partitions
        refining the kernel is exactly the vanishing of mixed cumulants.  That
        product depends on the block sizes alone, so the sums are the count
        matrix of the patterns times one product per block-size profile.
        """
        counts, sizes = _profile_counts(tuple(patterns))
        table = np.stack(
            [np.ones(self.b_dim, dtype=complex)]
            + [self.value(s) for s in range(1, sizes.shape[1] + 1)]
        )
        return counts @ table[sizes].prod(axis=1)


def semicircular_spec(b_dim=1):
    """Unit variance, all other cumulants zero."""
    return CumulantSpec({2: np.ones(b_dim)}, b_dim=b_dim, max_order=2)


def random_spec(rng, max_order, b_dim=1):
    """Random real cumulants of every order up to max_order."""
    kappa = {
        n: rng.uniform(-1.0, 1.0, size=b_dim) for n in range(1, max_order + 1)
    }
    return CumulantSpec(kappa, b_dim=b_dim, max_order=max_order)


class CumulantMomentFunctional(MomentFunctional):
    """Moment oracle generated by a CumulantSpec.

    Moments are partition sums over non-crossing partitions refining the
    kernel of the variable tuple; because B is commutative, decorations
    multiply straight through the partition sum.
    """

    def __init__(self, spec):
        self.spec = spec
        self.b_dim = spec.b_dim
        self.variable_count = None

    def _diagonals(self, coeffs):
        out = []
        for c in coeffs:
            offdiag = c - np.diag(np.diag(c))
            if frobenius(offdiag) > 1e-12:
                raise ValueError(
                    "cumulant-backed B is diagonal; coefficients must be diagonal"
                )
            out.append(np.diag(c))
        return out

    def moment(self, variables, coeffs=None):
        variables, coeffs = self._check_word(variables, coeffs)
        n = len(variables)
        if n > MAX_WORD_LENGTH:
            raise ValueError(f"word length {n} exceeds the cap {MAX_WORD_LENGTH}")
        deco = np.ones(self.b_dim, dtype=complex)
        if coeffs is not None:
            for diag in self._diagonals(coeffs):
                deco = deco * diag
        if n == 0:
            return np.diag(deco)
        vec = self.spec.kernel_sum([canonical_pattern(variables)])[0] * deco
        return np.diag(vec)

    def scalar_moment(self, variables):
        variables, _ = self._check_word(variables, None)
        if not variables:
            return 1.0 + 0j
        vec = self.spec.kernel_sum([canonical_pattern(variables)])[0]
        return complex(self.spec.weights @ vec)

    def random_coeff(self, rng):
        diag = rng.standard_normal(self.b_dim) + 1j * rng.standard_normal(self.b_dim)
        return np.diag(diag)

    def scalar_moment_tensor(self, k, n):
        if k**n > MAX_TENSOR_TUPLES:
            raise ValueError(f"moment tensor with {k}^{n} entries is too large")
        ids, patterns = _pattern_table(k, n)
        values = self.spec.kernel_sum(patterns) @ self.spec.weights
        return values[ids].reshape((k,) * n)

    def expectation_tensor(self, k, n, decorations=None):
        if k**n > MAX_TENSOR_TUPLES:
            raise ValueError(f"moment tensor with {k}^{n} entries is too large")
        deco = np.ones(self.b_dim, dtype=complex)
        if decorations is not None:
            if len(decorations) != n - 1:
                raise ValueError(f"need {n - 1} inner decorations")
            for diag in self._diagonals(
                [as_matrix(b, self.b_dim) for b in decorations]
            ):
                deco = deco * diag
        ids, patterns = _pattern_table(k, n)
        vals = self.spec.kernel_sum(patterns) * deco
        diag_axis = np.arange(self.b_dim)
        out = np.zeros((k**n, self.b_dim, self.b_dim), dtype=complex)
        out[:, diag_axis, diag_axis] = vals[ids]
        return out.reshape((k,) * n + (self.b_dim, self.b_dim))


def cumulants_to_moments(spec, variables, coeffs=None):
    """Moment of a decorated word under the free family described by spec."""
    return CumulantMomentFunctional(spec).moment(variables, coeffs)
