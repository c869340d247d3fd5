"""Operator-valued free cumulants.

Three pieces live here: the partitioned functional rho_pi obtained by
collapsing interval blocks of a non-crossing partition, the recursive
moment -> cumulant extraction for arbitrary moment oracles, each extractor
keeping the NC(n) it iterates, and cumulant-backed moment oracles that
realize an identically distributed family with vanishing mixed cumulants.
"""

from __future__ import annotations

import itertools

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    MomentFunctional,
    ResidualReport,
    _severity,
    check_bytes,
    frobenius,
)
from .partitions import (
    _pattern_table,
    _pattern_table_charge,
    _peeling_steps,
    _profile_counts,
    _profile_counts_charge,
    canonical_pattern,
    enumerate_noncrossing,
)

MAX_TRANSFORM_ORDER = 8
MAX_WORD_LENGTH = 12


def moment_family(ctx):
    """The moment functionals rho_n(a_1..a_n) = E[a_1 ... a_n] of a context, for every n >= 1."""

    def rho(args):
        args = tuple(args)
        if not args:
            raise ValueError("the moment family starts at arity 1")
        acc = args[0]
        for a in args[1:]:
            acc = acc @ a
        return ctx.expect(acc)

    return rho


def rho_pi(rho, pi, args, peel="min"):
    """Evaluate rho_pi by repeatedly collapsing an interval block.

    The collapsed value multiplies the element just before the block, or
    the element just after it when the block starts at position one.  The
    result is independent of which interval block is peeled whenever rho
    respects the B-module structure; `peel` selects the interval block with
    the smallest ("min") or largest ("max") minimum, the former being the
    deterministic default (partitions._peeling_steps).
    """
    args = [np.asarray(a, dtype=complex) for a in args]
    if len(args) != pi.n:
        raise ValueError(f"got {len(args)} arguments for a partition of {pi.n}")
    for start, r in _peeling_steps(pi, peel):
        value = rho(args[start - 1 : start - 1 + r])
        args = args[: start - 1] + args[start - 1 + r :]
        if start == 1:
            args[0] = value @ args[0]
        else:
            args[start - 2] = args[start - 2] @ value
    return rho(args)


def _check_order(n):
    if n > MAX_TRANSFORM_ORDER:
        raise ValueError(f"cumulant extraction supports word length <= {MAX_TRANSFORM_ORDER}")


class CumulantExtractor:
    """Cumulants of decorated words, extracted from a moment oracle.

    kappa_word inverts the partition-sum relation: the moment of a word
    equals the sum of kappa_pi over non-crossing pi, and every pi other
    than the one-block partition only involves cumulants of shorter words.
    Each public method checks its request at entry, and _kappa_word calls the
    public kappa_partition, which checks each sub-word again: a private
    recursion would not, but the benchmark counts kappa_partition calls on
    every route that extracts.  Results are cached per (variables,
    coefficients) signature, each distinct coefficient held once as a small
    int; NC(n) and each partition's peeling steps are kept once per extractor.
    """

    def __init__(self, mf):
        self.mf = mf
        self._cache = {}
        self._coeff_ids = {}  # the bytes of each distinct coefficient -> its int in keys
        self._nc = {}
        self._steps = {}

    def kappa_word(self, variables, coeffs=None):
        variables, coeffs = self.mf._check_word(variables, coeffs)
        n = len(variables)
        if n == 0:
            raise ValueError("cumulants of the empty word are undefined")
        _check_order(n)
        return self._kappa_word(variables, coeffs or (self.mf.identity_coeff(),) * (n + 1))

    def _kappa_word(self, variables, coeffs):
        """kappa_word of a checked word with all its coefficients."""
        ids = self._coeff_ids
        key = (variables, tuple(ids.setdefault(c.tobytes(), len(ids)) for c in coeffs))
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        total = self.mf.moment(variables, coeffs)
        n = len(variables)
        if n not in self._nc:
            self._nc[n] = enumerate_noncrossing(n)
        for pi in self._nc[n]:
            if pi.num_blocks > 1:
                total = total - self.kappa_partition(pi, variables, coeffs)
        self._cache[key] = total
        return total

    def kappa_partition(self, pi, variables, coeffs=None):
        """kappa_pi of a decorated word, by interval peeling.

        The inner block keeps the decorations between its own variables;
        its cumulant value is merged into the coefficient at the junction,
        which realizes the B-module threading rules.  The block left when
        no other remains gives the last factor.
        """
        variables, coeffs = self.mf._check_word(variables, coeffs)
        if pi.n != len(variables):
            raise ValueError("partition size does not match word length")
        steps = self._peeling(pi)
        eye = self.mf.identity_coeff()
        coeffs = coeffs or (eye,) * (len(variables) + 1)
        for s, r in steps:
            value = self._kappa_word(
                variables[s - 1 : s - 1 + r], (eye,) + coeffs[s : s + r - 1] + (eye,)
            )
            merged = coeffs[s - 1] @ value @ coeffs[s + r - 1]
            variables = variables[: s - 1] + variables[s - 1 + r :]
            coeffs = coeffs[: s - 1] + (merged,) + coeffs[s + r :]
        return self._kappa_word(variables, coeffs)

    def _peeling(self, pi):
        """(start, length) of each block kappa_partition peels off pi, in order:
        partitions._peeling_steps, the interval block of least minimum first.
        A crossing pi, or one with a block longer than MAX_TRANSFORM_ORDER, is
        rejected.
        """
        steps = self._steps.get(pi)
        if steps is None:
            steps = _peeling_steps(pi)
            _check_order(max(map(len, pi.blocks)))
            self._steps[pi] = steps
        return steps


def moments_to_cumulants(mf, variables):
    """Cumulant table for the prefixes of a word.

    Returns {m: kappa_m} for m = 1..len(variables) where kappa_m is the
    cumulant of the word on variables[:m].
    """
    variables = tuple(variables)
    if len(variables) > MAX_TRANSFORM_ORDER:
        raise ValueError(f"word length must be <= {MAX_TRANSFORM_ORDER}")
    extractor = CumulantExtractor(mf)
    return {m: extractor.kappa_word(variables[:m]) for m in range(1, len(variables) + 1)}


def check_mixed_cumulants(mf, values, n_max, tol=DEFAULT_TOL):
    """Scan every mixed tuple of length 2..n_max over the distinct `values`.

    A free family passes, any dependence shows up as a nonzero mixed
    cumulant; the largest is reported with its tuple as witness.
    """
    values = sorted(set(values))
    if len(values) < 2:
        raise ValueError("need at least two distinct variables")
    extractor = CumulantExtractor(mf)
    worst = 0.0
    worst_tuple = ()
    checked = 0
    for m in range(2, n_max + 1):
        for tup in itertools.product(values, repeat=m):
            if len(set(tup)) < 2:
                continue
            norm = frobenius(extractor.kappa_word(tup))
            checked += 1
            if _severity(norm) > _severity(worst):
                worst, worst_tuple = norm, tup
    return ResidualReport(
        f"mixed cumulants over {checked} tuples", {"mixed_cumulant": worst}, tol,
        {"mixed_cumulant": worst_tuple},
    )


class CumulantSpec:
    """Cumulants of one identically distributed family over commutative B.

    B is represented diagonally: every value is the diagonal of a b_dim x
    b_dim matrix.  kappa[n] is the order-n cumulant of a single variable;
    the cumulants of orders kappa does not list, and all cumulants mixing
    distinct variables, vanish.  `weights` define the state on B used for
    scalar moments (uniform by default).
    """

    def __init__(self, kappa, b_dim=1, weights=None):
        self.b_dim = int(b_dim)
        if self.b_dim < 1:
            raise ValueError("b_dim must be positive")
        check_bytes(16 * self.b_dim**2, f"a {self.b_dim}x{self.b_dim} value")
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
        self.kappa = table
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

        One row per canonical pattern, int8 rows of one length such as
        _pattern_table's or a list of equal-length tuples.  Each admissible
        partition contributes the product of its block cumulants; the
        restriction to partitions refining the kernel is exactly the vanishing
        of mixed cumulants.  That product depends on the block sizes alone, so
        the sums are the count matrix times one product per block-size profile.
        """
        rows = np.asarray(patterns, dtype=np.int8)
        counts, sizes = _profile_counts(rows.shape, rows.tobytes())
        table = np.stack(
            [np.ones(self.b_dim, dtype=complex)]
            + [self.value(s) for s in range(1, sizes.shape[1] + 1)]
        )
        return counts @ table[sizes].prod(axis=1)


def random_spec(rng, max_order, b_dim=1):
    """Random real cumulants of every order up to max_order."""
    kappa = {
        n: rng.uniform(-1.0, 1.0, size=b_dim) for n in range(1, max_order + 1)
    }
    return CumulantSpec(kappa, b_dim=b_dim)


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
        self.max_word_length = MAX_WORD_LENGTH

    def _diagonal_product(self, coeffs):
        """Product of the diagonals of diagonal coefficients; all ones for none.

        Every coefficient is checked in one pass over their stack.
        """
        if not coeffs:
            return np.ones(self.b_dim, dtype=complex)
        stack = np.array(coeffs)  # (m, b_dim, b_dim), a copy
        diag_axis = np.arange(self.b_dim)
        diags = stack[:, diag_axis, diag_axis]
        stack[:, diag_axis, diag_axis] -= diags  # what remains is off the diagonal
        if np.any(np.linalg.norm(stack.reshape(len(stack), -1), axis=1) > 1e-12):
            raise ValueError("cumulant-backed B is diagonal; coefficients must be diagonal")
        return np.prod(diags, axis=0)

    def moment(self, variables, coeffs=None):
        variables, coeffs = self._check_word(variables, coeffs)
        deco = self._diagonal_product(coeffs)
        if not variables:
            return np.diag(deco)
        vec = self.spec.kernel_sum([canonical_pattern(variables)])[0] * deco
        return np.diag(vec)

    def product_expectation(self, polys, variables):
        """E[p_1(x_{v1}) ... p_m(x_{vm})] from one kernel_sum call per word length.

        Diagonal decorations multiply through the partition sum, so each
        polynomial reduces to one coefficient product per degree.  A degree
        tuple (n_1..n_m) stands for the word x_{v1}^{n_1} ... x_{vm}^{n_m};
        the weights of tuples with one canonical pattern are added first, and
        the weighted rows are summed in the order the patterns first occur.
        """
        polys, variables = self._check_product(polys, variables)
        factors = []
        for p in polys:
            by_degree = {}
            for w in p.words:
                prod = self._diagonal_product(w)
                by_degree[len(w) - 1] = by_degree.get(len(w) - 1, 0) + prod
            factors.append(list(by_degree.items()))
        weights = {}
        for combo in itertools.product(*factors):
            word = [v for v, (n, _) in zip(variables, combo) for _ in range(n)]
            weight = np.prod([c for _, c in combo], axis=0)
            pattern = canonical_pattern(word)
            weights[pattern] = weights.get(pattern, 0) + weight
        patterns = list(weights)
        rows = np.empty((len(patterns), self.b_dim), dtype=complex)
        for n in sorted(set(map(len, patterns))):
            at = [r for r, pattern in enumerate(patterns) if len(pattern) == n]
            rows[at] = self.spec.kernel_sum([patterns[r] for r in at])
        return np.diag((rows * np.array(list(weights.values()))).sum(axis=0))

    def phi(self, b):
        return complex(self.spec.weights @ np.diag(b))

    def random_coeff(self, rng):
        diag = rng.standard_normal(self.b_dim) + 1j * rng.standard_normal(self.b_dim)
        return np.diag(diag)

    def _tensor_charges(self, k, n):
        """The shared charge, the kernel-pattern table and the count matrix."""
        return super()._tensor_charges(k, n) + [_pattern_table_charge(k, n),
                                                _profile_counts_charge(k, n)]

    def scalar_moment_tensor(self, k, n):
        self._check_tensor(k, n)
        ids, rows = _pattern_table(k, n)
        values = self.spec.kernel_sum(rows) @ self.spec.weights
        return values[ids].reshape((k,) * n)

    def expectation_tensor(self, k, n, decorations):
        deco = self._diagonal_product(self._check_tensor(k, n, decorations))
        ids, rows = _pattern_table(k, n)
        vals = self.spec.kernel_sum(rows) * deco
        diag_axis = np.arange(self.b_dim)
        out = np.zeros((k**n, self.b_dim, self.b_dim), dtype=complex)
        out[:, diag_axis, diag_axis] = vals[ids]
        return out.reshape((k,) * n + (self.b_dim, self.b_dim))
