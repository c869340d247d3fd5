"""Finite-dimensional models of operator-valued probability spaces.

The ambient algebra is M_d(C).  One object, SubalgebraWithExpectation, holds
a concrete model: a state (density matrix), a distinguished *-subalgebra B
and a conditional expectation onto B, of one of two kinds: the scalar
B = C*1 with E[a] = tr(rho a) * 1, read off the state's density rho, or a
block-diagonal B with the pinching E[a] = sum_t P_t a P_t, held as the d x d
mask of the entries it keeps.  Expectations are verified
against the axioms, never derived.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass, field

import numpy as np

# the one default tolerance: a residual at most this large passes
DEFAULT_TOL = 1e-8

# the one size policy: whatever a request sizes (an array, a pattern table, a
# partition list) is charged its bytes with check_bytes before it is built
MAX_BYTES = 2**28  # 256 MiB: 2**24 complex128 entries of 16 bytes
# the longest tensor numpy can index: its 64 axes less two for a b_dim x b_dim value
MAX_TENSOR_LENGTH = 62

# guards every oracle's kept tensors, so that threads sharing an oracle keep at most MAX_BYTES
_keep_lock = threading.Lock()


def check_bytes(nbytes, what):
    """Reject an object of nbytes bytes above MAX_BYTES, before it exists.

    A complex array is charged 16 bytes per entry; structures of Python
    objects are charged an upper bound of their measured footprint.
    """
    if nbytes > MAX_BYTES:
        raise ValueError(f"{what} is too large: {nbytes} bytes, over the budget of {MAX_BYTES}")


def as_matrix(a, dim=None, name="matrix", finite=True):
    """Validate and return a square complex matrix, with finite entries unless finite=False.

    Values computed inside a check skip the finiteness test: an overflow
    there must reach the residual and fail the check, not reject the input.
    """
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"{name} must be {dim}x{dim}, got {arr.shape[0]}x{arr.shape[0]}")
    if finite and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _severity(residual):
    """Ordering key for residuals under which NaN and inf are the worst."""
    return (not math.isfinite(residual), residual)


def frobenius(a):
    return float(np.linalg.norm(a))


class SubalgebraWithExpectation:
    """An operator-valued probability space (M_d, phi, B, E), one object per concrete model.

    phi(a) = tr(rho a) is the state of the density rho, and E is a conditional
    expectation onto B of one of two kinds.  Built only by scalar_context
    (B = C*1 and E[a] = tr(rho a) * 1, read off the same rho) or
    pinching_context (a block-diagonal B and E[a] = mask * a, held as the 0/1
    mask of the entries whose coordinates share a block, with B's matrix
    units as two index arrays).
    """

    __slots__ = ("dim", "density", "mask", "_units")

    def __init__(self, density, mask=None, units=None):
        self.dim, self.density, self.mask, self._units = density.shape[0], density, mask, units

    def phi(self, a):
        return complex(np.trace(self.density @ a))

    def residuals(self):
        """How far the density is from a state that E preserves: Hermitian, of
        trace one, positive, and phi o E = phi, whose difference is tr(m a)
        for m = (tr rho - 1) rho (scalar kind) or mask * rho - rho (pinching)."""
        rho = self.density
        # an overflow must reach the residuals as inf or NaN and fail them
        with np.errstate(over="ignore", invalid="ignore"):
            herm = frobenius(rho - rho.conj().T)
            trace = abs(complex(np.trace(rho)) - 1.0)
            eigs = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
            preserved = (trace * frobenius(rho) if self.mask is None
                         else frobenius(self.mask * rho - rho))
        return {
            "state_hermitian": herm,
            "state_trace": float(trace),
            "state_negativity": float(max(0.0, -eigs.min(), key=_severity)),
            "state_preserved": preserved,
        }

    def expect(self, a):
        return self.expect_all(as_matrix(a, self.dim, finite=False))

    def expect_all(self, stack):
        """Apply E to a stacked array of matrices with shape (..., d, d)."""
        arr = np.asarray(stack, dtype=complex)
        if self.mask is not None:
            return arr * self.mask
        return np.einsum("ab,...ba->...", self.density, arr)[..., None, None] * np.eye(self.dim)

    def _onto_b(self, a):
        """The orthogonal projection of a onto B: (tr a / d) * 1, or mask * a."""
        return a * self.mask if self.mask is not None else np.trace(a) / self.dim * np.eye(self.dim)

    def random_element(self, rng):
        """One complex normal coefficient per matrix unit of B, every real part
        drawn first; the scalar kind's one unit is the identity."""
        count = 1 if self.mask is None else len(self._units[0])
        coef = rng.standard_normal(count) + 1j * rng.standard_normal(count)
        if self.mask is None:
            return coef[0] * np.eye(self.dim)
        b = np.zeros((self.dim, self.dim), dtype=complex)
        b[self._units] = coef
        return b

    def is_commutative(self):
        """B is C*1, or a pinching whose every block is a singleton."""
        return self.mask is None or len(self._units[0]) == self.dim


def scalar_context(density):
    """Scalar amalgamation: B = C*1, E[a] = tr(rho a) * 1 = phi(a) * 1."""
    return SubalgebraWithExpectation(as_matrix(density, name="density"))


def pinching_context(blocks, density=None):
    """Block-diagonal B with E[a] = sum_t P_t a P_t, in the normalized trace state
    unless a density is given.

    blocks partition the coordinate set {0..d-1}; P_t projects onto the
    coordinates of block t, so E keeps entry (x, y) exactly when x and y
    share a block.
    """
    flat = sorted(x for b in blocks for x in b)
    d = len(flat)
    if not flat or flat != list(range(d)):
        raise ValueError(f"blocks must partition 0..d-1, got {blocks}")
    count = sum(len(b) ** 2 for b in blocks)
    # the float mask, and B's matrix units as two index arrays: blocks in order,
    # each in itertools.product(block, repeat=2) order
    check_bytes(8 * d * d + 16 * count, f"pinching of dimension {d} with {count} matrix units")
    rho = as_matrix(np.eye(d) / d if density is None else density, d, "density")
    blocks = [np.asarray(b, dtype=np.intp) for b in blocks]
    units = (np.concatenate([np.repeat(b, len(b)) for b in blocks]),
             np.concatenate([np.tile(b, len(b)) for b in blocks]))
    mask = np.zeros((d, d))
    mask[units] = 1.0
    return SubalgebraWithExpectation(rho, mask, units)


@dataclass
class ResidualReport:
    """Named residuals held to one tolerance; NaN and inf are the worst and fail.

    witnesses maps a residual's name to where its value was attained.
    """

    title: str
    residuals: dict
    tolerance: float
    witnesses: dict = field(default_factory=dict)

    @property
    def max_residual(self):
        return max(self.residuals.values(), key=_severity)

    @property
    def passed(self):
        return self.max_residual <= self.tolerance

    def summary(self):
        lines = [f"{self.title} (tol={self.tolerance:g})"]
        for name, value in self.residuals.items():
            at = f" at {self.witnesses[name]}" if name in self.witnesses else ""
            mark = "ok" if value <= self.tolerance else "FAIL"
            lines.append(f"  {name:<22s} {value:.3e}{at}  {mark}")
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


def verify_context(ctx, samples=20, tol=DEFAULT_TOL):
    """Check the conditional-expectation axioms and state compatibility.

    Failures show up as report entries, never exceptions; positivity is
    only spot-checked on sampled elements of the form a*a, drawn from seed 0.
    B is spanned by the projections of the matrix units onto it, so E fixes
    B when it fixes each of them.
    """
    rng = np.random.default_rng(0)
    d = ctx.dim
    # phi o E = phi is sampled below as state_compatibility, the axiom's reference
    res = {name: v for name, v in ctx.residuals().items() if name != "state_preserved"}

    res["expectation_unital"] = frobenius(ctx.expect(np.eye(d)) - np.eye(d))
    fixes_b, in_range, compatible = [0.0], [0.0], [0.0]
    for x, y in itertools.product(range(d), repeat=2):
        unit = np.zeros((d, d), dtype=complex)
        unit[x, y] = 1.0
        image, b = ctx.expect(unit), ctx._onto_b(unit)
        fixes_b.append(frobenius(ctx.expect(b) - b))
        in_range.append(frobenius(image - ctx._onto_b(image)))
        compatible.append(abs(ctx.phi(image) - ctx.phi(unit)))
    # every max is taken by _severity, so that a NaN is never dropped
    res["expectation_fixes_b"] = max(fixes_b, key=_severity)
    res["expectation_range"] = max(in_range, key=_severity)

    bimodule, positivity = [0.0], [0.0]
    for _ in range(samples):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        b1 = ctx.random_element(rng)
        b2 = ctx.random_element(rng)
        bimodule.append(frobenius(ctx.expect(b1 @ a @ b2) - b1 @ ctx.expect(a) @ b2))
        pos = ctx.expect(a.conj().T @ a)
        herm = frobenius(pos - pos.conj().T)
        eigs = np.linalg.eigvalsh((pos + pos.conj().T) / 2)
        positivity += [herm, -float(eigs.min())]
    res["bimodule"] = max(bimodule, key=_severity)
    res["positivity_spot"] = max(positivity, key=_severity)
    res["state_compatibility"] = max(compatible, key=_severity)
    return ResidualReport(f"context axioms over {samples} samples", res, tol)


class BPolynomial:
    """Polynomial in one formal variable X with coefficients in B.

    Each word (b0, b1, ..., bn) stands for b0*X*b1*X*...*X*bn; a word of
    length one is a constant.
    """

    __slots__ = ("dim", "words")

    def __init__(self, words):
        words = tuple(
            tuple(as_matrix(c, name="coefficient") for c in w) for w in words
        )
        if not words or any(not w for w in words):
            raise ValueError("polynomial needs at least one nonempty word")
        dim = words[0][0].shape[0]
        for w in words:
            for c in w:
                if c.shape[0] != dim:
                    raise ValueError("all coefficients must share one dimension")
        self.dim = dim
        self.words = words

    @classmethod
    def _from_words(cls, dim, words):
        """A polynomial from words that are not validated again."""
        poly = cls.__new__(cls)
        poly.dim, poly.words = dim, words
        return poly

    @property
    def degree(self):
        return max(len(w) - 1 for w in self.words)


def eval_polynomial(p, a):
    """Substitute the matrix a for X and sum the words."""
    a = as_matrix(a, p.dim, "argument")
    total = np.zeros((p.dim, p.dim), dtype=complex)
    for w in p.words:
        acc = w[0]
        for c in w[1:]:
            acc = acc @ a @ c
        total = total + acc
    return total


class MomentFunctional:
    """Oracle for B-valued moments of a family of noncommutative variables.

    Words are decorated: moment((i1,...,in), (b0,...,bn)) is the expectation
    of b0 x_{i1} b1 ... x_{in} bn.  The empty word returns b0.  Every route
    checks its request with _check_word or _check_tensor before any work;
    an oracle declares its variables (variable_count) and its longest word
    (max_word_length), None meaning no bound.

    An oracle must not change once built: the cumulant-backed and concrete
    oracles keep the scalar moment tensors they build (see _keep) and
    answer a repeated request from them.
    """

    b_dim = None
    variable_count = None
    max_word_length = None

    def moment(self, variables, coeffs=None):
        raise NotImplementedError

    def phi(self, b):
        """The state on B at one B-value b.

        The scalar moment of a word is phi(moment(word)), which assumes that
        E preserves the state (phi o E = phi), as a concrete model's residuals()
        measure and cli.build_functional enforces for command-line input.
        """
        raise NotImplementedError

    def identity_coeff(self):
        return np.eye(self.b_dim, dtype=complex)

    def product_expectation(self, polys, variables):
        """E[p_1(x_{v1}) ... p_m(x_{vm})] as a sum of decorated-word moments.

        The generic route: one moment call per word of the expansion.
        Oracles with more structure override it.
        """
        polys, variables = self._check_product(polys, variables)
        total = np.zeros((self.b_dim, self.b_dim), dtype=complex)
        for vars_out, coeffs_out in expand_product(polys, variables):
            total = total + self.moment(vars_out, coeffs_out)
        return total

    def _check_product(self, polys, variables):
        """Validate a product as the moment calls of its expansion would."""
        polys, variables = list(polys), list(variables)
        if len(polys) != len(variables):
            raise ValueError("need one variable index per polynomial")
        if not polys:
            raise ValueError("empty product")
        for p in polys:
            if p.dim != self.b_dim:
                raise ValueError(
                    f"coefficient must be {self.b_dim}x{self.b_dim}, got {p.dim}x{p.dim}"
                )
        # the longest word of the expansion, then every factor's variable
        self._check_word([v for p, v in zip(polys, variables) for _ in range(p.degree)], None)
        return polys, self._check_word(variables, None)[0]

    def random_coeff(self, rng):
        raise NotImplementedError

    def _check_word(self, variables, coeffs):
        """Validate a decorated word: its variables, its length and its coefficients.

        Returns (variables, coeffs) as a tuple of ints and a tuple of
        b_dim x b_dim matrices, or None when coeffs is None.
        """
        variables = tuple(int(v) for v in variables)
        if self.variable_count is not None:
            for v in variables:
                if not 1 <= v <= self.variable_count:
                    raise ValueError(
                        f"variable index {v} outside 1..{self.variable_count}"
                    )
        if self.max_word_length is not None and len(variables) > self.max_word_length:
            raise ValueError(
                f"word length {len(variables)} exceeds the cap {self.max_word_length}"
            )
        if coeffs is not None:
            coeffs = tuple(
                as_matrix(c, self.b_dim, "coefficient", finite=False) for c in coeffs
            )
            if len(coeffs) != len(variables) + 1:
                raise ValueError(
                    f"word of length {len(variables)} needs {len(variables) + 1} "
                    f"coefficients, got {len(coeffs)}"
                )
        return variables, coeffs

    def _check_tensor(self, k, n, decorations=None):
        """Validate a request for the moments of every tuple in {1..k}^n.

        Every word of the tensor passes _check_word exactly when the corner
        word (k, ..., k) with the decorations inside does.  The tensor must
        also stay within MAX_TENSOR_LENGTH positions, and each array of
        _tensor_charges within MAX_BYTES.  Returns the decorations
        validated, or None.
        """
        if n > MAX_TENSOR_LENGTH:
            raise ValueError(
                f"tensor length {n} exceeds the cap {MAX_TENSOR_LENGTH} "
                "(numpy's 64 axes less two for a b_dim x b_dim value)"
            )
        eye = self.identity_coeff()
        coeffs = None if decorations is None else (eye, *decorations, eye)
        coeffs = self._check_word((k,) * n, coeffs)[1]
        for charge in self._tensor_charges(k, n):
            check_bytes(*charge)
        return None if coeffs is None else list(coeffs[1:-1])

    def _tensor_charges(self, k, n):
        """(bytes, description) of each array a moment tensor over {1..k}^n builds."""
        b = self.b_dim
        return [(16 * k**n * b * b, f"moment tensor with {k}^{n} {b}x{b} values")]

    def _keep(self, key, tensor):
        """Keep a scalar moment tensor, read-only, for the next request of key.

        The oracle's own scalar_moment_tensor looks key up in
        _scalar_tensors first and returns a kept tensor as it is, neither
        rebuilt nor checked again: its request passed _check_tensor when it
        was built.  A tensor is kept only while the oracle's kept tensors
        stay within MAX_BYTES together; a larger one is returned, not kept.
        """
        kept = self._scalar_tensors
        with _keep_lock:
            if key not in kept and sum(t.nbytes for t in kept.values()) + tensor.nbytes <= MAX_BYTES:
                tensor.flags.writeable = False
                kept[key] = tensor
        return tensor

    def scalar_moment_tensor(self, k, n):
        """phi(x_{j1}...x_{jn}) for every tuple j in {1..k}^n, C-ordered.

        The generic route, one moment per tuple, keeps nothing: it is the
        reference the oracles' own routes are compared against.
        """
        self._check_tensor(k, n)
        values = [self.phi(self.moment(t)) for t in itertools.product(range(1, k + 1), repeat=n)]
        return np.array(values, dtype=complex).reshape((k,) * n)

    def expectation_tensor(self, k, n, decorations):
        """E[x_{j1} d1 x_{j2} ... d_{n-1} x_{jn}] for every tuple, C-ordered, d the decorations."""
        decorations = self._check_tensor(k, n, decorations)
        eye = self.identity_coeff()
        coeffs = (eye, *decorations, eye)
        values = [self.moment(t, coeffs) for t in itertools.product(range(1, k + 1), repeat=n)]
        return np.array(values, dtype=complex).reshape((k,) * n + (self.b_dim, self.b_dim))


class ConcreteMomentFunctional(MomentFunctional):
    """Moments of explicit matrices inside a SubalgebraWithExpectation."""

    def __init__(self, context, elements):
        self.context = context
        self.elements = [
            as_matrix(x, context.dim, f"element {i + 1}") for i, x in enumerate(elements)
        ]
        if not self.elements:
            raise ValueError("need at least one element")
        self.b_dim = context.dim
        self.variable_count = len(self.elements)
        self._scalar_tensors = {}  # (k, n) -> read-only tensor, see _keep

    def _x(self, v):
        return self.elements[v - 1]

    def _word_matrix(self, variables, coeffs):
        d = self.context.dim
        acc = np.eye(d, dtype=complex) if coeffs is None else coeffs[0]
        for pos, v in enumerate(variables):
            acc = acc @ self._x(v)
            if coeffs is not None:
                acc = acc @ coeffs[pos + 1]
        return acc

    def moment(self, variables, coeffs=None):
        variables, coeffs = self._check_word(variables, coeffs)
        if not variables:
            return coeffs[0] if coeffs is not None else self.identity_coeff()
        return self.context.expect(self._word_matrix(variables, coeffs))

    def phi(self, b):
        return self.context.phi(b)

    def random_coeff(self, rng):
        return self.context.random_element(rng)

    def product_expectation(self, polys, variables):
        """E[p_1(x_{v1}) ... p_m(x_{vm})] by linearity: the product of the
        evaluated factors, then one expectation."""
        polys, variables = self._check_product(polys, variables)
        acc = eval_polynomial(polys[0], self._x(variables[0]))
        for p, v in zip(polys[1:], variables[1:]):
            acc = acc @ eval_polynomial(p, self._x(v))
        return self.context.expect(acc)

    def _product_stack(self, k, n, decorations=None):
        # T[j1..jm] = x_{j1} d1 x_{j2} ... x_{jm}, grown one position at a time
        decorations = self._check_tensor(k, n, decorations)
        d = self.context.dim
        xs = np.stack(self.elements[:k])
        stack = xs.copy()
        for pos in range(1, n):
            step = xs if decorations is None else np.einsum(
                "ab,jbc->jac", decorations[pos - 1], xs
            )
            stack = np.einsum("Xab,jbc->Xjac", stack.reshape(-1, d, d), step)
        return stack.reshape((k,) * n + (d, d))

    def scalar_moment_tensor(self, k, n):
        kept = self._scalar_tensors.get((k, n))
        if kept is not None:
            return kept
        stack = self._product_stack(k, n)
        flat = stack.reshape(-1, self.context.dim, self.context.dim)
        vals = np.einsum("ab,Xba->X", self.context.density, flat)
        return self._keep((k, n), vals.reshape((k,) * n))

    def expectation_tensor(self, k, n, decorations):
        return self.context.expect_all(self._product_stack(k, n, decorations))


def center(p, i, mf):
    """Subtract the constant E[p(x_i)], producing a polynomial with zero mean."""
    mean = mf.product_expectation([p], [i])
    # not validated: a non-finite mean must surface as a non-finite product
    return BPolynomial._from_words(p.dim, p.words + ((-mean,),))


def expand_product(polys, variables):
    """Expand p_1(x_{v1}) ... p_n(x_{vn}) into decorated words.

    Returns a list of (variables, coeffs) pairs; boundary coefficients of
    adjacent factors are multiplied together, so degree-zero words simply
    merge into their neighbours.
    """
    polys = list(polys)
    variables = list(variables)
    if len(polys) != len(variables):
        raise ValueError("need one variable index per polynomial")
    if not polys:
        raise ValueError("empty product")
    dim = polys[0].dim
    out = []
    for combo in itertools.product(*[p.words for p in polys]):
        vars_out = []
        coeffs_out = [np.eye(dim, dtype=complex)]
        for which, w in enumerate(combo):
            coeffs_out[-1] = coeffs_out[-1] @ w[0]
            for c in w[1:]:
                vars_out.append(variables[which])
                coeffs_out.append(c)
        out.append((tuple(vars_out), tuple(coeffs_out)))
    return out


def product_expectation(mf, polys, variables):
    """E[p_1(x_{v1}) ... p_n(x_{vn})], evaluated by the oracle's own route."""
    return mf.product_expectation(polys, variables)
