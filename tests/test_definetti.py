"""The paper's equivalence on drawn states: each check gives the verdict the theorem predicts.

Köstler and Speicher (Comm. Math. Phys. 2009): a sequence is invariant under quantum
permutations exactly when it is identically distributed and free with amalgamation over
its tail algebra.  A free cumulant family is free over its B, so it passes every check;
an i.i.d. commuting family with nonzero variance is exchangeable but not free, so it
passes the classical check and fails the quantum one.  A disagreement is a qexch bug,
and the drawn example reproduces it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qexch.algebra import DEFAULT_TOL, ConcreteMomentFunctional, scalar_context
from qexch.cumulants import CumulantMomentFunctional, random_spec
from qexch.exchangeability import (
    check_classical_exchangeability,
    check_freeness,
    check_quantum_invariance,
)
from qexch.magic import block_pair, noncommuting_projection_pair

U = block_pair(*noncommuting_projection_pair(2, seed=11))  # k = 4, non-commuting entries
# a predicted FAIL clears the tolerance 10^5-fold: on a grid over the ranges of the commuting
# families drawn below, the smallest residual was 0.025 (quantum invariance, p 0.75, gap -1)
MARGIN = 1e5 * DEFAULT_TOL


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 2))
def test_a_free_cumulant_family_passes_every_check(seed, order, b_dim):
    mf = CumulantMomentFunctional(random_spec(np.random.default_rng(seed), order, b_dim))
    assert check_quantum_invariance(mf, U, 4).passed
    assert check_classical_exchangeability(mf, 4, 4).passed
    assert check_freeness(mf, (1, 2), 4).passed  # over B, which is C^b_dim


def iid_two_point_family(low, gap, p):
    """Four i.i.d. commuting variables on (C^2)^(x)4, built as the Bernoulli fixture is:
    x_t reads bit t of a basis vector, low where it is 0 (probability p), else low + gap."""
    bits = (np.arange(16)[:, None] >> np.arange(3, -1, -1)) & 1
    density = np.prod(np.where(bits, 1 - p, p), axis=1)
    return ConcreteMomentFunctional(scalar_context(np.diag(density)),
                                    [np.diag(np.where(bit, low + gap, low)) for bit in bits.T])


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.floats(-2, 2), st.floats(1, 2), st.booleans(), st.floats(0.25, 0.75))
def test_an_iid_commuting_family_is_exchangeable_but_not_free(low, gap, down, p):
    # the variance p (1 - p) gap^2 is at least 3/16
    mf = iid_two_point_family(low, -gap if down else gap, p)
    assert check_classical_exchangeability(mf, 4, 4).passed
    assert check_quantum_invariance(mf, U, 4).max_residual > MARGIN
    freeness = check_freeness(mf, (1, 2), 4)
    assert min(freeness.centered_max, freeness.mixed_max) > MARGIN
