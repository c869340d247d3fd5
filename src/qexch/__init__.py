"""Numerical toolkit for quantum-permutation symmetry of noncommutative variables.

Builds finite-dimensional magic unitaries, computes operator-valued free
cumulants, and verifies (or refutes) exchangeability, freeness with
amalgamation, and the collapse identities that tie the two together, on
concrete desk-scale matrix models.
"""

from .algebra import (
    AlgebraContext,
    BPolynomial,
    ConcreteMomentFunctional,
    MomentFunctional,
    State,
    SubalgebraWithExpectation,
    center,
    eval_polynomial,
    pinching_context,
    scalar_context,
    verify_context,
)
from .cumulants import (
    CumulantMomentFunctional,
    CumulantSpec,
    check_mixed_cumulants,
    moment_family,
    moments_to_cumulants,
    random_spec,
    rho_pi,
    semicircular_spec,
)
from .exchangeability import (
    check_classical_exchangeability,
    check_E_invariance,
    check_factorization,
    check_freeness,
    check_quantum_invariance,
    crossing_sum_probe,
    finite_counterexample,
    permutation_coordinate_unitary,
)
from .magic import (
    MagicUnitary,
    block_chain,
    block_pair,
    collapse_sum_all,
    from_permutation,
    interval_collapse_sum,
    noncommuting_projection_pair,
    random_projection,
    unsafe_bruteforce_sum,
    verify_relations,
    word_product,
)
from .partitions import (
    Partition,
    enumerate_all,
    enumerate_noncrossing,
    is_noncrossing,
    kernel,
    leq,
)

__version__ = "0.1.0"
