"""Numerical toolkit for quantum-permutation symmetry of noncommutative variables.

Builds finite-dimensional magic unitaries, computes operator-valued free
cumulants, and verifies (or refutes) exchangeability, freeness with
amalgamation, and the collapse identities that tie the two together, on
concrete desk-scale matrix models.  Each name is imported from its module,
such as `qexch.magic`; the package itself re-exports nothing.
"""
