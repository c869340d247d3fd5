"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
appear; tolerances are fixed here and match the library defaults.
"""

import functools
import itertools
import json
import math
import time
from fractions import Fraction
from importlib.resources import files

import numpy as np

from qexch.algebra import (
    BPolynomial,
    ConcreteMomentFunctional,
    scalar_context,
)
from qexch.cli import main as cli_main
from qexch.cumulants import (
    CumulantMomentFunctional,
    moments_to_cumulants,
    random_spec,
    rho_pi,
)
from qexch.exchangeability import (
    check_factorization,
    check_freeness,
    check_quantum_invariance,
    crossing_sum_probe,
    finite_counterexample,
)
from qexch.magic import (
    block_chain,
    block_pair,
    collapse_lemma_residual,
    collapse_sum_all,
    from_permutation,
    noncommuting_projection_pair,
    random_projection,
    unsafe_bruteforce_sum,
    verify_relations,
)
from qexch.partitions import Partition, enumerate_all, enumerate_noncrossing, is_noncrossing

FIXTURES = files("qexch") / "fixtures"  # the checkout's copy, or the installed package's data


def moment_family(ctx):
    """The moment functionals rho_n(a_1..a_n) = E[a_1 ... a_n] of a context, n >= 1."""
    return lambda args: ctx.expect(functools.reduce(np.matmul, args))


def report(number, description, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{verdict}] criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description} {suffix}"


def random_matrix(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def seeded_unitaries():
    """Five non-commuting magic unitaries covering k = 4 and k = 6."""
    units = []
    for seed in (101, 102, 103):
        units.append(("block_pair", block_pair(*noncommuting_projection_pair(2, seed))))
    for seed in (104, 105):
        p, q = noncommuting_projection_pair(2, seed)
        extra = random_projection(2, 1, (seed, 99))
        units.append(("block_chain", block_chain([p, q, extra])))
    return units


def test_criterion_1_partition_oracle_equivalence():
    start = time.monotonic()
    ok = True
    for n in range(1, 9):
        catalan = math.comb(2 * n, n) // (n + 1)
        direct = enumerate_noncrossing(n)
        filtered = [p for p in enumerate_all(n) if is_noncrossing(p)]
        ok = ok and len(direct) == catalan == len(filtered)
        ok = ok and set(direct) == set(filtered)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    report(1, "|NC(n)| = Catalan(n) vs filtered enumeration, n <= 8", ok,
           f"{elapsed:.2f}s")


def test_criterion_2_partitioned_functional_example():
    rng = np.random.default_rng(7)
    ctx = scalar_context(np.diag([0.35, 0.65]))
    fam = moment_family(ctx)
    pi = Partition(10, [[1, 10], [2, 5, 9], [3, 4], [6], [7, 8]])
    a = [None] + [random_matrix(rng, 2) for _ in range(10)]
    r = lambda *xs: fam(xs)
    expected = r(
        a[1] @ r(a[2] @ r(a[3], a[4]), a[5] @ r(a[6]) @ r(a[7], a[8]), a[9]),
        a[10],
    )
    got = rho_pi(fam, pi, a[1:])
    residual = float(np.linalg.norm(got - expected))
    report(2, "rho_pi on the NC(10) example matches the nested expression", residual <= 1e-10,
           f"residual {residual:.2e}")


def test_criterion_3_cumulant_closed_forms_and_round_trip():
    rng = np.random.default_rng(11)
    ctx = scalar_context(np.diag([0.45, 0.55]))
    E = ctx.expect
    worst = 0.0
    for _ in range(50):
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
        worst = max(
            worst,
            float(np.linalg.norm(table[1] - k1)),
            float(np.linalg.norm(table[2] - k2)),
            float(np.linalg.norm(table[3] - k3)),
        )
    round_trip = 0.0
    for trial in range(5):
        spec = random_spec(rng, 6)
        mf = CumulantMomentFunctional(spec)
        table = moments_to_cumulants(mf, (1,) * 6)
        for n in range(1, 7):
            round_trip = max(
                round_trip, float(np.linalg.norm(np.diag(table[n]) - spec.value(n)))
            )
    ok = worst <= 1e-10 and round_trip <= 1e-10
    report(3, "closed forms for orders 1..3 and order-6 round trip", ok,
           f"closed-form {worst:.2e}, round-trip {round_trip:.2e}")


def test_criterion_4_magic_unitary_relations():
    perm_exact = all(
        verify_relations(from_permutation(sigma, d=2)).max_residual == 0.0
        for sigma in itertools.permutations(range(1, 5))
    )
    block_ok = True
    derived_present = True
    for label, u in seeded_unitaries():
        rep = verify_relations(u, tol=1e-12)
        block_ok = block_ok and rep.passed
        derived_present = derived_present and "orthogonal_matrix_rows" in rep.residuals
    ok = perm_exact and block_ok and derived_present
    report(4, "permutation residual 0; block constructions pass at 1e-12", ok)


def test_criterion_5_interval_collapse_lemma():
    start = time.monotonic()
    units = [block_pair(*noncommuting_projection_pair(2, seed)) for seed in range(201, 206)]
    k = 4
    worst = max(collapse_lemma_residual(u, 6) for u in units)
    # spot-check the literal block sum against the batched contraction
    rng = np.random.default_rng(3)
    spot = 0.0
    for _ in range(40):
        u = units[int(rng.integers(0, len(units)))]
        n = int(rng.integers(1, 7))
        pis = enumerate_noncrossing(n)
        pi = pis[int(rng.integers(0, len(pis)))]
        i = tuple(int(x) for x in rng.integers(1, k + 1, size=n))
        single = unsafe_bruteforce_sum(u, i, pi)
        batched = collapse_sum_all(u, pi)[tuple(x - 1 for x in i)]
        spot = max(spot, float(np.linalg.norm(single - batched)))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-8 and spot <= 1e-12 and elapsed < 60.0
    report(5, "collapse sum equals identity iff ker i >= pi (k=4, n<=6, 5 unitaries)", ok,
           f"max dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_6_freeness_implies_quantum_invariance():
    rng = np.random.default_rng(2718)
    units = seeded_unitaries()
    worst = 0.0
    for _ in range(20):
        order = int(rng.integers(1, 6))
        spec = random_spec(rng, order)
        mf = CumulantMomentFunctional(spec)
        for label, u in units:
            rep = check_quantum_invariance(mf, u, n_max=6, tol=1e-8)
            worst = max(worst, rep.max_residual)
    report(6, "20 free specs x 5 non-commuting unitaries invariant for n <= 6",
           worst <= 1e-8, f"max residual {worst:.2e}")


def test_criterion_7_classical_model_fails_both_ways():
    count = 4
    dim = 2**count
    elements = []
    for t in range(count):
        diag = np.array([1.0 - 2.0 * ((b >> (count - 1 - t)) & 1) for b in range(dim)])
        elements.append(np.diag(diag).astype(complex))
    mf = ConcreteMomentFunctional(scalar_context(np.eye(dim) / dim), elements)

    p, q = noncommuting_projection_pair(2, seed=11)
    commutator = float(np.linalg.norm(p @ q - q @ p))
    u = block_pair(p, q)
    invariance = check_quantum_invariance(mf, u, n_max=4, tol=1e-8)
    length4 = [r for r in invariance.per_length if r.n == 4]
    invariance_broken = (
        not invariance.passed and length4 and length4[0].residual > 0.01
    )

    freeness = check_freeness(mf, (1, 2), n_max=4, tol=1e-8)
    mixed_broken = not freeness.mixed_pass and freeness.mixed_max > 1e-6

    ok = commutator >= 0.01 and invariance_broken and mixed_broken
    report(7, "commuting Bernoulli model fails invariance and freeness", ok,
           f"commutator {commutator:.2f}, worst n=4 residual "
           f"{length4[0].residual:.3f}, mixed {freeness.mixed_max:.2f}")


def test_criterion_8_crossing_sum_iff():
    def commuting_pair(d, seed):
        rng = np.random.default_rng(seed)
        gauss = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        basis, _ = np.linalg.qr(gauss)
        p = np.outer(basis[:, 0], basis[:, 0].conj())
        q = np.outer(basis[:, 1], basis[:, 1].conj())
        return (p + p.conj().T) / 2, (q + q.conj().T) / 2

    ok = True
    checked = 0
    for idx in range(100):
        d = 2 if idx < 50 else 3
        if idx % 2 == 0:
            p, q = noncommuting_projection_pair(d, seed=(8, idx))
            assert float(np.linalg.norm(p @ q - q @ p)) >= 0.01
            for s in (2, 3):
                for variant in ("plain", "capped"):
                    _, dist = crossing_sum_probe(p, q, s, variant)
                    ok = ok and dist > 1e-4
                    checked += 1
        else:
            p, q = commuting_pair(d, seed=(9, idx))
            assert float(np.linalg.norm(p @ q - q @ p)) <= 1e-10
            for s in (2, 3):
                for variant in ("plain", "capped"):
                    _, dist = crossing_sum_probe(p, q, s, variant)
                    ok = ok and dist <= 1e-10
                    checked += 1
    report(8, "crossing sum leaves identity iff projections fail to commute", ok,
           f"{checked} evaluations over 100 pairs")


def test_criterion_9_finite_counterexample():
    rep = finite_counterexample(3)
    ok = (
        rep.psi_u11 == Fraction(1, 3)
        and rep.psi_u11_u21 == Fraction(0)
        and rep.exchangeable
        and rep.relations_exact
        and rep.contradiction
    )
    report(9, "column model: psi(u11)=1/3 exactly, orthogonal pair, contradiction", ok,
           f"psi(u11)={rep.psi_u11}, psi(u11 u21)={rep.psi_u11_u21}")


def test_criterion_10_factorization_for_free_specs():
    rng = np.random.default_rng(515)
    configs = [
        ((1,), (1,)),
        ((1, 2), (1, 2)),
        ((1, 2, 1), (2,)),
        ((1, 2, 3), (1, 2, 3)),
        ((1, 2, 3, 1), (2, 3)),
        ((1, 2, 1, 3), (2, 4)),
    ]
    worst = 0.0
    tuples_checked = 0
    for trial in range(20):
        spec = random_spec(rng, int(rng.integers(2, 5)))
        mf = CumulantMomentFunctional(spec)
        variables, placements = configs[trial % len(configs)]
        polys = [
            BPolynomial(
                [
                    (mf.random_coeff(rng), mf.random_coeff(rng)),
                    (mf.random_coeff(rng), mf.random_coeff(rng), mf.random_coeff(rng)),
                ]
            )
            for _ in variables
        ]
        for l in placements:
            worst = max(worst, check_factorization(mf, variables, polys, l))
        tuples_checked += 1
    report(10, "factorization at unique positions for free specs (n <= 4)",
           worst <= 1e-9, f"max residual {worst:.2e} over {tuples_checked} tuples")


def test_criterion_11_cli_regression(tmp_path, capsys):
    free = FIXTURES / "free_semicircular.json"
    bern = FIXTURES / "classical_bernoulli.json"

    outputs = []
    for run in range(2):
        path = tmp_path / f"free_{run}.json"
        code = cli_main(["verify", str(free), "--report", str(path)])
        outputs.append((code, path.read_bytes()))
    identical = outputs[0][1] == outputs[1][1]
    exit_free = outputs[0][0] == 0 and outputs[1][0] == 0

    bern_path = tmp_path / "bern.json"
    exit_bern = cli_main(["verify", str(bern), "--report", str(bern_path)]) == 1

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x", "checks": []}))
    exit_bad = cli_main(["verify", str(bad)]) == 2
    capsys.readouterr()

    ok = identical and exit_free and exit_bern and exit_bad
    report(11, "byte-identical reports and 0/1/2 exit codes", ok)
