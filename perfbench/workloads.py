"""The benchmark workloads (BENCHMARK.json lists two of them) and the gate of each op.

Each workload builds its inputs from the run seed alone, fills the library's
caches in its constructor (the set-up), and then answers `run(i)` for op
i = 0, 1, 2, ...  An op is one verdict a user waits for.  `run` raises
`VerdictError` whenever the verdict, the agreement of two criteria, an exit
code or the finiteness of a residual is not what the model guarantees, so a
regression that always answers PASS (or NaN) shows up as failed ops.  The
gates compute their norms with numpy, never through qexch, so they add
nothing to the per-layer counts.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from qexch import algebra, cumulants, exchangeability, magic

TOL = 1e-8
# The order-8 mixed cumulant of the commuting family must clear this floor.
DEPENDENT_FLOOR = 1e-6


class VerdictError(Exception):
    """An op gave a wrong verdict, a non-finite residual or an unexpected exit code."""


def finite(value, what):
    value = float(value)
    if not math.isfinite(value):
        raise VerdictError(f"{what} is not finite ({value})")
    return value


def norm(a):
    return float(np.linalg.norm(np.asarray(a)))


def op_rng(seed, salt, i):
    return np.random.default_rng((seed, salt, i))


def expect_invariant(report, n_max, what):
    """Quantum invariance must hold at every length 1..n_max, with finite residuals."""
    residuals = [finite(rec.residual, f"{what} n={rec.n}") for rec in report.per_length]
    if len(residuals) != n_max:
        raise VerdictError(f"{what}: {len(residuals)} lengths scanned, expected {n_max}")
    if max(residuals) > TOL or not report.passed:
        raise VerdictError(
            f"{what}: residual {max(residuals):.3e}, passed={report.passed}; expected PASS"
        )


def random_free_functional(rng, b_dim=1, orders=(1, 5)):
    spec = cumulants.random_spec(rng, int(rng.integers(orders[0], orders[1] + 1)), b_dim=b_dim)
    return cumulants.CumulantMomentFunctional(spec)


class Workload:
    """Set-up in the constructor; `run(i)` is op i; `cycle` ops make one whole round."""

    cycle = 1

    def run(self, i, tracer=None):
        raise NotImplementedError

    def close(self):
        pass


class InvarianceSweep(Workload):
    """Criterion-6 traffic: fresh free specs against five non-commuting unitaries, n <= 6."""

    name = "invariance_sweep"
    n_max = 6

    def __init__(self, seed, root, out):
        self.seed = seed
        pairs = [magic.noncommuting_projection_pair(2, (seed, 1, t)) for t in range(5)]
        self.unitaries = [magic.block_pair(*pairs[t]) for t in range(3)] + [
            magic.block_chain([*pairs[t], pairs[t - 1][0]]) for t in (3, 4)
        ]
        # Fill the kernel-pattern tables for k = 4 and 6 and make the first BLAS calls.
        mf = random_free_functional(op_rng(seed, 0, 0))
        for k in (4, 6):
            for n in range(1, self.n_max + 1):
                mf.scalar_moment_tensor(k, n)
        for u in self.unitaries:
            exchangeability.check_quantum_invariance(mf, u, n_max=2)

    def run(self, i, tracer=None):
        mf = random_free_functional(op_rng(self.seed, 1, i))
        for t, u in enumerate(self.unitaries):
            report = exchangeability.check_quantum_invariance(mf, u, n_max=self.n_max)
            expect_invariant(report, self.n_max, f"unitary {t}")


class DeepScan(Workload):
    """The k=4, n=9 scan with library defaults: the only workload on the sampled path."""

    name = "deep_scan"
    n_max = 9

    def __init__(self, seed, root, out):
        self.seed = seed
        self.unitary = magic.block_pair(*magic.noncommuting_projection_pair(2, (seed, 2, 0)))
        # Build the 4^n pattern tables up to n = 9 and make the first BLAS calls.
        mf = random_free_functional(op_rng(seed, 0, 0))
        for n in range(1, self.n_max + 1):
            mf.scalar_moment_tensor(4, n)
        exchangeability.check_quantum_invariance(mf, self.unitary, n_max=2)

    def run(self, i, tracer=None):
        mf = random_free_functional(op_rng(self.seed, 2, i))
        report = exchangeability.check_quantum_invariance(mf, self.unitary, n_max=self.n_max)
        expect_invariant(report, self.n_max, "block_pair")


def standardized(rng, size):
    v = rng.standard_normal(size)
    v = v - v.mean()
    return v / np.sqrt(np.mean(v * v))


def commuting_functional(rng):
    """Two classically independent diagonal variables on C^4 (x) C^4: commuting, not free."""
    a, b = standardized(rng, 4), standardized(rng, 4)
    ctx = algebra.scalar_context(np.eye(16) / 16)
    x1 = np.kron(np.diag(a), np.eye(4))
    x2 = np.kron(np.eye(4), np.diag(b))
    return algebra.ConcreteMomentFunctional(ctx, [x1, x2])


class FreenessScan(Workload):
    """Both freeness criteria plus the order-8 cumulant table, on two oracle kinds.

    Even ops take a free cumulant family over B = C^2 (must PASS); odd ops a
    commuting concrete family (must FAIL on both criteria).  Ops run in
    pairs so every run weighs both oracles equally.
    """

    name = "freeness_scan"
    cycle = 2
    word = (1, 2) * 4

    def __init__(self, seed, root, out):
        self.seed = seed
        for mf in (random_free_functional(op_rng(seed, 0, 0), b_dim=2, orders=(2, 5)),
                   commuting_functional(op_rng(seed, 0, 1))):
            exchangeability.check_freeness(mf, (1, 2), n_max=3, tol=TOL)
            cumulants.moments_to_cumulants(mf, self.word[:4])

    def run(self, i, tracer=None):
        rng = op_rng(self.seed, 3, i)
        free = i % 2 == 0
        if free:
            mf = random_free_functional(rng, b_dim=2, orders=(2, 5))
        else:
            mf = commuting_functional(rng)
        report = exchangeability.check_freeness(mf, (1, 2), n_max=5, tol=TOL)
        centered = finite(report.centered_max, "centred-product residual")
        mixed = finite(report.mixed_max, "mixed-cumulant residual")
        table = cumulants.moments_to_cumulants(mf, self.word)
        if sorted(table) != list(range(1, 9)):
            raise VerdictError(f"cumulant table has orders {sorted(table)}")
        kappa = [finite(norm(table[m]), f"kappa_{m}") for m in range(1, 9)]
        if free:
            if centered > TOL or mixed > TOL or not report.passed:
                raise VerdictError(
                    f"free family: centred {centered:.3e}, mixed {mixed:.3e}, "
                    f"passed={report.passed}; expected PASS"
                )
            if max(kappa[1:]) > TOL:
                raise VerdictError(f"free family: mixed kappa up to {max(kappa[1:]):.3e}")
        else:
            if centered <= TOL or mixed <= TOL or report.passed or not report.consistent:
                raise VerdictError(
                    f"commuting family: centred {centered:.3e}, mixed {mixed:.3e}, "
                    f"passed={report.passed}; expected FAIL on both criteria"
                )
            if kappa[7] <= DEPENDENT_FLOOR:
                raise VerdictError(f"commuting family: kappa_8 = {kappa[7]:.3e}")


# (fixture, exit code, [(check name, pass flag), ...] in report order)
CLI_EXPECTED = (
    (
        "free_semicircular.json",
        0,
        [("relations", True)] * 3
        + [("quantum_invariance", True)] * 3
        + [("classical_invariance", True)]
        + [("collapse_lemma", True)] * 3
        + [("freeness", True), ("factorization", True), ("counterexample", True)],
    ),
    (
        "classical_bernoulli.json",
        1,
        [
            ("relations", True),
            ("classical_invariance", True),
            ("quantum_invariance", False),
            ("freeness", False),
        ],
    ),
)


class CliVerify(Workload):
    """Two cold `python -m qexch.cli verify` processes per op, one per shipped fixture."""

    name = "cli_verify"

    def __init__(self, seed, root, out):
        self.seed = seed
        self.src = root / "src"
        self.child = Path(__file__).resolve().parent / "cli_child.py"
        self.fixtures = self.src / "qexch" / "fixtures"
        self.tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=out))
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(self.src) + (os.pathsep + path if path else ""))
        probe = subprocess.run(
            [sys.executable, "-c", "import qexch; print(qexch.__file__)"],
            cwd=self.tmp, env=self.env, capture_output=True, text=True, timeout=60,
        )
        self.init = (self.src / "qexch" / "__init__.py").resolve()
        found = probe.stdout.strip()
        if probe.returncode != 0 or Path(found).resolve() != self.init:
            raise RuntimeError(f"child processes import qexch from {found!r}, not {self.init}")
        # Warm the bytecode and file caches; the first reports are the reference bytes.
        self.reference = {fixture: self._verify(fixture, code, expected, None)
                          for fixture, code, expected in CLI_EXPECTED}

    def _verify(self, fixture, code, expected, tracer):
        report_path = self.tmp / (Path(fixture).stem + ".report.json")
        spans_path = self.tmp / "spans.json"
        report_path.unlink(missing_ok=True)
        spans_path.unlink(missing_ok=True)
        args = ["verify", str(self.fixtures / fixture), "--report", str(report_path),
                "--seed", str(self.seed)]
        if tracer is None:
            cmd = [sys.executable, "-m", "qexch.cli", *args]
        else:
            cmd = [sys.executable, str(self.child), str(spans_path), *args]
        proc = subprocess.run(cmd, cwd=self.tmp, env=self.env, capture_output=True, timeout=120)
        if proc.returncode != code:
            raise VerdictError(
                f"{fixture}: exit {proc.returncode}, expected {code}: "
                f"{proc.stderr.decode(errors='replace')[-300:]}"
            )
        if tracer is not None:
            doc = json.loads(spans_path.read_text())
            if Path(doc["qexch_file"]).resolve() != self.init:
                raise RuntimeError(f"traced child imported qexch from {doc['qexch_file']}")
            tracer.merge_child(doc, tracer.current_span())
        data = report_path.read_bytes()
        report = json.loads(data)
        records = report["checks"]
        flags = [(r["name"], r["pass"]) for r in records]
        if flags != expected:
            raise VerdictError(f"{fixture}: checks {flags}, expected {expected}")
        tol = finite(report["tolerance"], f"{fixture} tolerance")
        for r in records:
            residual = finite(r["residual"], f"{fixture} {r['name']} residual")
            if (residual <= tol) != r["pass"]:
                raise VerdictError(
                    f"{fixture} {r['name']}: residual {residual:.3e} but pass={r['pass']}"
                )
        if report["pass"] != (code == 0):
            raise VerdictError(f"{fixture}: overall pass={report['pass']} with exit {code}")
        return data

    def run(self, i, tracer=None):
        for fixture, code, expected in CLI_EXPECTED:
            if self._verify(fixture, code, expected, tracer) != self.reference[fixture]:
                raise VerdictError(f"{fixture}: report differs from the first one of this run")

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {w.name: w for w in (InvarianceSweep, DeepScan, FreenessScan, CliVerify)}
