"""Scenario-driven command line front end.

A scenario is a JSON document describing one moment functional, a list of
magic unitaries, and the checks to run against them.  Reports are written
as JSON (deterministic byte-for-byte for a fixed scenario) next to a
human-readable summary on stdout.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 malformed
input.  Tolerance resolution: --tol flag, then the QEXCH_TOL environment
variable, then the scenario file, then 1e-8.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import algebra, cumulants, exchangeability, magic

ENV_TOL = "QEXCH_TOL"


class ScenarioError(Exception):
    """Malformed scenario input; the message names the offending field."""


def _fail(field, message):
    raise ScenarioError(f"{field}: {message}")


def _parse_complex(value, field):
    parts = value if isinstance(value, (list, tuple)) and len(value) == 2 else [value]
    if not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
        for x in parts
    ):
        _fail(field, f"expected a finite number or [re, im] pair, got {value!r}")
    return complex(*parts)


def _parse_int(value, field, minimum=None):
    """An integer of at least minimum; bool, non-integral float, string and list are rejected.

    A float counts only below 2**53, where floats still hold every integer.
    """
    if isinstance(value, float) and value.is_integer() and abs(value) < 2**53:
        value = int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(field, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(field, f"must be at least {minimum}, got {value}")
    return value


def _parse_dim(value, field, blocks=1):
    """A dimension d >= 1 such that `blocks` complex d x d matrices stay within MAX_BYTES."""
    d = _parse_int(value, field, minimum=1)
    try:
        algebra.check_bytes(16 * blocks * d * d, f"dimension {d}")
    except ValueError as exc:
        _fail(field, str(exc))
    return d


def _parse_int_list(value, field, minimum=None):
    if not isinstance(value, list):
        _fail(field, f"expected a list of integers, got {value!r}")
    return [_parse_int(x, f"{field}[{t}]", minimum) for t, x in enumerate(value)]


def _check_tol(value, field):
    """A tolerance: a finite, non-negative number."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not (math.isfinite(value) and value >= 0)
    ):
        _fail(field, f"expected a finite non-negative number, got {value!r}")
    return float(value)


def _parse_matrix(value, field, dim=None):
    """Matrix as nested rows of complex scalars, or {'diag': [...]}."""
    if isinstance(value, dict):
        if set(value) != {"diag"}:
            _fail(field, f"matrix object supports only the 'diag' key, got {sorted(value)}")
        if not isinstance(value["diag"], list):
            _fail(f"{field}.diag", f"expected a list of numbers, got {value['diag']!r}")
        diag = [_parse_complex(x, f"{field}.diag[{i}]") for i, x in enumerate(value["diag"])]
        mat = np.diag(diag).astype(complex)
    elif isinstance(value, list):
        rows = []
        for r, row in enumerate(value):
            if not isinstance(row, list):
                _fail(field, f"row {r} is not a list")
            rows.append([_parse_complex(x, f"{field}[{r}][{c}]") for c, x in enumerate(row)])
        mat = np.array(rows, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            _fail(field, f"expected a square matrix, got shape {mat.shape}")
    else:
        _fail(field, "expected a matrix (list of rows) or {'diag': [...]}")
    if dim is not None and mat.shape[0] != dim:
        _fail(field, f"expected a {dim}x{dim} matrix, got {mat.shape[0]}x{mat.shape[0]}")
    return mat


def _require(obj, key, field, types=None):
    if key not in obj:
        _fail(f"{field}.{key}", "missing required field")
    value = obj[key]
    if types is not None and not isinstance(value, types):
        _fail(f"{field}.{key}", f"unexpected type {type(value).__name__}")
    return value


def build_functional(spec, field="functional"):
    if not isinstance(spec, dict):
        _fail(field, "must be an object")
    kind = _require(spec, "kind", field, str)
    if kind == "cumulant":
        b_dim = _parse_dim(spec.get("b_dim", 1), f"{field}.b_dim")
        table = _require(spec, "cumulants", field, dict)
        kappa = {}
        for order, value in table.items():
            try:
                n = int(order)
            except ValueError:
                _fail(f"{field}.cumulants", f"order {order!r} is not an integer")
            if isinstance(value, list) and len(value) == b_dim and b_dim > 1:
                kappa[n] = [_parse_complex(v, f"{field}.cumulants[{order}][{t}]")
                            for t, v in enumerate(value)]
            else:
                kappa[n] = [_parse_complex(value, f"{field}.cumulants[{order}]")] * b_dim
        max_order = spec.get("max_order")
        if max_order is not None:
            max_order = _parse_int(max_order, f"{field}.max_order", minimum=1)
        try:
            spec_obj = cumulants.CumulantSpec(kappa, b_dim=b_dim, max_order=max_order)
        except ValueError as exc:
            _fail(field, str(exc))
        return cumulants.CumulantMomentFunctional(spec_obj)
    if kind == "concrete":
        dim = _parse_int(_require(spec, "dim", field), f"{field}.dim")
        _parse_dim(dim, f"{field}.dim", dim * dim)  # the expectation map has dim**4 entries
        density = _parse_matrix(_require(spec, "density", field), f"{field}.density", dim)
        state = algebra.State(density)
        for name, residual in state.residuals().items():
            if not residual <= algebra.DEFAULT_TOL:
                _fail(f"{field}.density", f"not a state: {name} residual {residual:.2e}")
        b_choice = spec.get("b", "scalar")
        if b_choice == "scalar":
            sub = algebra.scalar_subalgebra(density)
        elif b_choice == "diagonal":
            sub = algebra.pinching_subalgebra([[x] for x in range(dim)])
        elif isinstance(b_choice, dict):
            if set(b_choice) != {"blocks"}:
                _fail(f"{field}.b", f"takes only the 'blocks' key, got {sorted(b_choice)}")
            blocks = [
                _parse_int_list(b, f"{field}.b.blocks[{t}]", minimum=0)
                for t, b in enumerate(_require(b_choice, "blocks", f"{field}.b", list))
            ]
            # checked against dim before pinching_subalgebra sizes its map from the blocks
            if sorted(x for b in blocks for x in b) != list(range(dim)):
                _fail(f"{field}.b", f"blocks must partition 0..{dim - 1}, got {blocks}")
            sub = algebra.pinching_subalgebra(blocks)
        else:
            _fail(f"{field}.b", f"expected 'scalar', 'diagonal', or {{'blocks': ...}}, got {b_choice!r}")
        # phi(a) = vec(rho^T) . vec(a), so phi o E = phi is one product with e_map
        phi = state.density.T.reshape(-1)
        residual = algebra.frobenius(phi @ sub.e_map - phi)
        if not residual <= algebra.DEFAULT_TOL:
            _fail(f"{field}.density", f"phi o E != phi: residual {residual:.2e}")
        ctx = algebra.AlgebraContext(state, sub)
        elements = _require(spec, "elements", field, list)
        mats = [
            _parse_matrix(e, f"{field}.elements[{t}]", dim) for t, e in enumerate(elements)
        ]
        try:
            return algebra.ConcreteMomentFunctional(ctx, mats)
        except ValueError as exc:
            _fail(f"{field}.elements", str(exc))
    _fail(f"{field}.kind", f"unknown functional kind {kind!r}")


def _parse_projection(value, field, d):
    try:
        return magic.ensure_projection(_parse_matrix(value, field, d))
    except ValueError as exc:
        _fail(field, str(exc))


def build_unitary(spec, seed, field):
    if not isinstance(spec, dict):
        _fail(field, "must be an object")
    kind = _require(spec, "kind", field, str)
    if kind == "permutation":
        sigma = _parse_int_list(_require(spec, "sigma", field), f"{field}.sigma")
        d = _parse_dim(spec.get("d", 1), f"{field}.d", len(sigma) ** 2)
        try:
            return magic.from_permutation(sigma, d=d)
        except ValueError as exc:
            _fail(f"{field}.sigma", str(exc))
    if kind in ("block_pair", "block_chain"):
        listed = spec.get("projections", spec.get("seeds"))
        r = max(len(listed), 1) if isinstance(listed, list) else 1
        d = _parse_dim(_require(spec, "d", field), f"{field}.d", 4 * r * r)
        if "projections" in spec:
            qs = [
                _parse_projection(m, f"{field}.projections[{t}]", d)
                for t, m in enumerate(_require(spec, "projections", field, list))
            ]
        elif "seeds" in spec:
            rank = _parse_int(spec.get("rank", 1), f"{field}.rank", minimum=0)
            qs = [
                magic.random_projection(d, rank, (seed, s))
                for s in _parse_int_list(spec["seeds"], f"{field}.seeds", minimum=0)
            ]
        else:
            _fail(field, "needs 'projections' or 'seeds'")
        if kind == "block_pair" and len(qs) != 2:
            _fail(field, f"block_pair needs exactly 2 projections, got {len(qs)}")
        if "r" in spec and _parse_int(spec["r"], f"{field}.r") != len(qs):
            _fail(f"{field}.r", f"r={spec['r']} but {len(qs)} projections were given")
        try:
            return magic.block_chain(qs)
        except ValueError as exc:
            _fail(field, str(exc))
    _fail(f"{field}.kind", f"unknown unitary kind {kind!r}")


@dataclass
class _Check:
    """One scenario check as its table entry sees it."""

    spec: dict  # the check's JSON object
    field: str
    params: dict  # the parameters read so far, as the report records them
    read: set  # the keys param() has read; params may also hold results
    mf: object
    unitaries: list  # (label, MagicUnitary) pairs
    tol: float
    seed: int

    def param(self, key, default):
        """One parameter, validated against the type of its default, recorded in params.

        A string default takes a string; an integer default a positive
        integer; a list default a list of positive integers.
        """
        value, name = self.spec.get(key, default), f"{self.field}.{key}"
        if isinstance(default, str):
            if not isinstance(value, str):
                _fail(name, f"expected a string, got {value!r}")
        elif isinstance(default, list):
            value = _parse_int_list(value, name, minimum=1)
        else:
            value = _parse_int(value, name, minimum=1)
        self.params[key] = value
        self.read.add(key)
        return value


def _verdict(rep):
    """(residual, passed, note) of a library report; the note names its worst tuple."""
    w = getattr(rep, "worst", None)
    note = "" if w is None else f"worst tuple n={w.n} i={tuple(map(int, w.indices))}"
    return rep.max_residual, rep.passed, note


def _relations(c, u):
    return _verdict(magic.verify_relations(u, tol=c.tol))


def _quantum_invariance(c, u):
    rep = exchangeability.check_quantum_invariance(c.mf, u, c.param("n_max", 4), c.tol)
    return _verdict(rep)


def _e_invariance(c, u):
    n_max, rng = c.param("n_max", 3), np.random.default_rng(c.seed)
    decorations = [c.mf.random_coeff(rng) for _ in range(n_max - 1)]
    return _verdict(exchangeability.check_E_invariance(c.mf, u, decorations, n_max, c.tol))


def _collapse_lemma(c, u):
    worst = magic.collapse_lemma_residual(u, c.param("n_max", 4))
    return worst, worst <= c.tol, ""


def _classical_invariance(c, u):
    k, n_max = c.param("k", max((v.k for _, v in c.unitaries), default=2)), c.param("n_max", 4)
    rep = exchangeability.check_classical_exchangeability(c.mf, k, n_max, c.tol)
    return _verdict(rep)


def _factorization(c, u):
    variables, l = c.param("vars", [1, 2, 3]), c.param("l", 1)
    rng = np.random.default_rng(c.seed)
    residuals = []
    for _ in range(c.param("trials", 5)):
        polys = [exchangeability._random_polynomial(c.mf, rng) for _ in variables]
        residuals.append(exchangeability.check_factorization(c.mf, variables, polys, l))
    worst = float(np.max(residuals))
    return worst, worst <= c.tol, ""


def _freeness(c, u):
    rep = exchangeability.check_freeness(
        c.mf, c.param("vars", [1, 2]), n_max=c.param("n_max", 4), tol=c.tol, seed=c.seed
    )
    note = "criteria agree" if rep.consistent else "criteria DISAGREE"
    return max(rep.centered_max, rep.mixed_max, key=algebra._severity), rep.passed, note


def _crossing_sum(c, u):
    # Fixed thresholds, not the tolerance: the probe of a non-commuting pair
    # must stay 1e-4 away from the identity, that of a pair (p, p) within 1e-10.
    d, s, variant = c.param("d", 2), c.param("s", 2), c.param("variant", "plain")
    ok, worst_gap = True, 0.0
    for t in range(c.param("pairs", 20)):
        commuting = t % 2 == 1
        if commuting:
            p = q = magic.random_projection(d, 1, (c.seed, t))
        else:
            p, q = magic.noncommuting_projection_pair(d, (c.seed, t))
        _, dist = exchangeability.crossing_sum_probe(p, q, s, variant)
        good = dist <= 1e-10 if commuting else dist > 1e-4
        ok = ok and good
        gap = 0.0 if good else dist if commuting else 1e-4 - dist
        worst_gap = max(worst_gap, gap, key=algebra._severity)
    return worst_gap, ok, ""


def _counterexample(c, u):
    rep = exchangeability.finite_counterexample(c.param("n", 3))
    c.params.update(psi_u11=str(rep.psi_u11), psi_u11_u21=str(rep.psi_u11_u21))
    return 0.0 if rep.passed else 1.0, rep.passed, ""


# name -> (run, once per unitary); run(check, u) reads its parameters with
# check.param and returns (residual, passed, note).
CHECKS = {
    "relations": (_relations, True),
    "quantum_invariance": (_quantum_invariance, True),
    "classical_invariance": (_classical_invariance, False),
    "e_invariance": (_e_invariance, True),
    "factorization": (_factorization, False),
    "freeness": (_freeness, False),
    "collapse_lemma": (_collapse_lemma, True),
    "crossing_sum": (_crossing_sum, False),
    "counterexample": (_counterexample, False),
}


def load_scenario(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ScenarioError(f"scenario file: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("scenario: top level must be an object")
    for key in ("name", "functional", "checks"):
        if key not in doc:
            _fail(key, "missing required field")
    if "tolerance" in doc:
        _check_tol(doc["tolerance"], "tolerance")
    if not isinstance(doc.get("unitaries", []), list):
        _fail("unitaries", "must be a list")
    if not isinstance(doc["checks"], list):
        _fail("checks", "must be a list")
    for pos, check in enumerate(doc["checks"]):
        if not isinstance(check, dict) or "name" not in check:
            _fail(f"checks[{pos}]", "each check is an object with a 'name'")
        if not isinstance(check["name"], str) or check["name"] not in CHECKS:
            _fail(f"checks[{pos}].name", f"unknown check {check['name']!r}")
    return doc


def run_scenario(doc, tol, seed):
    """Execute every check; returns (report dict, summary lines)."""
    mf = build_functional(doc["functional"])
    unitaries = []
    for pos, uspec in enumerate(doc.get("unitaries", [])):
        u = build_unitary(uspec, seed, f"unitaries[{pos}]")
        unitaries.append((f"{uspec['kind']}#{pos}", u))
    records, lines = [], []
    for pos, spec in enumerate(doc["checks"]):
        name, field = spec["name"], f"checks[{pos}]"
        check = _Check(spec, field, {}, set(), mf, unitaries, tol, seed)
        run, per_unitary = CHECKS[name]
        if per_unitary and not unitaries:
            _fail(field, f"{name} runs once per unitary, and the scenario has none")
        for label, u in unitaries if per_unitary else [(None, None)]:
            try:
                # non-finite residuals fail closed, so overflow needs no warning
                with np.errstate(over="ignore", invalid="ignore"):
                    residual, passed, note = run(check, u)
            except ValueError as exc:
                _fail(field, str(exc))
            params = check.params if label is None else {"unitary": label, **check.params}
            records.append(
                {"name": name, "params": params, "residual": float(residual), "pass": bool(passed)}
            )
            target = f" [{label}]" if label else ""
            extra = f"  ({note})" if note else ""
            lines.append(f"{name}{target}: residual={residual:.3e} "
                         f"{'PASS' if passed else 'FAIL'}{extra}")
        for key in sorted(set(spec) - {"name"} - check.read):
            _fail(f"{field}.{key}", "unknown parameter")
    all_pass = all(r["pass"] for r in records)
    report = {"scenario": doc["name"], "seed": seed, "tolerance": tol, "checks": records,
              "pass": all_pass}
    return report, lines


def _resolve_tolerance(args, doc):
    if args.tol is not None:
        return _check_tol(args.tol, "--tol")
    env = os.environ.get(ENV_TOL)
    if env is not None:
        try:
            value = float(env)
        except ValueError as exc:
            raise ScenarioError(f"{ENV_TOL}: not a number ({env!r})") from exc
        return _check_tol(value, ENV_TOL)
    if doc is not None and "tolerance" in doc:
        return float(doc["tolerance"])
    return algebra.DEFAULT_TOL


def _resolve_seed(args, doc):
    if args.seed is not None:
        return _parse_int(args.seed, "--seed", minimum=0)
    if doc is not None and "seed" in doc:
        return _parse_int(doc["seed"], "seed", minimum=0)
    return 0


def _json_text(doc):
    """doc as strict JSON, with a non-finite float written as "nan", "inf" or "-inf"."""
    def strict(x):
        if isinstance(x, float) and not math.isfinite(x):
            return str(x)
        if isinstance(x, dict):
            return {key: strict(v) for key, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [strict(v) for v in x]
        return x

    return json.dumps(strict(doc), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _emit(args, report, lines):
    """Write the JSON report to --report, then the report or the lines to stdout."""
    text = _json_text(report)
    if args.report:
        try:
            Path(args.report).write_text(text)
        except OSError as exc:
            raise ScenarioError(f"--report: {exc}") from exc
    sys.stdout.write(text if args.format == "json" else "".join(f"{l}\n" for l in lines))


def _load_spec_argument(value, field):
    """An inline JSON object, or a path to a JSON file."""
    if not value.lstrip().startswith("{"):
        try:
            value = Path(value).read_text()
        except OSError as exc:
            raise ScenarioError(f"{field}: not an inline JSON object or a readable file ({exc})")
    try:
        return json.loads(value)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{field}: not valid JSON ({exc})")


def cmd_verify(args):
    doc = load_scenario(args.scenario)
    tol = _resolve_tolerance(args, doc)
    seed = _resolve_seed(args, doc)
    if args.report is None:
        args.report = Path(args.scenario).stem + ".report.json"
    report, lines = run_scenario(doc, tol, seed)
    _emit(args, report, lines + ["overall: " + ("PASS" if report["pass"] else "FAIL")])
    return 0 if report["pass"] else 1


def cmd_check_magic(args):
    spec = _load_spec_argument(args.unitary, "unitary")
    tol = _resolve_tolerance(args, None)
    seed = _resolve_seed(args, None)
    u = build_unitary(spec, seed, "unitary")
    rep = magic.verify_relations(u, tol=tol)
    report = {
        "check": "relations",
        "k": u.k,
        "d": u.d,
        "residuals": {k: float(v) for k, v in rep.residuals.items()},
        "residual": rep.max_residual,
        "pass": rep.passed,
    }
    _emit(args, report, [rep.summary()])
    return 0 if rep.passed else 1


def cmd_cumulants(args):
    spec = _load_spec_argument(args.functional, "functional")
    mf = build_functional(spec, "functional")
    n = args.n
    if not 1 <= n <= cumulants.MAX_TRANSFORM_ORDER:
        _fail("--n", f"must be in 1..{cumulants.MAX_TRANSFORM_ORDER}, got {n}")
    # kappa_n is B-valued; the state that gives m_n reduces it to a number
    table = cumulants.moments_to_cumulants(mf, (1,) * n)
    rows = [(o, mf.scalar_moment((1,) * o), mf.phi(table[o])) for o in range(1, n + 1)]
    if args.format == "json":
        payload = [
            {"order": o, "moment": [m.real, m.imag], "kappa": [k.real, k.imag]}
            for o, m, k in rows
        ]
        sys.stdout.write(_json_text(payload))
    else:
        print(f"{'n':>3s} {'moment m_n':>24s} {'cumulant kappa_n':>24s}")
        for o, m, k in rows:
            print(f"{o:3d} {m.real:24.12g} {k.real:24.12g}")
    return 0


def _parse_json_flag(value, flag, depth):
    """A flag's JSON value: integers >= 1 in lists nested depth deep; any fault names the flag."""
    try:
        doc = json.loads(value)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{flag}: invalid JSON ({exc})") from exc

    def walk(x, depth):
        if depth == 0:
            return _parse_int(x, flag, minimum=1)
        if not isinstance(x, list):
            _fail(flag, f"expected a list, got {x!r}")
        return [walk(y, depth - 1) for y in x]

    return walk(doc, depth)


def cmd_collapse(args):
    from .partitions import Partition

    spec = _load_spec_argument(args.unitary, "unitary")
    seed = _resolve_seed(args, None)
    u = build_unitary(spec, seed, "unitary")
    i_tuple = tuple(_parse_json_flag(args.i, "--i", 1))
    if not i_tuple or max(i_tuple) > u.k:
        _fail("--i", f"expected a nonempty list of indices in 1..{u.k}, got {args.i}")
    try:
        pi = Partition(len(i_tuple), _parse_json_flag(args.pi, "--pi", 2))
        value = magic.interval_collapse_sum(u, i_tuple, pi)
    except ValueError as exc:
        _fail("--pi", str(exc))
    expected = magic.collapse_expected(i_tuple, pi)
    target = np.eye(u.d) if expected else np.zeros((u.d, u.d))
    residual = float(np.linalg.norm(value - target))
    tol = _resolve_tolerance(args, None)
    print(f"collapse sum for i={i_tuple}, pi={[list(b) for b in pi.blocks]}:")
    with np.printoptions(precision=6, suppress=True):
        print(value)
    print(f"ker i >= pi: {expected}  (target {'identity' if expected else 'zero'})")
    print(f"residual: {residual:.3e}  {'PASS' if residual <= tol else 'FAIL'}")
    return 0 if residual <= tol else 1


def cmd_counterexample(args):
    try:
        rep = exchangeability.finite_counterexample(args.n)
    except ValueError as exc:
        raise ScenarioError(f"--n: {exc}")
    print(rep.summary())
    return 0 if rep.passed else 1


def build_parser():
    def flag(*args, **kwargs):
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*args, **kwargs)
        return parent

    tol = flag("--tol", type=float, default=None, help="residual tolerance")
    seed = flag("--seed", type=int, default=None, help="sampling seed")
    report = flag("--report", default=None, help="path for the JSON report")
    fmt = flag("--format", choices=("json", "text"), default="text", help="stdout format")
    parser = argparse.ArgumentParser(
        prog="qexch",
        description="numerical checks for quantum-permutation symmetry and freeness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes only the flags its command reads
    every = [tol, seed, report, fmt]
    p = sub.add_parser("verify", parents=every, help="run a scenario file")
    p.add_argument("scenario")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("check-magic", parents=every, help="verify the defining relations")
    p.add_argument("unitary", help="unitary spec: inline JSON or a file path")
    p.set_defaults(func=cmd_check_magic)

    p = sub.add_parser("cumulants", parents=[fmt], help="print a moment/cumulant table")
    p.add_argument("functional", help="functional spec: inline JSON or a file path")
    p.add_argument("--n", type=int, default=4, help="highest order to print")
    p.set_defaults(func=cmd_cumulants)

    p = sub.add_parser("collapse", parents=[tol, seed], help="print one collapse sum")
    p.add_argument("unitary", help="unitary spec: inline JSON or a file path")
    p.add_argument("--pi", required=True, help='blocks as JSON, e.g. "[[1,2],[3,4]]"')
    p.add_argument("--i", required=True, help='index tuple as JSON, e.g. "[1,1,2,2]"')
    p.set_defaults(func=cmd_collapse)

    p = sub.add_parser("counterexample", help="run the column model")
    p.add_argument("--n", type=int, default=3)
    p.set_defaults(func=cmd_counterexample)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad usage, which matches the contract
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
