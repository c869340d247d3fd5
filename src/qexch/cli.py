"""Scenario-driven command line front end.

A scenario is a JSON document describing one moment functional, a list of
magic unitaries, and the checks to run against them.  Reports are written
as JSON (deterministic byte-for-byte for a fixed scenario) next to a
human-readable summary on stdout.  Every field of a scenario is read before
any check runs, and a key that no field reads is malformed input.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 malformed
input.  A flag value (--tol, --seed, --n), after a space or "=" and of any
sign, is JSON read by its scenario key's parser before any work: `--seed 1.0`
reads as `"seed": 1.0`, and a malformed value such as `--tol -1e-8` gives one
`error: --flag: ...` line.  The tolerance is the --tol flag, then the scenario
file's, then 1e-8.

Importing this module before numpy sets OPENBLAS_NUM_THREADS=1 unless the
caller has set OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS, so
a `qexch` process runs its BLAS calls on the calling thread: a scenario's
products are small enough that OpenBLAS's pool shortens them little, while
its idle threads spin.  Set any of the three to choose otherwise.  A program that
imports numpy first, and every library module, keeps the default threading.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import namedtuple
from functools import partial
from pathlib import Path

# The module docstring gives the reason; OpenBLAS reads these three at load.
if "numpy" not in sys.modules and not any(
    name in os.environ for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from . import algebra, cumulants, exchangeability, magic, partitions  # noqa: E402


class ScenarioError(Exception):
    """Malformed scenario input; the message names the offending field."""


def _fail(field, message):
    raise ScenarioError(f"{field}: {message}")


def _finite(x):
    """Whether x is an int or float that a finite float holds (a bool is not a number here)."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _parse_complex(value, field):
    parts = value if isinstance(value, (list, tuple)) and len(value) == 2 else [value]
    if not all(_finite(x) for x in parts):
        _fail(field, f"expected a finite number or [re, im] pair, got {value!r}")
    return complex(*parts)


def _parse_int(value, field, minimum=None, maximum=None):
    """An integer of at least minimum (and at most maximum, given with one); bool,
    non-integral float, string and list are rejected.

    A float counts only below 2**53, where floats still hold every integer.
    """
    if isinstance(value, float) and value.is_integer() and abs(value) < 2**53:
        value = int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(field, f"expected an integer, got {value!r}")
    if maximum is not None and not minimum <= value <= maximum:
        _fail(field, f"must be in {minimum}..{maximum}, got {value}")
    if minimum is not None and value < minimum:
        _fail(field, f"must be at least {minimum}, got {value}")
    return value


def _parse_str(value, field, choices=None):
    if not isinstance(value, str):
        _fail(field, f"expected a string, got {value!r}")
    if choices is not None and value not in choices:
        _fail(field, f"expected one of {', '.join(choices)}, got {value!r}")
    return value


def _parse_list(value, field, item=None):
    """A list, each entry read by item(entry, field) when item is given."""
    if not isinstance(value, list):
        _fail(field, f"expected a list, got {value!r}")
    return value if item is None else [item(x, f"{field}[{t}]") for t, x in enumerate(value)]


def _parse_int_list(value, field, minimum=None):
    return _parse_list(value, field, partial(_parse_int, minimum=minimum))


def _parse_dim(value, field, blocks=1):
    """A dimension d >= 1 such that `blocks` complex d x d arrays fit MAX_BYTES."""
    d = _parse_int(value, field, minimum=1)
    try:
        algebra.check_bytes(16 * blocks * d * d, f"dimension {d}")
    except ValueError as exc:
        _fail(field, str(exc))
    return d


def _check_tol(value, field):
    """A tolerance: a finite, non-negative number."""
    if not (_finite(value) and value >= 0):
        _fail(field, f"expected a finite non-negative number, got {value!r}")
    return float(value)


_REQUIRED = object()


class _Object:
    """One JSON object of the input, read key by key; close() rejects every key left unread.

    A key is named `<field>.<key>`, or `<key>` at the scenario's top level (field "").
    """

    def __init__(self, value, field):
        if not isinstance(value, dict):
            _fail(field or "scenario", f"expected an object, got {type(value).__name__}")
        self.value, self.prefix, self.read = value, f"{field}." if field else "", set()

    def get(self, key, parse=None, default=_REQUIRED):
        """parse(value, field) of the key's value; an absent key gives default, as it is."""
        self.read.add(key)
        if key in self.value:
            value = self.value[key]
            return value if parse is None else parse(value, self.prefix + key)
        if default is _REQUIRED:
            _fail(self.prefix + key, "missing required field")
        return default

    def close(self):
        takes = ", ".join(sorted(self.read))
        for key in sorted(set(self.value) - self.read):
            _fail(self.prefix + key, f"unexpected key; this object takes {takes}")


def _parse_matrix(value, field, dim):
    """A dim x dim matrix: nested rows of complex scalars, or {'diag': [...]}."""
    if isinstance(value, dict):
        obj = _Object(value, field)
        diag = obj.get("diag", partial(_parse_list, item=_parse_complex))
        obj.close()
        if len(diag) != dim:
            _fail(f"{field}.diag", f"expected {dim} entries, got {len(diag)}")
        return np.diag(np.array(diag, dtype=complex))
    if not isinstance(value, list):
        _fail(field, "expected a matrix (list of rows) or {'diag': [...]}")
    rows = [_parse_list(row, f"{field}[{r}]", _parse_complex) for r, row in enumerate(value)]
    if len(rows) != dim or any(len(row) != dim for row in rows):
        _fail(field, f"expected a {dim}x{dim} matrix")
    return np.array(rows, dtype=complex)


def _parse_cumulants(value, field, b_dim):
    """Order -> kappa_order as b_dim complex numbers; each order key an integer >= 1 in decimal."""
    if not isinstance(value, dict):
        _fail(field, f"expected an object, got {type(value).__name__}")
    kappa = {}
    for key, entry in value.items():
        name = f"{field}[{key}]"
        try:
            order = int(key)
        except ValueError:
            order = 0
        if key != str(order) or order < 1:
            _fail(name, "an order is an integer >= 1 written in decimal, without sign or padding")
        if isinstance(entry, list) and len(entry) == b_dim > 1:
            kappa[order] = _parse_list(entry, name, _parse_complex)
        else:
            kappa[order] = [_parse_complex(entry, name)] * b_dim
    return kappa


def _parse_b(value, field, dim):
    """B's pinching blocks: None for 'scalar', singletons for 'diagonal', or {'blocks': ...}."""
    if value == "scalar":
        return None
    if value == "diagonal":
        return [[x] for x in range(dim)]
    if not isinstance(value, dict):
        _fail(field, f"expected 'scalar', 'diagonal', or {{'blocks': ...}}, got {value!r}")
    obj = _Object(value, field)
    blocks = obj.get("blocks", partial(_parse_list, item=partial(_parse_int_list, minimum=0)))
    obj.close()
    # checked against dim before pinching_context sizes its mask from the blocks
    if sorted(x for b in blocks for x in b) != list(range(dim)):
        _fail(field, f"blocks must partition 0..{dim - 1}, got {blocks}")
    return blocks


def build_functional(spec, field="functional"):
    obj = _Object(spec, field)
    kind = obj.get("kind", _parse_str)
    if kind == "cumulant":
        b_dim = obj.get("b_dim", _parse_dim, 1)
        kappa = obj.get("cumulants", partial(_parse_cumulants, b_dim=b_dim))
        obj.close()
        try:
            spec_obj = cumulants.CumulantSpec(kappa, b_dim=b_dim)
        except ValueError as exc:
            _fail(field, str(exc))
        return cumulants.CumulantMomentFunctional(spec_obj)
    if kind == "concrete":
        dim = obj.get("dim", _parse_dim)  # the density, each element and E are d x d arrays
        density = obj.get("density", partial(_parse_matrix, dim=dim))
        blocks = obj.get("b", partial(_parse_b, dim=dim), None)  # None: scalar B
        mats = obj.get("elements", partial(_parse_list, item=partial(_parse_matrix, dim=dim)))
        obj.close()
        try:  # the density's entries are finite, so only a pinching over budget fails here
            ctx = (algebra.scalar_context(density) if blocks is None
                   else algebra.pinching_context(blocks, density))
        except ValueError as exc:
            _fail(f"{field}.b", str(exc))
        for name, residual in ctx.residuals().items():  # a state, and phi o E = phi
            if not residual <= algebra.DEFAULT_TOL:
                _fail(f"{field}.density", f"not a state: {name} residual {residual:.2e}")
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
    obj = _Object(spec, field)
    kind = obj.get("kind", _parse_str)
    if kind == "permutation":
        sigma = obj.get("sigma", _parse_int_list)
        d = obj.get("d", partial(_parse_dim, blocks=len(sigma) ** 2), 1)
        obj.close()
        try:
            return magic.from_permutation(sigma, d=d)
        except ValueError as exc:
            _fail(f"{field}.sigma", str(exc))
    if kind in ("block_pair", "block_chain"):
        # exactly one of projections and seeds; rank goes only with seeds
        source = "projections" if "projections" in spec else "seeds"
        if source not in spec:
            _fail(field, "needs 'projections' or 'seeds'")
        listed = obj.get(source, _parse_list)  # the entries are read once d is known
        d = obj.get("d", partial(_parse_dim, blocks=4 * max(len(listed), 1) ** 2))
        if source == "projections":
            qs = [_parse_projection(m, f"{field}.projections[{t}]", d)
                  for t, m in enumerate(listed)]
        else:
            seeds = _parse_int_list(listed, f"{field}.seeds", minimum=0)
            rank = obj.get("rank", partial(_parse_int, minimum=0), 1)
            if rank > d:
                _fail(f"{field}.rank", f"must be at most d = {d}, got {rank}")
        obj.close()
        if kind == "block_pair" and len(listed) != 2:
            _fail(field, f"block_pair needs exactly 2 projections, got {len(listed)}")
        if source == "seeds":
            qs = [magic.random_projection(d, rank, (seed, s)) for s in seeds]
        try:
            return magic.block_chain(qs)
        except ValueError as exc:
            _fail(field, str(exc))
    _fail(f"{field}.kind", f"unknown unitary kind {kind!r}")


# what every check runs against; unitaries are (label, MagicUnitary) pairs
_Context = namedtuple("_Context", "mf unitaries tol seed")


def _verdict(rep):
    """(residual, passed, note) of a library report; the note names its worst tuple."""
    w = getattr(rep, "worst", None)
    note = "" if w is None else f"worst tuple n={w.n} i={tuple(map(int, w.indices))}"
    return rep.max_residual, rep.passed, note


def _relations(c, p, u):
    return _verdict(magic.verify_relations(u, tol=c.tol))


def _quantum_invariance(c, p, u):
    return _verdict(exchangeability.check_quantum_invariance(c.mf, u, p["n_max"], c.tol))


def _e_invariance(c, p, u):
    # the scan with its n_max - 1 decorations, before the first is drawn
    exchangeability._check_scan(c.mf, u.k, p["n_max"], u.d, c.mf.b_dim**2, p["n_max"] - 1)
    rng = np.random.default_rng(c.seed)
    decorations = [c.mf.random_coeff(rng) for _ in range(p["n_max"] - 1)]
    return _verdict(exchangeability.check_E_invariance(c.mf, u, decorations, p["n_max"], c.tol))


def _collapse_lemma(c, p, u):
    worst = magic.collapse_lemma_residual(u, p["n_max"])
    return worst, worst <= c.tol, ""


def _classical_invariance(c, p, u):
    if p["k"] is None:
        p["k"] = max((v.k for _, v in c.unitaries), default=2)
    rep = exchangeability.check_classical_exchangeability(c.mf, p["k"], p["n_max"], c.tol)
    return _verdict(rep)


def _factorization(c, p, u):
    rng = np.random.default_rng(c.seed)
    residuals = []
    for _ in range(p["trials"]):
        polys = [exchangeability._random_polynomial(c.mf, rng) for _ in p["vars"]]
        residuals.append(exchangeability.check_factorization(c.mf, p["vars"], polys, p["l"]))
    worst = float(np.max(residuals))
    return worst, worst <= c.tol, ""


def _freeness(c, p, u):
    rep = exchangeability.check_freeness(c.mf, p["vars"], n_max=p["n_max"], tol=c.tol, seed=c.seed)
    note = "criteria agree" if rep.consistent else "criteria DISAGREE"
    return max(rep.centered_max, rep.mixed_max, key=algebra._severity), rep.passed, note


def _crossing_sum(c, p, u):
    # Fixed thresholds, not the tolerance: the probe of a non-commuting pair
    # must stay 1e-4 away from the identity, that of a pair (p, p) within 1e-10.
    ok, worst_gap = True, 0.0
    for t in range(p["pairs"]):
        commuting = t % 2 == 1
        if commuting:
            a = b = magic.random_projection(p["d"], 1, (c.seed, t))
        else:
            a, b = magic.noncommuting_projection_pair(p["d"], (c.seed, t))
        _, dist = exchangeability.crossing_sum_probe(a, b, p["s"], p["variant"])
        good = dist <= 1e-10 if commuting else dist > 1e-4
        ok = ok and good
        gap = 0.0 if good else dist if commuting else 1e-4 - dist
        worst_gap = max(worst_gap, gap, key=algebra._severity)
    return worst_gap, ok, ""


def _counterexample(c, p, u):
    rep = exchangeability.finite_counterexample(p["n"])
    p.update(psi_u11=str(rep.psi_u11), psi_u11_u21=str(rep.psi_u11_u21))
    return 0.0 if rep.passed else 1.0, rep.passed, ""


_count = partial(_parse_int, minimum=1)
_seed = partial(_parse_int, minimum=0)
_counts = partial(_parse_int_list, minimum=1)
_at_least_two = partial(_parse_int, minimum=2)

# name -> (run, once per unitary, {parameter: (parser, default)}).  A parser
# rejects every value the parameter alone rules out; an absent parameter
# takes its default, as it is.  run(context, params, u) returns (residual,
# passed, note) and may add results to params for the report.
CHECKS = {
    "relations": (_relations, True, {}),
    "quantum_invariance": (_quantum_invariance, True, {"n_max": (_count, 4)}),
    # k = None: the largest k of the scenario's unitaries, else 2
    "classical_invariance": (_classical_invariance, False,
                             {"k": (_count, None), "n_max": (_count, 4)}),
    "e_invariance": (_e_invariance, True, {"n_max": (_count, 3)}),
    "factorization": (_factorization, False,
                      {"vars": (_counts, [1, 2, 3]), "l": (_count, 1), "trials": (_count, 5)}),
    "freeness": (_freeness, False, {
        "vars": (_counts, [1, 2]),
        "n_max": (partial(_at_least_two, maximum=cumulants.MAX_TRANSFORM_ORDER), 4)}),
    "collapse_lemma": (_collapse_lemma, True, {"n_max": (_count, 4)}),
    "crossing_sum": (_crossing_sum, False, {
        "d": (_at_least_two, 2), "s": (_at_least_two, 2), "pairs": (_count, 20),
        "variant": (partial(_parse_str, choices=("plain", "capped")), "plain")}),
    "counterexample": (_counterexample, False, {"n": (partial(_at_least_two, maximum=3), 3)}),
}


def _parse_check(value, field, unitaries):
    """A check as (name, parameters), rejecting all that its parameters alone rule out.

    What also depends on the functional or the unitaries (the byte budget,
    the word-length cap, a commutative B) is checked when the check starts.
    """
    obj = _Object(value, field)
    name = obj.get("name", _parse_str)
    if name not in CHECKS:
        _fail(f"{field}.name", f"unknown check {name!r}")
    _, per_unitary, table = CHECKS[name]
    if per_unitary and not unitaries:
        _fail(field, f"{name} runs once per unitary, and the scenario has none")
    params = {key: obj.get(key, parse, v) for key, (parse, v) in table.items()}
    obj.close()
    if name == "factorization":  # E is pulled through the one variable at position l
        variables, l = params["vars"], params["l"]
        if l > len(variables) or variables.count(variables[l - 1]) > 1:
            _fail(f"{field}.l", f"expected the position of a variable that occurs once "
                                f"in vars {variables}, got {l}")
    return name, params


def _read_file(path, field):
    """The text of the file at path; an unreadable file names the field."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        _fail(field, str(exc))


def _read_json(text, field):
    """The one JSON reader of every input; invalid JSON names the field (json raises
    a ValueError past 4300 digits of an integer, a RecursionError on deep nesting)."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        _fail(field, f"invalid JSON ({exc})")


def load_scenario(path):
    """The scenario file with every field read; the functional and unitaries stay specs."""
    top = _Object(_read_json(_read_file(path, "scenario file"), "scenario file"), "")
    scenario = {
        "name": top.get("name", _parse_str),
        "tolerance": top.get("tolerance", _check_tol, algebra.DEFAULT_TOL),
        "seed": top.get("seed", _seed, 0),
        "functional": top.get("functional"),
        "unitaries": top.get("unitaries", _parse_list, []),
    }
    read_check = partial(_parse_check, unitaries=scenario["unitaries"])
    scenario["checks"] = top.get("checks", partial(_parse_list, item=read_check))
    top.close()
    return scenario


def run_scenario(doc, tol, seed):
    """Build a loaded scenario's functional and unitaries, run every check: (report, lines)."""
    mf = build_functional(doc["functional"])
    unitaries = []
    for pos, uspec in enumerate(doc["unitaries"]):
        u = build_unitary(uspec, seed, f"unitaries[{pos}]")
        unitaries.append((f"{uspec['kind']}#{pos}", u))
    context = _Context(mf, unitaries, tol, seed)
    records, lines = [], []
    for pos, (name, params) in enumerate(doc["checks"]):
        run, per_unitary, _ = CHECKS[name]
        for label, u in unitaries if per_unitary else [(None, None)]:
            try:
                # non-finite residuals fail closed, so overflow needs no warning
                with np.errstate(over="ignore", invalid="ignore"):
                    residual, passed, note = run(context, params, u)
            except ValueError as exc:
                _fail(f"checks[{pos}]", str(exc))
            record = params if label is None else {"unitary": label, **params}
            records.append(
                {"name": name, "params": record, "residual": float(residual), "pass": bool(passed)}
            )
            target = f" [{label}]" if label else ""
            extra = f"  ({note})" if note else ""
            lines.append(f"{name}{target}: residual={residual:.3e} "
                         f"{'PASS' if passed else 'FAIL'}{extra}")
    all_pass = all(r["pass"] for r in records)
    report = {"scenario": doc["name"], "seed": seed, "tolerance": tol, "checks": records,
              "pass": all_pass}
    return report, lines


def _flag(args, name, parse, default):
    """The --name flag's JSON text read by parse, the parser of the key the flag
    stands for; an absent flag gives default, as it is."""
    text = getattr(args, name)
    if text is None:
        return default
    return parse(_read_json(text, f"--{name}"), f"--{name}")


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
    """Inline JSON (text that starts with {, [ or "), or a path to a JSON file."""
    text = value if value.lstrip()[:1] in ("{", "[", '"') else _read_file(value, field)
    return _read_json(text, field)


def cmd_verify(args):
    doc = load_scenario(args.scenario)
    tol = _flag(args, "tol", _check_tol, doc["tolerance"])
    seed = _flag(args, "seed", _seed, doc["seed"])
    if args.report is None:
        args.report = Path(args.scenario).stem + ".report.json"
    report, lines = run_scenario(doc, tol, seed)
    _emit(args, report, lines + ["overall: " + ("PASS" if report["pass"] else "FAIL")])
    return 0 if report["pass"] else 1


def cmd_check_magic(args):
    spec = _load_spec_argument(args.unitary, "unitary")
    tol = _flag(args, "tol", _check_tol, algebra.DEFAULT_TOL)
    seed = _flag(args, "seed", _seed, 0)
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
    n = _flag(args, "n", partial(_parse_int, minimum=1, maximum=cumulants.MAX_TRANSFORM_ORDER), 4)
    mf = build_functional(spec, "functional")
    # m_n and kappa_n are B-valued; one state reduces both to numbers
    table = cumulants.moments_to_cumulants(mf, (1,) * n)
    rows = [(o, mf.phi(mf.moment((1,) * o)), mf.phi(table[o])) for o in range(1, n + 1)]
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


def cmd_collapse(args):
    spec = _load_spec_argument(args.unitary, "unitary")
    tol = _flag(args, "tol", _check_tol, algebra.DEFAULT_TOL)
    seed = _flag(args, "seed", _seed, 0)
    u = build_unitary(spec, seed, "unitary")
    positive = partial(_parse_int_list, minimum=1)
    i_tuple = tuple(positive(_read_json(args.i, "--i"), "--i"))
    if not i_tuple or max(i_tuple) > u.k:
        _fail("--i", f"expected a nonempty list of indices in 1..{u.k}, got {args.i}")
    blocks = _parse_list(_read_json(args.pi, "--pi"), "--pi", positive)
    try:
        pi = partitions.Partition(len(i_tuple), blocks)
        value = magic.collapse_sum_all(u, pi)[tuple(x - 1 for x in i_tuple)]
    except ValueError as exc:
        _fail("--pi", str(exc))
    expected = magic.collapse_expected(i_tuple, pi)
    target = np.eye(u.d) if expected else np.zeros((u.d, u.d))
    residual = float(np.linalg.norm(value - target))
    print(f"collapse sum for i={i_tuple}, pi={[list(b) for b in pi.blocks]}:")
    with np.printoptions(precision=6, suppress=True):
        print(value)
    print(f"ker i >= pi: {expected}  (target {'identity' if expected else 'zero'})")
    print(f"residual: {residual:.3e}  {'PASS' if residual <= tol else 'FAIL'}")
    return 0 if residual <= tol else 1


def cmd_counterexample(args):
    rep = exchangeability.finite_counterexample(_flag(args, "n", *CHECKS["counterexample"][2]["n"]))
    print(rep.summary())
    return 0 if rep.passed else 1


def build_parser():
    def flag(*args, **kwargs):
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*args, **kwargs)
        return parent

    # argparse keeps only the structure: _flag reads the values of --tol, --seed and --n
    tol = flag("--tol", help="residual tolerance")
    seed = flag("--seed", help="sampling seed")
    report = flag("--report", default=None, help="path for the JSON report")
    fmt = flag("--format", choices=("json", "text"), default="text", help="stdout format")
    # no flag is read by a prefix: _attach_values joins only the exact names to their values
    parser = argparse.ArgumentParser(
        prog="qexch",
        description="numerical checks for quantum-permutation symmetry and freeness",
        allow_abbrev=False,
    )
    command = partial(parser.add_subparsers(dest="command", required=True).add_parser,
                      allow_abbrev=False)

    # each subcommand takes only the flags its command reads
    every = [tol, seed, report, fmt]
    p = command("verify", parents=every, help="run a scenario file")
    p.add_argument("scenario")
    p.set_defaults(func=cmd_verify)

    p = command("check-magic", parents=every, help="verify the defining relations")
    p.add_argument("unitary", help="unitary spec: inline JSON or a file path")
    p.set_defaults(func=cmd_check_magic)

    p = command("cumulants", parents=[fmt], help="print a moment/cumulant table")
    p.add_argument("functional", help="functional spec: inline JSON or a file path")
    p.add_argument("--n", help="highest order to print")
    p.set_defaults(func=cmd_cumulants)

    p = command("collapse", parents=[tol, seed], help="print one collapse sum")
    p.add_argument("unitary", help="unitary spec: inline JSON or a file path")
    p.add_argument("--pi", required=True, help='blocks as JSON, e.g. "[[1,2],[3,4]]"')
    p.add_argument("--i", required=True, help='index tuple as JSON, e.g. "[1,1,2,2]"')
    p.set_defaults(func=cmd_collapse)

    p = command("counterexample", help="run the column model")
    p.add_argument("--n")
    p.set_defaults(func=cmd_counterexample)
    return parser


def _attach_values(argv):
    """argv with each --tol, --seed and --n joined to the word after it by "=", so
    that a value argparse would take for an option, such as -1e-8, reaches _flag."""
    out = []
    for word in argv:
        if out and out[-1] in ("--tol", "--seed", "--n"):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_values(sys.argv[1:] if argv is None else argv))
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
