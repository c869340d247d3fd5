"""Scenario runner: exit codes, report determinism, subcommands, overrides."""

import contextlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qexch
from qexch import algebra, cli, cumulants, exchangeability, magic
from qexch.cli import CHECKS, _json_text, main
from qexch.exchangeability import FreenessReport

# the shipped fixtures: the checkout's copy, or the installed package's data
FIXTURES = files("qexch") / "fixtures"
FREE = FIXTURES / "free_semicircular.json"
BERNOULLI = FIXTURES / "classical_bernoulli.json"
ALL_CHECKS = Path(__file__).resolve().parent / "scenarios" / "all_checks.json"
CONCRETE_DIM128 = ALL_CHECKS.with_name("concrete_dim128.json")
AMALGAMATION = ALL_CHECKS.with_name("amalgamation.json")


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _strict_json(text):
    """text parsed as JSON, refusing the NaN, Infinity and -Infinity that JSON lacks."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def run_verify(scenario, tmp_path, capsys, *flags):
    """verify on a scenario, silent on stderr: its exit code, stdout and strict-JSON report."""
    report = tmp_path / "report.json"
    code, out, err = run_cli(["verify", str(scenario), "--report", str(report), *flags], capsys)
    assert err == ""
    return code, out, _strict_json(report.read_text())


# -- the package ------------------------------------------------------------------

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _child_env(**preset):
    """This environment without the BLAS thread variables, plus preset, importing this qexch.

    Built explicitly: a process that imported qexch.cli before numpy has set one of them.
    """
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    return {**env, "PYTHONPATH": str(Path(qexch.__file__).resolve().parents[1]), **preset}


def test_package_reexports_nothing_and_loads_no_module():
    # each name is imported from its module; `import qexch` alone binds no public name
    code = ("import json, sys, qexch; print(json.dumps([qexch.__file__, "
            "[n for n in vars(qexch) if not n.startswith('_')], 'numpy' in sys.modules]))")
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True,
                         text=True, check=True).stdout
    file, public, numpy_loaded = json.loads(out)
    assert Path(file).resolve() == Path(qexch.__file__).resolve()
    assert (public, numpy_loaded) == ([], False)


ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1"}


@pytest.mark.parametrize("imports, preset, expected", [
    ("qexch.cli", {}, ONE_THREAD),
    ("qexch.cli", {"OPENBLAS_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": "2"}),
    ("qexch.cli", {"GOTO_NUM_THREADS": "2"}, {"GOTO_NUM_THREADS": "2"}),
    ("qexch.cli", {"OMP_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "2"}),
    ("numpy, qexch.cli", {}, {}),
], ids=["default", "openblas_preset", "goto_preset", "omp_preset", "numpy_first"])
def test_cli_gives_openblas_one_thread_unless_the_caller_chose(imports, preset, expected):
    code = (f"import json, os, {imports}; task = '/proc/self/task'; print(json.dumps(["
            f"{{n: os.environ[n] for n in {BLAS_THREAD_VARIABLES!r} if n in os.environ}}, "
            "len(os.listdir(task)) if os.path.isdir(task) else 1]))")
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(**preset),
                         capture_output=True, text=True, check=True).stdout
    variables, tasks = json.loads(out)
    assert variables == expected
    if expected == ONE_THREAD:
        assert tasks == 1  # numpy loaded, and OpenBLAS started no pool thread


def test_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the CLI's one-thread default against an explicit two-thread pool, each in fresh processes
    runs = {}
    for threads, preset in (("default", {}), ("two", {"OPENBLAS_NUM_THREADS": "2"})):
        for scenario in (FREE, BERNOULLI, ALL_CHECKS):
            report = tmp_path / f"{scenario.stem}-{threads}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "qexch.cli", "verify", str(scenario), "--report", str(report)],
                env=_child_env(**preset), capture_output=True, timeout=300,
            )
            runs[scenario, threads] = (proc.returncode, proc.stderr, report.read_bytes(),
                                       proc.stdout)  # the witnesses appear only on stdout
    for scenario, code in ((FREE, 0), (BERNOULLI, 1), (ALL_CHECKS, 0)):
        assert runs[scenario, "default"] == runs[scenario, "two"]
        assert runs[scenario, "default"][:2] == (code, b"")


@pytest.mark.parametrize("scenario", [FREE, BERNOULLI], ids=["free", "bernoulli"])
def test_verify_loads_no_masked_arrays(scenario, tmp_path):
    # numpy.ma costs a process about 1.4 MB; numpy 1.x imports it with numpy itself
    alone = "import numpy, sys; print('numpy.ma' in sys.modules)"
    verify = ("import sys, qexch.cli; qexch.cli.main(['verify', sys.argv[1], '--report', "
              "sys.argv[2]]); print('numpy.ma' in sys.modules)")
    loaded = {}
    for name, code, args in (("numpy", alone, []),
                             ("verify", verify, [str(scenario), str(tmp_path / "r.json")])):
        out = subprocess.run([sys.executable, "-c", code, *args], env=_child_env(),
                             capture_output=True, text=True, check=True, timeout=300).stdout
        loaded[name] = out.splitlines()[-1] == "True"
    assert not loaded["verify"] or loaded["numpy"]


def _qexch_command():
    """The installed qexch console script when qexch is imported from outside this checkout,
    else this interpreter running qexch.cli."""
    if Path(qexch.__file__).resolve().is_relative_to(Path(__file__).resolve().parents[1] / "src"):
        return [sys.executable, "-m", "qexch.cli"]
    script = shutil.which("qexch")
    assert script, f"no qexch console script on PATH for {qexch.__file__}"
    return [script]


OVERFLOW = '{"kind": "cumulant", "cumulants": {"2": 1e308, "4": 1e308}}'


@pytest.mark.parametrize("args, code", [
    (["verify", FREE], 0),
    (["verify", BERNOULLI], 1),
    (["verify", ALL_CHECKS], 0),
    (["verify", AMALGAMATION], 0),
    (["verify", CONCRETE_DIM128], 1),
    (["check-magic", '{"kind": "permutation", "sigma": [2, 1, 3]}'], 0),
    (["counterexample", "--n", "2"], 0),
    (["counterexample", "--n", "3"], 0),
    (["cumulants", '{"kind": "cumulant", "cumulants": {"2": 1.0}}', "--n", "6"], 0),
    # moments that overflow reach the table as inf or NaN, with no warning
    (["cumulants", OVERFLOW, "--n", "8"], 0),
    (["cumulants", OVERFLOW, "--n", "8", "--format", "json"], 0),
    (["collapse", '{"kind": "block_pair", "d": 2, "seeds": [1, 2]}', "--pi", "[[1, 4], [2, 3]]",
      "--i", "[1, 2, 2, 1]"], 0),
], ids=["verify_free", "verify_bernoulli", "verify_all_checks", "verify_amalgamation",
        "verify_dim128", "check_magic", "counterexample_2", "counterexample_3", "cumulants",
        "cumulants_overflow", "cumulants_overflow_json", "collapse"])
def test_the_qexch_command_exits_as_documented_and_silent(tmp_path, args, code):
    # a child process per command: every report and JSON table is strict JSON
    args = [str(a) for a in args] + (["--report", "report.json"] if args[0] == "verify" else [])
    proc = subprocess.run([*_qexch_command(), *args], cwd=tmp_path, env=_child_env(),
                          capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stderr) == (code, "")
    if args[0] == "verify":
        _strict_json((tmp_path / "report.json").read_text())
    if "json" in args:
        _strict_json(proc.stdout)
    if args[0] == "counterexample":
        assert proc.stdout.splitlines()[-1] == "PASS" and "CONTRADICTION ESTABLISHED" in proc.stdout


# -- verify -----------------------------------------------------------------------

def test_free_fixture_passes(tmp_path, capsys):
    code, out, report = run_verify(FREE, tmp_path, capsys)
    assert code == 0
    assert "overall: PASS" in out
    assert report["pass"] is True
    qi = [c for c in report["checks"] if c["name"] == "quantum_invariance"]
    assert qi and all(c["residual"] <= 1e-8 for c in qi)


def test_bernoulli_fixture_fails_with_violating_tuple(tmp_path, capsys):
    # the report is written even when checks fail
    code, out, report = run_verify(BERNOULLI, tmp_path, capsys)
    assert code == 1
    assert "overall: FAIL" in out
    # the offending word is printed alongside the failing check; 32 tuples tie
    # at the maximum up to rounding, and the first of them in C order is named
    assert "worst tuple n=4 i=(1, 3, 1, 3)" in out
    assert report["pass"] is False
    names = {c["name"]: c for c in report["checks"]}
    assert not names["quantum_invariance"]["pass"]
    assert not names["freeness"]["pass"]
    assert names["classical_invariance"]["pass"]


# Every check of the scenario table, in report order: name, params, residual.
ALL_CHECKS_EXPECTED = [
    ("relations", {"unitary": "permutation#0"}, 0.0),
    ("relations", {"unitary": "block_pair#1"}, 6.0332475458014115e-16),
    ("relations", {"unitary": "block_chain#2"}, 2.8701426182792884e-16),
    ("quantum_invariance", {"n_max": 5, "unitary": "permutation#0"}, 0.0),
    ("quantum_invariance", {"n_max": 5, "unitary": "block_pair#1"}, 2.0609187995072733e-15),
    ("quantum_invariance", {"n_max": 5, "unitary": "block_chain#2"}, 1.3557299374907376e-15),
    ("classical_invariance", {"k": 4, "n_max": 4}, 0.0),
    ("e_invariance", {"n_max": 3, "unitary": "permutation#0"}, 0.0),
    ("e_invariance", {"n_max": 3, "unitary": "block_pair#1"}, 7.979727989493313e-17),
    ("e_invariance", {"n_max": 3, "unitary": "block_chain#2"}, 7.407187990290272e-17),
    ("collapse_lemma", {"n_max": 4, "unitary": "permutation#0"}, 0.0),
    ("collapse_lemma", {"n_max": 4, "unitary": "block_pair#1"}, 1.0292666002845966e-15),
    ("collapse_lemma", {"n_max": 4, "unitary": "block_chain#2"}, 5.063932090937452e-16),
    ("freeness", {"n_max": 4, "vars": [1, 2]}, 2.842170943040401e-14),
    ("factorization", {"l": 2, "trials": 5, "vars": [1, 2, 1]}, 0.0),
    ("counterexample", {"n": 3, "psi_u11": "1/3", "psi_u11_u21": "0"}, 0.0),
]


def test_all_checks_scenario_reaches_every_check():
    names = {check["name"] for check in json.loads(ALL_CHECKS.read_text())["checks"]}
    assert names == set(CHECKS)


def test_readme_check_table_lists_every_check_in_order():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| check | parameters (default) | runs | residual |\n|---|---|---|---|\n")
    rows = table[1].split("\n\n", 1)[0].splitlines()
    cells = [re.split(r"(?<!\\)\|", row) for row in rows]  # a cell writes a literal | as \|
    assert [(row[1].strip(), row[3].strip()) for row in cells] == [
        (f"`{name}`", "per unitary" if per_unitary else "once")
        for name, (_, per_unitary, _) in CHECKS.items()]
    assert "The eight checks." in readme and len(CHECKS) == 8  # the lead counts the rows


def test_all_checks_scenario_pinned(tmp_path, capsys):
    code, out, report = run_verify(ALL_CHECKS, tmp_path, capsys, "--seed", "0")
    assert code == 0
    assert report["pass"] is True and report["tolerance"] == 1e-8 and report["seed"] == 0
    got = report["checks"]
    assert [(c["name"], c["params"]) for c in got] == [
        (name, params) for name, params, _ in ALL_CHECKS_EXPECTED
    ]
    assert all(c["pass"] is True for c in got)
    for c, (_, _, residual) in zip(got, ALL_CHECKS_EXPECTED):
        assert abs(c["residual"] - residual) <= 1e-12, c
    assert out.splitlines()[-1] == "overall: PASS"
    assert len(out.splitlines()) == len(ALL_CHECKS_EXPECTED) + 1


def test_concrete_scenario_past_the_old_dimension_cap(tmp_path, capsys):
    # dim 128 was refused while E was held as a dim**4-entry map; freeness first
    # fails at order 4, where classical and free independence differ
    code, out, report = run_verify(CONCRETE_DIM128, tmp_path, capsys)
    assert code == 1
    verdicts = [(c["name"], c["pass"]) for c in report["checks"]]
    assert verdicts == [("classical_invariance", True), ("freeness", False)]
    assert out.splitlines()[-1] == "overall: FAIL"


def test_amalgamation_scenario_is_free_over_its_b(tmp_path, capsys):
    # kappa_2 = (1, 4) over B = C^2: free with amalgamation over B, so every check passes,
    # but not free over C: phi(x1 x1 x2 x2) = (1 + 16) / 2, not phi(x1 x1)^2 = (5 / 2)^2
    code, out, report = run_verify(AMALGAMATION, tmp_path, capsys)
    assert code == 0
    got = [(c["name"], c["params"].get("unitary"), c["pass"]) for c in report["checks"]]
    unitaries = ["permutation#0", "block_pair#1", "block_chain#2"]
    assert got == ([("quantum_invariance", u, True) for u in unitaries]
                   + [("classical_invariance", None, True)]
                   + [("e_invariance", u, True) for u in unitaries]
                   + [("freeness", None, True), ("factorization", None, True)])
    assert out.splitlines()[-1] == "overall: PASS"
    mf = cli.build_functional(json.loads(AMALGAMATION.read_text())["functional"])
    assert mf.b_dim == 2
    assert mf.phi(mf.moment((1, 1, 2, 2))) == pytest.approx(8.5)
    assert mf.phi(mf.moment((1, 1))) ** 2 == pytest.approx(6.25)


def test_a_relations_line_names_its_worst_relation(tmp_path, capsys):
    # q = diag(1 + 1e-9, 0) passes as a projection, so its block pair misses every relation
    # that squares an entry by about 1e-9, and u11 u11 + u12 u12 = 1 by twice that
    projections = [{"diag": [1 + 1e-9, 0]}, {"diag": [0, 1]}]
    unitary = {"kind": "block_pair", "d": 2, "projections": projections}
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"name": "s", "tolerance": 1e-12, "unitaries": [unitary],
                                "functional": {"kind": "cumulant", "cumulants": {"2": 1.0}},
                                "checks": [{"name": "relations"}]}))
    code, out, _ = run_cli(["verify", str(path), "--report", str(tmp_path / "r.json")], capsys)
    residuals = magic.verify_relations(cli.build_unitary(unitary, 0, "u")).residuals
    worst = max(residuals, key=residuals.get)
    assert worst == "orthogonal_matrix_rows" and residuals[worst] > 1.5e-9
    assert code == 1
    assert out.splitlines()[0] == (f"relations [block_pair#0]: residual={residuals[worst]:.3e} "
                                   f"FAIL  (worst {worst})")


def test_missing_field_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x", "checks": []}))
    code, _, err = run_cli(["verify", str(bad)], capsys)
    assert code == 2
    assert "functional" in err


def test_a_file_is_read_as_utf8_whatever_the_locale(tmp_path, capsys):
    # a decoding error used to reach the user with no field named, and a C locale
    # refused a scenario whose name is not ASCII
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    for command, field in ((["verify"], "scenario file"), (["check-magic"], "unitary")):
        code, _, err = run_cli([*command, str(bad)], capsys)
        assert code == 2
        assert err == (f"error: {field}: 'utf-8' codec can't decode byte 0xff in position 0: "
                       "invalid start byte\n")
    scenario, report = tmp_path / "kappa.json", tmp_path / "r.json"
    scenario.write_text(json.dumps({**json.loads(FREE.read_text()), "name": "free κ"},
                                   ensure_ascii=False), encoding="utf-8")
    ascii_locale = _child_env(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    subprocess.run([sys.executable, "-m", "qexch.cli", "verify", str(scenario), "--report",
                    str(report)], env=ascii_locale, capture_output=True, check=True, timeout=300)
    assert json.loads(report.read_text())["scenario"] == "free κ"


def test_json_stdout_format(tmp_path, capsys):
    code, out, report = run_verify(FREE, tmp_path, capsys, "--format", "json")
    assert code == 0
    assert _strict_json(out) == report and report["scenario"] == "free_semicircular"


# -- tolerance resolution ------------------------------------------------------------

@pytest.mark.parametrize("value", ["1e-30", "1000", "nan", "-inf", "-1e-8", "very small"])
def test_tolerance_environment_variable_is_not_read(tmp_path, capsys, monkeypatch, value):
    # the tolerance comes from --tol or the scenario only: a QEXCH_TOL in the
    # environment, well-formed or not, changes neither the verdict nor a report byte
    def verify():
        report = tmp_path / "r.json"
        code, out, _ = run_cli(["verify", str(BERNOULLI), "--report", str(report)], capsys)
        return code, out, report.read_bytes()

    default = verify()
    assert default[0] == 1
    monkeypatch.setenv("QEXCH_TOL", value)
    assert verify() == default


def test_a_residual_equal_to_the_tolerance_passes(tmp_path, capsys):
    # at --tol 0, exactly the records whose residual is exactly 0.0 pass: a verdict that
    # read `residual < tol` would fail them all
    code, _, report = run_verify(FREE, tmp_path, capsys, "--tol", "0")
    assert (code, report["tolerance"]) == (1, 0.0)
    assert all(c["pass"] is (c["residual"] == 0.0) for c in report["checks"])
    assert [(c["name"], c["params"].get("unitary")) for c in report["checks"] if c["pass"]] == [
        ("relations", "permutation#0"), ("quantum_invariance", "permutation#0"),
        ("classical_invariance", None), ("collapse_lemma", "permutation#0"),
        ("factorization", None), ("counterexample", None)]
    code, out, err = run_cli(["check-magic", '{"kind": "permutation", "sigma": [2, 1]}',
                              "--tol", "0", "--report", str(tmp_path / "m.json")], capsys)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 10 and lines[-1] == "PASS"
    assert all(line.endswith(" 0.000e+00  ok") for line in lines[1:-1])


def test_the_freeness_note_gives_both_residuals_and_no_agreement(tmp_path, capsys):
    # the free fixture's centred criterion rounds to 2.8e-14 while its mixed cumulants are
    # exactly 0: at --tol 0 the two verdicts differ by rounding alone, and the note says no more
    _, out, _ = run_verify(FREE, tmp_path, capsys, "--tol", "0")
    assert ("freeness: residual=2.842e-14 FAIL  (centered 2.842e-14 at i=(1, 2, 1), "
            "mixed 0.000e+00)") in out.splitlines()
    _, out, _ = run_verify(BERNOULLI, tmp_path, capsys)
    assert ("freeness: residual=4.578e+02 FAIL  (centered 4.578e+02 at i=(2, 1, 2, 1), "
            "mixed 4.000e+00 at i=(1, 2, 1, 2))") in out.splitlines()


# -- subcommands ------------------------------------------------------------------------

def test_check_magic_permutation(capsys):
    code, out, err = run_cli(
        ["check-magic", '{"kind": "permutation", "sigma": [2, 1, 3]}'], capsys
    )
    assert (code, err) == (0, "")
    # a permutation unitary satisfies every relation exactly, so the text is fixed
    assert out == (
        "magic unitary relations (tol=1e-08)\n"
        "  hermitian              0.000e+00  ok\n"
        "  idempotent             0.000e+00  ok\n"
        "  row_orthogonality      0.000e+00  ok\n"
        "  column_orthogonality   0.000e+00  ok\n"
        "  row_sums               0.000e+00  ok\n"
        "  column_sums            0.000e+00  ok\n"
        "  orthogonal_matrix_rows 0.000e+00  ok\n"
        "  orthogonal_matrix_columns 0.000e+00  ok\n"
        "PASS\n"
    )


def test_check_magic_from_file(tmp_path, capsys):
    spec = tmp_path / "unitary.json"
    spec.write_text(json.dumps({"kind": "block_pair", "d": 2, "seeds": [1, 2]}))
    code, out, err = run_cli(["check-magic", str(spec)], capsys)
    assert (code, err, out.splitlines()[-1]) == (0, "", "PASS")


def test_check_magic_rejects_bad_spec(capsys):
    code, _, err = run_cli(["check-magic", '{"kind": "mystery"}'], capsys)
    assert code == 2
    assert "kind" in err


@pytest.mark.parametrize("spec", [
    {"kind": "permutation", "sigma": [2, 1, 3], "d": 1000000},
    {"kind": "block_chain", "d": 1000000, "seeds": [1, 2]},
    # each projection fits, but the 4x4 array of them does not
    {"kind": "block_pair", "d": 4096, "seeds": [1, 2]},
    # the 4 d x d entries fit, but not the 7 arrays of the seeded projection's QR
    {"kind": "block_chain", "d": 1549, "seeds": [1]},
], ids=["permutation", "block_chain", "block_pair_4096", "block_chain_one_seed_1549"])
def test_check_magic_oversized_d_exits_two_naming_field(capsys, spec):
    start = time.monotonic()
    code, out, err = run_cli(["check-magic", json.dumps(spec)], capsys)
    assert time.monotonic() - start < 5
    assert (code, out) == (2, "")
    assert err.startswith("error: unitary.d: ") and len(err.splitlines()) == 1


def test_check_magic_unread_key_exits_two_naming_it(capsys):
    spec = {"kind": "permutation", "sigma": [2, 1, 3], "k": 3}
    code, out, err = run_cli(["check-magic", json.dumps(spec)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: unitary.k: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("command", [["check-magic"], ["collapse", "--pi", "[[1]]", "--i", "[1]"]])
def test_zero_point_permutation_exits_two_naming_sigma(capsys, command):
    # check-magic passed the 0x0 magic unitary, and collapse blamed --i for it
    spec = '{"kind": "permutation", "sigma": []}'
    code, out, err = run_cli([command[0], spec, *command[1:]], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: unitary.sigma: ") and len(err.splitlines()) == 1


def test_check_magic_nan_projection_exits_two_naming_field(capsys):
    spec = {"kind": "block_pair", "d": 2, "projections": [[[1, 0], [0, 0]], [[1e200, 1e200], [1e200, -1e200]]]}
    code, out, err = run_cli(["check-magic", json.dumps(spec)], capsys)
    assert code == 2
    assert err.startswith("error: unitary.projections[1]: ")
    assert len(err.splitlines()) == 1
    assert out == ""


def test_cumulants_table_semicircular(capsys):
    spec = '{"kind": "cumulant", "cumulants": {"2": 1.0}}'
    code, out, err = run_cli(["cumulants", spec, "--n", "6"], capsys)
    assert (code, err) == (0, "")
    lines = [l for l in out.splitlines() if l.strip().startswith("6")]
    assert lines and "5" in lines[0]  # m_6 = 5


@pytest.mark.parametrize("n", ["0", "9"])
def test_cumulants_order_out_of_range_names_the_flag(capsys, n):
    spec = '{"kind": "cumulant", "cumulants": {"2": 1}}'
    code, out, err = run_cli(["cumulants", spec, "--n", n], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: --n: must be in 1..8, got {n}\n"


def test_cumulants_reduces_kappa_by_the_functionals_state(capsys):
    # x = diag(1, -1) lies in the diagonal B, so E[x] = x and every kappa_n, n >= 2, is 0;
    # the state diag(0.9, 0.1) gives m_1 = kappa_1 = 0.8, the normalized trace would give 0
    spec = json.dumps({"kind": "concrete", "dim": 2, "b": "diagonal",
                       "density": {"diag": [0.9, 0.1]}, "elements": [{"diag": [1, -1]}]})
    code, out, err = run_cli(["cumulants", spec, "--n", "3"], capsys)
    assert (code, err) == (0, "")
    rows = [float(x) for line in out.splitlines()[1:] for x in line.split()[1:]]
    assert rows == pytest.approx([0.8, 0.8, 1.0, 0.0, 0.8, 0.0], abs=1e-12)
    code, out, err = run_cli(["cumulants", spec, "--n", "3", "--format", "json"], capsys)
    assert (code, err) == (0, "")
    kappas = [x for r in json.loads(out) for x in r["kappa"]]
    assert kappas == pytest.approx([0.8, 0.0, 0.0, 0.0, 0.0, 0.0], abs=1e-12)


@pytest.mark.parametrize("spec, n", [
    ({"kind": "cumulant", "cumulants": {"2": 1e308, "4": 1e308}}, "8"),
    ({"kind": "concrete", "dim": 1, "density": [[1]], "elements": [[[1e200]]]}, "3"),
], ids=["cumulant", "concrete"])
def test_cumulants_table_overflow_is_silent_and_strict_json(capsys, spec, n):
    # an overflowing moment reaches the table as inf or NaN, with no warning on stderr
    for fmt in ("text", "json"):
        code, out, err = run_cli(["cumulants", json.dumps(spec), "--n", n, "--format", fmt], capsys)
        assert (code, err) == (0, "")
    table = _strict_json(out)
    assert "nan" in [x for row in table for x in row["moment"] + row["kappa"]]


def test_cumulants_reads_integral_float_blocks_as_integers(capsys):
    # like every integer field, 0.0 is read as 0
    code, out, err = run_cli(["cumulants", json.dumps(_pinched([[0.0], [1]]))], capsys)
    assert (code, err) == (0, "")
    assert (code, out, err) == run_cli(["cumulants", json.dumps(_pinched([[0], [1]]))], capsys)


def test_collapse_subcommand(capsys):
    code, out, err = run_cli(["collapse", '{"kind": "block_pair", "d": 2, "seeds": [1, 2]}',
                              "--pi", "[[1, 2], [3, 4]]", "--i", "[1, 1, 2, 2]"], capsys)
    assert (code, err) == (0, "")
    assert "ker i >= pi: True" in out
    assert "PASS" in out


def test_collapse_rejects_crossing(capsys):
    code, _, err = run_cli(["collapse", '{"kind": "permutation", "sigma": [1, 2, 3, 4]}',
                            "--pi", "[[1, 3], [2, 4]]", "--i", "[1, 1, 1, 1]"], capsys)
    assert code == 2
    assert "crossing" in err


@pytest.mark.parametrize("points", [12, 13])
def test_collapse_oversized_partition_exits_two_naming_pi(capsys, points):
    # 4^12 collapse sums need about 1 GiB (two workspace buffers, a copy and the seed);
    # at 4^13 the literal block sum would run for about half an hour
    start = time.monotonic()
    code, out, err = run_cli(
        [
            "collapse",
            '{"kind": "permutation", "sigma": [2, 1, 4, 3]}',
            "--pi",
            json.dumps([[x] for x in range(1, points + 1)]),
            "--i",
            json.dumps([1] * points),
        ],
        capsys,
    )
    assert time.monotonic() - start < 5
    assert (code, out) == (2, "")
    assert err.startswith("error: --pi: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("n, psi", [("2", "1/2"), ("3", "1/3")])
def test_counterexample_subcommand(capsys, n, psi):
    code, out, err = run_cli(["counterexample", "--n", n], capsys)
    assert (code, err, out.splitlines()[-1]) == (0, "", "PASS")
    assert f"psi(u11)        = {psi}" in out
    assert "CONTRADICTION ESTABLISHED" in out


@pytest.mark.parametrize("n", ["1", "4"])
def test_counterexample_invalid_n(capsys, n):
    # the flag is read by the counterexample check's own parser: one rule, one message
    code, out, err = run_cli(["counterexample", "--n", n], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: --n: must be in 2..3, got {n}\n"


COLLAPSE_UNITARY = '{"kind": "block_pair", "d": 2, "seeds": [1, 2]}'  # k = 4


@pytest.mark.parametrize("flags, flag", [
    (["--i", "5", "--pi", "[[1]]"], "--i"),
    (["--i", "[1.5, 2]", "--pi", "[[1, 2]]"], "--i[0]"),
    (["--i", "[1, true]", "--pi", "[[1, 2]]"], "--i[1]"),
    (["--i", "[1, 5]", "--pi", "[[1, 2]]"], "--i"),
    (["--i", "[]", "--pi", "[]"], "--i"),
    (["--i", "[1", "--pi", "[[1, 2]]"], "--i"),
    (["--i", "[1, 2]", "--pi", "7"], "--pi"),
    (["--i", "[1, 2]", "--pi", "[[1], [3]]"], "--pi"),
    (["--i", "[1, 2]", "--pi", '[[1], ["2"]]'], "--pi[1][0]"),
    (["--i", "[1, 2]", "--pi", "[1, 2]"], "--pi[0]"),
])
def test_collapse_malformed_flag_exits_two_naming_it(capsys, flags, flag):
    code, out, err = run_cli(["collapse", COLLAPSE_UNITARY, *flags], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {flag}: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("command", [
    ["counterexample", "--tol", "5"],
    ["counterexample", "--seed", "1"],
    ["counterexample", "--report", "x.json"],
    ["counterexample", "--format", "json"],
    ["cumulants", '{"kind": "cumulant", "cumulants": {"2": 1.0}}', "--tol", "5"],
    ["cumulants", '{"kind": "cumulant", "cumulants": {"2": 1.0}}', "--seed", "1"],
    ["cumulants", '{"kind": "cumulant", "cumulants": {"2": 1.0}}', "--report", "x.json"],
    ["collapse", COLLAPSE_UNITARY, "--i", "[1]", "--pi", "[[1]]", "--report", "x.json"],
    ["collapse", COLLAPSE_UNITARY, "--i", "[1]", "--pi", "[[1]]", "--format", "json"],
    # a prefix names no flag: argparse would read --to as --tol, which _attach_values
    # does not join to its value
    ["check-magic", COLLAPSE_UNITARY, "--to", "-1e-8"],
    ["check-magic", COLLAPSE_UNITARY, "--rep", "x.json"],
])
def test_subcommand_rejects_flags_it_does_not_read(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(command, capsys)
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {command[-2]}" in err
    assert not (tmp_path / "x.json").exists()


def test_unknown_subcommand_exits_two(capsys):
    code, _, err = run_cli(["frobnicate"], capsys)
    assert code == 2


# -- malformed input: exit 2, the field named, no traceback ---------------------------

@pytest.mark.parametrize("command, field", [
    (["verify", "SCENARIO"], "scenario file"),
    (["check-magic", "{not json"], "unitary"),
    (["check-magic", "SPEC"], "unitary"),
    (["collapse", "{not json", "--i", "[1]", "--pi", "[[1]]"], "unitary"),
    (["cumulants", "{not json"], "functional"),
    (["collapse", COLLAPSE_UNITARY, "--i", "[1", "--pi", "[[1]]"], "--i"),
    (["collapse", COLLAPSE_UNITARY, "--i", "[1]", "--pi", "[[1]"], "--pi"),
], ids=["scenario", "check_magic_inline", "check_magic_file", "collapse_spec", "cumulants_spec",
        "i", "pi"])
def test_invalid_json_input_exits_two_naming_its_field(tmp_path, capsys, command, field):
    # every JSON input goes through one reader, so one message covers them all
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    command = [str(bad) if arg in ("SCENARIO", "SPEC") else arg for arg in command]
    code, out, err = run_cli(command, capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {field}: invalid JSON (") and len(err.splitlines()) == 1


@pytest.mark.parametrize("command, line", [
    (["check-magic", '[{"kind":"permutation","sigma":[2,1]}]'],
     "error: unitary: expected an object, got list"),
    (["cumulants", '"scalar"'], "error: functional: expected an object, got str"),
], ids=["check_magic_list", "cumulants_string"])
def test_inline_json_that_is_not_an_object_exits_two_naming_its_field(capsys, command, line):
    # a spec argument that starts with {, [ or " is JSON, never a file name
    code, out, err = run_cli(command, capsys)
    assert (code, out, err) == (2, "", line + "\n")


@pytest.mark.parametrize("command, field", [
    (["verify", "ABSENT"], "scenario file"),
    (["check-magic", "ABSENT"], "unitary"),
    (["cumulants", "ABSENT"], "functional"),
])
def test_unreadable_input_file_exits_two_naming_its_field(tmp_path, capsys, command, field):
    command = [str(tmp_path / "absent.json") if arg == "ABSENT" else arg for arg in command]
    code, out, err = run_cli(command, capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {field}: [Errno 2] ") and len(err.splitlines()) == 1


def _no_product(*args):
    raise AssertionError("a product expectation ran before the request was checked")


@pytest.mark.parametrize("variables", [[5], [1, 5]])
def test_freeness_of_one_missing_variable_exits_two(tmp_path, capsys, monkeypatch, variables):
    # the variables are checked before any product expectation
    monkeypatch.setattr(algebra.ConcreteMomentFunctional, "product_expectation", _no_product)
    doc = json.loads(BERNOULLI.read_text())  # 4 variables
    doc["checks"] = [{"name": "freeness", "vars": variables}]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["verify", str(path), "--report", str(tmp_path / "r.json")], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: checks[0]: variable index 5") and len(err.splitlines()) == 1


def _pinched(blocks):
    """A 2x2 concrete functional whose B is the pinching given by `blocks`."""
    return {"kind": "concrete", "dim": 2, "density": {"diag": [0.5, 0.5]},
            "b": {"blocks": blocks}, "elements": [{"diag": [1, -1]}]}


PROJECTIONS = [[[1, 0], [0, 0]], [[0.5, 0.5], [0.5, 0.5]]]  # two rank-one projections, d = 2


def _scenario(tmp_path, **changes):
    doc = {
        "name": "x",
        "functional": {"kind": "cumulant", "cumulants": {"2": 1.0}},
        "unitaries": [{"kind": "permutation", "sigma": [2, 1, 4, 3], "d": 2}],
        "checks": [{"name": "relations"}],
    }
    doc.update(changes)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


def _verify_scenario(tmp_path, capsys, **changes):
    """run_cli of verify on _scenario(tmp_path, **changes), reporting to tmp_path / "r.json"."""
    path = _scenario(tmp_path, **changes)
    return run_cli(["verify", str(path), "--report", str(tmp_path / "r.json")], capsys)


@pytest.mark.parametrize(
    "changes, field",
    [
        ({"unitaries": [{"kind": "permutation", "sigma": [1.5, 2]}]}, "unitaries[0].sigma[0]"),
        ({"unitaries": [{"kind": "permutation", "sigma": [2, 1], "d": [1]}]}, "unitaries[0].d"),
        ({"unitaries": [{"kind": "block_pair", "d": True, "seeds": [1, 2]}]}, "unitaries[0].d"),
        ({"unitaries": [{"kind": "block_pair", "d": 2, "seeds": ["1", 2]}]},
         "unitaries[0].seeds[0]"),
        ({"unitaries": [5]}, "unitaries[0]"),
        ({"unitaries": [{"kind": "block_pair", "d": 2, "seeds": [-1, 2]}]},
         "unitaries[0].seeds[0]"),
        ({"unitaries": [{"kind": "block_chain", "d": 2, "projections": 5}]},
         "unitaries[0].projections"),
        ({"checks": [{"name": ["relations"]}]}, "checks[0].name"),
        ({"checks": [{"name": "quantum_invariance", "n_max": "3"}]}, "checks[0].n_max"),
        ({"checks": [{"name": "quantum_invariance", "n_max": 0}]}, "checks[0].n_max"),
        ({"checks": [{"name": "e_invariance", "n_max": 2.5}]}, "checks[0].n_max"),
        ({"checks": [{"name": "collapse_lemma", "n_max": [4]}]}, "checks[0].n_max"),
        ({"checks": [{"name": "classical_invariance", "k": True}]}, "checks[0].k"),
        ({"checks": [{"name": "freeness", "vars": "12"}]}, "checks[0].vars"),
        ({"checks": [{"name": "freeness", "n_max": 1}]}, "checks[0].n_max"),
        ({"checks": [{"name": "factorization", "trials": 1.5}]}, "checks[0].trials"),
        ({"checks": [{"name": "counterexample", "n": 4}]}, "checks[0].n"),
        ({"functional": {"kind": "cumulant", "cumulants": {"2": True}}},
         "functional.cumulants[2]"),
        ({"functional": {"kind": "cumulant", "cumulants": {"2": 1.0}, "b_dim": "1"}},
         "functional.b_dim"),
        ({"seed": "0"}, "seed"),
        ({"seed": -1}, "seed"),
        ({"unitaries": [], "checks": [{"name": "quantum_invariance", "n_max": "3"}]},
         "checks[0]"),
        ({"checks": [{"name": "quantum_invariance", "nmax": 9}]}, "checks[0].nmax"),
        ({"checks": [{"name": "freeness", "var": [1, 3]}]}, "checks[0].var"),
        ({"checks": [{"name": "relations", "tol": 1e-3}]}, "checks[0].tol"),
        ({"checks": [{"name": "counterexample", "n": 2, "m": 3}]}, "checks[0].m"),
        ({"functional": {"kind": "concrete", "dim": 2, "density": {"diag": [2, 0.5]},
                         "elements": [{"diag": [1, -1]}]}}, "functional.density"),
        ({"functional": {"kind": "concrete", "dim": 2, "density": {"diag": [1.5, -0.5]},
                         "elements": [{"diag": [1, -1]}]}}, "functional.density"),
        ({"functional": {"kind": "concrete", "dim": 2, "density": [[0.5, 0.1], [0, 0.5]],
                         "elements": [{"diag": [1, -1]}]}}, "functional.density"),
        # eigenvalues +-1e308, but (rho + rho*) / 2 overflows, and a NaN eigenvalue must fail
        ({"functional": {"kind": "concrete", "dim": 2, "density": [[0.5, 1e308], [1e308, 0.5]],
                         "elements": [{"diag": [1, -1]}]}}, "functional.density"),
        ({"checks": [{"name": "counterexample", "n": 3, "psi_u11": "9/10"}]},
         "checks[0].psi_u11"),
        ({"unitaries": [{"kind": "block_pair", "d": 2,
                         "projections": [[[1e200, 1e200], [1e200, -1e200]], [[1, 0], [0, 0]]]}]},
         "unitaries[0].projections[0]"),
        ({"unitaries": [{"kind": "block_chain", "d": 2, "seeds": []}]}, "unitaries[0]"),
        ({"unitaries": [{"kind": "block_pair", "d": 1e300, "seeds": [1, 2]}]}, "unitaries[0].d"),
        ({"functional": {"kind": "cumulant", "cumulants": {"2": 1.0}, "b_dim": 1e300}},
         "functional.b_dim"),
        ({"checks": [{"name": "factorization", "trials": 1e300}]}, "checks[0].trials"),
        ({"checks": [{"name": "freeness", "n_max": 9}]}, "checks[0].n_max"),
        ({"checks": [{"name": "quantum_invariance", "n_max": 11}]}, "checks[0]"),
        ({"functional": {"kind": "concrete", "dim": 2, "density": {"diag": 0.5},
                         "elements": [{"diag": [1, -1]}]}}, "functional.density.diag"),
        ({"functional": {"kind": "concrete", "dim": 1, "density": {"diag": [1]},
                         "elements": []}}, "functional.elements"),
        # sizes whose arrays exceed MAX_BYTES are rejected before allocation
        ({"functional": {"kind": "cumulant", "cumulants": {"2": 1.0}, "b_dim": 10**12}},
         "functional.b_dim"),
        ({"functional": {"kind": "cumulant", "cumulants": {"2": 1.0}, "b_dim": 100000}},
         "functional.b_dim"),
        ({"functional": {"kind": "cumulant", "cumulants": {"2": 1.0}, "b_dim": 0}},
         "functional.b_dim"),
        # a dim whose one d x d complex array alone exceeds MAX_BYTES
        ({"functional": {"kind": "concrete", "dim": 4097, "density": {"diag": [1 / 4097] * 4097},
                         "elements": [{"diag": [1] * 4097}]}}, "functional.dim"),
        # the first dims whose density, elements and state check exceed MAX_BYTES together:
        # 6 d x d arrays with one element, 13 with eight (one array was charged)
        ({"functional": {"kind": "concrete", "dim": 1673, "density": {"diag": [1 / 1673] * 1673},
                         "elements": [{"diag": [1] * 1673}]}}, "functional.dim"),
        ({"functional": {"kind": "concrete", "dim": 1137, "density": {"diag": [1 / 1137] * 1137},
                         "elements": [{"diag": [t] * 1137} for t in range(8)]}},
         "functional.dim"),
        # the 4 d x d entries of one block fit, but not its 9 arrays with its projection and
        # 4 to validate it (nor the 7 arrays of the projection's QR); 1366 is the first d refused
        ({"unitaries": [{"kind": "block_chain", "d": 2048, "seeds": [1]}]}, "unitaries[0].d"),
        ({"unitaries": [{"kind": "block_chain", "d": 1366, "seeds": [1]}]}, "unitaries[0].d"),
        ({"unitaries": [{"kind": "block_pair", "d": 874, "seeds": [1, 2]}]}, "unitaries[0].d"),
        ({"unitaries": [{"kind": "permutation", "sigma": [1], "d": 2897}]}, "unitaries[0].d"),
        ({"unitaries": [{"kind": "permutation", "sigma": [2, 1], "d": 1000000}]},
         "unitaries[0].d"),
        ({"unitaries": [{"kind": "block_chain", "d": 1000000, "seeds": [1]}]},
         "unitaries[0].d"),
        # each block a list of integers, and the blocks a partition of 0..dim-1
        ({"functional": _pinched([["a"], [0]])}, "functional.b.blocks[0][0]"),
        ({"functional": _pinched([0, 1])}, "functional.b.blocks[0]"),
        ({"functional": _pinched([[True], [0]])}, "functional.b.blocks[0][0]"),
        ({"functional": _pinched([[0.5], [1]])}, "functional.b.blocks[0][0]"),
        ({"functional": _pinched(5)}, "functional.b.blocks"),
        ({"functional": _pinched([[0]])}, "functional.b"),
        ({"functional": _pinched([[0, 1], [1]])}, "functional.b"),
        # a partition has no empty block; [[], [0, 1]] was read as the partition [[0, 1]]
        ({"functional": _pinched([[], [0, 1]])}, "functional.b"),
        ({"functional": _pinched([list(range(300))])}, "functional.b"),
        ({"functional": {"kind": "cumulant", "cumulants": {"2": 1}, "max_order": -3}},
         "functional.max_order"),
        ({"functional": {"kind": "cumulant", "cumulants": {"2": 1}, "max_order": 0}},
         "functional.max_order"),
        # a b object takes only 'blocks'; 'block' was silently ignored
        ({"functional": {**_pinched([[0], [1]]), "b": {"blocks": [[0], [1]], "block": [[0, 1]]}}},
         "functional.b.block"),
        # a state, but not preserved by the pinching: phi(x) = 0.8 while phi(E[x]) = 0
        ({"functional": {"kind": "concrete", "dim": 2, "b": "diagonal",
                         "density": [[0.5, 0.4], [0.4, 0.5]], "elements": [[[0, 1], [1, 0]]]}},
         "functional.density"),
        # every object takes only the keys it reads: a misspelled key was silently dropped
        ({"seeds": [1, 2]}, "seeds"),
        ({"functional": {"kind": "cumulant", "cumulants": {"2": 1, "4": 5}, "max_ordr": 2}},
         "functional.max_ordr"),
        ({"functional": {**_pinched([[0], [1]]), "b": "scalar", "B": "diagonal"}}, "functional.B"),
        ({"unitaries": [{"kind": "permutation", "sigma": [2, 1, 3], "k": 3}]}, "unitaries[0].k"),
        ({"unitaries": [{"kind": "permutation", "sigma": [2, 1, 3], "D": 5}]}, "unitaries[0].D"),
        # a block kind takes exactly one of projections and seeds, and rank only with seeds
        ({"unitaries": [{"kind": "block_pair", "d": 2, "projections": PROJECTIONS,
                         "seeds": [1, 2]}]}, "unitaries[0].seeds"),
        ({"unitaries": [{"kind": "block_pair", "d": 2, "projections": PROJECTIONS, "rank": 1}]},
         "unitaries[0].rank"),
        ({"functional": {**_pinched([[0], [1]]), "density": {"diag": [0.5, 0.5], "off": [0]}}},
         "functional.density.off"),
        # an order key is an integer >= 1 in canonical decimal form
        ({"functional": {"kind": "cumulant", "cumulants": {"2": 1, "02": 5}}},
         "functional.cumulants[02]"),
        ({"functional": {"kind": "cumulant", "cumulants": {" 4 ": 1}}},
         "functional.cumulants[ 4 ]"),
        ({"functional": {"kind": "cumulant", "cumulants": {"-1": 1}}},
         "functional.cumulants[-1]"),
        # a rank above d, and ragged matrix rows, were reported without a field
        ({"unitaries": [{"kind": "block_chain", "d": 2, "seeds": [1], "rank": 3}]},
         "unitaries[0].rank"),
        ({"functional": {**_pinched([[0], [1]]), "density": [[0.5, 0], [0.5]]}},
         "functional.density"),
        # removed keys: max_order only dropped listed cumulants, and r restated a count
        ({"functional": {"kind": "cumulant", "cumulants": {"2": 1, "4": 5}, "max_order": 3}},
         "functional.max_order"),
        ({"unitaries": [{"kind": "block_pair", "d": 2, "seeds": [1, 2], "r": 2}]},
         "unitaries[0].r"),
        # a zero-point permutation built a 0x0 magic unitary that each check mishandled
        *[({"unitaries": [{"kind": "permutation", "sigma": []}], "checks": [{"name": name}]},
           "unitaries[0].sigma") for name in ("relations", "collapse_lemma", "quantum_invariance",
                                              "e_invariance", "classical_invariance")],
    ],
)
def test_malformed_parameter_exits_two_naming_field(tmp_path, capsys, changes, field):
    code, out, err = _verify_scenario(tmp_path, capsys, **changes)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {field}: ") and len(err.splitlines()) == 1


# crossing_sum drew its own projection pairs and read neither the functional nor the unitaries
@pytest.mark.parametrize("name", ["not_a_check", "crossing_sum"])
def test_unknown_check_name_is_named_in_the_error(tmp_path, capsys, name):
    code, out, err = _verify_scenario(tmp_path, capsys, checks=[{"name": name}])
    assert (code, out) == (2, "")
    assert err == f"error: checks[0].name: unknown check '{name}'\n"


def test_density_that_e_moves_is_refused_by_the_models_residual(tmp_path, capsys):
    # phi(x) = 0.8 while phi(E[x]) = 0: the residual is the mass off the diagonal, 0.4 * sqrt(2)
    functional = {"kind": "concrete", "dim": 2, "b": "diagonal",
                  "density": [[0.5, 0.4], [0.4, 0.5]], "elements": [[[0, 1], [1, 0]]]}
    code, out, err = _verify_scenario(tmp_path, capsys, functional=functional)
    assert (code, out) == (2, "")
    assert err == "error: functional.density: not a state: state_preserved residual 5.66e-01\n"


def test_misspelled_parameter_exits_two_before_any_check_runs(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(magic, "collapse_lemma_residual", lambda *args: calls.append(args))
    checks = [{"name": "collapse_lemma"}, {"name": "freeness", "nvars": [1, 2]}]
    code, out, err = _verify_scenario(tmp_path, capsys, checks=checks)
    assert (code, out, calls) == (2, "", [])
    assert err.startswith("error: checks[1].nvars: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("check, field", [
    ({"name": "counterexample", "n": 4}, "n"),
    ({"name": "freeness", "n_max": 9}, "n_max"),
    # one distinct variable at n_max 1 was a vacuous PASS
    ({"name": "freeness", "vars": [1], "n_max": 1}, "n_max"),
    ({"name": "factorization", "vars": [1, 2], "l": 3}, "l"),
    ({"name": "factorization", "vars": [1, 2, 1], "l": 3}, "l"),
], ids=["counterexample_n", "freeness_n_max_9", "freeness_n_max_1", "factorization_l_past_vars",
        "factorization_l_repeated"])
def test_out_of_range_parameter_exits_two_before_any_check_runs(tmp_path, capsys, monkeypatch,
                                                                 check, field):
    # a range that the parameter alone decides is read with the scenario, not
    # when its check starts after every earlier check has run
    calls = []
    monkeypatch.setattr(magic, "collapse_lemma_residual", lambda *args: calls.append(args))
    checks = [{"name": "collapse_lemma"}, check]
    code, out, err = _verify_scenario(tmp_path, capsys, checks=checks)
    assert (code, out, calls) == (2, "", [])
    assert err.startswith(f"error: checks[1].{field}: ") and len(err.splitlines()) == 1


def _charge_and_traced_peak(monkeypatch, build):
    """(largest charge cli makes while build() runs, the peak bytes tracemalloc sees meanwhile)."""
    charges, charge = [], algebra.check_bytes
    monkeypatch.setattr(algebra, "check_bytes", lambda nbytes, what: charges.append(nbytes)
                        or charge(nbytes, what))
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        build()
        return max(charges), tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


@pytest.mark.parametrize("count, b, dense", [
    (1, None, True), (4, "diagonal", False), (4, "one block", True), (8, "one block", False),
])
def test_concrete_dim_charge_bounds_the_built_functionals_traced_peak(monkeypatch, count, b,
                                                                      dense):
    # one d x d array was charged; the density and 8 elements peaked at 12 of them
    dim = 256
    draws = np.random.default_rng(count)

    def matrix(values):
        return np.diag(values).tolist() if dense else {"diag": values.tolist()}

    spec = {"kind": "concrete", "dim": dim, "density": matrix(np.full(dim, 1 / dim)),
            "elements": [matrix(draws.standard_normal(dim)) for _ in range(count)]}
    if b is not None:
        spec["b"] = {"blocks": [list(range(dim))]} if b == "one block" else b
    cli.build_functional(_pinched([[0, 1]]))  # the modules a first build imports are not sized
    charge, peak = _charge_and_traced_peak(monkeypatch, lambda: cli.build_functional(spec))
    assert peak <= charge, (peak, charge)


@pytest.mark.parametrize("kind, r", [*(("seeds", r) for r in range(1, 5)),
                                     *(("projections", r) for r in range(1, 5)),
                                     ("permutation", 1), ("permutation", 3)])
def test_unitary_d_charge_bounds_the_builds_traced_peak(monkeypatch, kind, r):
    # the 4r^2 d x d entries of a block unitary were charged, and its build peaked at 7.6, 21.6,
    # 44.8 and 76.5 such arrays for r = 1..4; a permutation's k^2 entries, at k^2 + 0.5
    d = 256
    if kind == "permutation":
        spec = {"kind": "permutation", "sigma": list(range(r, 0, -1)), "d": d}
    elif kind == "seeds":
        spec = {"kind": "block_chain", "seeds": list(range(r)), "d": d}
    else:
        vectors = [np.random.default_rng(t).standard_normal(d) for t in range(r)]
        spec = {"kind": "block_chain", "d": d,
                "projections": [(np.outer(v, v) / (v @ v)).tolist() for v in vectors]}
    cli.build_unitary(spec, 0, "u")  # the modules a first build imports are not sized
    charge, peak = _charge_and_traced_peak(monkeypatch, lambda: cli.build_unitary(spec, 0, "u"))
    assert peak <= charge, (peak, charge)


@pytest.mark.parametrize("changes", [
    # 1^24 tuples, but words of 24 > 12 letters: the pattern sums never ended@pytest.mark.parametrize("changes", [
    # 1^24 tuples, but words of 24 > 12 letters: the pattern sums never ended
    {"unitaries": [{"kind": "permutation", "sigma": [1]}],
     "checks": [{"name": "quantum_invariance", "n_max": 24}]},
    # 4^10 tuples of 16x16 matrices: a 4 GiB product stack
    {"functional": json.loads(BERNOULLI.read_text())["functional"],
     "unitaries": [{"kind": "block_pair", "d": 2, "seeds": [11, 12]}],
     "checks": [{"name": "quantum_invariance", "n_max": 10}]},
    # 4^7 tuples of 300x300 coaction values: a 22 GiB coaction tensor
    {"functional": json.loads(FREE.read_text())["functional"],
     "unitaries": [{"kind": "permutation", "sigma": [1, 2, 3, 4], "d": 300}],
     "checks": [{"name": "quantum_invariance", "n_max": 7}]},
    # 1^3000 tuples, but no numpy array has 3000 axes
    {"functional": json.loads(BERNOULLI.read_text())["functional"],
     "unitaries": [{"kind": "permutation", "sigma": [1]}],
     "checks": [{"name": "quantum_invariance", "n_max": 3000}]},
    # 2^21 tuples of 2x2 values and their kernel-pattern table each fit, but not together
    # with the scan's shorter tensors, its orbit gather and its residuals
    {"functional": {**_pinched([[0, 1]]), "elements": [{"diag": [1, -1]}, {"diag": [1, 1]}]},
     "checks": [{"name": "classical_invariance", "k": 2, "n_max": 21}]},
    # 2^14 coaction entries fit, but the non-crossing partitions of 14 points need 2.5 GiB
    {"unitaries": [{"kind": "permutation", "sigma": [2, 1]}],
     "checks": [{"name": "collapse_lemma", "n_max": 14}]},
    # lengths whose exact partition or tuple counts alone would take minutes to compute
    {"unitaries": [{"kind": "permutation", "sigma": [1]}],
     "checks": [{"name": "collapse_lemma", "n_max": 10**9}]},
    {"functional": _pinched([[0, 1]]),
     "checks": [{"name": "classical_invariance", "k": 2, "n_max": 10**9}]},
    # an 8 MiB moment tensor, but the count matrix and its profiles ran 131 s to 741 MiB
    {"unitaries": [{"kind": "permutation", "sigma": [2, 1, 3]}],
     "checks": [{"name": "quantum_invariance", "n_max": 12}]},
    # the 4^12 product stack and one coaction buffer each fit, but the scan held them, the
    # moment tensors, a second buffer and the residuals together: 1194 MB of resident memory
    {"functional": {"kind": "concrete", "dim": 1, "density": {"diag": [1]},
                    "elements": [{"diag": [s]} for s in (1, -1, 1, -1)]},
     "unitaries": [{"kind": "permutation", "sigma": [2, 1, 4, 3]}],
     "checks": [{"name": "quantum_invariance", "n_max": 12}]},
    # 11 decorations of 256 MiB each were drawn before the scan was charged
    {"functional": {"kind": "cumulant", "cumulants": {"2": 1.0}, "b_dim": 4096},
     "unitaries": [{"kind": "permutation", "sigma": [1]}],
     "checks": [{"name": "e_invariance", "n_max": 12}]},
], ids=["one_point_n24", "bernoulli_n10", "free_d300_n7", "bernoulli_one_point_n3000",
        "classical_k2_n21", "collapse_n14", "collapse_one_point_huge", "classical_k2_huge",
        "cumulant_k3_n12", "concrete_one_dim_n12", "e_decorations_b4096_n12"])
def test_oversize_scan_exits_two_before_any_work(tmp_path, capsys, changes):
    start = time.monotonic()
    code, out, err = _verify_scenario(tmp_path, capsys, **changes)
    assert time.monotonic() - start < 5
    assert (code, out) == (2, "")
    assert err.startswith("error: checks[0]: ") and len(err.splitlines()) == 1


def test_length_cap_is_named(tmp_path, capsys):
    changes = {"functional": json.loads(BERNOULLI.read_text())["functional"],
               "unitaries": [{"kind": "permutation", "sigma": [1]}],
               "checks": [{"name": "quantum_invariance", "n_max": 63}]}
    code, _, err = _verify_scenario(tmp_path, capsys, **changes)
    assert code == 2
    assert err == ("error: checks[0]: tensor length 63 exceeds the cap 62 "
                   "(numpy's 64 axes less two for a b_dim x b_dim value)\n")


def test_e_invariance_draws_decorations_only_after_the_length_check(tmp_path, capsys,
                                                                   monkeypatch):
    # the length is checked before any of the n_max - 1 decorations is drawn
    calls = []
    draw = cumulants.CumulantMomentFunctional.random_coeff
    monkeypatch.setattr(cumulants.CumulantMomentFunctional, "random_coeff",
                        lambda self, rng: calls.append(rng) or draw(self, rng))
    for n_max, code, drawn in ((10**6, 2, 0), (3, 0, 2)):
        calls.clear()
        changes = {"unitaries": [{"kind": "permutation", "sigma": [2, 1]}],
                   "checks": [{"name": "e_invariance", "n_max": n_max}]}
        got, _, err = _verify_scenario(tmp_path, capsys, **changes)
        assert (got, len(calls)) == (code, drawn), err
        if code == 2:
            assert err.startswith("error: checks[0]: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("n_max", [7, 8])
def test_freeness_refuses_its_longest_product_before_any_expectation(tmp_path, capsys,
                                                                    monkeypatch, n_max):
    # n_max factors of degree up to 2 make a word of 2 * n_max letters, over the cap of 12
    monkeypatch.setattr(cumulants.CumulantMomentFunctional, "product_expectation", _no_product)
    checks = [{"name": "freeness", "vars": [1, 2], "n_max": n_max}]
    code, out, err = _verify_scenario(tmp_path, capsys, checks=checks)
    assert (code, out) == (2, "")
    assert err == f"error: checks[0]: word length {2 * n_max} exceeds the cap 12\n"


def test_nan_residual_is_the_checks_residual(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(exchangeability, "check_freeness", lambda mf, variables, n_max, tol, seed:
                        FreenessReport(0.0, (), math.nan, (), tol))
    code, _, _ = _verify_scenario(tmp_path, capsys, checks=[{"name": "freeness"}])
    assert code == 1
    record = _strict_json((tmp_path / "r.json").read_text())["checks"][0]
    assert record["residual"] == "nan" and record["pass"] is False


@pytest.mark.parametrize("functional", [
    {"kind": "cumulant", "cumulants": {"2": 1e300}},
    {"kind": "cumulant", "cumulants": {"1": 1e300, "2": 1e300}},
    {"kind": "concrete", "dim": 2, "density": {"diag": [0.5, 0.5]},
     "elements": [{"diag": [1e300, 1]}, {"diag": [1, -1]}]},
], ids=["kappa2", "kappa1", "concrete"])
def test_overflowing_freeness_check_fails_silently(tmp_path, capsys, functional):
    # a well-formed scenario whose moments overflow: a FAIL, not malformed input
    checks = [{"name": "freeness"}, {"name": "factorization", "vars": [1, 2, 1], "l": 2}]
    code, out, err = _verify_scenario(tmp_path, capsys, functional=functional, checks=checks)
    assert (code, err) == (1, "")
    records = _strict_json((tmp_path / "r.json").read_text())["checks"]
    assert records[0]["name"] == "freeness" and records[0]["pass"] is False
    assert out.splitlines()[-1] == "overall: FAIL"


def test_overflow_report_is_strict_json(tmp_path, capsys):
    # NaN, Infinity and -Infinity are not JSON; a non-finite residual is a string
    report_path = tmp_path / "r.json"
    functional = {"kind": "cumulant", "cumulants": {"2": 1e300}}
    path = _scenario(tmp_path, functional=functional, checks=[{"name": "freeness"}])
    code, out, err = run_cli(
        ["verify", str(path), "--format", "json", "--report", str(report_path)], capsys
    )
    assert (code, err) == (1, "")
    for text in (report_path.read_text(), out):
        record = _strict_json(text)["checks"][0]
        assert record["residual"] == "nan" and record["pass"] is False


def test_report_writer_keeps_finite_reports_and_names_non_finite_floats():
    finite = {"b": [1.5, 2e-17, (3, 4)], "a": {"x": -0.0, "y": True, "z": None}}
    assert _json_text(finite) == json.dumps(finite, indent=2, sort_keys=True) + "\n"
    text = _json_text({"r": [math.nan, math.inf, -math.inf, np.float64(math.nan)]})
    assert _strict_json(text) == {"r": ["nan", "inf", "-inf", "nan"]}


def test_non_finite_cumulant_exits_two(tmp_path, capsys):
    functional = {"kind": "cumulant", "cumulants": {"2": math.nan}}
    code, _, err = _verify_scenario(tmp_path, capsys, functional=functional)
    assert code == 2
    assert "functional.cumulants[2]" in err
    assert not (tmp_path / "r.json").exists()


# -- flag values: one reader each, before any work --------------------------------------

def _no_work(*args, **kwargs):
    raise AssertionError("work started before every flag was read")


def test_collapse_reads_tol_before_any_collapse_sum(capsys, monkeypatch):
    # a 10-point singleton pi asks for all 4^10 collapse sums
    monkeypatch.setattr(magic, "collapse_sum_all", _no_work)
    code, out, err = run_cli(
        ["collapse", '{"kind": "permutation", "sigma": [2, 1, 4, 3], "d": 2}',
         "--pi", json.dumps([[x] for x in range(1, 11)]), "--i", json.dumps([1] * 10),
         "--tol", "NaN"],
        capsys,
    )
    assert (code, out) == (2, "")
    assert err == "error: --tol: expected a finite non-negative number, got nan\n"


def test_cumulants_reads_n_before_building_the_functional(capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_functional", _no_work)
    code, out, err = run_cli(
        ["cumulants", '{"kind": "cumulant", "cumulants": {"2": 1}}', "--n", "9"], capsys
    )
    assert (code, out, err) == (2, "", "error: --n: must be in 1..8, got 9\n")


FLAG_COMMANDS = [
    ["verify", str(FREE), "--report", "r.json"],
    ["check-magic", COLLAPSE_UNITARY, "--report", "r.json"],
    ["collapse", COLLAPSE_UNITARY, "--i", "[1, 1]", "--pi", "[[1, 2]]"],
]


@pytest.mark.parametrize("command, flag, value", [
    pytest.param(command, flag, value, id=f"{command[0]} {flag} {value}")
    for command, flag, value in [
        *[(command, flag, value) for command in FLAG_COMMANDS for flag, value in [
            ("--tol", "abc"), ("--tol", "NaN"), ("--tol", "inf"), ("--seed", "-1"),
            ("--seed", "x"), ("--seed", "2.5"),
        ]],
        (["cumulants", '{"kind": "cumulant", "cumulants": {"2": 1}}'], "--n", "2.5"),
        (["counterexample"], "--n", "4"),
    ]
])
def test_malformed_flag_value_exits_two_in_one_line(tmp_path, monkeypatch, capsys,
                                                     command, flag, value):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli([*command, flag, value], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {flag}: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command, flag, value", [
    (["verify", str(FREE)], "--tol", "-1e-8"),
    (["check-magic", COLLAPSE_UNITARY], "--tol", "-1e-8"),
    (["check-magic", COLLAPSE_UNITARY], "--tol", "-Infinity"),
    (["check-magic", COLLAPSE_UNITARY], "--seed", "-1e3"),
    (["check-magic", COLLAPSE_UNITARY], "--seed", "-1"),
    (["cumulants", '{"kind": "cumulant", "cumulants": {"2": 1}}'], "--n", "-1e0"),
])
@pytest.mark.parametrize("joined", [False, True], ids=["space", "equals"])
def test_negative_flag_value_reaches_its_parser(capsys, command, flag, value, joined):
    # argparse alone takes a word such as -1e-8 for an option, not for the flag's value
    words = [f"{flag}={value}"] if joined else [flag, value]
    code, out, err = run_cli([*command, *words], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {flag}: ") and len(err.splitlines()) == 1


def test_integral_float_seed_reads_as_the_integer(tmp_path, capsys):
    # like "seed": 1.0 in a scenario
    runs = []
    for seed in ("1", "1.0"):
        report = tmp_path / f"{seed}.json"
        code, out, err = run_cli(["verify", str(FREE), "--seed", seed, "--report", str(report)],
                                 capsys)
        runs.append((code, out, err, report.read_bytes()))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and json.loads(runs[0][3])["seed"] == 1


# two identical +-1 variables: the freeness residual is 11.5 and its mixed part 1,
# so the verdict and the criteria's agreement both turn on the tolerance
COPIES = {
    "name": "copies",
    "functional": {"kind": "concrete", "dim": 2, "density": {"diag": [0.5, 0.5]},
                   "elements": [{"diag": [1, -1]}, {"diag": [1, -1]}]},
    "checks": [{"name": "freeness", "n_max": 2}],
}


def _verify_quietly(folder, doc, *flags):
    scenario, report = folder / "s.json", folder / "r.json"
    scenario.write_text(json.dumps(doc))
    report.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(scenario), "--report", str(report), *flags])
    written = report.read_bytes() if report.exists() else None
    return code, out.getvalue(), err.getvalue(), written


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(
    st.text(max_size=8),
    st.floats().map(json.dumps),
    st.integers().map(str),
    st.sampled_from(["0.5", "5", "1e2", " 1e-8 ", "-0.0", "1e400", "true", "null", '"1e-8"',
                     "[1e-8]", "{}", "1" * 5000, "[" * 5000, "10" + "0" * 400]),
))
def test_tol_flag_reads_as_the_scenario_tolerance(tmp_path_factory, text):
    folder = tmp_path_factory.mktemp("tol")
    code, out, err, report = _verify_quietly(folder, COPIES, f"--tol={text}")
    try:
        value = json.loads(text)
    except (ValueError, RecursionError):
        assert (code, out, report) == (2, "", None)
        assert err.startswith("error: --tol: invalid JSON (") and len(err.splitlines()) == 1
        return
    scenario = _verify_quietly(folder, {**COPIES, "tolerance": value})
    if code == 2:
        assert (out, report) == ("", None)
        assert err.startswith("error: --tol: ") and len(err.splitlines()) == 1
        assert scenario[0] == 2 and scenario[2] == err.replace("--tol", "tolerance", 1)
    else:
        assert (code, out, err, report) == scenario


# -- fuzz: mutated copies of the shipped fixtures ----------------------------------------

FUZZ_VALUES = [None, True, -1, 0, 1.5, "x", [], {}, 1e300]


def _mutation_sites(node, path=()):
    """Every key and list position under node; the first entry stands for a list of numbers."""
    yield path
    if isinstance(node, dict):
        children = list(node.items())
    elif isinstance(node, list):
        children = list(enumerate(node))
        if not any(isinstance(v, (dict, list)) for v in node):
            children = children[:1]
    else:
        children = []
    for key, child in children:
        yield from _mutation_sites(child, path + (key,))


FUZZ_SITES = [
    (fixture, path)
    for fixture in (FREE, BERNOULLI)
    for path in _mutation_sites(json.loads(fixture.read_text()))
    if path
]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(FUZZ_SITES), st.sampled_from(["drop", *FUZZ_VALUES]))
def test_mutated_fixture_exits_cleanly(tmp_path_factory, site, action):
    fixture, path = site
    doc = json.loads(fixture.read_text())
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if action == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = action
    folder = tmp_path_factory.mktemp("fuzz")
    scenario, report_path = folder / "s.json", folder / "r.json"
    scenario.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(scenario), "--report", str(report_path)])
    lines = err.getvalue().splitlines()
    if code == 2:
        assert len(lines) == 1 and re.match(r"error: [^ ]+: ", lines[0]), lines
        assert out.getvalue() == ""
    else:
        assert code in (0, 1) and lines == []
        assert json.loads(report_path.read_text())["pass"] is (code == 0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, True, "tight"])
def test_bad_scenario_tolerance_value_exits_two(tmp_path, capsys, value):
    code, _, err = run_cli(
        ["verify", str(_scenario(tmp_path, tolerance=value)), "--tol", "1e-8"], capsys
    )
    assert code == 2
    assert "tolerance" in err


def test_long_inline_spec_is_parsed(capsys):
    spec = json.dumps({"kind": "permutation", "sigma": list(range(1, 81))})
    assert len(spec) > 255
    code, out, _ = run_cli(["check-magic", spec], capsys)
    assert code == 0
    assert "PASS" in out


def test_unwritable_report_exits_two(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "r.json"
    code, _, err = run_cli(["verify", str(FREE), "--report", str(target)], capsys)
    assert code == 2
    assert "--report" in err
    code, _, err = run_cli(
        ["check-magic", '{"kind": "permutation", "sigma": [2, 1]}', "--report", str(target)],
        capsys,
    )
    assert code == 2
    assert "--report" in err
