"""Scenario runner: exit codes, report determinism, subcommands, overrides."""

import json
import math
from pathlib import Path

import pytest

from qexch import exchangeability
from qexch.cli import main
from qexch.exchangeability import FreenessReport

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "qexch" / "fixtures"
FREE = FIXTURES / "free_semicircular.json"
BERNOULLI = FIXTURES / "classical_bernoulli.json"
ALL_CHECKS = Path(__file__).resolve().parent / "scenarios" / "all_checks.json"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- verify -----------------------------------------------------------------------

def test_free_fixture_passes(tmp_path, capsys):
    report_path = tmp_path / "free.json"
    code, out, _ = run_cli(
        ["verify", str(FREE), "--report", str(report_path)], capsys
    )
    assert code == 0
    assert "overall: PASS" in out
    report = json.loads(report_path.read_text())
    assert report["pass"] is True
    qi = [c for c in report["checks"] if c["name"] == "quantum_invariance"]
    assert qi and all(c["residual"] <= 1e-8 for c in qi)


def test_bernoulli_fixture_fails_with_violating_tuple(tmp_path, capsys):
    report_path = tmp_path / "bern.json"
    code, out, _ = run_cli(
        ["verify", str(BERNOULLI), "--report", str(report_path)], capsys
    )
    assert code == 1
    assert "overall: FAIL" in out
    # the offending word is printed alongside the failing check; 32 tuples tie
    # at the maximum up to rounding, and the first of them in C order is named
    assert "worst tuple n=4 i=(1, 3, 1, 3)" in out
    report = json.loads(report_path.read_text())
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
    ("freeness", {"n_max": 4, "vars": [1, 2]}, 8.961363743956553e-14),
    ("factorization", {"l": 2, "trials": 5, "vars": [1, 2, 1]}, 3.972054645195637e-15),
    ("crossing_sum", {"d": 2, "pairs": 6, "s": 2, "variant": "plain"}, 0.0),
    ("crossing_sum", {"d": 3, "pairs": 6, "s": 3, "variant": "capped"}, 0.0),
    ("counterexample", {"n": 3, "psi_u11": "1/3", "psi_u11_u21": "0"}, 0.0),
]


def test_all_checks_scenario_pinned(tmp_path, capsys):
    report_path = tmp_path / "all.json"
    code, out, _ = run_cli(
        ["verify", str(ALL_CHECKS), "--seed", "0", "--report", str(report_path)], capsys
    )
    assert code == 0
    report = json.loads(report_path.read_text())
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


def test_reports_are_byte_identical_across_runs(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code, _, _ = run_cli(["verify", str(FREE), "--report", str(p)], capsys)
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_report_written_even_when_checks_fail(tmp_path, capsys):
    report_path = tmp_path / "failing.json"
    code, _, _ = run_cli(
        ["verify", str(BERNOULLI), "--report", str(report_path)], capsys
    )
    assert code == 1
    assert report_path.exists()


def test_missing_field_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x", "checks": []}))
    code, _, err = run_cli(["verify", str(bad)], capsys)
    assert code == 2
    assert "functional" in err


def test_unknown_check_name_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "name": "x",
                "functional": {"kind": "cumulant", "cumulants": {"2": 1.0}},
                "checks": [{"name": "not_a_check"}],
            }
        )
    )
    code, _, err = run_cli(["verify", str(bad)], capsys)
    assert code == 2
    assert "not_a_check" in err


def test_invalid_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(["verify", str(bad)], capsys)
    assert code == 2


def test_missing_file_exits_two(tmp_path, capsys):
    code, _, err = run_cli(["verify", str(tmp_path / "absent.json")], capsys)
    assert code == 2


def test_bad_tolerance_type_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "name": "x",
                "tolerance": "tight",
                "functional": {"kind": "cumulant", "cumulants": {"2": 1.0}},
                "checks": [],
            }
        )
    )
    code, _, err = run_cli(["verify", str(bad)], capsys)
    assert code == 2
    assert "tolerance" in err


def test_json_stdout_format(tmp_path, capsys):
    code, out, _ = run_cli(
        ["verify", str(FREE), "--format", "json", "--report", str(tmp_path / "r.json")],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["scenario"] == "free_semicircular"


# -- tolerance resolution ------------------------------------------------------------

def test_env_tolerance_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QEXCH_TOL", "1e-30")
    code, _, _ = run_cli(
        ["verify", str(FREE), "--report", str(tmp_path / "r.json")], capsys
    )
    assert code == 1  # double precision cannot meet 1e-30


def test_flag_beats_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QEXCH_TOL", "1e-30")
    code, _, _ = run_cli(
        ["verify", str(FREE), "--tol", "1e-8", "--report", str(tmp_path / "r.json")],
        capsys,
    )
    assert code == 0


def test_bad_env_tolerance_exits_two(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QEXCH_TOL", "very small")
    code, _, err = run_cli(["verify", str(FREE)], capsys)
    assert code == 2
    assert "QEXCH_TOL" in err


# -- subcommands ------------------------------------------------------------------------

def test_check_magic_permutation(capsys):
    code, out, _ = run_cli(
        ["check-magic", '{"kind": "permutation", "sigma": [2, 1, 3]}'], capsys
    )
    assert code == 0
    assert "0.000e+00" in out
    assert "PASS" in out


def test_check_magic_from_file(tmp_path, capsys):
    spec = tmp_path / "unitary.json"
    spec.write_text(json.dumps({"kind": "block_pair", "d": 2, "seeds": [1, 2]}))
    code, out, _ = run_cli(["check-magic", str(spec)], capsys)
    assert code == 0


def test_check_magic_rejects_bad_spec(capsys):
    code, _, err = run_cli(["check-magic", '{"kind": "mystery"}'], capsys)
    assert code == 2
    assert "kind" in err


def test_check_magic_nan_projection_exits_two_naming_field(capsys):
    spec = {"kind": "block_pair", "d": 2, "projections": [[[1, 0], [0, 0]], [[1e200, 1e200], [1e200, -1e200]]]}
    code, out, err = run_cli(["check-magic", json.dumps(spec)], capsys)
    assert code == 2
    assert err.startswith("error: unitary.projections[1]: ")
    assert len(err.splitlines()) == 1
    assert out == ""


def test_cumulants_table_semicircular(capsys):
    spec = '{"kind": "cumulant", "cumulants": {"2": 1.0}, "max_order": 2}'
    code, out, _ = run_cli(["cumulants", spec, "--n", "6"], capsys)
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip().startswith("6")]
    assert lines and "5" in lines[0]  # m_6 = 5


def test_collapse_subcommand(capsys):
    code, out, _ = run_cli(
        [
            "collapse",
            '{"kind": "block_pair", "d": 2, "seeds": [1, 2]}',
            "--pi",
            "[[1, 2], [3, 4]]",
            "--i",
            "[1, 1, 2, 2]",
        ],
        capsys,
    )
    assert code == 0
    assert "ker i >= pi: True" in out
    assert "PASS" in out


def test_collapse_rejects_crossing(capsys):
    code, _, err = run_cli(
        [
            "collapse",
            '{"kind": "permutation", "sigma": [1, 2, 3, 4]}',
            "--pi",
            "[[1, 3], [2, 4]]",
            "--i",
            "[1, 1, 1, 1]",
        ],
        capsys,
    )
    assert code == 2
    assert "crossing" in err


def test_counterexample_subcommand(capsys):
    code, out, _ = run_cli(["counterexample", "--n", "3"], capsys)
    assert code == 0
    assert "psi(u11)        = 1/3" in out
    assert "CONTRADICTION ESTABLISHED" in out


def test_counterexample_invalid_n(capsys):
    code, _, err = run_cli(["counterexample", "--n", "4"], capsys)
    assert code == 2


def test_unknown_subcommand_exits_two(capsys):
    code, _, err = run_cli(["frobnicate"], capsys)
    assert code == 2


# -- malformed input: exit 2, the field named, no traceback ---------------------------

def _scenario(tmp_path, **changes):
    doc = {
        "name": "x",
        "functional": {"kind": "cumulant", "cumulants": {"2": 1.0}, "max_order": 2},
        "unitaries": [{"kind": "permutation", "sigma": [2, 1, 4, 3], "d": 2}],
        "checks": [{"name": "relations"}],
    }
    doc.update(changes)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


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
        ({"checks": [{"name": "freeness", "n_max": 1}]}, "checks[0]"),
        ({"checks": [{"name": "factorization", "trials": 1.5}]}, "checks[0].trials"),
        ({"checks": [{"name": "crossing_sum", "d": 1}]}, "checks[0]"),
        ({"checks": [{"name": "crossing_sum", "variant": 5}]}, "checks[0].variant"),
        ({"checks": [{"name": "counterexample", "n": 4}]}, "checks[0]"),
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
        ({"checks": [{"name": "counterexample", "n": 3, "psi_u11": "9/10"}]},
         "checks[0].psi_u11"),
        ({"unitaries": [{"kind": "block_pair", "d": 2,
                         "projections": [[[1e200, 1e200], [1e200, -1e200]], [[1, 0], [0, 0]]]}]},
         "unitaries[0].projections[0]"),
    ],
)
def test_malformed_parameter_exits_two_naming_field(tmp_path, capsys, changes, field):
    code, out, err = run_cli(
        ["verify", str(_scenario(tmp_path, **changes)), "--report", str(tmp_path / "r.json")],
        capsys,
    )
    assert code == 2
    assert err.startswith(f"error: {field}: ")
    assert out == ""


@pytest.mark.parametrize(
    "name, target, fake",
    [
        ("crossing_sum", "crossing_sum_probe", lambda p, q, s, variant: (None, math.nan)),
        ("freeness", "check_freeness",
         lambda mf, variables, n_max, tol, seed: FreenessReport(0.0, (), math.nan, (), tol)),
    ],
)
def test_nan_residual_is_the_checks_residual(tmp_path, capsys, monkeypatch, name, target, fake):
    monkeypatch.setattr(exchangeability, target, fake)
    report_path = tmp_path / "r.json"
    path = _scenario(tmp_path, checks=[{"name": name}])
    code, _, _ = run_cli(["verify", str(path), "--report", str(report_path)], capsys)
    assert code == 1
    record = json.loads(report_path.read_text())["checks"][0]
    assert math.isnan(record["residual"]) and record["pass"] is False


def test_non_finite_cumulant_exits_two(tmp_path, capsys):
    functional = {"kind": "cumulant", "cumulants": {"2": math.nan}}
    report_path = tmp_path / "r.json"
    code, _, err = run_cli(
        ["verify", str(_scenario(tmp_path, functional=functional)), "--report",
         str(report_path)],
        capsys,
    )
    assert code == 2
    assert "functional.cumulants[2]" in err
    assert not report_path.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-1e-8"])
def test_bad_tol_flag_exits_two(tmp_path, capsys, value):
    code, _, err = run_cli(
        ["verify", str(FREE), f"--tol={value}", "--report", str(tmp_path / "r.json")], capsys
    )
    assert code == 2
    assert "--tol" in err


@pytest.mark.parametrize("value", ["nan", "-inf", "-1e-8"])
def test_bad_env_tolerance_value_exits_two(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("QEXCH_TOL", value)
    code, _, err = run_cli(["verify", str(FREE), "--report", str(tmp_path / "r.json")], capsys)
    assert code == 2
    assert "QEXCH_TOL" in err


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, True])
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
