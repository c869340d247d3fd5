"""Every library name the benchmark in perfbench/ reads still exists in qexch, and every
verdict its cli_verify workload gates on still holds."""

import importlib
import json
import sys
from importlib.resources import files
from pathlib import Path

import pytest

from qexch import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _resolve(name):
    """The qexch object at a dotted name such as 'cumulants.CumulantSpec.kernel_sum'."""
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"qexch.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench/run.py and perfbench/selftest.py as modules; sys.path and sys.modules restored."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        yield importlib.import_module("run"), importlib.import_module("selftest")
    finally:
        for name, module in list(sys.modules.items()):
            if Path(getattr(module, "__file__", None) or "/").parent == PERFBENCH:
                del sys.modules[name]


def test_every_name_the_benchmark_reads_resolves(perfbench):
    run, selftest = perfbench
    metrics = set(run.PER_LAYER_FUNCTIONS) | set(selftest.NONZERO_ON) | set(selftest.ZERO_ON)
    # each metric is '<name>.<measure>'; cli.import_s times the import of the cli module
    names = {metric.rsplit(".", 1)[0] for metric in metrics}
    assert "algebra.SubalgebraWithExpectation.expect" in names
    for name in sorted(names):
        _resolve(name)
    for module, name in selftest.UNREACHED_BINDINGS:
        assert getattr(_resolve(module), name.rsplit(".", 1)[1]) is _resolve(name), (module, name)


@pytest.mark.parametrize("seed", [0, 7])
def test_the_packaged_fixtures_meet_the_cli_verify_gate(perfbench, tmp_path, capsys, seed):
    # an op of cli_verify fails unless each fixture gives its exit code and its exact
    # (name, pass) sequence, so a change to cli.CHECKS or to a fixture that would fail
    # the benchmark fails here first
    workloads = importlib.import_module("workloads")
    for fixture, code, expected in workloads.CLI_EXPECTED:
        report = tmp_path / f"{fixture}.report.json"
        args = ["verify", str(files("qexch") / "fixtures" / fixture), "--report", str(report),
                "--seed", str(seed)]
        assert cli.main(args) == code, fixture
        records = json.loads(report.read_text())["checks"]
        assert [(r["name"], r["pass"]) for r in records] == expected, fixture
    assert capsys.readouterr().err == ""
