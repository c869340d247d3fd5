"""Every library name the benchmark in perfbench/ reads still exists in qexch."""

import importlib
import sys
from pathlib import Path

import pytest

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
