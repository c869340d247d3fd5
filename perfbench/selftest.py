"""Self-test of the benchmark: a one-cycle smoke run of every workload.

    python3 perfbench/selftest.py [workload ...]

Run from the root of a checkout.  Without arguments it smokes every workload
run.py knows, including the two that BENCHMARK.json leaves out (about three
minutes); name workloads to smoke only those.  It checks that

  * BENCHMARK.json names only workloads run.py knows, and exactly the
    metrics it emits, with the same units;
  * every plain run and every traced run is correct and emits every metric
    of its kind, finite, with its unit;
  * the tracer left no public function of the six layers unwrapped, and
    every binding of a function in another qexch module (`as_matrix` in
    `magic` and `cumulants`, `product_expectation` in `exchangeability`, ...)
    counted calls, except the few no workload can reach (listed below);
  * the per-layer self times of each traced run add up to its traced op time,
    and each per-layer metric is nonzero on the workloads it should move and
    zero where the map says it is absent;
  * run.py exits nonzero, printing no result, where the library is missing.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from run import END_TO_END, LAYERS, OUT, PER_LAYER, import_checkout  # noqa: E402

# Cross-module bindings that no workload calls through, and why.
UNREACHED_BINDINGS = {
    ("exchangeability", "magic.ensure_projection"): "only crossing_sum_probe uses it",
    ("magic", "partitions.kernel"): "only collapse_expected (the `collapse` command) uses it",
    ("magic", "partitions.leq"): "only collapse_expected (the `collapse` command) uses it",
}

# Per-layer metric -> workloads where it must be nonzero (the metric map).
NONZERO_ON = {
    "exchangeability.check_quantum_invariance.self_s": (
        "invariance_sweep", "deep_scan", "cli_verify",
    ),
    "cumulants.CumulantMomentFunctional.scalar_moment_tensor.self_s": ("deep_scan", "cli_verify"),
    "cumulants.CumulantSpec.kernel_sum.calls": ("invariance_sweep", "deep_scan", "cli_verify"),
    "cumulants.CumulantExtractor.kappa_word.calls": ("freeness_scan", "cli_verify"),
    "cumulants.CumulantExtractor.kappa_partition.calls": ("freeness_scan", "cli_verify"),
    "cumulants.check_mixed_cumulants.self_s": ("freeness_scan", "cli_verify"),
    "partitions.is_noncrossing.calls": ("freeness_scan", "cli_verify"),
    "partitions.delete_block.calls": ("freeness_scan", "cli_verify"),
    "partitions.enumerate_noncrossing.calls": ("cli_verify",),
    "algebra.as_matrix.calls": ("freeness_scan", "cli_verify"),
    "algebra.product_expectation.self_s": ("freeness_scan", "cli_verify"),
    "algebra.ConcreteMomentFunctional.moment.calls": ("freeness_scan", "cli_verify"),
    "algebra.SubalgebraWithExpectation.expect.calls": ("freeness_scan", "cli_verify"),
    "exchangeability.check_freeness.self_s": ("freeness_scan", "cli_verify"),
    "magic.collapse_sum_all.calls": ("cli_verify",),
    "magic.verify_relations.self_s": ("cli_verify",),
    "cli.run_scenario.self_s": ("cli_verify",),
    "cli.import_s": ("cli_verify",),
}
# Per-layer metric -> workloads where it must be exactly zero.
ZERO_ON = {
    "exchangeability.check_quantum_invariance.self_s": ("freeness_scan",),
    "cli.self_s": ("invariance_sweep", "deep_scan", "freeness_scan"),
}

problems = []


def check(ok, message):
    if not ok:
        problems.append(message)
        print("FAIL", message)


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def smoke(workload, trace, units):
    proc = run(workload, trace)
    tag = f"{workload} trace={trace}"
    check(proc.returncode == 0, f"{tag}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    if proc.returncode != 0:
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{tag}: keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{tag}: correct={result['correct']} failed={result['failed']}")
    metrics = result["metrics"]
    check(set(metrics) == set(units), f"{tag}: metric names differ: {set(metrics) ^ set(units)}")
    for name, unit in units.items():
        entry = metrics.get(name, {})
        value = entry.get("value")
        check(isinstance(value, (int, float)) and math.isfinite(value), f"{tag}: {name} = {value}")
        check(entry.get("unit") == unit, f"{tag}: {name} unit {entry.get('unit')} != {unit}")
    return {name: entry.get("value") for name, entry in metrics.items()}


def check_trace(workload, metrics):
    info = json.loads((OUT / f"{workload}-seed7-trace1.json").read_text())["info"]
    check(info["unpatched"] == [], f"{workload}: unwrapped {info['unpatched']}")
    total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS) + metrics["bench.unattributed_s"]
    op = metrics["trace.op_mean_s"]
    check(abs(total - op) <= 1e-6 * op, f"{workload}: self times add to {total}, op is {op}")
    for name, where in NONZERO_ON.items():
        if workload in where:
            check(metrics[name] > 0, f"{workload}: {name} is 0")
    for name, where in ZERO_ON.items():
        if workload in where:
            check(metrics[name] == 0, f"{workload}: {name} is {metrics[name]}, expected 0")
    return {(site, key): count for site, key, count in info["site_calls"]}


def check_bindings(site_calls):
    """Every binding of a layer function in another layer module must have counted calls."""
    totals = {}
    for (site, key), count in site_calls.items():
        totals[(site, key)] = totals.get((site, key), 0) + count
    for (site, key), count in sorted(totals.items()):
        if site not in LAYERS or key.split(".")[0] == site or key.count(".") != 1:
            continue
        if (site, key) in UNREACHED_BINDINGS:
            continue
        check(count > 0, f"binding {key} in qexch.{site} counted no calls")
    for site, key in UNREACHED_BINDINGS:
        check((site, key) in totals, f"listed binding {key} in qexch.{site} was not patched")


def check_refuses_without_library():
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=OUT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in json.loads((ROOT / "BENCHMARK.json").read_text())["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cli_verify", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        check(proc.returncode != 0 and not proc.stdout.strip(),
              f"without the library: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END,
          "BENCHMARK.json end_to_end differs from run.py")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER,
          "BENCHMARK.json per_layer differs from run.py")
    import_checkout()
    from workloads import WORKLOADS

    listed = [w["name"] for w in spec["workloads"]]
    check(set(listed) <= set(WORKLOADS), f"BENCHMARK.json lists unknown workloads {listed}")
    OUT.mkdir(exist_ok=True)
    check_refuses_without_library()
    site_calls = {}
    for workload in sys.argv[1:] or list(WORKLOADS):
        check(workload in WORKLOADS, f"unknown workload {workload}")
        print(f"smoke {workload}", flush=True)
        smoke(workload, 0, END_TO_END)
        metrics = smoke(workload, 1, PER_LAYER)
        if metrics is not None:
            for k, v in check_trace(workload, metrics).items():
                site_calls[k] = site_calls.get(k, 0) + v
    if not sys.argv[1:]:
        check_bindings(site_calls)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
