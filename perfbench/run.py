"""qexch benchmark: one workload in one process, a closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The library is imported from the checkout's
`src/` and nowhere else.  The workload builds its inputs from the seed, sets
up (imports, inputs, cache warm-up), then runs ops back to back for S seconds
(at least one whole cycle of ops) and checks every verdict.  The last stdout
line is the JSON result; the line before it holds the machine facts and every
op's wall time, which also go to `.perfbench_out/` with the traced spans.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every op twice on
identical inputs, once plain and once with wrappers around every public
function of the six layers, and reports per-layer calls and self times per
traced op, plus the tracing overhead.  Exit status: 0 when every op passed
its gate, 1 when one did not (the result is still printed), 2 when the run
could not start (nothing is printed).
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import LAYERS, Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# Set-up runs per result: this process plus fresh processes after the timed loop.
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "ops_per_s": "1/s",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

# Per-layer metrics, each per traced op.  `<layer>.self_s` sums a whole module.
PER_LAYER_FUNCTIONS = (
    "exchangeability.check_quantum_invariance.self_s",
    "exchangeability.check_freeness.self_s",
    "cumulants.CumulantMomentFunctional.scalar_moment_tensor.self_s",
    "cumulants.CumulantSpec.kernel_sum.calls",
    "cumulants.CumulantSpec.kernel_sum.self_s",
    "cumulants.CumulantExtractor.kappa_word.calls",
    "cumulants.CumulantExtractor.kappa_word.self_s",
    "cumulants.CumulantExtractor.kappa_partition.calls",
    "cumulants.CumulantExtractor.kappa_partition.self_s",
    "cumulants.check_mixed_cumulants.self_s",
    "partitions.is_noncrossing.calls",
    "partitions.delete_block.calls",
    "partitions.enumerate_noncrossing.calls",
    "partitions.enumerate_noncrossing.self_s",
    "algebra.as_matrix.calls",
    "algebra.product_expectation.self_s",
    "algebra.ConcreteMomentFunctional.moment.calls",
    "algebra.SubalgebraWithExpectation.expect.calls",
    "algebra.SubalgebraWithExpectation.expect.self_s",
    "magic.collapse_sum_all.calls",
    "magic.collapse_sum_all.self_s",
    "magic.verify_relations.self_s",
    "cli.run_scenario.self_s",
    "cli.import_s",
)
PER_LAYER = {
    **{f"{layer}.self_s": "s/op" for layer in LAYERS},
    "bench.unattributed_s": "s/op",
    **{m: "calls/op" if m.endswith(".calls") else "s/op" for m in PER_LAYER_FUNCTIONS},
    "trace.op_mean_s": "s",
    "trace.untraced_op_mean_s": "s",
    "trace.overhead_pct": "%",
    "trace.attributed_share": "ratio",
    "trace.ops": "count",
}


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_checkout():
    """Import qexch from this checkout's src/, and refuse any other copy."""
    init = SRC / "qexch" / "__init__.py"
    if not init.is_file():
        die(f"no qexch package at {init}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import qexch

    if Path(qexch.__file__).resolve() != init.resolve():
        die(f"imported qexch from {qexch.__file__}, not from {init}")
    return qexch


def blas_threads():
    """OpenBLAS's own thread count, read through ctypes; None when unavailable."""
    import ctypes
    import glob

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
    }


def steal_seconds():
    """CPU time the hypervisor gave to other guests, summed over all CPUs; None off Linux."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_op(workload, i, failures, tracer=None):
    """Run one op; a raised exception of any kind counts as a failed op."""
    from workloads import VerdictError

    try:
        workload.run(i, tracer)
    except Exception as exc:  # the gate fails closed on anything unexpected
        failures.append(f"op {i}: {type(exc).__name__}: {exc}")
        if not isinstance(exc, VerdictError):
            traceback.print_exc(file=sys.stderr)


def fresh_setups(args, count):
    """Set-up times of `count` fresh processes, each stopping before its first op."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            die(f"set-up process failed:\n{proc.stderr[-2000:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def timed_loop(workload, args):
    """Closed loop: ops back to back until S seconds pass and a cycle is complete."""
    failures, op_times = [], []
    steal0, cpu0, t_loop = steal_seconds(), cpu_seconds(), time.perf_counter()
    i = 0
    while True:
        t0 = time.perf_counter()
        run_op(workload, i, failures)
        op_times.append(time.perf_counter() - t0)
        i += 1
        if i % workload.cycle == 0 and time.perf_counter() - t_loop >= args.seconds:
            break
    elapsed = time.perf_counter() - t_loop
    cpu = cpu_seconds() - cpu0
    steal1 = steal_seconds()
    noise = {
        "steal_s": None if steal0 is None or steal1 is None else steal1 - steal0,
        "loadavg_1m": os.getloadavg()[0],
    }
    # ru_maxrss is a lifetime high-water mark in KiB; cli_verify's work runs in children.
    who = resource.RUSAGE_CHILDREN if workload.name == "cli_verify" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024
    return failures, op_times, elapsed, cpu, rss_mb, noise


def untraced(workload, args, setup_s):
    failures, op_times, elapsed, cpu, rss_mb, noise = timed_loop(workload, args)
    setups = [setup_s] + fresh_setups(args, SETUP_REPEATS - 1)
    ops = len(op_times)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(op_times),
        "ops_per_s": ops / elapsed,
        "cpu_s_per_op": cpu / ops,
        "peak_rss_mb": rss_mb,
        "success_rate": (ops - len(failures)) / ops,
    }
    p50 = metrics["op_p50_s"]
    info = {
        "ops": ops,
        "op_times_s": op_times,
        "slow_ops": sum(t > 2 * p50 for t in op_times),
        "setup_samples_s": setups,
        "loop_s": elapsed,
        **noise,
    }
    return failures, ops, metrics, info


def traced(workload, args):
    """Each op twice on identical inputs, plain and traced, alternating which goes first."""
    tracer = Tracer()
    failures, plain, traced_times = [], [], []
    unpatched = None
    t_loop = time.perf_counter()
    i = 0
    while True:
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                t0 = time.perf_counter()
                run_op(workload, i, failures)
                plain.append(time.perf_counter() - t0)
                continue
            tracer.install()
            if unpatched is None:
                unpatched = tracer.unpatched()
            root = tracer.begin_op()
            try:
                run_op(workload, i, failures, tracer)
            finally:
                traced_times.append(tracer.end_op(root))
                tracer.uninstall()
        i += 1
        if i % workload.cycle == 0 and time.perf_counter() - t_loop >= args.seconds:
            break

    ops = len(traced_times)
    calls, self_s = tracer.calls(), tracer.self_times()
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            v for k, v in self_s.items() if k.split(".")[0] == layer
        ) / ops
    metrics["bench.unattributed_s"] = self_s.get("bench.op", 0.0) / ops
    for name in PER_LAYER_FUNCTIONS:
        if name == "cli.import_s":
            metrics[name] = self_s.get("cli.import", 0.0) / ops
        elif name.endswith(".calls"):
            metrics[name] = calls.get(name[: -len(".calls")], 0) / ops
        else:
            metrics[name] = self_s.get(name[: -len(".self_s")], 0.0) / ops
    total_traced, total_plain = sum(traced_times), sum(plain)
    metrics["trace.op_mean_s"] = total_traced / ops
    metrics["trace.untraced_op_mean_s"] = total_plain / ops
    metrics["trace.overhead_pct"] = 100.0 * (total_traced / total_plain - 1.0)
    metrics["trace.attributed_share"] = 1.0 - self_s.get("bench.op", 0.0) / total_traced
    metrics["trace.ops"] = ops
    info = {
        "ops": ops,
        "op_times_s": traced_times,
        "untraced_op_times_s": plain,
        "spans": len(tracer.span_key),
        "unpatched": unpatched,
        "site_calls": tracer.sites(),
    }
    return failures, 2 * ops, metrics, info, tracer


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0:
        die("--seed must be a non-negative integer")

    qexch = import_checkout()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        die(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT, OUT)
    setup_s = time.perf_counter() - START
    tracer = None
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            failures, attempted, metrics, info, tracer = traced(workload, args)
            units = PER_LAYER
        else:
            failures, attempted, metrics, info = untraced(workload, args, setup_s)
            units = END_TO_END
    finally:
        workload.close()

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "qexch_file": qexch.__file__,
        "machine": machine_facts(),
        **info,
        "failures": failures[:20],
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"info": info, "result": result}, indent=1) + "\n")
    if tracer is not None:
        tracer.write_spans(OUT / f"{stem}.npz")
    print(json.dumps({"info": {k: v for k, v in info.items() if k != "site_calls"}}))
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
