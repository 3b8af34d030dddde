"""spdmeans benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; spdmeans is imported from
``src/`` and nowhere else.  The workload (see ``workloads.py``) is a fixed
list of operations, one pass; passes repeat for about ``--seconds``.
Every output is checked against an oracle.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing installed.  With ``--trace 1`` the first half of the time is
measured untraced, the second half with spans (``tracer.py``), and the
metrics are the per-layer ones, each the median over traced passes.  The
line before it records the environment.  ``--tiny`` shrinks every input
for the smoke self-test (``selftest.py``).
"""

import os

# BLAS threads are pinned before numpy is first imported, here and in the
# set-up subprocesses that inherit this environment.
PINNED_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                       "MKL_NUM_THREADS")}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from oracles import CheckFailed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "spdmeans"

#: Fresh-interpreter set-ups timed per run; setup_s is their median, which
#: also discards the first one's byte-compiling in a fresh checkout.
SETUP_REPEATS = 3

#: Relative errors are floored at machine epsilon before taking -log10.
EPS = 2.220446049250313e-16

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "op_p50_ms": "ms", "fail_ratio": "ratio",
                    "accuracy_digits": "digits", "peak_rss_mb": "MB"}


def _import_program() -> None:
    if not (PACKAGE / "__init__.py").is_file():
        sys.exit(f"perfbench: no spdmeans sources at {PACKAGE}")
    sys.path.insert(0, str(PACKAGE.parent))
    import spdmeans
    if Path(spdmeans.__file__).resolve().parent != PACKAGE:
        sys.exit(f"perfbench: imported spdmeans from {spdmeans.__file__}, not {PACKAGE}")


@dataclass
class OpResult:
    name: str
    seconds: float
    error: str | None
    wrong: bool
    rel_errors: list


def run_pass(workload, tracer=None) -> list:
    results = []
    for op in workload.ops:
        if tracer is not None:
            root = tracer.open(tracer.name_id("bench.op"))
            tracer.active = True
        start = time.perf_counter()
        try:
            out, error = op.run(), None
        except Exception as exc:  # a failing operation is counted, never fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
            tracer.close(root)
        rel_errors, wrong = [], False
        if error is None:
            try:
                rel_errors = op.check(out)
            except CheckFailed as exc:
                error, wrong = f"wrong output: {exc}", True
        results.append(OpResult(op.name, seconds, error, wrong, rel_errors))
    return results


def run_for(workload, seconds: float, tracer=None, on_pass=None) -> list:
    """Whole passes for about ``seconds`` (at least one): another pass starts
    only while at least half of a typical pass still fits, so a run ends
    within half a pass of its deadline."""
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or (time.perf_counter()
                         + 0.5 * statistics.median(pass_seconds(p) for p in passes) < deadline):
        before = (tracer.span_count(), Counter(tracer.counts)) if tracer else None
        passes.append(run_pass(workload, tracer))
        if on_pass is not None:
            on_pass(passes[-1], *before)
    return passes


def pass_seconds(results) -> float:
    return sum(r.seconds for r in results)


def accuracy_digits(results) -> float:
    errors = [e for r in results for e in r.rel_errors]
    return min(-math.log10(max(e, EPS)) for e in errors) if errors else 0.0


def end_to_end(passes, setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "run_s": statistics.median(pass_seconds(p) for p in passes),
        # The middle operation of each pass, median over passes.
        "op_p50_ms": 1e3 * statistics.median(
            statistics.median(r.seconds for r in p) for p in passes),
        # Rule-of-succession estimate (failed + 1)/(attempted + 1) per pass:
        # it stays above zero on a workload with no failures, and one more
        # failing operation still raises it.
        "fail_ratio": statistics.median(
            (sum(r.error is not None for r in p) + 1) / (len(p) + 1) for p in passes),
        "accuracy_digits": statistics.median(accuracy_digits(p) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure_setup(args) -> float:
    """Median wall time of a fresh interpreter importing spdmeans and
    building the workload's inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    repeats = 1 if args.tiny else SETUP_REPEATS
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def environment(args, passes) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    failures = {r.name: r.error for p in passes for r in p if r.error is not None}
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "pass_seconds": [pass_seconds(p) for p in passes],
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "pinned_threads": {var: os.environ.get(var) for var in PINNED_THREADS},
        "failures": failures,
    }
    if args.trace:
        import tracer

        env["computed_metrics"] = list(tracer.COMPUTED_METRICS)
    return env


def traced_metrics(workload, seconds: float, untraced_run_s: float):
    import tracer as tracing

    tracer = tracing.Tracer()
    per_pass = []

    def on_pass(results, first_span, counts_before):
        delta = Counter(tracer.counts)
        delta.subtract(counts_before)
        metrics = tracer.pass_metrics(first_span, tracer.span_count(), delta, len(results))
        metrics["trace.overhead_ratio"] = pass_seconds(results) / untraced_run_s
        per_pass.append(metrics)
        tracer.end_pass()

    tracer.install()
    try:
        passes = run_for(workload, seconds, tracer, on_pass)
    finally:
        tracer.uninstall()
    metrics = {name: {"value": statistics.median_low(m[name] for m in per_pass), "unit": unit}
               for name, unit in tracing.LAYER_METRICS.items()}
    return passes, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a name from workloads.WORKLOADS")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrunken inputs for the self-test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.setup_only:
        workloads.build(args.workload, args.seed, args.tiny, ROOT).close()
        return 0

    setup_s = None if args.trace else measure_setup(args)
    workload = workloads.build(args.workload, args.seed, args.tiny, ROOT)
    try:
        if args.trace:
            passes = run_for(workload, args.seconds / 2)
            untraced = statistics.median(pass_seconds(p) for p in passes)
            traced, metrics = traced_metrics(workload, args.seconds / 2, untraced)
            passes += traced
        else:
            passes = run_for(workload, args.seconds)
            metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                       for name, value in end_to_end(passes, setup_s).items()}
    finally:
        workload.close()

    ops = [r for p in passes for r in p]
    for name, error in sorted({(r.name, r.error) for r in ops if r.error}):
        print(f"perfbench: {name} failed: {error}", file=sys.stderr)
    print(json.dumps({"environment": environment(args, passes)}))
    print(json.dumps({
        "correct": not any(r.wrong for r in ops),
        "attempted": len(ops),
        "failed": sum(r.error is not None for r in ops),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
