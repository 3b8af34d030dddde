"""Smoke self-test of the benchmark at tiny input sizes.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json: one untraced run must print every
end-to-end metric with its declared unit and a positive value, and two
traced runs with one seed must print every per-layer metric and agree
exactly on every metric that is a count or derived only from counts.
Takes about two minutes; exits non-zero listing what did not hold.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3

#: Per-layer ratios of timings; like metrics in seconds they may differ.
TIMED_RATIOS = ("kernel.share", "trace.overhead_ratio")


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{workload}: unexpected result keys {sorted(result)}")
    return result


def check_names(problems: list, where: str, metrics: dict, spec: list) -> None:
    declared = {m["name"]: m["unit"] for m in spec}
    if set(metrics) != set(declared):
        problems.append(f"{where}: metrics {sorted(set(metrics) ^ set(declared))} "
                        "not both emitted and declared")
    for name, unit in declared.items():
        if name in metrics and metrics[name]["unit"] != unit:
            problems.append(f"{where}: {name} unit {metrics[name]['unit']!r} != {unit!r}")
        if name in metrics and not math.isfinite(metrics[name]["value"]):
            problems.append(f"{where}: {name} is not finite")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        plain = run(workload, 0)
        check_names(problems, f"{workload} untraced", plain["metrics"], spec["end_to_end"])
        if not plain["correct"]:
            problems.append(f"{workload}: an output failed its oracle check")
        for name, metric in plain["metrics"].items():
            if not metric["value"] > 0:
                problems.append(f"{workload}: {name} = {metric['value']} is not positive")

        first, second = run(workload, 1), run(workload, 1)
        check_names(problems, f"{workload} traced", first["metrics"], spec["per_layer"])
        for name, metric in first["metrics"].items():
            if metric["unit"] == "s" or name in TIMED_RATIOS:
                continue
            again = second["metrics"].get(name, {}).get("value")
            if metric["value"] != again:
                problems.append(f"{workload}: count {name} differs across traced runs "
                                f"({metric['value']} vs {again})")
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
