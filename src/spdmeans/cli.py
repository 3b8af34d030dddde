"""Command-line front-end.

Five commands: ``scalar`` (two-number means), ``pair`` (two-matrix means
from a matrix-set file), ``multi`` (n-matrix means), ``sample``
(stochastic LLN / CLT experiments), and ``bench`` (convergence-order
diagnostics).  Results go to stdout in human, json, or csv form; iteration
traces go to ``--trace PATH`` as JSON or CSV by extension.

Exit codes: 0 success/convergence, 1 input or usage errors, 2
non-convergence (the partial trace is still emitted when requested).

Configuration precedence: flags > environment (SPDMEANS_TOL,
SPDMEANS_MAX_ITERS, SPDMEANS_SEED) > per-operation defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import binary_means, multi_means, scalar_means, stochastic
from .convergence import ConvergenceTrace
from .errors import NonConvergenceError, SpdMeansError
from .matrix_io import parse_matrix_set, write_trace
from .multi_means import RecursiveMeanParams
from .spd_core import SpdMatrix, WeightVector, weighted_arithmetic

ENV_TOLERANCE = "SPDMEANS_TOL"
ENV_MAX_ITERS = "SPDMEANS_MAX_ITERS"
ENV_SEED = "SPDMEANS_SEED"

#: Option defaults of the ``sample`` and ``bench`` commands, read both by
#: the argument parser and by requests built in code.
SAMPLE_DEFAULTS = {"experiment": "lln", "dimension": 3, "scale": 0.3, "count": 10_000,
                   "num_seeds": 1, "trials": 1000, "mu": 0.3, "sigma": 0.5, "power": 0.0,
                   "center": None}
BENCH_DEFAULTS = {"dimension": 1, "size": 3, "trials": 10}

#: kind -> (commands it serves, description)
REGISTRY: dict[str, tuple[tuple[str, ...], str]] = {
    "arithmetic": (("scalar",), "arithmetic mean (x + y)/2"),
    "geometric": (("scalar",), "geometric mean sqrt(xy)"),
    "harmonic": (("scalar",), "harmonic mean 2xy/(x + y)"),
    "power:p": (("scalar",), "power mean ((x^p + y^p)/2)^(1/p)"),
    "agm": (("scalar",), "arithmetic-geometric mean iteration"),
    "ahm": (("scalar", "pair"), "arithmetic-harmonic mean iteration (geometric mean)"),
    "lem": (("pair",), "log-Euclidean mean exp((log X + log Y)/2)"),
    "qpower:p": (("pair",), "quasi-arithmetic matrix power mean Q_p"),
    "limpalfia:p": (("pair",), "fixed-point matrix power mean M_p, p in (0, 1]"),
    "karcher": (("multi",), "Karcher mean by fixed-point refinement"),
    "holbrook": (("multi",), "cyclic inductive approximation of the Karcher mean"),
    "circumcenter": (("multi",), "minimax center by farthest-point steps"),
    "median": (("multi",), "Riemannian median by the cyclic proximal scheme"),
    "alm": (("multi",), "Ando-Li-Mathias recursive geometric mean"),
    "bmp": (("multi",), "BMP recursive geometric mean (cubic order)"),
}


class CliUsageError(Exception):
    pass


@dataclass
class MeanRequest:
    """Parsed description of one CLI invocation."""

    command: str
    kind: str | None = None
    inputs: str | dict | None = None
    tolerance: float | None = None
    max_iterations: int | None = None
    seed: int | None = None
    output: str = "human"
    trace_path: str | None = None


def kinds_for_command(command: str) -> list[str]:
    return [k for k, (cmds, _) in REGISTRY.items() if command in cmds]


def _split_kind(kind: str) -> tuple[str, float | None]:
    """'power:0.5' -> ('power', 0.5); plain kinds carry no parameter."""
    base, sep, param = kind.partition(":")
    if not sep:
        return base, None
    try:
        return base, float(param)
    except ValueError:
        raise CliUsageError(f"kind parameter in {kind!r} is not a number") from None


def _validate_kind(command: str, kind: str) -> tuple[str, float | None]:
    base, param = _split_kind(kind)
    allowed = kinds_for_command(command)
    bases = {k.split(":")[0]: k for k in allowed}
    if base not in bases:
        raise CliUsageError(
            f"unknown kind {kind!r} for command {command!r}; choose from: "
            + ", ".join(allowed)
        )
    if ":" in bases[base] and param is None:
        raise CliUsageError(f"kind {base!r} needs a parameter, e.g. {bases[base]!r}")
    if ":" not in bases[base] and param is not None:
        raise CliUsageError(f"kind {base!r} takes no parameter")
    return base, param


def registry_listing() -> str:
    lines = ["registered mean kinds:"]
    for kind, (commands, description) in REGISTRY.items():
        lines.append(f"  {kind:<14} [{'/'.join(commands)}] {description}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _format_scalar(value: float) -> str:
    return repr(float(value))


def _emit_result(request: MeanRequest, result, trace: ConvergenceTrace | None,
                 out=None) -> None:
    out = out or sys.stdout
    is_matrix = isinstance(result, np.ndarray)
    if request.output == "json":
        payload = {
            "command": request.command,
            "kind": request.kind,
            "result": [[float(v) for v in row] for row in result] if is_matrix
            else float(result),
        }
        if trace is not None:
            payload["converged"] = trace.converged
            payload["iterations"] = trace.iterations_used
            payload["order_estimate"] = trace.order_estimate
        print(json.dumps(payload), file=out)
    elif request.output == "csv":
        if is_matrix:
            for row in result:
                print(",".join(_format_scalar(v) for v in row), file=out)
        else:
            print(_format_scalar(result), file=out)
    else:
        if is_matrix:
            for row in result:
                print(" ".join(_format_scalar(v) for v in row), file=out)
        else:
            print(_format_scalar(result), file=out)
        if trace is not None:
            print(
                f"converged={trace.converged} iterations={trace.iterations_used}"
                + (f" order_estimate={trace.order_estimate:.3f}"
                   if trace.order_estimate is not None else ""),
                file=sys.stderr,
            )


def _emit_report(request: MeanRequest, report: dict, out=None) -> None:
    out = out or sys.stdout
    if request.output == "json":
        print(json.dumps(report), file=out)
    elif request.output == "csv":
        keys = [k for k, v in report.items() if not isinstance(v, (list, dict))]
        print(",".join(keys), file=out)
        print(",".join(str(report[k]) for k in keys), file=out)
    else:
        for key, value in report.items():
            print(f"{key}: {value}", file=out)


def _maybe_write_trace(request: MeanRequest, trace: ConvergenceTrace | None) -> None:
    if request.trace_path and trace is not None:
        write_trace(trace, request.trace_path)


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def _limits(request: MeanRequest, tol: str | None, cap: str) -> dict:
    """The tolerance and budget the user set, as keyword arguments named for the operation."""
    kwargs = {}
    if tol is not None and request.tolerance is not None:
        kwargs[tol] = request.tolerance
    if request.max_iterations is not None:
        kwargs[cap] = request.max_iterations
    return kwargs


def _run_scalar(request: MeanRequest) -> int:
    base, param = _validate_kind("scalar", request.kind)
    x = float(request.inputs["x"])
    y = float(request.inputs["y"])
    limits = _limits(request, "tolerance", "max_iterations")
    trace = None
    if base in ("arithmetic", "geometric", "harmonic"):
        value = scalar_means.pythagorean_mean(base, x, y)
    elif base == "power":
        value = scalar_means.power_mean(param, x, y)
    elif base == "agm":
        value, trace = scalar_means.agm(x, y, **limits)
    else:
        value, trace = scalar_means.ahm(x, y, **limits)
    _emit_result(request, value, trace)
    _maybe_write_trace(request, trace)
    return 0


def _matrix_result(request: MeanRequest, mat: SpdMatrix, trace: ConvergenceTrace | None) -> int:
    result = mat.array if mat.dimension > 1 else float(mat.array[0, 0])
    _emit_result(request, result, trace)
    _maybe_write_trace(request, trace)
    return 0


def _run_pair(request: MeanRequest) -> int:
    base, param = _validate_kind("pair", request.kind)
    mats = parse_matrix_set(request.inputs)
    if len(mats) != 2:
        raise CliUsageError(f"command 'pair' needs exactly 2 matrices, got {len(mats)}")
    X, Y = mats[0], mats[1]
    trace = None
    if base == "ahm":
        mean, trace = binary_means.ahm_iteration(X, Y, **_limits(request, "tol", "max_iter"))
    elif base == "lem":
        mean = binary_means.log_euclidean_mean([X, Y], WeightVector.uniform(2))
    elif base == "qpower":
        mean = binary_means.q_power_mean(X, Y, param)
    else:
        mean = binary_means.lim_palfia_power_mean(X, Y, param)
    return _matrix_result(request, mean, trace)


def _run_multi(request: MeanRequest) -> int:
    base, _ = _validate_kind("multi", request.kind)
    mats = parse_matrix_set(request.inputs)
    if base == "karcher":
        start = weighted_arithmetic(list(mats), WeightVector.uniform(len(mats)))
        mean, trace = multi_means.karcher_refine(start, mats, **_limits(request, "tol", "max_iter"))
    elif base == "holbrook":
        mean, trace = multi_means.holbrook_inductive_mean(mats, **_limits(request, None, "steps"))
    elif base == "circumcenter":
        mean, trace = multi_means.riemannian_circumcenter(mats, **_limits(request, None, "steps"))
    elif base == "median":
        mean, trace = multi_means.bacak_median(mats, **_limits(request, None, "sweeps"))
    else:
        params = (RecursiveMeanParams.alm(len(mats)) if base == "alm"
                  else RecursiveMeanParams.bmp(len(mats)))
        mean, trace = multi_means.recursive_geometric_mean(
            mats, params, **_limits(request, "tol", "max_rounds"))
    return _matrix_result(request, mean, trace)


def _run_sample(request: MeanRequest) -> int:
    opts = {**SAMPLE_DEFAULTS, **(request.inputs or {})}
    seed = request.seed if request.seed is not None else 0
    if opts["experiment"] == "clt":
        report = stochastic.qa_expectation_experiment(
            scalar_means.power_generator(opts["power"]),
            stochastic.Lognormal(mu=opts["mu"], sigma=opts["sigma"]),
            n=opts["count"],
            trials=opts["trials"],
            seed=seed,
        )
        _emit_report(request, report.to_dict())
        return 0
    dimension = opts["dimension"]
    if opts["center"]:
        center_set = parse_matrix_set(opts["center"])
        if len(center_set) != 1:
            raise CliUsageError("--center file must hold exactly one matrix")
        center = center_set[0]
        dimension = center.dimension
    else:
        center = SpdMatrix(np.eye(dimension))
    count = opts["count"]
    counts = [c for c in (10, 100, 1000, 10_000, 100_000) if c < count] + [count]
    seeds = list(range(seed, seed + opts["num_seeds"]))
    report = stochastic.lln_experiment(center, opts["scale"], counts, seeds)
    _emit_report(request, report.to_dict())
    return 0


def _bench_instances(kind: str, dimension: int, size: int, trials: int,
                     seed: int) -> list[dict]:
    rng = np.random.default_rng(np.random.SeedSequence((seed, 2)))
    rows = []
    for trial in range(trials):
        if kind in ("agm", "ahm") and dimension == 1:
            # moderate separations keep the trailing-window order estimate
            # inside the quadratic regime
            x = float(np.exp(rng.uniform(np.log(0.5), np.log(2.0))))
            y = x * float(np.exp(rng.uniform(np.log(1.5), np.log(3.0))))
            fn = scalar_means.agm if kind == "agm" else scalar_means.ahm
            _, trace = fn(x, y)
        else:
            center = SpdMatrix(np.eye(dimension))
            config = stochastic.SampleConfig(seed=seed + 1000 + trial, dimension=dimension,
                                             scale=0.6, count=2 * max(1, size // 2) + 2,
                                             center=center)
            batch = stochastic.sample_spd(config)
            if kind == "ahm":
                _, trace = binary_means.ahm_iteration(batch[0], batch[1])
            elif kind == "bmp":
                _, trace = multi_means.recursive_geometric_mean(
                    batch[:size], RecursiveMeanParams.bmp(size))
            elif kind == "alm":
                _, trace = multi_means.recursive_geometric_mean(
                    batch[:size], RecursiveMeanParams.alm(size), tol=1e-10)
            else:
                raise CliUsageError(f"kind {kind!r} has no convergence benchmark")
        rows.append({
            "trial": trial,
            "iterations": trace.iterations_used,
            "order_estimate": trace.order_estimate,
        })
    return rows


def _run_bench(request: MeanRequest) -> int:
    opts = {**BENCH_DEFAULTS, **(request.inputs or {})}
    kind = request.kind or "agm"
    base, _ = _split_kind(kind)
    if base not in ("agm", "ahm", "bmp", "alm"):
        raise CliUsageError(
            f"command 'bench' supports kinds agm, ahm, bmp, alm; got {kind!r}")
    dimension = opts["dimension"]
    if base in ("bmp", "alm") and dimension < 2:
        dimension = 3
    seed = request.seed if request.seed is not None else 0
    rows = _bench_instances(base, dimension, opts["size"], opts["trials"], seed)
    orders = [r["order_estimate"] for r in rows if r["order_estimate"] is not None]
    report = {
        "command": "bench",
        "kind": base,
        "dimension": dimension,
        "trials": len(rows),
        "order_estimates": [r["order_estimate"] for r in rows],
        "iterations": [r["iterations"] for r in rows],
        "mean_order": float(np.mean(orders)) if orders else None,
    }
    _emit_report(request, report)
    return 0


def run(request: MeanRequest) -> int:
    """Dispatch a request; returns the process exit status."""
    try:
        if request.tolerance is not None and not request.tolerance > 0:
            raise CliUsageError("tolerance must be positive")
        if request.max_iterations is not None and request.max_iterations < 1:
            raise CliUsageError("max-iterations must be at least 1")
        handler = {
            "scalar": _run_scalar,
            "pair": _run_pair,
            "multi": _run_multi,
            "sample": _run_sample,
            "bench": _run_bench,
        }.get(request.command)
        if handler is None:
            raise CliUsageError(f"unknown command {request.command!r}")
        return handler(request)
    except NonConvergenceError as exc:
        _maybe_write_trace(request, exc.trace)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SpdMeansError, OSError, KeyError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(message)


def _env(name: str, kind: type):
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return None
    try:
        return kind(raw)
    except ValueError:
        noun = "a number" if kind is float else "an integer"
        raise CliUsageError(f"{name} must be {noun}, got {raw!r}") from None


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tolerance", type=float, default=None,
                        help="convergence tolerance (default: per operation)")
    parser.add_argument("--max-iterations", type=int, default=None,
                        help="iteration / step / sweep budget (default: per operation)")
    parser.add_argument("--seed", type=int, default=None, help="random seed")
    parser.add_argument("--output", choices=("human", "json", "csv"), default="human")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write the convergence trace here (.json or .csv)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spdmeans",
                     description="Inductive and Riemannian means of scalars and SPD matrices.")
    parser.add_argument("--list", action="store_true", dest="list_kinds",
                        help="list the registered mean kinds and exit")
    sub = parser.add_subparsers(dest="command")

    p_scalar = sub.add_parser("scalar", help="means of two positive reals")
    p_scalar.add_argument("--kind", required=True)
    p_scalar.add_argument("--x", type=float, required=True)
    p_scalar.add_argument("--y", type=float, required=True)
    _add_common(p_scalar)

    p_pair = sub.add_parser("pair", help="means of two SPD matrices")
    p_pair.add_argument("--kind", required=True)
    p_pair.add_argument("--inputs", required=True, metavar="FILE",
                        help="matrix-set JSON file with exactly two matrices")
    _add_common(p_pair)

    p_multi = sub.add_parser("multi", help="means of n SPD matrices")
    p_multi.add_argument("--kind", required=True)
    p_multi.add_argument("--inputs", required=True, metavar="FILE")
    _add_common(p_multi)

    p_sample = sub.add_parser("sample", help="stochastic LLN / CLT experiments")
    p_sample.add_argument("--experiment", choices=("lln", "clt"))
    p_sample.add_argument("--dimension", type=int)
    p_sample.add_argument("--scale", type=float)
    p_sample.add_argument("--count", type=int,
                          help="samples per batch (lln) or per trial (clt)")
    p_sample.add_argument("--num-seeds", type=int)
    p_sample.add_argument("--trials", type=int)
    p_sample.add_argument("--mu", type=float)
    p_sample.add_argument("--sigma", type=float)
    p_sample.add_argument("--power", type=float,
                          help="power-family generator parameter (clt)")
    p_sample.add_argument("--center", metavar="FILE",
                          help="matrix-set file holding the sampling center")
    p_sample.set_defaults(**SAMPLE_DEFAULTS)
    _add_common(p_sample)

    p_bench = sub.add_parser("bench", help="convergence-order diagnostics")
    p_bench.add_argument("--kind", required=True,
                         help="one of: agm, ahm, bmp, alm")
    p_bench.add_argument("--dimension", type=int,
                         help="1 for scalar iterations, >= 2 for matrices")
    p_bench.add_argument("--size", type=int,
                         help="number of matrices for bmp/alm")
    p_bench.add_argument("--trials", type=int)
    p_bench.set_defaults(**BENCH_DEFAULTS)
    _add_common(p_bench)

    return parser


def request_from_args(args: argparse.Namespace) -> MeanRequest:
    tolerance = args.tolerance if args.tolerance is not None else _env(ENV_TOLERANCE, float)
    max_iterations = (args.max_iterations if args.max_iterations is not None
                      else _env(ENV_MAX_ITERS, int))
    seed = args.seed if args.seed is not None else _env(ENV_SEED, int)
    command = args.command
    if command == "scalar":
        inputs: str | dict | None = {"x": args.x, "y": args.y}
        kind = args.kind
    elif command in ("pair", "multi"):
        inputs = args.inputs
        kind = args.kind
    elif command == "sample":
        inputs = {key: getattr(args, key) for key in SAMPLE_DEFAULTS}
        kind = None
    else:
        inputs = {key: getattr(args, key) for key in BENCH_DEFAULTS}
        kind = args.kind
    return MeanRequest(
        command=command,
        kind=kind,
        inputs=inputs,
        tolerance=tolerance,
        max_iterations=max_iterations,
        seed=seed,
        output=args.output,
        trace_path=args.trace,
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.list_kinds:
            print(registry_listing())
            return 0
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        request = request_from_args(args)
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run(request)


if __name__ == "__main__":
    sys.exit(main())
