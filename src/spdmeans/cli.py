"""Command-line front-end.

Five commands: ``scalar`` (two-number means), ``pair`` (two-matrix means
from a matrix-set file), ``multi`` (n-matrix means), ``sample``
(stochastic LLN / CLT experiments), and ``bench`` (convergence-order
diagnostics).  Results go to stdout in human, json, or csv form; iteration
traces go to ``--trace PATH`` as JSON or CSV by extension.

Exit codes: 0 success/convergence, 1 input or usage errors, 2
non-convergence (the partial trace is still emitted when requested).

``main(argv)`` is the one entry point, in process as on the command line:
argparse parses ``argv`` with one parser, built on first use, and hands the
namespace to the command's handler.  Every option default is declared once,
in the parser.  Configuration precedence: flags > environment (SPDMEANS_TOL,
SPDMEANS_MAX_ITERS, SPDMEANS_SEED) > defaults; an unset tolerance or budget
falls through to the operation's own default, and an unset seed is 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
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
    "karcher": (("multi",), "Karcher mean by Riemannian Newton refinement (Bini-Iannazzo step when slow)"),
    "holbrook": (("multi",), "cyclic inductive approximation of the Karcher mean"),
    "circumcenter": (("multi",), "minimax center by farthest-point steps"),
    "median": (("multi",), "Riemannian median by the cyclic proximal scheme"),
    "alm": (("multi",), "Ando-Li-Mathias recursive geometric mean"),
    "bmp": (("multi",), "BMP recursive geometric mean (cubic order)"),
}


class CliUsageError(Exception):
    pass


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


def _emit_result(args: argparse.Namespace, result: float | SpdMatrix,
                 trace: ConvergenceTrace | None) -> int:
    """Print a mean (a 1x1 matrix as a number), write its trace if asked; exit status 0."""
    if isinstance(result, SpdMatrix) and result.dimension == 1:
        result = float(result.array[0, 0])
    is_matrix = isinstance(result, SpdMatrix)
    if args.output == "json":
        payload = {
            "command": args.command,
            "kind": args.kind,
            "result": [[float(v) for v in row] for row in result.array] if is_matrix
            else float(result),
        }
        if trace is not None:
            payload["converged"] = trace.converged
            payload["iterations"] = trace.iterations_used
            payload["order_estimate"] = trace.order_estimate
        print(json.dumps(payload))
    else:
        sep = "," if args.output == "csv" else " "
        rows = result.array if is_matrix else [[result]]
        for row in rows:
            print(sep.join(_format_scalar(v) for v in row))
        if trace is not None and args.output == "human":
            print(
                f"converged={trace.converged} iterations={trace.iterations_used}"
                + (f" order_estimate={trace.order_estimate:.3f}"
                   if trace.order_estimate is not None else ""),
                file=sys.stderr,
            )
    _maybe_write_trace(args, trace)
    return 0


def _emit_report(args: argparse.Namespace, report: dict) -> int:
    if args.output == "json":
        print(json.dumps(report))
    elif args.output == "csv":
        keys = [k for k, v in report.items() if not isinstance(v, (list, dict))]
        print(",".join(keys))
        print(",".join(str(report[k]) for k in keys))
    else:
        for key, value in report.items():
            print(f"{key}: {value}")
    return 0


def _maybe_write_trace(args: argparse.Namespace, trace: ConvergenceTrace | None) -> None:
    if args.trace and trace is not None:
        write_trace(trace, args.trace)


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def _limits(args: argparse.Namespace, tol: str | None, cap: str) -> dict:
    """The tolerance and budget the user set, as keyword arguments named for the operation."""
    kwargs = {}
    if tol is not None and args.tolerance is not None:
        kwargs[tol] = args.tolerance
    if args.max_iterations is not None:
        kwargs[cap] = args.max_iterations
    return kwargs


def _run_scalar(args: argparse.Namespace) -> int:
    base, param = _validate_kind("scalar", args.kind)
    x, y = args.x, args.y
    limits = _limits(args, "tolerance", "max_iterations")
    trace = None
    if base in ("arithmetic", "geometric", "harmonic"):
        value = scalar_means.pythagorean_mean(base, x, y)
    elif base == "power":
        value = scalar_means.power_mean(param, x, y)
    elif base == "agm":
        value, trace = scalar_means.agm(x, y, **limits)
    else:
        value, trace = scalar_means.ahm(x, y, **limits)
    return _emit_result(args, value, trace)


def _run_pair(args: argparse.Namespace) -> int:
    base, param = _validate_kind("pair", args.kind)
    mats = parse_matrix_set(args.inputs)
    if len(mats) != 2:
        raise CliUsageError(f"command 'pair' needs exactly 2 matrices, got {len(mats)}")
    X, Y = mats[0], mats[1]
    trace = None
    if base == "ahm":
        mean, trace = binary_means.ahm_iteration(X, Y, **_limits(args, "tol", "max_iter"))
    elif base == "lem":
        mean = binary_means.log_euclidean_mean([X, Y], WeightVector.uniform(2))
    elif base == "qpower":
        mean = binary_means.q_power_mean(X, Y, param)
    else:
        mean = binary_means.lim_palfia_power_mean(X, Y, param)
    return _emit_result(args, mean, trace)


def _run_multi(args: argparse.Namespace) -> int:
    base, _ = _validate_kind("multi", args.kind)
    mats = parse_matrix_set(args.inputs)
    if base == "karcher":
        start = weighted_arithmetic(list(mats), WeightVector.uniform(len(mats)))
        mean, trace = multi_means.karcher_refine(start, mats, **_limits(args, "tol", "max_iter"))
    elif base == "holbrook":
        mean, trace = multi_means.holbrook_inductive_mean(mats, **_limits(args, None, "steps"))
    elif base == "circumcenter":
        mean, trace = multi_means.riemannian_circumcenter(mats, **_limits(args, None, "steps"))
    elif base == "median":
        mean, trace = multi_means.bacak_median(mats, **_limits(args, None, "sweeps"))
    else:
        params = (RecursiveMeanParams.alm(len(mats)) if base == "alm"
                  else RecursiveMeanParams.bmp(len(mats)))
        mean, trace = multi_means.recursive_geometric_mean(
            mats, params, **_limits(args, "tol", "max_rounds"))
    return _emit_result(args, mean, trace)


def _run_sample(args: argparse.Namespace) -> int:
    if args.experiment == "clt":
        report = stochastic.qa_expectation_experiment(
            scalar_means.power_generator(args.power),
            stochastic.Lognormal(mu=args.mu, sigma=args.sigma),
            n=args.count,
            trials=args.trials,
            seed=args.seed,
        )
        return _emit_report(args, report.to_dict())
    if args.center:
        center_set = parse_matrix_set(args.center)
        if len(center_set) != 1:
            raise CliUsageError("--center file must hold exactly one matrix")
        center = center_set[0]
    else:
        center = SpdMatrix(np.eye(args.dimension))
    decades = (10 ** k for k in range(1, len(str(args.count))))
    counts = [c for c in decades if c < args.count] + [args.count]
    seeds = list(range(args.seed, args.seed + args.num_seeds))
    report = stochastic.lln_experiment(center, args.scale, counts, seeds)
    return _emit_report(args, report.to_dict())


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
            config = stochastic.SampleConfig(seed=seed + 1000 + trial, scale=0.6,
                                             count=2 * max(1, size // 2) + 2, center=center)
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


def _run_bench(args: argparse.Namespace) -> int:
    base, _ = _split_kind(args.kind)
    if base not in ("agm", "ahm", "bmp", "alm"):
        raise CliUsageError(
            f"command 'bench' supports kinds agm, ahm, bmp, alm; got {args.kind!r}")
    if args.trials < 1:
        raise CliUsageError(f"trials must be at least 1, got {args.trials}")
    dimension = args.dimension
    if base in ("bmp", "alm") and dimension < 2:
        dimension = 3
    rows = _bench_instances(base, dimension, args.size, args.trials, args.seed)
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
    return _emit_report(args, report)


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


@functools.cache
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
    p_scalar.set_defaults(handler=_run_scalar)
    _add_common(p_scalar)

    p_pair = sub.add_parser("pair", help="means of two SPD matrices")
    p_pair.add_argument("--kind", required=True)
    p_pair.add_argument("--inputs", required=True, metavar="FILE",
                        help="matrix-set JSON file with exactly two matrices")
    p_pair.set_defaults(handler=_run_pair)
    _add_common(p_pair)

    p_multi = sub.add_parser(
        "multi", help="means of n SPD matrices",
        description="Means of n SPD matrices.  The recursive kinds (alm, bmp) first predict "
                    "their work from the spread of the inputs and refuse, with exit code 1, "
                    f"a mean that would take more than {multi_means.RECURSIVE_WORK_BOUND:,} "
                    "geodesics: ALM of five 3x3 matrices at --tolerance 1e-10, or BMP of "
                    "eight.")
    p_multi.add_argument("--kind", required=True)
    p_multi.add_argument("--inputs", required=True, metavar="FILE")
    p_multi.set_defaults(handler=_run_multi)
    _add_common(p_multi)

    p_sample = sub.add_parser("sample", help="stochastic LLN / CLT experiments")
    p_sample.add_argument("--experiment", choices=("lln", "clt"), default="lln")
    p_sample.add_argument("--dimension", type=int, default=3)
    p_sample.add_argument("--scale", type=float, default=0.3)
    p_sample.add_argument("--count", type=int, default=10_000,
                          help="samples per batch (lln; errors at every 10^k below it "
                               "and at it) or per trial (clt)")
    p_sample.add_argument("--num-seeds", type=int, default=1)
    p_sample.add_argument("--trials", type=int, default=1000)
    p_sample.add_argument("--mu", type=float, default=0.3)
    p_sample.add_argument("--sigma", type=float, default=0.5)
    p_sample.add_argument("--power", type=float, default=0.0,
                          help="power-family generator parameter (clt)")
    p_sample.add_argument("--center", metavar="FILE",
                          help="matrix-set file holding the sampling center")
    p_sample.set_defaults(handler=_run_sample)
    _add_common(p_sample)

    p_bench = sub.add_parser("bench", help="convergence-order diagnostics")
    p_bench.add_argument("--kind", required=True,
                         help="one of: agm, ahm, bmp, alm")
    p_bench.add_argument("--dimension", type=int, default=1,
                         help="1 for scalar iterations, >= 2 for matrices")
    p_bench.add_argument("--size", type=int, default=3,
                         help="number of matrices for bmp/alm")
    p_bench.add_argument("--trials", type=int, default=10)
    p_bench.set_defaults(handler=_run_bench)
    _add_common(p_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command line; returns the process exit status."""
    parser = build_parser()
    args = None
    try:
        args = parser.parse_args(argv)
        if args.list_kinds:
            print(registry_listing())
            return 0
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        if args.tolerance is None:
            args.tolerance = _env(ENV_TOLERANCE, float)
        if args.max_iterations is None:
            args.max_iterations = _env(ENV_MAX_ITERS, int)
        if args.seed is None:
            args.seed = _env(ENV_SEED, int) or 0
        if args.tolerance is not None and not (math.isfinite(args.tolerance) and args.tolerance > 0):
            raise CliUsageError("tolerance must be finite and positive")
        if args.max_iterations is not None and args.max_iterations < 1:
            raise CliUsageError("max-iterations must be at least 1")
        return args.handler(args)
    except NonConvergenceError as exc:
        _maybe_write_trace(args, exc.trace)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CliUsageError, SpdMeansError, OSError, KeyError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
