"""Span tracer for the traced benchmark run, installed from outside spdmeans.

``Tracer.install`` replaces every public function of every spdmeans module
at each module that binds it (``multi_means`` and ``stochastic`` import
``geodesic``, ``riemannian_distance`` and ``sqrt_pair`` by name, so
patching ``spd_core`` alone would miss their calls), the methods that
carry layer counters, and ``numpy.linalg.eigh``, ``eigvalsh`` and
``slogdet``.  Each wrapped call records a span: name, start, end and the
span that was open when it began.  Spans stay in memory until the run
ends; ``pass_metrics`` turns one pass's spans into per-layer metrics.
The layer of a span is the spdmeans module that defines the function, or
``kernel`` for numpy.linalg and ``bench`` for the operation root.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from array import array
from collections import Counter

import numpy as np

import spdmeans
from spdmeans.convergence import ConvergenceTrace, TraceRecorder
from spdmeans.scalar_means import DoubleSequenceSpec
from spdmeans.spd_core import SpdMatrix

KERNEL_FUNCTIONS = ("eigh", "eigvalsh", "slogdet")

#: Flop model per call, times d^3 per matrix (Golub & Van Loan, Matrix
#: Computations, 4th ed.: symmetric QR with eigenvectors ~9 d^3,
#: tridiagonal reduction alone ~4/3 d^3, LU ~2/3 d^3).  The result is
#: computed from operand shapes, not counted by hardware.
KERNEL_FLOPS_PER_D3 = {"eigh": 9.0, "eigvalsh": 4.0 / 3.0, "slogdet": 2.0 / 3.0}

#: Private functions wrapped for a counter: the recursion level of the
#: ALM/BMP means reports the rounds it completed.
PRIVATE_WRAPPED = {"spdmeans.multi_means": ("_recursive_mean",)}

#: Per-layer metrics and units, in the order BENCHMARK.json lists them.
LAYER_METRICS = {
    "kernel.eigh_calls": "count",
    "kernel.eigvalsh_calls": "count",
    "kernel.calls_per_op": "calls/op",
    "kernel.self_s": "s",
    "kernel.share": "ratio",
    "kernel.batched_share": "ratio",
    "kernel.flops_computed": "flop",
    "spd_core.validations": "count",
    "spd_core.geodesic_calls": "count",
    "spd_core.distance_calls": "count",
    "spd_core.self_s": "s",
    "spd_core.eigen_cache_hit_ratio": "ratio",
    "multi_means.self_s": "s",
    "multi_means.karcher_iterations": "count",
    "multi_means.recursive_rounds": "count",
    "stochastic.sample_s": "s",
    "stochastic.inductive_s": "s",
    "stochastic.variance_s": "s",
    "binary_means.self_s": "s",
    "binary_means.ahm_iterations": "count",
    "scalar_means.self_s": "s",
    "scalar_means.spec_builds": "count",
    "scalar_means.sequence_iterations": "count",
    "convergence.trace_steps": "count",
    "convergence.snapshot_bytes": "byte",
    "matrix_io.parse_s": "s",
    "matrix_io.write_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: Metrics derived from shapes or array sizes rather than timed or counted.
COMPUTED_METRICS = ("kernel.flops_computed", "convergence.snapshot_bytes")

_PARSE_SPANS = ("matrix_io.parse_matrix_set", "matrix_io.matrix_set_from_document")
_WRITE_SPANS = ("matrix_io.write_trace", "matrix_io.write_matrix_set",
                "matrix_io.serialize_matrix_set", "matrix_io.trace_to_json",
                "matrix_io.trace_to_json_dict", "matrix_io.trace_to_csv")

#: Counter read from the trace a function returns (or attaches to the
#: error it raises).
_TRACE_ITERATIONS = {
    "multi_means.karcher_refine": "karcher_iterations",
    "binary_means.ahm_iteration": "ahm_iterations",
    "scalar_means.double_sequence": "sequence_iterations",
}


def _modules():
    mods = [spdmeans]
    for info in pkgutil.iter_modules(spdmeans.__path__):
        if info.name != "__main__":  # running it would execute the CLI
            mods.append(importlib.import_module(f"spdmeans.{info.name}"))
    return mods


def _layer_of(func) -> str:
    return func.__module__.rpartition(".")[2]


class Tracer:
    """In-memory span recorder; wrappers pass straight through while
    ``active`` is false, so checks and set-up are not traced."""

    def __init__(self):
        self.active = False
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._seen_traces: dict[int, ConvergenceTrace] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span_count(self) -> int:
        return len(self.name)

    def end_pass(self) -> None:
        """Forget the traces held for deduplication; spans are kept."""
        self._seen_traces.clear()

    def _note_trace(self, trace, span: str) -> None:
        if not isinstance(trace, ConvergenceTrace) or id(trace) in self._seen_traces:
            return
        self._seen_traces[id(trace)] = trace  # held so the id stays unique
        self.counts["convergence.snapshot_bytes"] += sum(
            s.value.nbytes for s in trace.steps if isinstance(s.value, np.ndarray))
        key = _TRACE_ITERATIONS.get(span)
        if key is not None:
            self.counts[key] += trace.iterations_used

    def _after(self, span: str, result) -> None:
        if span == "multi_means._recursive_mean":
            self.counts["recursive_rounds"] += result[1]
        elif isinstance(result, tuple):
            for item in result:
                self._note_trace(item, span)
        elif isinstance(result, ConvergenceTrace):
            self._note_trace(result, span)

    # -- wrapping ----------------------------------------------------------

    def _span_wrapper(self, fn, span: str):
        nid = self.name_id(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.close(idx)
                self._note_trace(getattr(exc, "trace", None), span)
                raise
            self.close(idx)
            self._after(span, result)
            return result

        return wrapper

    def _kernel_wrapper(self, fn, name: str):
        nid = self.name_id(f"kernel.{name}")
        d3_key = f"kernel.d3.{name}"  # integer, so per-pass deltas are exact

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if not self.active:
                return fn(a, *args, **kwargs)
            shape = np.shape(a)
            self.counts[d3_key] += shape[-1] ** 3 * int(np.prod(shape[:-2], dtype=np.int64))
            if len(shape) > 2:
                self.counts["kernel.batched_calls"] += 1
            idx = self.open(nid)
            try:
                return fn(a, *args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for mod in _modules():
            extra = PRIVATE_WRAPPED.get(mod.__name__, ())
            for attr, obj in list(vars(mod).items()):
                if not (inspect.isfunction(obj) and obj.__module__.startswith("spdmeans.")):
                    continue
                if attr.startswith("_") and attr not in extra:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._span_wrapper(obj, f"{_layer_of(obj)}.{obj.__name__}")
                self._patch(mod, attr, wrappers[id(obj)])

        self._patch(SpdMatrix, "__init__",
                    self._span_wrapper(SpdMatrix.__init__, "spd_core.SpdMatrix.__init__"))
        eigen = self._span_wrapper(SpdMatrix.eigen, "spd_core.SpdMatrix.eigen")

        @functools.wraps(SpdMatrix.eigen)
        def counted_eigen(matrix):
            if self.active:
                self.counts["eigen_calls"] += 1
                self.counts["eigen_hits"] += matrix._eig is not None
            return eigen(matrix)

        self._patch(SpdMatrix, "eigen", counted_eigen)
        self._patch(DoubleSequenceSpec, "__post_init__", self._counter_wrapper(
            DoubleSequenceSpec.__post_init__, "scalar_means.spec_builds"))
        self._patch(TraceRecorder, "record", self._counter_wrapper(
            TraceRecorder.record, "convergence.trace_steps"))
        for name in KERNEL_FUNCTIONS:
            self._patch(np.linalg, name, self._kernel_wrapper(getattr(np.linalg, name), name))

    def _counter_wrapper(self, fn, key: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- metrics -----------------------------------------------------------

    def pass_metrics(self, first: int, last: int, counts: Counter, ops: int) -> dict:
        """Per-layer metrics of spans[first:last] and the counter deltas
        ``counts`` of one pass of ``ops`` operations."""
        name = np.frombuffer(self.name, dtype=np.int_)[first:last]
        parent = np.frombuffer(self.parent, dtype=np.int_)[first:last] - first
        dur = (np.frombuffer(self.end)[first:last] - np.frombuffer(self.start)[first:last])
        nested = parent >= 0
        child = np.zeros(len(dur))
        np.add.at(child, parent[nested], dur[nested])
        self_time = dur - child

        names = self._names
        layers = sorted({n.partition(".")[0] for n in names})
        layer_index = np.array([layers.index(n.partition(".")[0]) for n in names], dtype=int)
        layer_self = dict(zip(layers, np.bincount(layer_index[name], weights=self_time,
                                                  minlength=len(layers))))
        by_name = np.bincount(name, minlength=len(names))

        def calls(span: str) -> int:
            return int(by_name[self._ids[span]]) if span in self._ids else 0

        def inclusive(spans) -> float:
            ids = [self._ids[s] for s in spans if s in self._ids]
            top = np.isin(name, ids)
            inner = np.zeros(len(name), dtype=bool)
            inner[nested] = np.isin(name[parent[nested]], ids)
            return float(dur[top & ~inner].sum())

        wall = float(dur[parent < 0].sum())
        kernel_calls = sum(calls(f"kernel.{k}") for k in KERNEL_FUNCTIONS)
        kernel_self = float(layer_self.get("kernel", 0.0))
        eigen_calls = counts["eigen_calls"]
        return {
            "wall_s": wall,
            "kernel.eigh_calls": calls("kernel.eigh"),
            "kernel.eigvalsh_calls": calls("kernel.eigvalsh"),
            "kernel.calls_per_op": kernel_calls / ops,
            "kernel.self_s": kernel_self,
            "kernel.share": kernel_self / wall,
            "kernel.batched_share": (counts["kernel.batched_calls"] / kernel_calls
                                     if kernel_calls else 0.0),
            "kernel.flops_computed": sum(per_d3 * counts[f"kernel.d3.{k}"]
                                         for k, per_d3 in KERNEL_FLOPS_PER_D3.items()),
            "spd_core.validations": calls("spd_core.SpdMatrix.__init__"),
            "spd_core.geodesic_calls": calls("spd_core.geodesic"),
            "spd_core.distance_calls": calls("spd_core.riemannian_distance"),
            "spd_core.self_s": float(layer_self.get("spd_core", 0.0)),
            "spd_core.eigen_cache_hit_ratio": (counts["eigen_hits"] / eigen_calls
                                               if eigen_calls else 0.0),
            "multi_means.self_s": float(layer_self.get("multi_means", 0.0)),
            "multi_means.karcher_iterations": counts["karcher_iterations"],
            "multi_means.recursive_rounds": counts["recursive_rounds"],
            "stochastic.sample_s": inclusive(["stochastic.sample_spd"]),
            "stochastic.inductive_s": inclusive(["stochastic.inductive_expectation"]),
            "stochastic.variance_s": inclusive(["stochastic.spd_variance"]),
            "binary_means.self_s": float(layer_self.get("binary_means", 0.0)),
            "binary_means.ahm_iterations": counts["ahm_iterations"],
            "scalar_means.self_s": float(layer_self.get("scalar_means", 0.0)),
            "scalar_means.spec_builds": counts["scalar_means.spec_builds"],
            "scalar_means.sequence_iterations": counts["sequence_iterations"],
            "convergence.trace_steps": counts["convergence.trace_steps"],
            "convergence.snapshot_bytes": counts["convergence.snapshot_bytes"],
            "matrix_io.parse_s": inclusive(_PARSE_SPANS),
            "matrix_io.write_s": inclusive(_WRITE_SPANS),
            "cli.self_s": float(layer_self.get("cli", 0.0)),
        }
