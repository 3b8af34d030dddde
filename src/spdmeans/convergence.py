"""Per-iteration traces and the empirical order-of-convergence estimator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: Usable error samples must exceed this multiple of machine epsilon;
#: below it the ratios q_t are dominated by roundoff, not by the iteration.
NOISE_FLOOR_FACTOR = 10.0 * np.finfo(float).eps

#: Noise floor for order estimation on matrix error proxies (distances, spreads).
MATRIX_ORDER_FLOOR = 1e-13


@dataclass(frozen=True)
class TraceStep:
    """One recorded iterate: step index, scalar iterate (None for matrices), error proxy."""

    step: int
    value: float | None
    error: float


@dataclass(frozen=True)
class ConvergenceTrace:
    """Log of an iterative mean computation.

    ``steps`` holds (step index, scalar value or None, error proxy)
    records; the error proxy is whatever gap the iteration monitors
    (relative scalar gap, Riemannian distance, spread, objective).
    ``order_estimate`` is the trailing-window empirical convergence order,
    or None when fewer than four strictly decreasing positive errors were
    observed above the noise floor.
    """

    steps: tuple[TraceStep, ...] = ()
    converged: bool = False
    iterations_used: int = 0
    order_estimate: float | None = None

    @property
    def errors(self) -> list[float]:
        return [s.error for s in self.steps]

    @property
    def final_error(self) -> float | None:
        return self.steps[-1].error if self.steps else None


def estimate_order(errors: Sequence[float], floor: float = NOISE_FLOOR_FACTOR) -> float | None:
    """Empirical order of convergence from an error sequence.

    Emitted only when the sequence contains four consecutive strictly
    decreasing positive errors.  Each run of three consecutive errors
    e_{t-1} > e_t > e_{t+1} all above ``floor`` yields a local order
    q_t = log(e_{t+1}/e_t) / log(e_t/e_{t-1}); the estimate is the mean
    of the last up-to-three q_t.  The floor keeps roundoff-level errors
    out of the ratios (fast iterations may land only one clean triple
    before hitting it).
    """
    gate = any(
        errors[t] > errors[t + 1] > errors[t + 2] > errors[t + 3] > 0.0
        for t in range(len(errors) - 3)
    )
    if not gate:
        return None
    qs = []
    for t in range(1, len(errors) - 1):
        e0, e1, e2 = errors[t - 1], errors[t], errors[t + 1]
        if e0 > e1 > e2 > floor:
            qs.append(np.log(e2 / e1) / np.log(e1 / e0))
    if not qs:
        return None
    return float(np.mean(qs[-3:]))


class TraceRecorder:
    """Accumulates steps during an iteration and builds the final trace."""

    def __init__(self, order_floor: float = NOISE_FLOOR_FACTOR):
        self._steps: list[TraceStep] = []
        self._order_floor = order_floor

    def record(self, step: int, value, error: float) -> None:
        if error < 0:
            raise ValueError("error proxies must be nonnegative")
        self._steps.append(TraceStep(step=step, value=value, error=float(error)))

    def build(self, converged: bool, iterations_used: int) -> ConvergenceTrace:
        errors = [s.error for s in self._steps]
        return ConvergenceTrace(
            steps=tuple(self._steps),
            converged=converged,
            iterations_used=iterations_used,
            order_estimate=estimate_order(errors, self._order_floor),
        )
