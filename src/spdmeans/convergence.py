"""Per-iteration traces and the empirical order-of-convergence estimator."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, NonConvergenceError, NumericError

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
    ``converged`` means a tolerance was checked and the last error met it;
    ``iterations_used`` counts the steps after the first, or a walk's budget.
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
    """Records one iteration's steps and owns its stopping rule.

    ``record`` returns whether the loop goes on: False once the error is
    at most ``tol``; at step ``max_steps`` above ``tol`` it raises
    NonConvergenceError with the partial trace (``name`` and ``unit`` word
    the message).  An error that is NaN or infinite raises NumericError
    naming the loop and the step, so a loop whose gap turned NaN neither
    runs to its cap nor leaves a trace ending in NaN.  A tolerance that is
    not finite and positive, or a cap that is not an integer of at least
    1, raises DomainError before any work.  A fixed-budget walk passes no tolerance: it never stops early
    or claims convergence, and gives ``build`` its step count.
    """

    def __init__(self, tol: float | None = None, max_steps: int | None = None,
                 name: str = "iteration", unit: str = "iterations",
                 order_floor: float = NOISE_FLOOR_FACTOR):
        if tol is not None and not (math.isfinite(tol) and tol > 0):
            raise DomainError(f"tolerance must be finite and positive, got {tol!r}")
        if max_steps is not None and not (isinstance(max_steps, numbers.Integral) and max_steps >= 1):
            raise DomainError(f"iteration cap must be an integer of at least 1, got {max_steps!r}")
        self.tol = tol
        self.max_steps = max_steps
        self.name = name
        self._unit = unit
        self._steps: list[tuple[int, object, float]] = []  # TraceSteps built once, in build()
        self._order_floor = order_floor

    def record(self, step: int, value, error: float) -> bool:
        if not math.isfinite(error):
            raise NumericError(f"{self.name} step {step}: error proxy is {error}")
        if error < 0:
            raise ValueError("error proxies must be nonnegative")
        self._steps.append((step, value, float(error)))
        if self.tol is not None and error <= self.tol:
            return False
        if self.exhausted(step):
            raise NonConvergenceError(
                f"{self.name} failed to reach {self.tol} within {self.max_steps} {self._unit}",
                trace=self.build(),
            )
        return True

    def exhausted(self, step: int) -> bool:
        """Whether ``record`` raises at this step for an error above ``tol``."""
        return self.max_steps is not None and step >= self.max_steps

    def build(self, iterations_used: int | None = None) -> ConvergenceTrace:
        errors = [error for _, _, error in self._steps]
        return ConvergenceTrace(
            steps=tuple(TraceStep(step, value, error) for step, value, error in self._steps),
            converged=self.tol is not None and bool(errors) and errors[-1] <= self.tol,
            iterations_used=len(errors) - 1 if iterations_used is None else iterations_used,
            order_estimate=estimate_order(errors, self._order_floor),
        )
