"""Means, circumcenters, and medians of n SPD matrices by inductive schemes.

The cyclic geodesic-walk approximation of the Karcher mean, a fixed-point
refiner driving the Karcher equation residual to tolerance (the oracle
for everything else here), the farthest-point circumcenter iteration, the
cyclic proximal-point median, and the recursive two-parameter-family
geometric means (ALM and BMP tuples built in).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count
from typing import Callable, Sequence

import numpy as np

from .convergence import MATRIX_ORDER_FLOOR, ConvergenceTrace, TraceRecorder
from .errors import DomainError, NonConvergenceError, ShapeError
from .spd_core import (
    SpdMatrix,
    WeightVector,
    _check_same_dimension,
    _Frame,
    _rho,
    _spectral,
    _stacks,
    geodesic,
)

KARCHER_REFINE_MAX_ITERATIONS = 500
HOLBROOK_DEFAULT_STEPS = 10_000
CIRCUMCENTER_DEFAULT_STEPS = 10_000
MEDIAN_DEFAULT_SWEEPS = 1_000
MEDIAN_DISTANCE_GUARD = 1e-14
RECURSIVE_DEFAULT_MAX_ROUNDS = 100


@dataclass(frozen=True)
class MatrixTuple:
    """Nonempty tuple of SPD matrices sharing one dimension."""

    matrices: tuple[SpdMatrix, ...]

    def __post_init__(self):
        if len(self.matrices) < 1:
            raise DomainError("need at least one matrix")
        d = self.matrices[0].dimension
        for i, m in enumerate(self.matrices):
            if m.dimension != d:
                raise ShapeError(
                    f"matrix {i} has dimension {m.dimension}, expected {d}"
                )

    @property
    def dimension(self) -> int:
        return self.matrices[0].dimension

    def __len__(self) -> int:
        return len(self.matrices)

    def __iter__(self):
        return iter(self.matrices)

    def __getitem__(self, i) -> SpdMatrix:
        return self.matrices[i]


def as_matrix_tuple(Ps) -> MatrixTuple:
    if isinstance(Ps, MatrixTuple):
        return Ps
    return MatrixTuple(tuple(Ps))


@dataclass(frozen=True)
class RecursiveMeanParams:
    """(n-1)-tuple of geodesic parameters for the recursive geometric means."""

    s_tuple: tuple[float, ...]

    def __post_init__(self):
        if len(self.s_tuple) < 1:
            raise DomainError("parameter tuple must be nonempty")
        for s in self.s_tuple:
            if not 0.0 < s <= 1.0:
                raise DomainError(f"recursive mean parameters must lie in (0, 1], got {s!r}")

    @classmethod
    def bmp(cls, n: int) -> "RecursiveMeanParams":
        """((n-1)/n, (n-2)/(n-1), ..., 1/2): the cubically convergent tuple."""
        if n < 2:
            raise DomainError("need at least two matrices")
        return cls(tuple((n - k) / (n - k + 1) for k in range(1, n)))

    @classmethod
    def alm(cls, n: int) -> "RecursiveMeanParams":
        """(1, 1, ..., 1, 1/2): the Ando-Li-Mathias tuple (linear convergence)."""
        if n < 2:
            raise DomainError("need at least two matrices")
        return cls(tuple([1.0] * (n - 2) + [0.5]))


# ---------------------------------------------------------------------------
# Karcher mean machinery
# ---------------------------------------------------------------------------

def _weighted_log_sum(frame: _Frame, stacks: list[np.ndarray], weights: np.ndarray) -> np.ndarray:
    """Weighted sum of the whitened logs log(G P_i G^T) of the matrices in
    ``stacks``: one eigh per stack, then the terms added in order."""
    logs = (log for stack in stacks for log in _spectral(frame.whiten(stack), np.log))
    acc = np.zeros((frame.dimension, frame.dimension))
    for w, log in zip(weights, logs):
        acc = acc + w * log
    if not np.all(np.isfinite(acc)):
        raise DomainError("function is not finite on the spectrum")
    return acc


def karcher_residual(G: SpdMatrix, Ps) -> float:
    """Karcher-equation residual || sum_i log(G^{-1/2} P_i G^{-1/2}) ||_F / n.

    Vanishes exactly when G is the Karcher (Riemannian least-squares)
    mean of the tuple.
    """
    Ps = as_matrix_tuple(Ps)
    _check_same_dimension(G, Ps)
    return _residual(_Frame(G), _stacks(Ps), len(Ps))


def _residual(frame: _Frame, stacks: list[np.ndarray], n: int) -> float:
    """The Karcher residual at the frame's base.  Any factor F of the base
    gives the same norm: the whitened logs of two factors differ by a rotation."""
    return float(np.linalg.norm(_weighted_log_sum(frame, stacks, np.ones(n))) / n)


def karcher_refine(G0: SpdMatrix, Ps, w: WeightVector | None = None,
                   tol: float = 1e-10,
                   max_iter: int = KARCHER_REFINE_MAX_ITERATIONS) -> tuple[SpdMatrix, ConvergenceTrace]:
    """Fixed-point sharpening of the weighted Karcher mean.

    Iterates G <- G^{1/2} exp(sum_i w_i log(G^{-1/2} P_i G^{-1/2})) G^{1/2}
    from ``G0`` until the weighted residual (Frobenius norm of the iterated
    tangent average) falls below ``tol``.  With weights (1-t, t) on two
    matrices this lands on the geodesic point X #_t Y.
    """
    Ps = as_matrix_tuple(Ps)
    _check_same_dimension(G0, Ps)
    if w is None:
        w = WeightVector.uniform(len(Ps))
    if len(w) != len(Ps):
        raise DomainError(f"{len(Ps)} matrices but {len(w)} weights")
    # max_iter counts residual evaluations: the step index is the evaluation.
    recorder = TraceRecorder(tol, max_iter, "Karcher refinement", order_floor=MATRIX_ORDER_FLOOR)
    weights, stacks = w.values, _stacks(Ps)
    G = G0
    for t in count(1):
        frame = _Frame(G)
        tangent = _weighted_log_sum(frame, stacks, weights)
        if not recorder.record(t, None, float(np.linalg.norm(tangent))):
            return G, recorder.build()
        G = SpdMatrix._trusted(frame.lift(_spectral(tangent, np.exp)))


def holbrook_inductive_mean(Ps, steps: int = HOLBROOK_DEFAULT_STEPS) -> tuple[SpdMatrix, ConvergenceTrace]:
    """Cyclic inductive approximation of the n-matrix geometric mean.

    M_1 = P_1 and M_{t+1} = M_t #_{1/(t+1)} P_{cycle(t)}, visiting
    P_2, P_3, ..., P_n, P_1, ... after initialization.  Convergence to
    the Karcher mean is slow (the step sizes decay like 1/t), so the
    trace records the Karcher residual every n steps for monitoring
    rather than a stopping rule.
    """
    Ps = as_matrix_tuple(Ps)
    n = len(Ps)
    recorder = TraceRecorder(order_floor=MATRIX_ORDER_FLOOR)
    if n == 1:
        recorder.record(0, None, 0.0)
        return Ps[0], recorder.build()
    if steps < n:
        raise DomainError(f"need at least n={n} steps, got {steps}")
    walk, stacks = _Frame(Ps[0]), _stacks(Ps)
    for t in range(1, steps + 1):
        walk.step(Ps[t % n].array, 1.0 / (t + 1))
        if t % n == 0:
            recorder.record(t, None, _residual(walk, stacks, n))
    return walk.base(), recorder.build(iterations_used=steps)


# ---------------------------------------------------------------------------
# Circumcenter and median
# ---------------------------------------------------------------------------

def riemannian_circumcenter(Ps, steps: int = CIRCUMCENTER_DEFAULT_STEPS) -> tuple[SpdMatrix, ConvergenceTrace]:
    """Minimax center by farthest-point geodesic steps.

    C_1 = P_1 and C_{t+1} = C_t #_{1/(t+1)} P_f where P_f is the matrix
    farthest from C_t (lowest index on ties).  The trace records the
    covering radius max_i rho(C_t, P_i) each step; it is nonincreasing
    in the limit, not per step.
    """
    Ps = as_matrix_tuple(Ps)
    if steps < 1:
        raise DomainError(f"need at least 1 step, got {steps}")
    C = Ps[0]
    recorder = TraceRecorder(order_floor=MATRIX_ORDER_FLOOR)
    if len(Ps) == 1:
        recorder.record(0, None, 0.0)
        return C, recorder.build()
    walk, stacks = _Frame(C), _stacks(Ps)
    for t in range(1, steps + 1):
        mu, vecs = (np.concatenate(parts) for parts in zip(*map(walk.spectra, stacks)))
        distances = _rho(mu)
        far = int(np.argmax(distances))
        recorder.record(t - 1, None, float(distances[far]))
        walk.advance(mu[far], vecs[far], 1.0 / (t + 1))
    recorder.record(steps, None, float(walk.fan_out(stacks).max()))
    return walk.base(), recorder.build()


def _default_lambda_schedule(k: int) -> float:
    return 1.0 / (k + 1)


def bacak_median(Ps, lambda_schedule: Callable[[int], float] | Sequence[float] | None = None,
                 sweeps: int = MEDIAN_DEFAULT_SWEEPS) -> tuple[SpdMatrix, ConvergenceTrace]:
    """Riemannian median by the cyclic proximal-point scheme.

    Sweep k walks once through the inputs, stepping from the current
    iterate toward P_i by t = min(1, lambda_k / (n rho(X, P_i))); steps
    toward a point the iterate already sits on (rho below 1e-14) are
    skipped.  rho(X, P_i) and the step come from one eigendecomposition
    of P_i whitened through the walk's factor of X, so the guard measures
    rho at the iterate X, not at P_i.  The schedule must satisfy
    sum lambda_k = inf and sum lambda_k^2 < inf (default
    lambda_k = 1/(k+1)).  The trace records the median objective
    (1/n) sum_i rho(X, P_i) after each sweep.
    """
    Ps = as_matrix_tuple(Ps)
    if sweeps < 1:
        raise DomainError(f"need at least 1 sweep, got {sweeps}")
    if lambda_schedule is None:
        schedule = _default_lambda_schedule
    elif callable(lambda_schedule):
        schedule = lambda_schedule
    else:
        values = [float(v) for v in lambda_schedule]
        if len(values) < sweeps:
            raise DomainError(f"schedule has {len(values)} entries but {sweeps} sweeps requested")
        schedule = lambda k: values[k]
    n = len(Ps)
    walk, stacks = _Frame(Ps[0]), _stacks(Ps)
    recorder = TraceRecorder(order_floor=MATRIX_ORDER_FLOOR)
    for k in range(sweeps):
        lam = float(schedule(k))
        if lam <= 0:
            raise DomainError(f"lambda schedule must be positive, got {lam} at sweep {k}")
        for P in Ps:
            mu, vecs = walk.spectra(P.array)
            dist = float(_rho(mu))
            if dist < MEDIAN_DISTANCE_GUARD:
                continue
            walk.advance(mu, vecs, min(1.0, lam / (n * dist)))
        objective = sum(walk.fan_out(stacks).tolist()) / n
        recorder.record(k + 1, None, objective)
    return walk.base(), recorder.build(iterations_used=sweeps)


# ---------------------------------------------------------------------------
# Recursive geometric means (ALM / BMP family)
# ---------------------------------------------------------------------------

def _max_pairwise_distance(mats: Sequence[SpdMatrix]) -> float:
    """max_{i<j} rho(P_i, P_j), one inverse root per row."""
    rows = (_Frame(mats[i]).fan_out(_stacks(mats[i + 1:])).tolist()
            for i in range(len(mats) - 1))
    return max([0.0] + [d for row in rows for d in row])


#: A stagnated recursive-mean iteration is accepted as numerically converged
#: only below this spread; above it, stagnation raises NonConvergenceError.
_STAGNATION_SPREAD_BOUND = 1e-6


def _level_recorder(tol: float, max_rounds: int, name: str) -> TraceRecorder:
    return TraceRecorder(tol, max_rounds, name, unit="rounds", order_floor=MATRIX_ORDER_FLOOR)


def _recursive_mean(mats: tuple[SpdMatrix, ...], s_tuple: tuple[float, ...],
                    recorder: TraceRecorder,
                    accept_stagnation: bool = False) -> tuple[SpdMatrix, int]:
    """Limit of one recursion level and its rounds; ``recorder`` holds the
    level's tolerance and cap, and each inner level gets its own."""
    n = len(mats)
    rounds = 0
    stalls = 0
    current = mats
    previous, spread = math.inf, _max_pairwise_distance(mats)
    while recorder.record(rounds, None, spread):
        # Roundoff floors the spread before very tight tolerances are met;
        # detect the stall instead of burning the whole round budget.
        stalls = stalls + 1 if spread >= 0.99 * previous else 0
        if stalls >= 2:
            if accept_stagnation and spread < _STAGNATION_SPREAD_BOUND:
                break
            raise NonConvergenceError(
                f"{recorder.name} stagnated at spread {spread:.3e} "
                f"above tolerance {recorder.tol}",
                trace=recorder.build(),
            )
        if n == 2:
            current = (
                geodesic(current[0], current[1], s_tuple[0]),
                geodesic(current[1], current[0], s_tuple[0]),
            )
        else:
            # Inner means run at a tighter tolerance so their error does not
            # contaminate the outer spread sequence near its own tolerance.
            inner_tol = max(1e-2 * recorder.tol, 1e-14)
            inner_name = f"inner {n - 1}-matrix level of the recursive geometric mean"
            partners = [
                _recursive_mean(current[:i] + current[i + 1:], s_tuple[1:],
                                _level_recorder(inner_tol, recorder.max_steps, inner_name),
                                accept_stagnation=True)[0]
                for i in range(n)
            ]
            current = tuple(
                geodesic(current[i], partners[i], s_tuple[0]) for i in range(n)
            )
        rounds += 1
        previous, spread = spread, _max_pairwise_distance(current)
    return current[0], rounds


def recursive_geometric_mean(Ps, params: RecursiveMeanParams,
                             tol: float = 1e-12,
                             max_rounds: int = RECURSIVE_DEFAULT_MAX_ROUNDS) -> tuple[SpdMatrix, ConvergenceTrace]:
    """Recursive geometric matrix mean parameterized by an (n-1)-tuple.

    Each round replaces P_i by P_i #_{s_1} G_{s_2, ...}(all others),
    stopping when the maximum pairwise distance of the n sequences falls
    below ``tol``; the n = 2 base case is the symmetric two-sequence
    geodesic iteration, which is the midpoint in one round at s_1 = 1/2.
    The BMP tuple converges cubically, the ALM tuple linearly; the trace
    records the spread per round for order estimation.
    """
    Ps = as_matrix_tuple(Ps)
    n = len(Ps)
    if n < 2:
        raise DomainError("recursive geometric mean needs at least two matrices")
    if len(params.s_tuple) != n - 1:
        raise DomainError(
            f"parameter tuple has {len(params.s_tuple)} entries, need {n - 1}"
        )
    recorder = _level_recorder(tol, max_rounds, "recursive geometric mean")
    limit, _ = _recursive_mean(tuple(Ps), params.s_tuple, recorder)
    return limit, recorder.build()
