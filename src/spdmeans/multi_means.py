"""Means, circumcenters, and medians of n SPD matrices by inductive schemes.

The cyclic geodesic-walk approximation of the Karcher mean, a fixed-point
refiner driving the Karcher equation residual to tolerance (the oracle
for everything else here), the farthest-point circumcenter iteration, the
cyclic proximal-point median, and the recursive two-parameter-family
geometric means (ALM and BMP tuples built in).

The refiner takes the unit step while the residual at least halves per
iteration and otherwise the Bini-Iannazzo step, whose whitened condition
numbers come from the spectra its log-sum already computes: the unit
step alone crawls on moderately spread sets and can diverge on spread
ones (log-eigenvalues over [-4, 4] at d = 8).

The recursive means nest: each round replaces P_i by P_i #_s G(all
others), and the n leave-one-out inner means are independent.  One
recursion level therefore runs a (k, n, d, d) stack of k tuples in
lockstep through a stacked ``_Frame``, and recurses once per round on the
(k n, n - 1, d, d) stack of their leave-one-out sub-tuples, whose frames
are gathered from the parents'.  Each tuple keeps its own trace recorder,
stopping and stall rules, so the means, traces and errors are those of
the depth-first recursion.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import count
from typing import Callable, Sequence

import numpy as np

from .convergence import MATRIX_ORDER_FLOOR, ConvergenceTrace, TraceRecorder
from .errors import DomainError, NonConvergenceError
from .spd_core import (
    SpdMatrix,
    WeightVector,
    _check_weight_count,
    _Frame,
    _rho,
    _slices,
    _spectral,
    _stack,
)

KARCHER_REFINE_MAX_ITERATIONS = 500
#: karcher_refine keeps the unit step while each residual is at most this
#: fraction of the previous one, and takes the Bini-Iannazzo step otherwise.
KARCHER_UNIT_STEP_CONTRACTION = 0.5
HOLBROOK_DEFAULT_STEPS = 10_000
CIRCUMCENTER_DEFAULT_STEPS = 10_000
MEDIAN_DEFAULT_SWEEPS = 1_000
MEDIAN_DISTANCE_GUARD = 1e-14
RECURSIVE_DEFAULT_MAX_ROUNDS = 100


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

def _weighted_log_sum(frame: _Frame, stack: np.ndarray, weights: np.ndarray,
                      conditions: list[np.ndarray] | None = None) -> np.ndarray:
    """Weighted sum of the whitened logs log(G P_i G^T) of the matrices of
    an (n, d, d) stack: one eigh per ``_slices`` slice, then the terms added
    in order.  A ``conditions`` list receives, per slice, the condition
    numbers lambda_max / lambda_min of its whitened matrices, read off the
    same spectra."""
    f = np.log
    if conditions is not None:
        def f(lam):
            conditions.append(lam[..., -1] / lam[..., 0])
            return np.log(lam)
    logs = (log for part in _slices(stack) for log in _spectral(frame.whiten(part), f))
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
    return _residual(_Frame(G), _stack(Ps, G))


def _residual(frame: _Frame, stack: np.ndarray) -> float:
    """The Karcher residual of an (n, d, d) stack at the frame's base.  Any
    factor F of the base gives the same norm: the whitened logs of two
    factors differ by a rotation."""
    n = len(stack)
    return float(np.linalg.norm(_weighted_log_sum(frame, stack, np.ones(n))) / n)


def _bini_iannazzo_step(weights: np.ndarray, conditions: list[np.ndarray]) -> float:
    """theta = 2 / sum_i w_i (c_i + 1)/(c_i - 1) log c_i for the whitened
    condition numbers c_i; a term at c_i = 1 takes its limit 2, so the
    step is 1 when every whitened matrix is the identity."""
    c = np.concatenate(conditions)
    x = c - 1.0
    ratio = np.ones_like(x)  # log(c) / (c - 1), which tends to 1 as c -> 1
    np.divide(np.log1p(x), x, out=ratio, where=x > 0)
    return float(2.0 / np.dot(weights, (c + 1.0) * ratio))


def karcher_refine(G0: SpdMatrix, Ps, w: WeightVector | None = None,
                   tol: float = 1e-10,
                   max_iter: int = KARCHER_REFINE_MAX_ITERATIONS) -> tuple[SpdMatrix, ConvergenceTrace]:
    """Fixed-point sharpening of the weighted Karcher mean.

    Iterates G <- G^{1/2} exp(theta sum_i w_i log(G^{-1/2} P_i G^{-1/2})) G^{1/2}
    from ``G0`` until the weighted residual (Frobenius norm of the iterated
    tangent average) falls below ``tol``.  With weights (1-t, t) on two
    matrices this lands on the geodesic point X #_t Y.

    The first iteration takes the unit step theta = 1, and so does every
    iteration whose residual is at most ``KARCHER_UNIT_STEP_CONTRACTION``
    (one half) times the previous one.  That constant is the slowest
    contraction accepted from the unit step, which converges linearly at
    a rate set by the spread of the inputs: fast on concentrated sets,
    slowly or not at all on spread ones.  A slower iteration takes the
    step of Bini & Iannazzo, LAA 438 (2013),
    theta = 2 / sum_i w_i (c_i + 1)/(c_i - 1) log c_i, with c_i the
    condition number of G^{-1/2} P_i G^{-1/2}; theta lies in (0, 1] and
    comes from the eigenvalues the log-sum already computes.
    """
    stack = _stack(Ps, G0)
    if w is None:
        w = WeightVector.uniform(len(stack))
    _check_weight_count(len(stack), w)
    # max_iter counts residual evaluations: the step index is the evaluation.
    recorder = TraceRecorder(tol, max_iter, "Karcher refinement", order_floor=MATRIX_ORDER_FLOOR)
    weights = w.values
    G, previous = G0, math.inf
    for t in count(1):
        frame = _Frame(G)
        conditions: list[np.ndarray] = []
        tangent = _weighted_log_sum(frame, stack, weights, conditions)
        residual = float(np.linalg.norm(tangent))
        if not recorder.record(t, None, residual):
            return G, recorder.build()
        if residual > KARCHER_UNIT_STEP_CONTRACTION * previous:
            tangent = _bini_iannazzo_step(weights, conditions) * tangent
        previous = residual
        G = SpdMatrix._trusted(frame.lift(_spectral(tangent, np.exp)))


def holbrook_inductive_mean(Ps, steps: int = HOLBROOK_DEFAULT_STEPS) -> tuple[SpdMatrix, ConvergenceTrace]:
    """Cyclic inductive approximation of the n-matrix geometric mean.

    M_1 = P_1 and M_{t+1} = M_t #_{1/(t+1)} P_{cycle(t)}, visiting
    P_2, P_3, ..., P_n, P_1, ... after initialization.  Convergence to
    the Karcher mean is slow (the step sizes decay like 1/t), so the
    trace records the Karcher residual every n steps for monitoring
    rather than a stopping rule.
    """
    Ps = list(Ps)
    stack = _stack(Ps)
    n = len(stack)
    recorder = TraceRecorder(order_floor=MATRIX_ORDER_FLOOR)
    if n == 1:
        recorder.record(0, None, 0.0)
        return Ps[0], recorder.build()
    if steps < n:
        raise DomainError(f"need at least n={n} steps, got {steps}")
    walk = _Frame(Ps[0])
    for t in range(1, steps + 1):
        walk.step(stack[t % n], 1.0 / (t + 1))
        if t % n == 0:
            recorder.record(t, None, _residual(walk, stack))
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
    Ps = list(Ps)
    stack = _stack(Ps)
    if steps < 1:
        raise DomainError(f"need at least 1 step, got {steps}")
    recorder = TraceRecorder(order_floor=MATRIX_ORDER_FLOOR)
    if len(stack) == 1:
        recorder.record(0, None, 0.0)
        return Ps[0], recorder.build()
    walk, parts = _Frame(Ps[0]), _slices(stack)
    for t in range(1, steps + 1):
        mu, vecs = (np.concatenate(spectra) for spectra in zip(*map(walk.spectra, parts)))
        distances = _rho(mu)
        far = int(np.argmax(distances))
        recorder.record(t - 1, None, float(distances[far]))
        walk.advance(mu[far], vecs[far], 1.0 / (t + 1))
    recorder.record(steps, None, float(walk.fan_out(stack).max()))
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
    rho at the iterate X, not at P_i.  The schedule must be finite and
    positive and satisfy sum lambda_k = inf and sum lambda_k^2 < inf
    (default lambda_k = 1/(k+1)).  The trace records the median objective
    (1/n) sum_i rho(X, P_i) after each sweep.
    """
    Ps = list(Ps)
    stack = _stack(Ps)
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
    n = len(stack)
    walk = _Frame(Ps[0])
    recorder = TraceRecorder(order_floor=MATRIX_ORDER_FLOOR)
    for k in range(sweeps):
        lam = float(schedule(k))
        if not (math.isfinite(lam) and lam > 0):
            raise DomainError(f"lambda schedule must be finite and positive, got {lam} at sweep {k}")
        for P in stack:
            mu, vecs = walk.spectra(P)
            dist = float(_rho(mu))
            if dist < MEDIAN_DISTANCE_GUARD:
                continue
            walk.advance(mu, vecs, min(1.0, lam / (n * dist)))
        objective = sum(walk.fan_out(stack).tolist()) / n
        recorder.record(k + 1, None, objective)
    return walk.base(), recorder.build(iterations_used=sweeps)


# ---------------------------------------------------------------------------
# Recursive geometric means (ALM / BMP family)
# ---------------------------------------------------------------------------

#: A stagnated recursive-mean iteration is accepted as numerically converged
#: only below this spread; above it, stagnation raises NonConvergenceError.
_STAGNATION_SPREAD_BOUND = 1e-6

#: The first tuple of a batch that failed, by index, with its error.
_Failure = tuple[int, NonConvergenceError] | None


def _level_recorder(tol: float, max_rounds: int, name: str) -> TraceRecorder:
    return TraceRecorder(tol, max_rounds, name, unit="rounds", order_floor=MATRIX_ORDER_FLOOR)


@functools.cache
def _index_sets(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs i < j of an n-tuple as two index arrays, and its leave-one-out
    rows (row j lists the indices without j); cached, so read-only."""
    sets = (*np.triu_indices(n, 1), np.array([[i for i in range(n) if i != j] for j in range(n)]))
    for a in sets:
        a.flags.writeable = False
    return sets


def _spreads(mats: np.ndarray, frames: _Frame) -> np.ndarray:
    """max_{i<j} rho(P_i, P_j) of each tuple of a (k, n, d, d) stack, from
    one eigvalsh over the pairs whitened by the frame of P_i."""
    i, j, _ = _index_sets(mats.shape[1])
    return frames[:, i].distances(mats[:, j]).max(axis=-1)


def _recursive_mean(mats: np.ndarray, frames: _Frame, s_tuple: tuple[float, ...],
                    recorders: list[TraceRecorder],
                    accept_stagnation: bool = False) -> tuple[np.ndarray, int, _Failure]:
    """Limits of one recursion level for k tuples in lockstep.

    ``mats`` is a (k, n, d, d) stack of n-tuples with their ``frames`` and
    one recorder per tuple (the level's tolerance and cap).  Each round
    makes one inner call per chunk of leave-one-out sub-tuples
    (``_partners``), one stacked geodesic step, one eigh for the new
    frames and one eigvalsh for the spreads.  Returns the (k, d, d)
    limits, the rounds the finished tuples completed, and the first
    failure.  The tuples are independent, so the result is what running
    them one after another gives, errors included: the tuples after a
    failed one are dropped, the ones before it go on, and the lowest
    failed index is reported; the limits below it are valid.
    """
    k, n = mats.shape[:2]
    limits = np.empty((k,) + mats.shape[2:])
    live = np.arange(k)  # the tuple index of each row still iterating
    stalls = np.zeros(k, dtype=int)
    previous, spread = np.full(k, math.inf), _spreads(mats, frames)
    finished_rounds, failure = 0, None
    for rounds in count():
        keep = []
        for row, index in enumerate(live):
            recorder = recorders[index]
            try:
                going = recorder.record(rounds, None, spread[row])
            except NonConvergenceError as exc:
                failure = (index, exc)
                break
            if going:
                # Roundoff floors the spread before very tight tolerances are
                # met; detect the stall instead of burning the round budget.
                stalls[row] = stalls[row] + 1 if spread[row] >= 0.99 * previous[row] else 0
                going = stalls[row] < 2
                if not going and not (accept_stagnation and spread[row] < _STAGNATION_SPREAD_BOUND):
                    failure = (index, NonConvergenceError(
                        f"{recorder.name} stagnated at spread {spread[row]:.3e} "
                        f"above tolerance {recorder.tol}",
                        trace=recorder.build(),
                    ))
                    break
            if going:
                keep.append(row)
            else:
                limits[index] = mats[row, 0]
                finished_rounds += rounds
        if not keep:
            return limits, finished_rounds, failure
        if len(keep) < len(live):
            live, mats, frames = live[keep], mats[keep], frames[keep]
            stalls, spread = stalls[keep], spread[keep]
        if n == 2:
            partners = mats[:, ::-1]
        else:
            level = recorders[0]
            partners, inner_failure = _partners(mats, frames, s_tuple[1:], level.tol, level.max_steps)
            if inner_failure is not None:
                cut = inner_failure[0] // n
                failure = (live[cut], inner_failure[1])
                if cut == 0:
                    return limits, finished_rounds, failure
                live, mats, frames = live[:cut], mats[:cut], frames[:cut]
                stalls, spread, partners = stalls[:cut], spread[:cut], partners[:cut]
        mats = frames.power_sandwich(partners, s_tuple[0])
        frames = _Frame(mats)
        previous, spread = spread, _spreads(mats, frames)


def _partners(mats: np.ndarray, frames: _Frame, s_tuple: tuple[float, ...],
              tol: float, max_rounds: int) -> tuple[np.ndarray, _Failure]:
    """The n leave-one-out means of each of k n-tuples, as a (k, n, d, d)
    stack, with the first failure by sub-tuple index (sub-tuple i n + j
    leaves out P_j of tuple i).

    The k n sub-tuples take their frames from the parents' and run in
    consecutive chunks of at most ``_SLICE_BYTES`` of matrices, which
    bounds the breadth-first state of the levels below: one chunk at
    d = 3, one sub-tuple at a time at d = 128.  Inner means run at a
    tighter tolerance so their error does not contaminate the outer
    spread sequence near its own tolerance.
    """
    k, n = mats.shape[:2]
    rows = np.arange(k).repeat(n)[:, None]
    cols = np.tile(_index_sets(n)[2], (k, 1))
    subs, sub_frames = mats[rows, cols], frames[rows, cols]
    inner_tol = max(1e-2 * tol, 1e-14)
    name = f"inner {n - 1}-matrix level of the recursive geometric mean"
    partners = np.empty((k * n,) + mats.shape[2:])
    start = 0
    for chunk in _slices(subs):
        stop = start + len(chunk)
        recorders = [_level_recorder(inner_tol, max_rounds, name) for _ in chunk]
        partners[start:stop], _, failure = _recursive_mean(
            chunk, sub_frames[start:stop], s_tuple, recorders, accept_stagnation=True)
        if failure is not None:
            return partners.reshape(mats.shape), (start + failure[0], failure[1])
        start = stop
    return partners.reshape(mats.shape), None


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
    mats = _stack(Ps)[None]
    n = mats.shape[1]
    if n < 2:
        raise DomainError("recursive geometric mean needs at least two matrices")
    if len(params.s_tuple) != n - 1:
        raise DomainError(
            f"parameter tuple has {len(params.s_tuple)} entries, need {n - 1}"
        )
    recorder = _level_recorder(tol, max_rounds, "recursive geometric mean")
    limits, _, failure = _recursive_mean(mats, _Frame(mats), params.s_tuple, [recorder])
    if failure is not None:
        raise failure[1]
    return SpdMatrix._frozen(limits[0]), recorder.build()
