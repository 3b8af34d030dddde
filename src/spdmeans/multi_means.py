"""Means, circumcenters, and medians of n SPD matrices by inductive schemes.

The cyclic geodesic-walk approximation of the Karcher mean, a Riemannian
Newton refiner driving the Karcher equation residual to tolerance (the
oracle for everything else here), the farthest-point circumcenter
iteration, the cyclic proximal-point median, and the recursive
two-parameter-family geometric means (ALM and BMP tuples built in).

The refiner takes an inexact Newton step, solved by conjugate gradients,
while the residual at least halves per iteration, and otherwise the
Bini-Iannazzo step.  Both come from the whitened spectra its log-sum
already computes: the Hessian is diagonal in their eigenbases and the
step size reads their condition numbers, so neither costs another
eigendecomposition.  The plain fixed-point (unit) step converges only
linearly, crawls on moderately spread sets and can diverge on spread ones
(log-eigenvalues over [-4, 4] at d = 8); the Newton step converges
superlinearly, in 5 to 9 iterations on the benchmark's sets at d <= 128.

The recursive means nest: each round replaces P_i by P_i #_s G(all
others), and the n leave-one-out inner means are independent.  One
recursion level therefore runs a (k, n, d, d) stack of k tuples in
lockstep through a stacked ``_Frame``, and recurses once per round on the
(k n, n - 1, d, d) stack of their leave-one-out sub-tuples, whose frames
are gathered from the parents'.  Each tuple keeps its own trace recorder,
stopping and stall rules, so the means and traces are those of the
depth-first recursion.  A tuple that fails at any level fails the whole
mean, so the first failure the lockstep order meets is raised at once.
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
    _assemble,
    _Frame,
    _rho,
    _slices,
    _spectral,
    _stack,
    _symmetrize,
)

KARCHER_REFINE_MAX_ITERATIONS = 500
#: karcher_refine takes the Newton step while each residual is at most this
#: fraction of the previous one, and the Bini-Iannazzo step otherwise.
KARCHER_NEWTON_STEP_CONTRACTION = 0.5
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

def _weighted_log_sum(frame: _Frame, stack: np.ndarray,
                      weights: np.ndarray) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Weighted sum of the whitened logs log(G P_i G^T) of the matrices of
    an (n, d, d) stack: one eigh per ``_slices`` slice, then the terms added
    in order, by one running sum per slice that starts from the previous
    slices' total.  That is the left-to-right order of a loop of
    ``acc = acc + w * log``, so the sum is bit-identical to it; ``np.sum``
    along the stack may add pairwise.  Also returns the whitened spectra
    (mu, V) of each slice, in ascending order, for the Hessian and the step
    size."""
    spectra = [frame.spectra(part) for part in _slices(stack)]
    acc = np.zeros((frame.dimension, frame.dimension))
    start = 0
    for mu, vecs in spectra:
        stop = start + len(mu)
        terms = weights[start:stop, None, None] * _assemble(vecs, np.log(mu))
        terms[0] += acc
        acc = np.cumsum(terms, axis=0, out=terms)[-1]
        start = stop
    if not np.all(np.isfinite(acc)):
        raise DomainError("function is not finite on the spectrum")
    return acc, spectra


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
    return float(np.linalg.norm(_weighted_log_sum(frame, stack, np.ones(n))[0]) / n)


def _conditions(spectra: list[tuple[np.ndarray, np.ndarray]]) -> list[np.ndarray]:
    """Per slice, the condition numbers lambda_max / lambda_min of the
    whitened matrices, read off their ascending spectra."""
    return [mu[..., -1] / mu[..., 0] for mu, _ in spectra]


def _bini_iannazzo_step(weights: np.ndarray, conditions: list[np.ndarray]) -> float:
    """theta = 2 / sum_i w_i (c_i + 1)/(c_i - 1) log c_i for the whitened
    condition numbers c_i; a term at c_i = 1 takes its limit 2, so the
    step is 1 when every whitened matrix is the identity."""
    c = np.concatenate(conditions)
    x = c - 1.0
    ratio = np.ones_like(x)  # log(c) / (c - 1), which tends to 1 as c -> 1
    np.divide(np.log1p(x), x, out=ratio, where=x > 0)
    return float(2.0 / np.dot(weights, (c + 1.0) * ratio))


def _hessian_kernels(weights: np.ndarray, spectra: list[tuple[np.ndarray, np.ndarray]]
                     ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per slice, the eigenvectors V_i of the whitened P_i and the weighted
    kernels w_i K_i, with K_i[j, k] = h(sigma_ij - sigma_ik) for the
    log-eigenvalues sigma_i, h(x) = (x/2) coth(x/2) and h(0) = 1."""
    kernels, start = [], 0
    for mu, vecs in spectra:
        sigma = np.log(mu)
        x = 0.5 * (sigma[..., :, None] - sigma[..., None, :])
        kernel = np.ones_like(x)
        np.divide(x, np.tanh(x), out=kernel, where=x != 0)
        stop = start + len(mu)
        kernels.append((vecs, weights[start:stop, None, None] * kernel))
        start = stop
    return kernels


def _hessian(kernels: list[tuple[np.ndarray, np.ndarray]], Z: np.ndarray) -> np.ndarray:
    """H[Z] = sum_i w_i V_i (K_i o (V_i^T Z V_i)) V_i^T, symmetrized: the
    Riemannian Hessian of (1/2) sum_i w_i rho^2(., P_i) at the whitened base,
    applied slice by slice with four matrix products per matrix."""
    acc = np.zeros_like(Z)
    for vecs, kernel in kernels:
        acc += (vecs @ (kernel * (vecs.mT @ Z @ vecs)) @ vecs.mT).sum(axis=0)
    return _symmetrize(acc)


def _newton_step(tangent: np.ndarray, kernels: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Z ~ H^{-1} T by conjugate gradients from Z = 0, stopped once
    ||T - H[Z]|| <= min(1/2, sqrt(||T||)) ||T|| (the Dembo-Eisenstat-Steihaug
    forcing term, for superlinear convergence) or after d(d+1)/2 products,
    the tangent dimension.  H >= I, so CG applies and ||Z|| <= ||T||."""
    norm = float(np.linalg.norm(tangent))
    target = min(0.5, math.sqrt(norm)) * norm
    d = len(tangent)
    step, r = np.zeros_like(tangent), tangent
    p, rr = r, norm * norm
    for _ in range(d * (d + 1) // 2):
        hp = _hessian(kernels, p)
        alpha = rr / float(np.vdot(p, hp))
        step = step + alpha * p
        r = r - alpha * hp
        rr, previous = float(np.vdot(r, r)), rr
        if math.sqrt(rr) <= target:
            break
        p = r + (rr / previous) * p
    return step


def karcher_refine(G0: SpdMatrix, Ps, w: WeightVector | None = None,
                   tol: float = 1e-10,
                   max_iter: int = KARCHER_REFINE_MAX_ITERATIONS) -> tuple[SpdMatrix, ConvergenceTrace]:
    """Riemannian Newton refinement of the weighted Karcher mean.

    Iterates G <- G^{1/2} exp(Z) G^{1/2} from ``G0`` until the weighted
    residual ||T||_F of the whitened tangent average
    T = sum_i w_i log(G^{-1/2} P_i G^{-1/2}) falls below ``tol``.  With
    weights (1-t, t) on two matrices this lands on the geodesic point
    X #_t Y.

    The first iteration takes the inexact Newton step Z ~ H^{-1} T, and so
    does every iteration whose residual is at most
    ``KARCHER_NEWTON_STEP_CONTRACTION`` (one half) times the previous one.
    H is the Riemannian Hessian of (1/2) sum_i w_i rho^2(G, P_i) in
    whitened coordinates, H[Z] = sum_i w_i V_i (K_i o (V_i^T Z V_i)) V_i^T
    with G^{-1/2} P_i G^{-1/2} = V_i diag(e^{sigma_i}) V_i^T and
    K_i[j, k] = h(sigma_ij - sigma_ik), h(x) = (x/2) coth(x/2) >= 1
    (Pennec, 2019).  Its eigenvectors and eigenvalues are the ones the
    log-sum already computes, so H costs no further eigendecomposition,
    and the step is solved by conjugate gradients
    (``_newton_step``); it is never longer than the unit step Z = T of the
    plain fixed-point iteration.  A slower iteration is safeguarded by the
    step of Bini & Iannazzo, LAA 438 (2013), Z = theta T with
    theta = 2 / sum_i w_i (c_i + 1)/(c_i - 1) log c_i, c_i the condition
    number of G^{-1/2} P_i G^{-1/2}; theta lies in (0, 1] and comes from
    the same eigenvalues.
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
        tangent, spectra = _weighted_log_sum(frame, stack, weights)
        residual = float(np.linalg.norm(tangent))
        if not recorder.record(t, None, residual):
            return G, recorder.build()
        if residual > KARCHER_NEWTON_STEP_CONTRACTION * previous:
            step = _bini_iannazzo_step(weights, _conditions(spectra)) * tangent
        else:
            step = _newton_step(tangent, _hessian_kernels(weights, spectra))
        previous = residual
        G = SpdMatrix._trusted(frame.lift(_spectral(step, np.exp)))


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
                    accept_stagnation: bool = False) -> tuple[np.ndarray, int]:
    """Limits of one recursion level for k tuples in lockstep.

    ``mats`` is a (k, n, d, d) stack of n-tuples with their ``frames`` and
    one recorder per tuple (the level's tolerance and cap).  Each round
    makes one inner call per chunk of leave-one-out sub-tuples
    (``_partners``), one stacked geodesic step, one eigh for the new
    frames and one eigvalsh for the spreads.  Returns the (k, d, d)
    limits and the rounds the tuples completed.  A tuple that exhausts
    its budget or stagnates, here or in a level below, fails the mean it
    belongs to: its NonConvergenceError propagates as soon as it is met.
    """
    k, n = mats.shape[:2]
    limits = np.empty((k,) + mats.shape[2:])
    live = np.arange(k)  # the tuple index of each row still iterating
    stalls = np.zeros(k, dtype=int)
    previous, spread = np.full(k, math.inf), _spreads(mats, frames)
    finished_rounds = 0
    for rounds in count():
        keep = []
        for row, index in enumerate(live):
            recorder = recorders[index]
            going = recorder.record(rounds, None, spread[row])
            if going:
                # Roundoff floors the spread before very tight tolerances are
                # met; detect the stall instead of burning the round budget.
                stalls[row] = stalls[row] + 1 if spread[row] >= 0.99 * previous[row] else 0
                going = stalls[row] < 2
                if not going and not (accept_stagnation and spread[row] < _STAGNATION_SPREAD_BOUND):
                    raise NonConvergenceError(
                        f"{recorder.name} stagnated at spread {spread[row]:.3e} "
                        f"above tolerance {recorder.tol}",
                        trace=recorder.build(),
                    )
            if going:
                keep.append(row)
            else:
                limits[index] = mats[row, 0]
                finished_rounds += rounds
        if not keep:
            return limits, finished_rounds
        if len(keep) < len(live):
            live, mats, frames = live[keep], mats[keep], frames[keep]
            stalls, spread = stalls[keep], spread[keep]
        if n == 2:
            partners = mats[:, ::-1]
        else:
            level = recorders[0]
            partners = _partners(mats, frames, s_tuple[1:], level.tol, level.max_steps)
        mats = frames.power_sandwich(partners, s_tuple[0])
        frames = _Frame(mats)
        previous, spread = spread, _spreads(mats, frames)


def _partners(mats: np.ndarray, frames: _Frame, s_tuple: tuple[float, ...],
              tol: float, max_rounds: int) -> np.ndarray:
    """The n leave-one-out means of each of k n-tuples, as a (k, n, d, d)
    stack (sub-tuple i n + j leaves out P_j of tuple i).

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
        partners[start:stop], _ = _recursive_mean(
            chunk, sub_frames[start:stop], s_tuple, recorders, accept_stagnation=True)
        start = stop
    return partners.reshape(mats.shape)


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
    limits, _ = _recursive_mean(mats, _Frame(mats), params.s_tuple, [recorder])
    return SpdMatrix._frozen(limits[0]), recorder.build()
