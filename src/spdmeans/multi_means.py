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
quadratically, in 4 iterations on the benchmark's converging sets.

The recursive means nest: each round replaces P_i by P_i #_s G(all
others), and the n leave-one-out inner means are independent.  The pair
level is the midpoint in closed form, and a cost model of the round-0
spread refuses, before any geodesic, a mean whose predicted work exceeds
``RECURSIVE_WORK_BOUND``: ALM's work grows 20-100 times per matrix.  One
recursion level therefore runs a (k, n, d, d) stack of k tuples in
lockstep through a stacked ``_Frame``, and recurses once per round on the
(k n, n - 1, d, d) stack of their leave-one-out sub-tuples, whose frames
and round-0 distances are gathered from the parents'.  A geodesic step
hands back the frames of its endpoints, from the eigh it makes anyway,
and an inner level those of its limits, which a level with s_1 = 1
adopts; so after round 0 no member is decomposed for its frame, and the
recursion reads the frames the depth-first one reads from the factors
its geodesic endpoints cache.  Each tuple stops at its tolerance or at
its first spread that does not fall, over arrays of spreads, and a trace
recorder is filled from the spread history only for the top level and the
first tuple that fails, so the means and traces are those of the
depth-first recursion.  A tuple that fails at any level fails the whole
mean, so the first failure the lockstep order meets is raised at once.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from itertools import count, islice
from typing import Callable, Iterator, Sequence

import numpy as np

from .convergence import MATRIX_ORDER_FLOOR, ConvergenceTrace, TraceRecorder
from .errors import DomainError, NonConvergenceError
from .spd_core import (
    SpdMatrix,
    WeightVector,
    _check_weight_count,
    _assemble,
    _Frame,
    _ordered_sum,
    _slice_length,
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

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RecursiveMeanParams:
    """(n-1)-tuple of geodesic parameters for the recursive geometric means,
    each in (0, 1] and the last, the pair level's, below 1."""

    s_tuple: tuple[float, ...]

    def __post_init__(self):
        if len(self.s_tuple) < 1:
            raise DomainError("parameter tuple must be nonempty")
        for s in self.s_tuple:
            if not 0.0 < s <= 1.0:
                raise DomainError(f"recursive mean parameters must lie in (0, 1], got {s!r}")
        if self.s_tuple[-1] == 1.0:
            raise DomainError("the last recursive mean parameter must lie in (0, 1): at 1 the "
                              "pair level swaps its two matrices forever")

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
    left to right by ``_ordered_sum``, each slice's sum starting from the
    previous slices' total; a frame of shape (m, 1) gives the (m, d, d)
    sums at its bases.  Also returns the whitened spectra (mu, V) of each
    slice, in ascending order, for the Hessian and the step size."""
    spectra = [frame.spectra(part) for part in _slices(stack)]
    acc = np.zeros(stack.shape[1:])
    start = 0
    for mu, vecs in spectra:
        stop = start + mu.shape[-2]
        acc = _ordered_sum(weights[start:stop, None, None] * _assemble(vecs, np.log(mu)), acc)
        start = stop
    if not np.all(np.isfinite(acc)):
        raise DomainError("function is not finite on the spectrum")
    return acc, spectra


def karcher_residual(G: SpdMatrix, Ps) -> float:
    """Karcher-equation residual || sum_i log(G^{-1/2} P_i G^{-1/2}) ||_F / n.

    Vanishes exactly when G is the Karcher (Riemannian least-squares)
    mean of the tuple.
    """
    return float(_residual(_Frame(G), _stack(Ps, G)))


def _residual(frame: _Frame, stack: np.ndarray) -> np.ndarray:
    """The Karcher residual of an (n, d, d) stack at the frame's base (a
    0-d array), or at each base of a frame of shape (m, 1).  Any factor F
    of a base gives the same norm: the whitened logs of two factors differ
    by a rotation.  ``vecdot`` adds the squares as ``np.linalg.norm`` of
    one matrix does, in one dot product."""
    acc = _weighted_log_sum(frame, stack, np.ones(len(stack)))[0]
    flat = acc.reshape(acc.shape[:-2] + (-1,))
    return np.sqrt(np.vecdot(flat, flat)) / len(stack)


def _checkpoint_values(checkpoints: Iterator[tuple[int, np.ndarray, np.ndarray]],
                       stack: np.ndarray, measure: Callable[[_Frame], Sequence[float]]
                       ) -> Iterator[tuple[int, float]]:
    """(step, value) at each checkpoint of a walk over an (n, d, d) stack.

    ``checkpoints`` runs the walk, yielding the step index and the walk
    frame's F and G at each checkpoint, and ``measure`` maps a frame of
    shape (m, 1) of such bases to their m values.  The bases wait in
    batches of as many as ``_SLICE_BYTES`` holds copies of the stack (at
    least one: one checkpoint at d = 128, hundreds at d = 3), so a batch
    costs a few stacked kernel calls where each checkpoint made its own,
    and the walk is unchanged.
    """
    size = _slice_length(stack.nbytes)
    factors, inverses = np.empty((2, size, 1) + stack.shape[1:])
    while batch := list(islice(checkpoints, size)):
        for row, (_, F, G) in enumerate(batch):
            factors[row, 0], inverses[row, 0] = F, G
        frame = _Frame._of_roots(factors[:len(batch)], inverses[:len(batch)])
        yield from zip((t for t, _, _ in batch), measure(frame))


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


def _newton_step(tangent: np.ndarray, kernels: list[tuple[np.ndarray, np.ndarray]],
                 floor: float) -> tuple[np.ndarray, int]:
    """Z ~ H^{-1} T by conjugate gradients from Z = 0, and the products
    spent: stops once ||T - H[Z]|| <= max(min(1e-3, ||T||) ||T||, floor), a
    forcing term for quadratic convergence (Eisenstat-Walker 1996), or after
    d(d+1)/2 products, the tangent dimension.  H >= I, so ||Z|| <= ||T||."""
    norm = float(np.linalg.norm(tangent))
    target = max(min(1e-3, norm) * norm, floor)
    d = len(tangent)
    step, r = np.zeros_like(tangent), tangent
    p, rr = r, norm * norm
    for products in range(1, d * (d + 1) // 2 + 1):
        hp = _hessian(kernels, p)
        alpha = rr / float(np.vdot(p, hp))
        step = step + alpha * p
        r = r - alpha * hp
        rr, previous = float(np.vdot(r, r)), rr
        if math.sqrt(rr) <= target:
            break
        p = r + (rr / previous) * p
    return step, products


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

    CG stops at max(min(1e-3, ||T||) ||T||, tol / 4): at d = 128 an
    iteration's eigendecompositions cost about four Hessian products, so a
    tight step that saves iterations pays, and the last step's linear error
    cannot force one more.  Each iteration logs its residual, step kind and
    Hessian products at DEBUG on the ``spdmeans`` logger.
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
            kind, products = "Bini-Iannazzo", 0
            step = _bini_iannazzo_step(weights, _conditions(spectra)) * tangent
        else:
            kind = "Newton"
            step, products = _newton_step(tangent, _hessian_kernels(weights, spectra), tol / 4)
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug("Karcher refinement iteration %d: residual %.3e, %s step, "
                       "%d Hessian products", t, residual, kind, products)
        previous = residual
        G = SpdMatrix._trusted(frame.lift(_spectral(step, np.exp)))


def holbrook_inductive_mean(Ps, steps: int = HOLBROOK_DEFAULT_STEPS) -> tuple[SpdMatrix, ConvergenceTrace]:
    """Cyclic inductive approximation of the n-matrix geometric mean.

    M_1 = P_1 and M_{t+1} = M_t #_{1/(t+1)} P_{cycle(t)}, visiting
    P_2, P_3, ..., P_n, P_1, ... after initialization.  Convergence to
    the Karcher mean is slow (the step sizes decay like 1/t), so the
    trace records the Karcher residual every n steps for monitoring
    rather than a stopping rule.  The residuals are measured in stacked
    batches behind the walk (``_checkpoint_values``), at the walk's own
    factor of each checkpoint's iterate.
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

    def checkpoints():
        for t in range(1, steps + 1):
            walk.step(stack[t % n], 1.0 / (t + 1))
            if t % n == 0:
                yield t, walk._F, walk._G

    for t, residual in _checkpoint_values(checkpoints(), stack,
                                          lambda frame: _residual(frame, stack)):
        recorder.record(t, None, residual)
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
    walk = _Frame(Ps[0])
    for t in range(1, steps + 1):
        distances = walk.fan_out(stack)
        far = int(np.argmax(distances))
        recorder.record(t - 1, None, float(distances[far]))
        walk.step(stack[far], 1.0 / (t + 1))
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
    skipped.  rho(X, P_i) and the step come from one generalized
    eigensolve of the pencil (P_i, X), so the guard measures rho at the
    iterate X, not at P_i.  The schedule must be finite and
    positive and satisfy sum lambda_k = inf and sum lambda_k^2 < inf
    (default lambda_k = 1/(k+1)).  The trace records the median objective
    (1/n) sum_i rho(X, P_i) after each sweep, measured in stacked batches
    behind the walk (``_checkpoint_values``).
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

    def checkpoints():
        def t_of(dist: float) -> float | None:  # this sweep's step at rho(X, P_i); None skips
            return None if dist < MEDIAN_DISTANCE_GUARD else min(1.0, lam / (n * dist))

        for k in range(sweeps):
            lam = float(schedule(k))
            if not (math.isfinite(lam) and lam > 0):
                raise DomainError(f"lambda schedule must be finite and positive, got {lam} at sweep {k}")
            for P in stack:
                walk.step(P, t_of)
            yield k + 1, walk._F, walk._G

    def objectives(frame: _Frame) -> list[float]:  # each (1/n) sum_i rho(X, P_i), added in order
        return [sum(row) / n for row in frame.fan_out(stack).tolist()]

    for k, objective in _checkpoint_values(checkpoints(), stack, objectives):
        recorder.record(k, None, objective)
    return walk.base(), recorder.build(iterations_used=sweeps)


# ---------------------------------------------------------------------------
# Recursive geometric means (ALM / BMP family)
# ---------------------------------------------------------------------------

#: A stagnated recursive-mean iteration is accepted as numerically converged
#: only below this spread; above it, stagnation raises NonConvergenceError.
_STAGNATION_SPREAD_BOUND = 1e-6

#: recursive_geometric_mean refuses, before any geodesic, a call whose
#: predicted work W (``_recursive_work``) exceeds this many geodesics.
RECURSIVE_WORK_BOUND = 1_000_000

#: The cost model's rounds for a level that its linear model finishes
#: sooner, as BMP's cubic levels do: measured per tuple on 3 x 3 sets of
#: BMP n = 5 to 7, 2-3 at the top level and 1.4-2.3 below it.
_CUBIC_LEVEL_ROUNDS = 2


def _level_recorder(tol: float, max_rounds: int, name: str) -> TraceRecorder:
    return TraceRecorder(tol, max_rounds, name, unit="rounds", order_floor=MATRIX_ORDER_FLOOR)


def _inner_tol(tol: float) -> float:
    """The tolerance of the level below one at ``tol``: tighter, so the
    inner means' error does not contaminate the outer spread sequence near
    its own tolerance."""
    return max(1e-2 * tol, 1e-14)


def _recursive_work(s_tuple: tuple[float, ...], spread: float, tol: float,
                    max_rounds: int) -> float:
    """The predicted geodesics of a recursive mean of round-0 spread
    ``spread``: W = prod_k k min(R_k, max_rounds) over its levels of
    k >= 3 matrices (a pair level is one geodesic), and 0 when the spread
    already meets ``tol``.

    Linearized in the tangent space, a level of k matrices with parameter s
    multiplies each member's deviation from the mean by
    c = 1 - s k / (k - 1) per round (-1/(k - 1) for ALM's s = 1, 0 for
    BMP's s = (k - 1)/k), so it takes R_k = ceil(log(spread / tol_k) /
    log(1/|c|)) rounds to its tolerance tol_k, and no fewer than
    ``_CUBIC_LEVEL_ROUNDS``.  Every level is charged the top level's
    spread, which overcounts ALM's inner levels: on 3 x 3 sets W is the
    number of midpoints at n = 3, and 1.7 and 3.4 times it at n = 4 and 5.
    """
    if spread <= tol:
        return 0.0
    work = 1.0
    for k, s in zip(range(len(s_tuple) + 1, 2, -1), s_tuple):
        contraction = abs(1.0 - s * k / (k - 1))
        rounds = math.ceil(math.log(spread / tol) / -math.log(contraction)) if contraction else 0
        work *= k * min(max(rounds, _CUBIC_LEVEL_ROUNDS), max_rounds)
        tol = _inner_tol(tol)
    return work


@functools.cache
def _index_sets(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The pairs a < b of an n-tuple as two index arrays; its leave-one-out
    rows (row m lists the indices without m); and, row m, the index among
    the tuple's pairs of each pair of that sub-tuple, in its own a < b
    order.  Cached, so read-only."""
    i, j = np.triu_indices(n, 1)
    rest = np.array([[m for m in range(n) if m != leave] for leave in range(n)])
    pair_index = np.zeros((n, n), dtype=int)
    pair_index[i, j] = np.arange(len(i))
    sub_i, sub_j = np.triu_indices(n - 1, 1)
    sets = (i, j, rest, pair_index[rest[:, sub_i], rest[:, sub_j]])
    for a in sets:
        a.flags.writeable = False
    return sets


def _replay(recorder: TraceRecorder, history: list[tuple[np.ndarray, np.ndarray]],
            index: int) -> TraceRecorder:
    """Record into a fresh level ``recorder`` the spreads of tuple ``index``,
    round by round, from a level's ``history`` of (live tuples, their
    spreads); the recorder raises at an exhausted round cap.  Tuple
    ``index`` must be live in every round of the history."""
    for rounds, (live, spread) in enumerate(history):
        recorder.record(rounds, None, spread[np.searchsorted(live, index)])
    return recorder


def _recursive_mean(mats: np.ndarray, frames: _Frame, distances: np.ndarray,
                    s_tuple: tuple[float, ...], recorder: TraceRecorder,
                    accept_stagnation: bool = False
                    ) -> tuple[np.ndarray, int, _Frame, list[tuple[np.ndarray, np.ndarray]]]:
    """Limits of one recursion level of n >= 3 matrices for k tuples in
    lockstep.

    ``mats`` is a (k, n, d, d) stack of n-tuples, ``frames`` the frames of
    all their members, or of all but the last where no level steps with
    s < 1, the only step that reads the last member's frame, and
    ``distances`` each tuple's pairwise distances rho(P_a, P_b), a < b in
    the order of ``_index_sets``, which give the round-0 spreads.
    ``recorder`` holds the level's tolerance, round cap and name.  A tuple
    stops at a spread at most the tolerance, or not below the previous
    round's: a stall, which raises NonConvergenceError unless an inner
    level (``accept_stagnation``) meets it below
    ``_STAGNATION_SPREAD_BOUND``.  A recorder is filled only for a trace
    (``_replay``): the top level's, or that of the first tuple to fail,
    which fails its mean at once, here or in a level below.

    Each round makes one inner call per chunk of leave-one-out sub-tuples
    (``_partners``), one stacked geodesic step, whose eigh also gives the
    new members' frames (``_Frame.power_sandwich``; decomposing the new
    members took one more eigh per round), and one eigvalsh for the
    distances, which the next round's sub-tuples take as theirs.  At
    s_1 = 1 the step lands on the partners and the level adopts the
    frames ``_partners`` hands back instead.  Returns the (k, d, d)
    limits, the rounds the tuples completed, the frames of the limits and
    the spread history.
    """
    k, n = mats.shape[:2]
    i, j, _, _ = _index_sets(n)
    limits, limit_F, limit_G = (np.empty((k,) + mats.shape[2:]) for _ in range(3))
    live = np.arange(k)  # the tuple index of each row still iterating
    previous = np.full(k, math.inf)
    history = []
    finished_rounds = 0
    for rounds in count():
        spread = distances.max(axis=-1)
        history.append((live, spread))
        going = spread > recorder.tol
        left = int(np.count_nonzero(going))
        if left:
            if recorder.exhausted(rounds):
                _replay(recorder, history, live[going.argmax()])  # raises NonConvergenceError
            stalled = going & (spread >= previous)  # roundoff floors the spread
            if stalled.any():
                failed = stalled & ~(accept_stagnation & (spread < _STAGNATION_SPREAD_BOUND))
                if failed.any():
                    row = failed.argmax()
                    raise NonConvergenceError(
                        f"{recorder.name} stagnated at spread {spread[row]:.3e} "
                        f"above tolerance {recorder.tol}",
                        trace=_replay(recorder, history, live[row]).build(),
                    )
                going &= ~stalled
                left = int(np.count_nonzero(going))
        if left < len(live):
            done = ~going
            rows, ended = live[done], frames[done, 0]
            limits[rows], limit_F[rows], limit_G[rows] = mats[done, 0], ended._F, ended._G
            finished_rounds += rounds * (len(live) - left)
            if not left:
                return limits, finished_rounds, _Frame._of_roots(limit_F, limit_G), history
            live, mats, frames, distances = live[going], mats[going], frames[going], distances[going]
        previous = spread[going]
        partners, partner_frames = _partners(mats, frames, distances, s_tuple[1:],
                                             recorder.tol, recorder.max_steps)
        if s_tuple[0] == 1.0:  # the step lands on the partners
            mats, frames = partners, partner_frames
        else:
            mats, frames = frames.power_sandwich(partners, s_tuple[0])
        distances = frames[:, i].distances(mats[:, j])


def _partners(mats: np.ndarray, frames: _Frame, distances: np.ndarray,
              s_tuple: tuple[float, ...], tol: float, max_rounds: int) -> tuple[np.ndarray, _Frame]:
    """The n leave-one-out means of each of k n-tuples, as a (k, n, d, d)
    stack (sub-tuple i n + j leaves out P_j of tuple i), and their frames,
    which a level with s_1 = 1 adopts.

    At n = 3 the sub-tuples are pairs, whose mean is the midpoint in closed
    form: one sandwich X #_{1/2} Y through the frame of X, which also
    gives the midpoint's frame, so no partner is decomposed.  Larger
    sub-tuples take their frames and round-0 distances from the parents'
    and run at ``_inner_tol`` in consecutive chunks of at most
    ``_SLICE_BYTES`` of matrices, which bounds the breadth-first state of
    the levels below: one chunk at d = 3, one sub-tuple at a time at
    d = 128.  Their limits' frames come back with them.
    """
    k, n = mats.shape[:2]
    _, _, rest, pairs = _index_sets(n)
    if n == 3:
        return frames[:, rest[:, 0]].power_sandwich(mats[:, rest[:, 1]], 0.5)
    subs = mats[:, rest].reshape((k * n, n - 1) + mats.shape[2:])
    # without the parents' last member's frame, each sub-tuple's last is missing
    sub_frames = frames[:, rest[:, :frames.shape[1] - 1]].reshape(k * n, -1)
    sub_distances = distances[:, pairs].reshape(k * n, -1)
    name = f"inner {n - 1}-matrix level of the recursive geometric mean"
    partners = np.empty((k * n,) + mats.shape[2:])
    partner_frames = []
    start = 0
    for chunk in _slices(subs):
        stop = start + len(chunk)
        partners[start:stop], _, chunk_frames, _ = _recursive_mean(
            chunk, sub_frames[start:stop], sub_distances[start:stop], s_tuple,
            _level_recorder(_inner_tol(tol), max_rounds, name), accept_stagnation=True)
        partner_frames.append(chunk_frames)
        start = stop
    return partners.reshape(mats.shape), _Frame.concat(partner_frames).reshape(k, n)


def recursive_geometric_mean(Ps, params: RecursiveMeanParams,
                             tol: float = 1e-12,
                             max_rounds: int = RECURSIVE_DEFAULT_MAX_ROUNDS) -> tuple[SpdMatrix, ConvergenceTrace]:
    """Recursive geometric matrix mean parameterized by an (n-1)-tuple.

    Each round replaces P_i by P_i #_{s_1} G_{s_2, ...}(all others),
    stopping when the maximum pairwise distance of the n sequences falls
    below ``tol``.  The BMP tuple converges cubically, the ALM tuple
    linearly; the trace records the spread per round for order estimation.
    A round whose spread does not fall below the previous one's is a stall,
    at the roundoff floor; a stall above ``tol`` raises NonConvergenceError
    with the trace so far.
    The pair level is taken in closed form: its two sequences X #_s Y and
    Y #_s X stay symmetric about the midpoint and close in on it for any s
    in (0, 1), so a mean of two matrices is the one computed point
    X #_{1/2} Y, and its trace records the spread rho(X, Y) and then 0.

    Before any geodesic the call predicts its work from the round-0
    spread, W = prod_k k min(R_k, max_rounds) geodesics over the levels of
    k >= 3 matrices (``_recursive_work``), and logs W and the bound at
    DEBUG on the ``spdmeans`` logger.  W above ``RECURSIVE_WORK_BOUND``
    (10^6) raises DomainError naming both.  ALM's work grows 20-100 times
    per added matrix: on 3 x 3 sets of spread about 2 the bound keeps ALM
    n = 5 at tol 1e-8 (W about 7.6e5) and refuses it at 1e-10 (1.3e6), and
    refuses BMP from n = 8 (1.3e6).
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
    i, j, _, _ = _index_sets(n)
    frames = _Frame(mats[:, :-1])
    distances = frames[:, i].distances(mats[:, j])
    spread = float(distances.max())
    work = _recursive_work(params.s_tuple, spread, tol, max_rounds)
    _log.debug("recursive geometric mean of %d matrices: spread %.3e, predicted work "
               "W = %.0f geodesics, bound %d", n, spread, work, RECURSIVE_WORK_BOUND)
    if work > RECURSIVE_WORK_BOUND:
        raise DomainError(
            f"recursive geometric mean of {n} matrices at tol {tol} would take about "
            f"W = {work:,.0f} geodesics, above the bound {RECURSIVE_WORK_BOUND:,}")
    if n == 2:
        if not recorder.record(0, None, spread):
            return SpdMatrix._frozen(mats[0, 0]), recorder.build()
        recorder.record(1, None, 0.0)
        return SpdMatrix._frozen(frames[0, 0].power_sandwich(mats[0, 1], 0.5)[0]), recorder.build()
    if spread > tol and any(s < 1.0 for s in params.s_tuple[:-1]):
        # a step with s < 1 reads the last member's frame, at this level or
        # below; after round 0 every member's frame comes with it
        frames = _Frame.concat([frames, _Frame(mats[:, -1:])], axis=1)
    limits, _, _, history = _recursive_mean(mats, frames, distances, params.s_tuple, recorder)
    return SpdMatrix._frozen(limits[0]), _replay(recorder, history, 0).build()
