"""Two-matrix means on the SPD cone.

The inductive arithmetic-harmonic iteration converges quadratically to the
Riemannian geometric mean, whose closed form doubles as the oracle for it.
It takes one matrix step on plain arrays and then runs on one spectrum:
after the step, both iterates are functions of the harmonic iterate
whitened by the Cholesky factor of the arithmetic one, so every later step
is a scalar recurrence with an exact gap.  One AHM costs two Cholesky
factorizations, one eigvalsh and one eigh, whatever its iteration count,
and its gap has no roundoff floor to stall on.  The step is kept: whitened
at step 0 by X itself, the recurrence would inherit X's conditioning.
Alongside: the log-Euclidean mean, the quasi-arithmetic power family Q_p,
and the fixed-point power mean M_p with its closed form and a Picard
solver cross-validating it.
"""

from __future__ import annotations

import math
from itertools import count
from typing import Sequence

import numpy as np

from .convergence import MATRIX_ORDER_FLOOR, ConvergenceTrace, TraceRecorder
from .errors import DomainError
from .scalar_means import POWER_MEAN_P_CUTOFF
from .spd_core import (
    SpdMatrix,
    WeightVector,
    _Frame,
    _assemble,
    _power_sandwich,
    _quasi_arithmetic,
    _rho,
    _stack,
    _symmetrize,
    geodesic,
    riemannian_distance,
    weighted_arithmetic,
)

AHM_DEFAULT_TOLERANCE = 1e-12
AHM_DEFAULT_MAX_ITERATIONS = 64

PICARD_DEFAULT_TOLERANCE = 1e-12
PICARD_DEFAULT_MAX_ITERATIONS = 200


def ahm_iteration(X: SpdMatrix, Y: SpdMatrix, tol: float = AHM_DEFAULT_TOLERANCE,
                  max_iter: int = AHM_DEFAULT_MAX_ITERATIONS) -> tuple[SpdMatrix, ConvergenceTrace]:
    """Matrix arithmetic-harmonic double sequence.

    A_{t+1} = (A_t + H_t)/2, H_{t+1} = 2 (A_t^{-1} + H_t^{-1})^{-1},
    started at (X, Y); stops when the Riemannian gap rho(A_t, H_t)
    reaches ``tol``.  The common limit is the geometric mean G(X, Y).

    Step 0 records rho(X, Y) in the Cholesky frame of X.  Step 1 is the
    one matrix step: A_1 = (X + Y)/2 and, in the Cholesky frame
    A_1 = F F^T, H_1 = X A_1^{-1} Y.  From there both iterates are
    functions of W = G H_1 G^T = V diag(mu) V^T (Kubo & Ando, Math. Ann.
    246, 1980): A_t = F V diag(a) V^T F^T and H_t = F V diag(h) V^T F^T,
    with (a, h) = (1, mu) at t = 1 and a' = (a + h)/2, h' = a h / a'.  So
    the rest runs on (a, h), each step recording the exact gap
    ||log(h / a)||, and the limit is F V diag((a + h)/2) V^T F^T.

    The matrix step is not skipped.  Whitened at step 0 by X itself, the
    recurrence inherits X's conditioning: against 50-digit references at
    d <= 8, up to 2e-2 relative error at log-spread 10 in X's Cholesky
    frame.  Nor is H_1 replaced by 2I - W_X in the frame of (X + Y)/2:
    that reaches 4.6e-11 at log-spread 8 and 1.4e-9 at 10, where the
    harmonic step keeps 8-9e-12 and 2e-10, as the matrix iteration did.
    """
    recorder = TraceRecorder(tol, max_iter, "matrix AHM", order_floor=MATRIX_ORDER_FLOOR)
    A, H = _stack([X, Y])
    if not recorder.record(0, None, _Frame.cholesky(A).distances(H)):
        return SpdMatrix._trusted(0.5 * A + 0.5 * H), recorder.build()
    frame = _Frame.cholesky(_symmetrize(0.5 * A + 0.5 * H))
    h, vecs = frame.spectra(_symmetrize(frame.inverse_sandwich(A, H)))
    a = np.ones_like(h)
    for t in count(1):
        if not recorder.record(t, None, _rho(h / a)):
            limit = _symmetrize(frame.lift(_assemble(vecs, 0.5 * a + 0.5 * h)))
            return SpdMatrix._trusted(limit), recorder.build()
        a_next = 0.5 * a + 0.5 * h
        a, h = a_next, a * h / a_next


def geometric_mean_closed_form(X: SpdMatrix, Y: SpdMatrix) -> SpdMatrix:
    """Riemannian geometric mean X^{1/2} (X^{-1/2} Y X^{-1/2})^{1/2} X^{1/2}.

    Equals the geodesic midpoint, solves the Riccati equation
    G X^{-1} G = Y, is inversion invariant, and has determinant
    sqrt(det X det Y).
    """
    return geodesic(X, Y, 0.5)


def log_euclidean_mean(Ps: Sequence[SpdMatrix], w: WeightVector) -> SpdMatrix:
    """Weighted log-Euclidean mean exp(sum_i w_i log P_i): the
    quasi-arithmetic mean with generator log, one eigh for all the logs.

    Agrees with the weighted geometric mean on commuting inputs but
    differs from G(X, Y) in general.
    """
    return _quasi_arithmetic(Ps, w, np.log, np.exp)


def q_power_mean(X: SpdMatrix, Y: SpdMatrix, p: float) -> SpdMatrix:
    """Quasi-arithmetic matrix power mean Q_p(X, Y) = ((X^p + Y^p)/2)^{1/p},
    on the same path as the weighted arithmetic, harmonic and
    log-Euclidean means with generator x^p.

    Q_1 is the arithmetic mean, Q_{-1} the harmonic mean, and the p -> 0
    limit is the log-Euclidean mean, whose generator log is used when |p|
    falls below ``POWER_MEAN_P_CUTOFF``.
    """
    if not np.isfinite(p):
        raise DomainError(f"power must be finite, got {p!r}")
    if abs(p) < POWER_MEAN_P_CUTOFF:
        f, f_inv = np.log, np.exp
    else:
        f, f_inv = (lambda lam: np.power(lam, p)), (lambda lam: np.power(lam, 1.0 / p))
    return _quasi_arithmetic([X, Y], WeightVector.uniform(2), f, f_inv)


def lim_palfia_power_mean(X: SpdMatrix, Y: SpdMatrix, p: float) -> SpdMatrix:
    """Matrix power mean M_p(X, Y), p in (0, 1].

    M_p is the unique SPD solution of M = (1/2) M #_p X + (1/2) M #_p Y,
    computed here by the closed form M_p = X #_{1/p} ((X + X #_p Y)/2);
    p = 1 returns the arithmetic mean, which the equation then reads
    directly.
    """
    if not 0.0 < p <= 1.0:
        raise DomainError(f"power mean parameter must lie in (0, 1], got {p!r}")
    if p == 1.0:
        return weighted_arithmetic([X, Y], WeightVector.uniform(2))
    inner = weighted_arithmetic([X, geodesic(X, Y, p)], WeightVector.uniform(2))
    return _power_sandwich(X, inner, 1.0 / p)


def _relative_frobenius(M: np.ndarray, other: np.ndarray) -> float:
    """||M - other||_F / ||M||_F.  Both norms are taken of the arrays
    scaled by the power of two nearest max |M|, so squaring entries near
    the float64 maximum does not overflow; the scaling is exact, so the
    ratio is unchanged wherever nothing overflowed before."""
    scale = math.ldexp(1.0, -math.frexp(float(np.max(np.abs(M))))[1])
    return float(np.linalg.norm((M - other) * scale) / np.linalg.norm(M * scale))


def power_mean_fixed_point_residual(M: SpdMatrix, X: SpdMatrix, Y: SpdMatrix, p: float) -> float:
    """Relative Frobenius residual of M - (M #_p X + M #_p Y)/2."""
    rhs = 0.5 * geodesic(M, X, p).array + 0.5 * geodesic(M, Y, p).array
    return _relative_frobenius(M.array, rhs)


def lim_palfia_power_mean_picard(
    X: SpdMatrix, Y: SpdMatrix, p: float,
    tol: float = PICARD_DEFAULT_TOLERANCE,
    max_iter: int = PICARD_DEFAULT_MAX_ITERATIONS,
) -> tuple[SpdMatrix, ConvergenceTrace]:
    """Undamped Picard solver for the power-mean fixed-point equation.

    Starts at the arithmetic mean and iterates
    M <- (M #_p X + M #_p Y)/2 until the relative Frobenius step falls
    below ``tol``.  Serves as an independent check of the closed form;
    the contraction slows as p -> 0, so small p may exhaust the cap.
    """
    if not 0.0 < p <= 1.0:
        raise DomainError(f"power mean parameter must lie in (0, 1], got {p!r}")
    recorder = TraceRecorder(tol, max_iter, f"Picard iteration for p={p}", unit="steps",
                             order_floor=MATRIX_ORDER_FLOOR)
    M = weighted_arithmetic([X, Y], WeightVector.uniform(2))
    for t in count(1):
        previous = M
        M = SpdMatrix._trusted(0.5 * geodesic(M, X, p).array + 0.5 * geodesic(M, Y, p).array)
        step = _relative_frobenius(M.array, previous.array)
        if not recorder.record(t, None, step):
            return M, recorder.build()


def power_mean_limit_study(X: SpdMatrix, Y: SpdMatrix,
                           p_grid: Sequence[float]) -> list[tuple[float, float]]:
    """Distances rho(M_p(X, Y), G(X, Y)) along a decreasing grid of p.

    The grid must be strictly decreasing within (0, 1]; as p -> 0+ the
    power mean approaches the geometric mean, so the distances shrink
    toward zero.
    """
    grid = [float(p) for p in p_grid]
    if not grid:
        raise DomainError("p_grid must be nonempty")
    if any(not 0.0 < p <= 1.0 for p in grid):
        raise DomainError("p_grid values must lie in (0, 1]")
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise DomainError("p_grid must be strictly decreasing")
    G = geometric_mean_closed_form(X, Y)
    return [(p, riemannian_distance(lim_palfia_power_mean(X, Y, p), G)) for p in grid]
