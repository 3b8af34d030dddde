"""Reference computations the benchmark checks spdmeans against.

Every formula here is written independently of spdmeans: matrix square
roots are replaced by Cholesky whitening (Iannazzo, "The geometric mean
of two matrices from a computational viewpoint", NLAA 23, 2016), spectra
come from scipy's LAPACK drivers rather than numpy's, and scalar means
from closed forms or scipy.special.  Checks call these with tracing off,
so they never count as program work.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import linalg, special


class CheckFailed(Exception):
    """An output disagreed with its oracle beyond the stated tolerance."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def rel_fro(a: np.ndarray, b: np.ndarray) -> float:
    """||a - b||_F / ||b||_F."""
    return float(np.linalg.norm(np.asarray(a) - b) / np.linalg.norm(b))


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def _apply(a: np.ndarray, f) -> np.ndarray:
    lam, vecs = linalg.eigh(_sym(a), driver="evr")
    return _sym((vecs * f(lam)) @ vecs.T)


def _whiten(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(R, R^{-T} y R^{-1}) with x = R^T R."""
    r = linalg.cholesky(_sym(x))
    left = linalg.solve_triangular(r, y, trans="T")
    inner = linalg.solve_triangular(r, left.T, trans="T").T
    return r, _sym(inner)


def _log_at(g: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(R, log(R^{-T} p R^{-1})) with g = R^T R: the tangent vector at g
    pointing to p, in whitened coordinates."""
    r, inner = _whiten(g, p)
    return r, _apply(inner, np.log)


def geodesic(x: np.ndarray, y: np.ndarray, t: float) -> np.ndarray:
    """x #_t y = R^T (R^{-T} y R^{-1})^t R."""
    r, inner = _whiten(x, y)
    return _sym(r.T @ _apply(inner, lambda lam: lam ** t) @ r)


def distance(x: np.ndarray, y: np.ndarray) -> float:
    """Affine-invariant distance from the generalized eigenvalues of (y, x)."""
    lam = linalg.eigh(_sym(y), _sym(x), eigvals_only=True)
    return float(np.sqrt(np.sum(np.log(lam) ** 2)))


def logdet(x: np.ndarray) -> float:
    return float(2.0 * np.sum(np.log(np.diag(linalg.cholesky(_sym(x))))))


def karcher_residual(g: np.ndarray, mats) -> float:
    """||sum_i log(L^{-1} P_i L^{-T})||_F / n with g = L L^T.

    Cholesky whitening is an orthogonal similarity away from the symmetric
    g^{-1/2} P g^{-1/2}, so the norm equals the Karcher-equation residual.
    """
    return float(np.linalg.norm(sum(_log_at(g, p)[1] for p in mats)) / len(mats))


def karcher_mean(mats, tol: float = 1e-13, max_iter: int = 1000) -> np.ndarray:
    """Karcher mean by the Cholesky-whitened fixed point, from the
    arithmetic mean."""
    g = sum(mats) / len(mats)
    for _ in range(max_iter):
        logs = [_log_at(g, p) for p in mats]
        step = sum(v for _, v in logs) / len(mats)
        if np.linalg.norm(step) <= tol:
            return g
        r = logs[0][0]
        g = _sym(r.T @ _apply(step, np.exp) @ r)
    raise CheckFailed("oracle Karcher iteration did not converge")


def loewner_gap(lo: np.ndarray, hi: np.ndarray) -> float:
    """Smallest eigenvalue of hi - lo, relative to the larger operand."""
    scale = max(np.abs(lo).max(), np.abs(hi).max())
    return float(linalg.eigvalsh(_sym(hi - lo))[0] / scale)


def agm(x: float, y: float) -> float:
    """AGM(x, y) = (pi/4)(x + y) / K(k), k = (x - y)/(x + y), K of parameter k^2."""
    k = (x - y) / (x + y)
    return math.pi / 4.0 * (x + y) / float(special.ellipk(k * k))


def power_mean(p: float, x: float, y: float) -> float:
    return float(((x ** p + y ** p) / 2.0) ** (1.0 / p))


def log_euclidean(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return _sym(linalg.expm(0.5 * (linalg.logm(x).real + linalg.logm(y).real)))


def q_power(x: np.ndarray, y: np.ndarray, p: float) -> np.ndarray:
    mid = 0.5 * (linalg.fractional_matrix_power(x, p).real
                 + linalg.fractional_matrix_power(y, p).real)
    return _sym(linalg.fractional_matrix_power(_sym(mid), 1.0 / p).real)


def power_mean_residual(m: np.ndarray, x: np.ndarray, y: np.ndarray, p: float) -> float:
    """Relative residual of the fixed-point equation M = (M #_p X + M #_p Y)/2."""
    return rel_fro(0.5 * (geodesic(m, x, p) + geodesic(m, y, p)), m)


def truncated_normal_second_moment(sigmas: float) -> float:
    """E[z^2] for a standard normal clipped to [-sigmas, sigmas]."""
    phi = math.exp(-0.5 * sigmas * sigmas) / math.sqrt(2.0 * math.pi)
    inside = math.erf(sigmas / math.sqrt(2.0))
    return inside - 2.0 * sigmas * phi + sigmas * sigmas * (1.0 - inside)


def riemannian_median(mats, tol: float = 1e-12, max_iter: int = 10_000) -> np.ndarray:
    """Geometric median by the Riemannian Weiszfeld iteration (Fletcher,
    Venkatasubramanian & Joshi, NeuroImage 45, 2009), from the arithmetic
    mean; a different algorithm from spdmeans' cyclic proximal points."""
    g = sum(mats) / len(mats)
    for _ in range(max_iter):
        logs = [_log_at(g, p) for p in mats]
        r = logs[0][0]
        dists = [np.linalg.norm(v) for _, v in logs]
        if min(dists) < 1e-12:
            raise CheckFailed("oracle Weiszfeld iterate hit a data point")
        weights = np.array([1.0 / dist for dist in dists])
        step = sum(w * v for w, (_, v) in zip(weights, logs)) / weights.sum()
        g = _sym(r.T @ _apply(step, np.exp) @ r)
        if np.linalg.norm(step) <= tol:
            return g
    raise CheckFailed("oracle Weiszfeld iteration did not converge")
