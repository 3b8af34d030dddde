"""Validated SPD matrices, the spectral kernel layer, and the trace-metric geometry.

This is the only module that computes an eigendecomposition or inverts a
matrix.  Its private kernels take one ``(d, d)`` array or an
``(n, d, d)`` stack, written once with ``[..., None, :]`` broadcasting
and ``.mT``, so a stack costs one ``eigh``/``eigvalsh`` call for all of
its matrices and a single pair goes through the same code: ``_assemble``
(U f(lambda) U^T) and ``_spectral`` (the same from a cached or fresh
decomposition).  The one eigendecomposition entry, ``_eigh``, branches
only on rank: a single ``(d, d)`` matrix goes straight to LAPACK
``dsyevd``, the routine numpy's ``eigh`` runs, without numpy's per-call
overhead, and a stack goes to numpy's batched ``eigh``.  Every eigensolver
failure surfaces as NumericError.  Everything relative to
a base X goes through one ``_Frame``: X = F F^T with G = F^{-1}, built
once per base, whitening P to G P G^T for the distance rho(X, P) and the
geodesic X #_t P = F (G P G^T)^t F^T, and lifting a tangent S to
F exp(S) F^T for the exp map.  F is the symmetric root X^{1/2}, or the
Cholesky factor of X when no eigendecomposition of X is needed: the
matrix AHM builds that frame once per iteration and reads its harmonic
step A X^{-1} B off the same G.  A walk of geodesic steps moves its frame
with one LAPACK ``dsyevd`` and one ``dgesv`` per step.  A frame of a
stack of bases, from one eigh, pairs each base with its own target: the
recursive means step and measure all their tuples at once through it.
An entry point taking n matrices validates them once into one
``(n, d, d)`` array (``_stack``); a fan-out from one base over it calls
the eigensolver once per slice of at most ``_SLICE_BYTES``: once for up
to 1,820 matrices at d = 3.  On them, behind the validated
:class:`SpdMatrix` at the boundary, sit spectral matrix functions, the
affine-invariant Riemannian distance, the weighted-geometric-mean
geodesic, weighted arithmetic/harmonic means, the Loewner order, and the
S-divergence.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.linalg.lapack import dgesv, dsyevd, dtrtri

from .errors import DefinitenessError, DomainError, NumericError, ShapeError

#: Default positive-definiteness threshold, relative to the spectral radius.
DEFAULT_PD_TOLERANCE = 1e-12


def _symmetrize(a: np.ndarray) -> np.ndarray:
    """(A + A^T)/2 of a matrix or of each matrix of a stack, with one temporary."""
    out = a + a.mT
    out *= 0.5
    return out


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenpairs of one symmetric (d, d) array, from LAPACK dsyevd
    (the routine numpy's eigh runs, without its call overhead), or of each
    matrix of an (n, d, d) stack, from numpy's batched eigh.  Eigenvectors
    come back C-contiguous on both paths, so products with them round the
    same way for a matrix alone and in a stack.  A failed solve raises
    NumericError."""
    if a.ndim == 2:
        lam, vecs, info = dsyevd(a, compute_v=1, lower=1)
        if info != 0:
            raise NumericError(f"eigendecomposition failed (LAPACK info {info})")
        return lam, np.ascontiguousarray(vecs)
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix or of each matrix of a
    stack; a failed solve raises NumericError."""
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigenvalue solve failed: {exc}") from exc


def _descending_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_eigh`` with the eigenpairs reversed to descending order and copied,
    so the eigenvectors are C-contiguous like any stored array and products
    with them round the same way."""
    lam, vecs = _eigh(a)
    return lam[..., ::-1].copy(), vecs[..., ::-1].copy()


class SpdMatrix:
    """Immutable symmetric positive-definite matrix with a spectral cache.

    The constructor symmetrizes its input ((M + M^T)/2), validates
    positive definiteness (smallest eigenvalue must exceed
    ``DEFAULT_PD_TOLERANCE`` times the largest), and freezes the storage.  The
    eigendecomposition is computed lazily on first use and reused by all
    spectral operations; eigenvalues are kept in descending order.
    """

    __slots__ = ("_array", "_eig")

    def __init__(self, values):
        arr = np.array(values, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ShapeError(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ShapeError("matrix must have dimension >= 1")
        if not np.all(np.isfinite(arr)):
            raise DefinitenessError("matrix has non-finite entries")
        arr = _symmetrize(arr)
        eigenvalues = _eigvalsh(arr)
        lo, hi = float(eigenvalues[0]), float(eigenvalues[-1])
        if hi <= 0.0 or lo <= DEFAULT_PD_TOLERANCE * hi:
            raise DefinitenessError(
                f"matrix is not positive definite: min eigenvalue {lo:.6g}, "
                f"max eigenvalue {hi:.6g}",
                min_eigenvalue=lo,
            )
        arr.flags.writeable = False
        self._array = arr
        self._eig = None

    @classmethod
    def _trusted(cls, arr: np.ndarray) -> "SpdMatrix":
        """Wrap a matrix known SPD by construction (congruence, exp, sums
        of SPD terms), skipping the eigenvalue check.  Symmetrizes and
        freezes; internal use only."""
        return cls._frozen(_symmetrize(np.asarray(arr, dtype=float)))

    @classmethod
    def _frozen(cls, sym: np.ndarray) -> "SpdMatrix":
        out = object.__new__(cls)
        sym.flags.writeable = False
        out._array = sym
        out._eig = None
        return out

    @property
    def array(self) -> np.ndarray:
        """Read-only dense storage."""
        return self._array

    @property
    def dimension(self) -> int:
        return self._array.shape[0]

    def eigen(self) -> tuple[np.ndarray, np.ndarray]:
        """Spectral cache: (eigenvalues descending, orthonormal eigenvectors).

        Computed once; redundant concurrent fills produce identical results,
        so no locking is needed.
        """
        if self._eig is None:
            self._eig = _descending_eigh(self._array)
        return self._eig

    def __repr__(self) -> str:
        return f"SpdMatrix(dimension={self.dimension})"

    def __array__(self, dtype=None, copy=None):
        if copy:
            return np.array(self._array, dtype=dtype, copy=True)
        return np.asarray(self._array, dtype=dtype)


class WeightVector:
    """Normalized nonnegative weights for weighted means and barycenters."""

    __slots__ = ("_values",)

    def __init__(self, weights):
        vals = np.asarray(weights, dtype=float)
        if vals.ndim != 1 or vals.size < 1:
            raise DomainError("weights must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(vals)):
            raise DomainError("weights must be finite")
        if np.any(vals < 0):
            raise DomainError("weights must be nonnegative")
        if abs(vals.sum() - 1.0) > 1e-12:
            raise DomainError(f"weights must sum to 1, got {vals.sum()!r}")
        vals = vals.copy()
        vals.flags.writeable = False
        self._values = vals

    @classmethod
    def uniform(cls, n: int) -> "WeightVector":
        if n < 1:
            raise DomainError("need at least one weight")
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def pair(cls, t: float) -> "WeightVector":
        """The (1-t, t) weight pair of a geodesic parameter."""
        return cls([1.0 - t, t])

    @property
    def values(self) -> np.ndarray:
        return self._values

    def __len__(self) -> int:
        return self._values.size

    def __iter__(self):
        return iter(self._values)

    def __getitem__(self, i):
        return self._values[i]


def _check_same_dimension(*mats: SpdMatrix) -> int:
    d = mats[0].dimension
    for m in mats[1:]:
        if m.dimension != d:
            raise ShapeError(f"dimension mismatch: {d} vs {m.dimension}")
    return d


#: Fan-out callers hand the kernels their stacks in slices of at most this
#: many bytes.  A whole stack of large matrices makes temporaries of
#: megabytes that the allocator gives back to the system after each call
#: and faults in again on the next (karcher_refine with ten 128 x 128
#: matrices: ~1,300 page faults per step and 26 % more time); a slice holds
#: one matrix at d = 128 and 1,820 at d = 3.
_SLICE_BYTES = 1 << 17


def _slices(stack: np.ndarray) -> list[np.ndarray]:
    """Consecutive views of an (n, d, d) stack, each of at most ``_SLICE_BYTES``."""
    step = max(1, _SLICE_BYTES // stack[0].nbytes)
    return [stack[i:i + step] for i in range(0, len(stack), step)]


def _stack(Ps: Iterable[SpdMatrix], *others: SpdMatrix) -> np.ndarray:
    """The matrices of ``Ps`` as one (n, d, d) array, once checked to be at
    least one and to share their dimension with each other and with
    ``others``: the one place where matrices become a stack, so numpy never
    sees ragged shapes."""
    Ps = list(Ps)
    if not Ps:
        raise DomainError("need at least one matrix")
    d = _check_same_dimension(*others, Ps[0])
    for i, P in enumerate(Ps):
        if P.dimension != d:
            raise ShapeError(f"matrix {i} has dimension {P.dimension}, expected {d}")
    return np.stack([P.array for P in Ps])


def _assemble(vecs: np.ndarray, values: np.ndarray, divide: bool = False) -> np.ndarray:
    """U diag(values) U^T, symmetrized; ``divide`` gives U diag(values)^{-1} U^T by
    dividing the columns, which rounds differently from multiplying by 1/values."""
    v = values[..., None, :]
    return _symmetrize((vecs / v if divide else vecs * v) @ vecs.mT)


def _spectral(source, f: Callable) -> np.ndarray:
    """U diag(f(lambda)) U^T for an SpdMatrix (cached decomposition) or a
    symmetric array (fresh eigh)."""
    lam, vecs = source.eigen() if isinstance(source, SpdMatrix) else _eigh(source)
    return _assemble(vecs, f(lam))


def _positive(lam: np.ndarray) -> np.ndarray:
    """Pass ascending whitened eigenvalues through, or raise if roundoff made
    one nonpositive or overflow made one infinite or NaN.  One matrix's
    spectrum is checked at its two ends; a stack's by reductions, which
    propagate NaN."""
    lo, hi = (lam[0], lam[-1]) if lam.ndim == 1 else (lam.min(), lam.max())
    if not (lo > 0 and hi < math.inf):
        raise NumericError("whitened matrix lost positive definiteness or overflowed")
    return lam


def _rho(lam: np.ndarray) -> np.ndarray:
    """rho from the whitened eigenvalues of one pair (last axis) or of a stack."""
    return np.sqrt(np.sum(np.log(_positive(lam)) ** 2, axis=-1))


def matrix_function(P: SpdMatrix, f: Callable) -> np.ndarray:
    """Apply a scalar function to P through its symmetric eigendecomposition.

    Returns the symmetric matrix U diag(f(lambda_i)) U^T.  ``f`` should
    accept an ndarray of eigenvalues (numpy ufuncs do); plain scalar
    callables are applied elementwise as a fallback.  Raises DomainError
    if f is not finite on the spectrum.
    """
    lam, vecs = P.eigen()
    try:
        flam = np.asarray(f(lam), dtype=float)
        if flam.shape != lam.shape:
            raise ValueError
    except (TypeError, ValueError):
        flam = np.array([float(f(x)) for x in lam])
    if not np.all(np.isfinite(flam)):
        raise DomainError("function is not finite on the spectrum")
    return _assemble(vecs, flam)


def spd_inverse(P: SpdMatrix) -> SpdMatrix:
    return SpdMatrix._trusted(matrix_function(P, lambda x: 1.0 / x))


@functools.cache
def _identity(d: int) -> np.ndarray:
    """The read-only d x d identity, the right-hand side of ``_Frame``'s inverse."""
    eye = np.eye(d)
    eye.flags.writeable = False
    return eye


class _Frame:
    """A factor F of a base X = F F^T and G = F^{-1}: the whitening behind
    every base-relative operation.

    By congruence invariance rho(X, P) is read from the spectrum of the
    whitened G P G^T, and X #_t P = F (G P G^T)^t F^T for any such F.  A
    frame built from an SpdMatrix holds the symmetric roots F = X^{1/2}
    and G = X^{-1/2} of its cached decomposition.  F^T and G^T are stored:
    a symmetric root is its own transpose, and multiplying by the
    transposed view instead rounds differently (d = 32 with OpenBLAS).

    A frame built from an array holds the roots of every matrix of a
    ``(..., d, d)`` stack of bases, from one eigh in the descending order
    of ``SpdMatrix.eigen``, so each base's roots are the ones its
    SpdMatrix would give.  Its methods then pair the i-th base with the
    i-th matrix of a matching stack, and indexing it selects bases
    without decomposing them again.

    ``_Frame.cholesky`` builds the frame of one ``(d, d)`` array from its
    Cholesky factor instead, F = L and G = L^{-1} (LAPACK trtri): one
    factorization and no eigensolver, the same distances and geodesics
    up to roundoff, and ``inverse_sandwich`` reads A X^{-1} B off G.
    The matrix AHM builds one per iteration.

    A walk of geodesic steps (the inductive, Holbrook, circumcenter and
    median iterations) moves the frame: with (mu, V) the whitened
    spectrum of P, ``advance`` sets F <- (F V) diag(mu^{t/2}), one eigh
    per step where ``geodesic`` takes two, and the same mu gives rho(M, P).
    G is recomputed by inversion after each step; updating it
    multiplicatively drifts (over 10^4 inductive steps at d = 3,
    ||G F - I|| reached 1.1e-13 that way and stayed at 3e-16 with
    inversion).  A single matrix's step calls LAPACK directly: ``dsyevd``
    for the whitened spectrum and ``dgesv`` against a cached identity for
    G, the routines behind numpy's ``eigh`` and ``inv``; a stack of bases
    goes through numpy's batched ``eigh``.
    """

    __slots__ = ("_F", "_Ft", "_G", "_Gt", "_base")

    def __init__(self, base: SpdMatrix | np.ndarray):
        """Frame of an SpdMatrix (cached decomposition) or of each matrix of
        an array stack of SPD bases (fresh eigh)."""
        is_matrix = isinstance(base, SpdMatrix)
        lam, vecs = base.eigen() if is_matrix else _descending_eigh(base)
        root = np.sqrt(lam)
        self._F = self._Ft = _assemble(vecs, root)
        self._G = self._Gt = _assemble(vecs, root, divide=True)
        self._base = base if is_matrix else None

    @classmethod
    def cholesky(cls, base: np.ndarray) -> "_Frame":
        """Frame of one (d, d) SPD array from its Cholesky factor L: F = L,
        G = L^{-1}.  Raises NumericError if the array is not numerically
        positive definite or not finite."""
        try:
            L = np.linalg.cholesky(base)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"Cholesky factorization failed: {exc}") from exc
        if not np.all(np.isfinite(L)):
            raise NumericError("Cholesky factor is not finite")
        G, info = dtrtri(L, lower=1)
        if info != 0:
            raise NumericError(f"triangular inverse failed (LAPACK info {info})")
        out = object.__new__(cls)
        out._F, out._Ft, out._G, out._Gt = L, L.T, G, G.T
        out._base = None
        return out

    def __getitem__(self, index) -> "_Frame":
        """The frames of the bases ``index`` selects from a stack frame."""
        out = object.__new__(_Frame)
        out._F = out._Ft = self._F[index]
        out._G = out._Gt = self._G[index]
        out._base = None
        return out

    @property
    def dimension(self) -> int:
        return self._F.shape[-1]

    def whiten(self, Ps: np.ndarray) -> np.ndarray:
        """G P G^T for a (d, d) P or each matrix of a stack."""
        return _symmetrize(self._G @ Ps @ self._Gt)

    def lift(self, Ss: np.ndarray) -> np.ndarray:
        """F S F^T for a (d, d) S or each matrix of a stack; not yet
        symmetrized (wrap with ``SpdMatrix._trusted`` or ``_symmetrize``)."""
        return self._F @ Ss @ self._Ft

    def spectra(self, Ps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Whitened spectra (mu, V) of G P G^T for a (d, d) P or each
        matrix of a stack; ``_rho(mu)`` is the distance from the base."""
        mu, vecs = _eigh(self.whiten(Ps))
        return _positive(mu), vecs

    def power_sandwich(self, Ys: np.ndarray, t: float) -> np.ndarray:
        """F (G Y G^T)^t F^T, symmetrized, for a (d, d) Y or each matrix of
        a stack: X #_t Y, and Y itself at t = 1."""
        if t == 1.0:
            return Ys
        mu, vecs = self.spectra(Ys)
        return _symmetrize(self.lift(_assemble(vecs, np.power(mu, t))))

    def distances(self, Ps: np.ndarray) -> np.ndarray:
        """rho(X, P) for a (d, d) P (a 0-d result) or each matrix of a stack."""
        return _rho(_eigvalsh(self.whiten(Ps)))

    def inverse_sandwich(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """A X^{-1} B = (G A)^T (G B) for a symmetric (d, d) A and a (d, d) B;
        not symmetrized."""
        return (self._G @ A).T @ (self._G @ B)

    def fan_out(self, stack: np.ndarray) -> np.ndarray:
        """rho(X, P) for every matrix of an (n, d, d) stack, one eigvalsh per slice."""
        return np.concatenate([self.distances(part) for part in _slices(stack)])

    def advance(self, mu: np.ndarray, vecs: np.ndarray, t: float) -> None:
        """Move the base of a one-base frame to X #_t P, given the whitened
        spectrum of P from ``spectra``.  Raises NumericError if the moved
        factor is singular."""
        F = (self._F @ vecs) * np.power(mu, 0.5 * t)
        *_, G, info = dgesv(F, _identity(len(F)))
        if info != 0:
            raise NumericError(f"moved frame is singular (LAPACK info {info})")
        self._F, self._Ft, self._G, self._Gt = F, F.T, G, G.T
        self._base = None

    def step(self, P: np.ndarray, t: float) -> None:
        """Move the base to X #_t P for a (d, d) array P."""
        self.advance(*self.spectra(P), t)

    def base(self) -> SpdMatrix:
        """The base F F^T; the matrix the frame was built from before any step."""
        if self._base is None:
            self._base = SpdMatrix._trusted(self._F @ self._Ft)
        return self._base


def riemannian_distance(P1: SpdMatrix, P2: SpdMatrix) -> float:
    """Geodesic distance of the trace metric on the SPD cone.

    rho(P1, P2) = || log(P1^{-1/2} P2 P1^{-1/2}) ||_F, evaluated as the
    root-sum-square of the logs of the whitened eigenvalues.
    """
    _check_same_dimension(P1, P2)
    return float(_Frame(P1).distances(P2.array))


def _power_sandwich(X: SpdMatrix, Y: SpdMatrix, t: float) -> SpdMatrix:
    """X^{1/2} (X^{-1/2} Y X^{-1/2})^t X^{1/2} without range checks on t."""
    return SpdMatrix._frozen(_Frame(X).power_sandwich(Y.array, t))


def geodesic(X: SpdMatrix, Y: SpdMatrix, t: float) -> SpdMatrix:
    """Point at parameter t on the Riemannian geodesic from X to Y.

    This is the weighted matrix geometric mean with weights (1-t, t);
    t is arc length: rho(geodesic(X, Y, t), X) = t * rho(X, Y).
    Only the segment t in [0, 1] is supported.
    """
    _check_same_dimension(X, Y)
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"geodesic parameter must lie in [0, 1], got {t}")
    if t == 0.0:
        return X
    if t == 1.0:
        return Y
    return _power_sandwich(X, Y, t)


def _check_weight_count(n: int, w: WeightVector) -> None:
    if len(w) != n:
        raise ShapeError(f"{n} matrices but {len(w)} weights")


def _weighted_sum(Ps: Sequence[SpdMatrix], w: WeightVector, term: Callable) -> np.ndarray:
    """sum_i w_i term(P_i), once the counts and dimensions are checked to agree."""
    Ps = list(Ps)
    _check_weight_count(len(Ps), w)
    _check_same_dimension(*Ps)
    acc = np.zeros_like(Ps[0].array)
    for wi, P in zip(w, Ps):
        acc = acc + wi * term(P)
    return acc


def weighted_arithmetic(Ps: Sequence[SpdMatrix], w: WeightVector) -> SpdMatrix:
    """Weighted arithmetic matrix mean, sum of w_i P_i."""
    return SpdMatrix._trusted(_weighted_sum(Ps, w, lambda P: P.array))


def weighted_harmonic(Ps: Sequence[SpdMatrix], w: WeightVector) -> SpdMatrix:
    """Weighted harmonic matrix mean, the inverse of the weighted mean of inverses."""
    inverses = _weighted_sum(Ps, w, lambda P: matrix_function(P, lambda x: 1.0 / x))
    return spd_inverse(SpdMatrix._trusted(inverses))


def loewner_leq(P: SpdMatrix, Q: SpdMatrix, tolerance: float = DEFAULT_PD_TOLERANCE) -> bool:
    """Loewner order test: P <= Q iff Q - P is positive semi-definite.

    Semi-definiteness is granted a slack of ``tolerance`` times the
    largest entry magnitude of the operands, so P <= P holds despite
    roundoff; ``tolerance`` must be finite and nonnegative.
    """
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise DomainError(f"tolerance must be finite and nonnegative, got {tolerance!r}")
    _check_same_dimension(P, Q)
    diff = Q.array - P.array
    scale = max(np.abs(P.array).max(), np.abs(Q.array).max())
    smallest = float(_eigvalsh(_symmetrize(diff))[0])
    return smallest >= -tolerance * scale


def s_divergence(X: SpdMatrix, Y: SpdMatrix) -> float:
    """Symmetrized log-det (Stein) divergence.

    log det((X+Y)/2) - (log det X + log det Y)/2; nonnegative, symmetric,
    zero exactly on the diagonal X = Y.
    """
    _check_same_dimension(X, Y)
    sign, logdet_mid = np.linalg.slogdet(0.5 * (X.array + Y.array))
    if sign <= 0:
        raise NumericError("midpoint matrix lost positive definiteness")
    logdet_x = float(np.sum(np.log(X.eigen()[0])))
    logdet_y = float(np.sum(np.log(Y.eigen()[0])))
    return float(logdet_mid - 0.5 * (logdet_x + logdet_y))
