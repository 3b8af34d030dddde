"""Validated SPD matrices, the spectral kernel layer, and the trace-metric geometry.

This is the only module that computes an eigendecomposition or inverts a
matrix.  Its private kernels take one ``(d, d)`` array or an
``(n, d, d)`` stack, written once with ``[..., None, :]`` broadcasting
and ``.mT``, so a stack costs one ``eigh``/``eigvalsh`` call for all of
its matrices and a single pair goes through the same code: ``_assemble``
(U f(lambda) U^T) and ``_spectral`` (the same from a fresh
decomposition).  The standard eigendecomposition entry, ``_eigh``, sends
a single ``(d, d)`` matrix straight to LAPACK ``dsyevd``, the routine
numpy's ``eigh`` runs, without numpy's per-call overhead, and a stack to
numpy's batched ``eigh``; a walk's step is one ``dsygvd``
(``_generalized_eigh``).  Every eigensolver failure surfaces as
NumericError.  Everything relative to a base X goes through one
``_Frame`` (a factor F of X = F F^T, such as U diag(sqrt(lambda)), and
G = F^{-1}; see its docstring): the distance, the geodesic, the exp map,
the walks, and the recursive means, which step and measure all their
tuples at once through a frame of a stack of bases.
An entry point taking n matrices validates them once into one
``(n, d, d)`` array (``_stack``); a pair entry point that needs no stack
runs the same check, ``_check_dimensions``, the only one.  A fan-out
from one base over a stack calls the eigensolver once per slice of at most
``_SLICE_BYTES``: once for up to 1,820 matrices at d = 3.  The weighted
arithmetic, harmonic, log-Euclidean and power means are one path,
f^{-1}(sum_i w_i f(P_i)) (``_quasi_arithmetic``).  On them, behind the
validated :class:`SpdMatrix` at the boundary, sit spectral matrix
functions, the affine-invariant Riemannian distance, the weighted
geometric mean geodesic, the Loewner order, and the S-divergence.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.linalg.lapack import dsyevd, dsygvd, dtrtri

from .errors import DefinitenessError, DomainError, NumericError, ShapeError

#: Default positive-definiteness threshold, relative to the spectral radius.
DEFAULT_PD_TOLERANCE = 1e-12


def _symmetrize(a: np.ndarray) -> np.ndarray:
    """(A + A^T)/2 of a matrix or of each matrix of a stack, halved before
    the sum so that entries near the float64 maximum do not overflow."""
    half = 0.5 * a
    return half + half.mT


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


def _generalized_eigh(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenpairs of the pencil of a symmetric (d, d) ``a`` and an
    SPD ``b``, a V = b V diag(mu) with V^T b V = I, from LAPACK dsygvd at its
    defaults (itype 1, eigenvectors, lower triangles); NumericError on failure."""
    mu, vecs, info = dsygvd(a, b)
    if info != 0:
        raise NumericError(f"generalized eigendecomposition failed (LAPACK info {info})")
    return mu, vecs


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
    @functools.cache
    def uniform(cls, n: int) -> "WeightVector":
        """Equal weights 1/n, cached: the vector is immutable."""
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


#: Fan-out callers hand the kernels their stacks in slices of at most this
#: many bytes.  A whole stack of large matrices makes temporaries of
#: megabytes that the allocator gives back to the system after each call
#: and faults in again on the next (karcher_refine with ten 128 x 128
#: matrices: ~1,300 page faults per step and 26 % more time); a slice holds
#: one matrix at d = 128 and 1,820 at d = 3.
_SLICE_BYTES = 1 << 17


def _slice_length(item_bytes: int) -> int:
    """How many items of ``item_bytes`` one slice holds: at least one."""
    return max(1, _SLICE_BYTES // item_bytes)


def _slices(stack: np.ndarray) -> list[np.ndarray]:
    """Consecutive views of an (n, d, d) stack, each of at most ``_SLICE_BYTES``."""
    step = _slice_length(stack[0].nbytes)
    return [stack[i:i + step] for i in range(0, len(stack), step)]


def _check_dimensions(Ps: list[SpdMatrix], *others: SpdMatrix) -> None:
    """The one dimension check: ``Ps`` holds a matrix, and all of them and
    ``others`` (numbered after them) share one dimension."""
    if not Ps:
        raise DomainError("need at least one matrix")
    d = Ps[0].dimension
    for i, P in enumerate(Ps + list(others)):
        if P.dimension != d:
            raise ShapeError(f"matrix {i} has dimension {P.dimension}, expected {d}")


def _stack(Ps: Iterable[SpdMatrix], *others: SpdMatrix) -> np.ndarray:
    """The matrices of ``Ps``, checked by ``_check_dimensions``, as one
    (n, d, d) array: the one place where matrices become a stack."""
    Ps = list(Ps)
    _check_dimensions(Ps, *others)
    return np.stack([P.array for P in Ps])


def _ordered_sum(terms: np.ndarray, start: np.ndarray | float = 0.0) -> np.ndarray:
    """start + terms[0] + terms[1] + ... over the matrices of an (n, d, d)
    stack, or of each stack of an (m, n, d, d) array, added left to right in
    place (``terms`` is overwritten).  That is the order of a loop of
    ``acc = acc + term``, so the sum is bit-identical to it; ``np.sum`` along
    the stack may add pairwise."""
    terms[..., 0, :, :] += start
    return np.cumsum(terms, axis=-3, out=terms)[..., -1, :, :]


def _assemble(vecs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """U diag(values) U^T, symmetrized."""
    return _symmetrize((vecs * values[..., None, :]) @ vecs.mT)


def _spectral(a: np.ndarray, f: Callable) -> np.ndarray:
    """U diag(f(lambda)) U^T of a symmetric array or of each matrix of a
    stack, from a fresh eigh."""
    lam, vecs = _eigh(a)
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


class _Frame:
    """A factor F of a base X = F F^T and G = F^{-1}: the whitening behind
    every base-relative operation.

    By congruence invariance rho(X, P) is read from the spectrum of the
    whitened G P G^T, and X #_t P = F (G P G^T)^t F^T for any such F.  An
    eigen or walk frame keeps F = B V diag(s) and the pencil (V, s) it came
    from, and forms G = diag(1/s) V^T only when a whitening first reads it.

    A frame built from an SpdMatrix holds F = U diag(sqrt(lambda)) from its
    cached decomposition (B = I), so no symmetric root is assembled.  A
    frame built from an array holds the factors of every matrix of a
    ``(..., d, d)`` stack of bases, from one eigh in the descending order of
    ``SpdMatrix.eigen``, so each base's F and G are the ones its SpdMatrix
    would give.  Its methods then pair the i-th base with the i-th matrix of
    a matching stack; indexing it selects bases, and ``reshape`` and
    ``concat`` rearrange and join such stacks, without decomposing them
    again.

    ``_Frame.cholesky`` builds the frame of one ``(d, d)`` array from its
    Cholesky factor instead, F = L and G = L^{-1} (LAPACK trtri): one
    factorization and no eigensolver, the same distances and geodesics
    up to roundoff, and ``inverse_sandwich`` reads A X^{-1} B off G.
    The matrix AHM builds two per call, of X for its step-0 gap and of
    (X + Y)/2 for its one matrix step.

    A walk of geodesic steps (the inductive, Holbrook, circumcenter and
    median iterations) moves a one-base frame with ``step``: the pencil
    solve P V = X V diag(mu), V^T X V = I gives the whitened spectrum mu
    of P, so rho(X, P) = ``_rho(mu)``, and sets F <- (X V) diag(mu^{t/2})
    (B = X, s = mu^{t/2}) and X <- F F^T for the next solve.
    """

    __slots__ = ("_F", "_M", "_inverse", "_pencil", "_base")

    def __init__(self, base: SpdMatrix | np.ndarray):
        """Frame of an SpdMatrix (cached decomposition) or of each matrix of
        an array stack of SPD bases (fresh eigh)."""
        is_matrix = isinstance(base, SpdMatrix)
        lam, vecs = base.eigen() if is_matrix else _descending_eigh(base)
        root = np.sqrt(lam)[..., None, :]
        self._F, self._inverse, self._pencil = vecs * root, None, (vecs, root)
        self._M, self._base = (base.array, base) if is_matrix else (base, None)

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
        return cls._of_roots(L, G)

    @classmethod
    def _of_roots(cls, F: np.ndarray, G: np.ndarray) -> "_Frame":
        out = object.__new__(cls)
        out._F, out._inverse = F, G
        out._M = out._base = None
        return out

    @property
    def _G(self) -> np.ndarray:
        """G = F^{-1}; an eigen or walk frame forms diag(1/s) V^T from its
        pencil on first use."""
        if self._inverse is None:
            vecs, scale = self._pencil
            self._inverse = (vecs / scale).mT
        return self._inverse

    def __getitem__(self, index) -> "_Frame":
        """The frames of the bases ``index`` selects from a stack frame."""
        return _Frame._of_roots(self._F[index], self._G[index])

    def reshape(self, *shape: int) -> "_Frame":
        """The stack frame with its bases arranged in ``shape``."""
        return _Frame._of_roots(self._F.reshape(shape + self._F.shape[-2:]),
                                self._G.reshape(shape + self._G.shape[-2:]))

    @classmethod
    def concat(cls, frames: Sequence["_Frame"], axis: int = 0) -> "_Frame":
        """One stack frame of the bases of several, joined along ``axis``:
        the stacks of frames a level hands back and completes."""
        return cls._of_roots(np.concatenate([f._F for f in frames], axis=axis),
                             np.concatenate([f._G for f in frames], axis=axis))

    @property
    def shape(self) -> tuple[int, ...]:
        """The arrangement of the bases of a stack frame; () for one base."""
        return self._F.shape[:-2]

    @property
    def dimension(self) -> int:
        return self._F.shape[-1]

    def whiten(self, Ps: np.ndarray) -> np.ndarray:
        """G P G^T for a (d, d) P or each matrix of a stack."""
        G = self._G
        return _symmetrize(G @ Ps @ G.mT)

    def lift(self, Ss: np.ndarray) -> np.ndarray:
        """F S F^T for a (d, d) S or each matrix of a stack; not yet
        symmetrized (wrap with ``SpdMatrix._trusted`` or ``_symmetrize``)."""
        return self._F @ Ss @ self._F.mT

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
        G = self._G
        return (G @ A).T @ (G @ B)

    def fan_out(self, stack: np.ndarray) -> np.ndarray:
        """rho(X, P) for every matrix of an (n, d, d) stack, one eigvalsh per
        slice: an (n,) array, or (m, n) from a frame of shape (m, 1)."""
        return np.concatenate([self.distances(part) for part in _slices(stack)], axis=-1)

    def step(self, P: np.ndarray, t: float | Callable[[float], float | None]) -> None:
        """Move the base X of a one-base frame to X #_t P for a (d, d) array
        P.  ``t`` may instead be a function of rho(X, P), read off the same
        solve, giving the parameter or None to stay.  Raises NumericError if
        the solve fails or overflows."""
        mu, vecs = _generalized_eigh(P, self._M)
        if callable(t) and (t := t(float(_rho(mu)))) is None:
            return
        half = np.power(_positive(mu), 0.5 * t)
        F = (self._M @ vecs) * half
        self._F, self._M = F, F @ F.T
        self._inverse, self._pencil, self._base = None, (vecs, half), None

    def base(self) -> SpdMatrix:
        """The base of a one-base frame: the matrix it was built from, or
        the product F F^T its last step formed for the next solve."""
        if self._base is None:
            self._base = SpdMatrix._trusted(self._M)
        return self._base


def riemannian_distance(P1: SpdMatrix, P2: SpdMatrix) -> float:
    """Geodesic distance of the trace metric on the SPD cone.

    rho(P1, P2) = || log(P1^{-1/2} P2 P1^{-1/2}) ||_F, evaluated as the
    root-sum-square of the logs of the whitened eigenvalues.
    """
    _check_dimensions([P1, P2])
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
    _check_dimensions([X, Y])
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


def _quasi_arithmetic(Ps: Iterable[SpdMatrix], w: WeightVector, f: Callable | None = None,
                      f_inv: Callable | None = None) -> SpdMatrix:
    """The weighted quasi-arithmetic matrix mean f^{-1}(sum_i w_i f(P_i)),
    with f = f^{-1} = id when they are not given.

    ``Ps`` is validated once through ``_stack``.  f acts on the whole stack
    from one eigh, in the descending order of ``SpdMatrix.eigen``, so each
    f(P_i) is the one ``matrix_function`` gives; DomainError if f is not
    finite on a spectrum.  The weighted terms are added by ``_ordered_sum``
    and f^{-1} is applied through ``_spectral``."""
    stack = _stack(Ps)
    _check_weight_count(len(stack), w)
    if f is not None:
        lam, vecs = _descending_eigh(stack)
        flam = f(lam)
        if not np.all(np.isfinite(flam)):
            raise DomainError("function is not finite on the spectrum")
        stack = _assemble(vecs, flam)
    mean = _ordered_sum(w.values[:, None, None] * stack)
    return SpdMatrix._trusted(mean if f_inv is None else _spectral(mean, f_inv))


def weighted_arithmetic(Ps: Sequence[SpdMatrix], w: WeightVector) -> SpdMatrix:
    """Weighted arithmetic matrix mean, sum of w_i P_i."""
    return _quasi_arithmetic(Ps, w)


def weighted_harmonic(Ps: Sequence[SpdMatrix], w: WeightVector) -> SpdMatrix:
    """Weighted harmonic matrix mean, the inverse of the weighted mean of inverses."""
    return _quasi_arithmetic(Ps, w, np.reciprocal, np.reciprocal)


def loewner_leq(P: SpdMatrix, Q: SpdMatrix, tolerance: float = DEFAULT_PD_TOLERANCE) -> bool:
    """Loewner order test: P <= Q iff Q - P is positive semi-definite.

    Semi-definiteness is granted a slack of ``tolerance`` times the
    largest entry magnitude of the operands, so P <= P holds despite
    roundoff; ``tolerance`` must be finite and nonnegative.
    """
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise DomainError(f"tolerance must be finite and nonnegative, got {tolerance!r}")
    pair = _stack([P, Q])
    scale = np.abs(pair).max()
    smallest = float(_eigvalsh(_symmetrize(pair[1] - pair[0]))[0])
    return smallest >= -tolerance * scale


def s_divergence(X: SpdMatrix, Y: SpdMatrix) -> float:
    """Symmetrized log-det (Stein) divergence.

    log det((X+Y)/2) - (log det X + log det Y)/2; nonnegative, symmetric,
    zero exactly on the diagonal X = Y.
    """
    _check_dimensions([X, Y])
    sign, logdet_mid = np.linalg.slogdet(0.5 * X.array + 0.5 * Y.array)
    if sign <= 0:
        raise NumericError("midpoint matrix lost positive definiteness")
    logdet_x = float(np.sum(np.log(X.eigen()[0])))
    logdet_y = float(np.sum(np.log(Y.eigen()[0])))
    return float(logdet_mid - 0.5 * (logdet_x + logdet_y))
