"""Shared helpers: seeded random SPD matrices, exact-radius perturbations
and a 50-digit geometric mean."""

from __future__ import annotations

from collections import Counter

import mpmath
import numpy as np
import pytest

from spdmeans import SpdMatrix, spd_core
from spdmeans.spd_core import _Frame, _spectral, _symmetrize


def random_spd(rng: np.random.Generator, d: int, spread: float = 1.0) -> SpdMatrix:
    """Random SPD matrix with log-eigenvalues uniform in [-spread, spread]."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    lam = np.exp(rng.uniform(-spread, spread, size=d))
    return SpdMatrix((q * lam) @ q.T)


def illcond_pair(seed: int, d: int) -> tuple[SpdMatrix, SpdMatrix, SpdMatrix]:
    """The benchmark's ill-conditioned pair X = a a^T, Y = a diag(e^delta) a^T
    and its geometric mean G = a diag(e^{delta/2}) a^T, exact by congruence:
    a = R1 diag(exp(linspace(-2, 2, d))) R2^T with random rotations, and
    delta a random permutation of linspace(-6, 6, d)."""
    rng = np.random.default_rng(seed)
    rotations = [np.linalg.qr(rng.normal(size=(d, d)))[0] for _ in range(2)]
    a = (rotations[0] * np.exp(np.linspace(-2.0, 2.0, d))) @ rotations[1].T
    delta = rng.permutation(np.linspace(-6.0, 6.0, d))
    return (SpdMatrix(a @ a.T), SpdMatrix((a * np.exp(delta)) @ a.T),
            SpdMatrix((a * np.exp(0.5 * delta)) @ a.T))


def geometric_mean_reference(x: SpdMatrix, y: SpdMatrix) -> np.ndarray:
    """X # Y = X^{1/2} (X^{-1/2} Y X^{-1/2})^{1/2} X^{1/2} of the float
    inputs at 50 digits, each symmetric root from mpmath's eigsy, rounded
    to float64 at the end."""
    with mpmath.workdps(50):
        def roots(M, *powers):
            lam, U = mpmath.eigsy((M + M.T) / 2)
            return [U * mpmath.diag([lam_i ** p for lam_i in lam]) * U.T for p in powers]

        root, inverse_root = roots(mpmath.matrix(x.array.tolist()), 0.5, -0.5)
        (middle,) = roots(inverse_root * mpmath.matrix(y.array.tolist()) * inverse_root, 0.5)
        return np.array((root * middle * root).tolist(), dtype=float)


def random_invertible(rng: np.random.Generator, d: int) -> np.ndarray:
    """Random well-conditioned invertible matrix."""
    while True:
        a = rng.normal(size=(d, d)) + 0.5 * np.eye(d)
        if np.linalg.cond(a) < 50:
            return a


def exp_at(P: SpdMatrix, s: np.ndarray) -> SpdMatrix:
    """F exp(S) F^T for a symmetric tangent S and the factor F of P's frame,
    as the library's exp map computes it: a point at distance ||S||_F from P."""
    return SpdMatrix._trusted(_Frame(P).lift(_spectral(s, np.exp)))


def perturb_spd(P: SpdMatrix, radius: float, rng: np.random.Generator) -> SpdMatrix:
    """Point at exact Riemannian distance ``radius`` from P, random direction."""
    d = P.dimension
    s = _symmetrize(rng.normal(size=(d, d)))
    s *= radius / np.linalg.norm(s)
    return exp_at(P, s)


def psd_decrement(P: SpdMatrix, rng: np.random.Generator, frac: float = 0.3) -> SpdMatrix:
    """A matrix P' with P' <= P in the Loewner order, still comfortably PD."""
    d = P.dimension
    v = rng.normal(size=d)
    v /= np.linalg.norm(v)
    eps = frac * float(np.min(np.linalg.eigvalsh(P.array))) * float(rng.uniform(0.1, 1.0))
    return SpdMatrix(P.array - eps * np.outer(v, v))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def count_decompositions(monkeypatch) -> Counter:
    """Counts, under the keys "eigh", "eigvalsh" and "generalized_eigh", of
    the matrices that ``spd_core._eigh`` and ``spd_core._eigvalsh``
    decompose and the pencils that ``spd_core._generalized_eigh`` solves
    from the fixture's set-up on: one per matrix, however they are
    stacked.  Clear the counter to start a new count."""
    counts = Counter()
    for name in ("eigh", "eigvalsh", "generalized_eigh"):
        kernel = getattr(spd_core, f"_{name}")

        def counted(a, *rest, kernel=kernel, name=name):
            counts[name] += int(np.prod(np.shape(a)[:-2]))
            return kernel(a, *rest)

        monkeypatch.setattr(spd_core, f"_{name}", counted)
    return counts


#: One line per acceptance criterion, filled by tests/test_acceptance.py.
ACCEPTANCE_RESULTS: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)
