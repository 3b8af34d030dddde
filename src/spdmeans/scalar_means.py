"""Scalar and complex means: Pythagorean, power, quasi-arithmetic, inductive.

The inductive (double-sequence) means are limits of coupled iterations
a_{t+1} = M1(a_t, b_t), b_{t+1} = M2(a_t, b_t); the arithmetic-geometric
pair gives the AGM, validated here against a quadrature oracle for the
complete elliptic integral of the first kind, and the arithmetic-harmonic
pair collapses to the geometric mean.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .convergence import ConvergenceTrace, TraceRecorder
from .errors import DomainError, NumericError
from .spd_core import WeightVector

DEFAULT_TOLERANCE = 1e-13
DEFAULT_MAX_ITERATIONS = 64

#: Below this |p| the scalar power mean and the matrix Q_p family evaluate
#: their p -> 0 limit branch.
POWER_MEAN_P_CUTOFF = 1e-8

_TINY, _HUGE = sys.float_info.min, sys.float_info.max


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuasiArithmeticGenerator:
    """Strictly monotone differentiable generator f with inverse.

    ``domain`` is the open interval on which f may be evaluated; calls
    outside it raise DomainError rather than extrapolate.  ``label``
    identifies the generator (and records its monotone direction when
    decreasing).  ``power`` is set on the built-in power family f_p and
    lets experiments look up analytic reference values.
    """

    forward: Callable
    inverse: Callable
    derivative: Callable
    domain: tuple[float, float]
    label: str
    power: float | None = None

    def contains(self, x: float) -> bool:
        lo, hi = self.domain
        return lo < x < hi

    def require(self, x: float) -> float:
        if not self.contains(x):
            raise DomainError(
                f"{x!r} outside the domain {self.domain} of generator {self.label!r}"
            )
        return float(x)


def identity_generator() -> QuasiArithmeticGenerator:
    return QuasiArithmeticGenerator(
        forward=lambda u: u,
        inverse=lambda u: u,
        derivative=lambda u: np.ones_like(np.asarray(u, dtype=float)),
        domain=(-math.inf, math.inf),
        label="identity",
        power=1.0,
    )


def log_generator() -> QuasiArithmeticGenerator:
    return QuasiArithmeticGenerator(
        forward=np.log,
        inverse=np.exp,
        derivative=lambda u: 1.0 / u,
        domain=(0.0, math.inf),
        label="log",
        power=0.0,
    )


def reciprocal_generator() -> QuasiArithmeticGenerator:
    """f(u) = 1/u, the (decreasing) harmonic generator on (0, inf)."""
    return QuasiArithmeticGenerator(
        forward=lambda u: 1.0 / u,
        inverse=lambda u: 1.0 / u,
        derivative=lambda u: -1.0 / u**2,
        domain=(0.0, math.inf),
        label="reciprocal (decreasing)",
    )


def power_generator(p: float) -> QuasiArithmeticGenerator:
    """The power-family generator f_p on (0, inf).

    f_p(u) = (u^p - 1)/p with inverse (1 + u p)^{1/p} for p != 0; the
    p = 0 member is the logarithmic branch.  Mixing f_p into a mean
    yields the scalar power mean M_p.  A non-finite p raises DomainError.
    """
    if not math.isfinite(p):
        raise DomainError(f"power must be finite, got {p!r}")
    if p == 0.0:
        return replace(log_generator(), label="power[p=0] (log)")
    # the 1/p normalization keeps f_p strictly increasing for every p
    return QuasiArithmeticGenerator(
        forward=lambda u: (np.power(u, p) - 1.0) / p,
        inverse=lambda u: np.power(1.0 + u * p, 1.0 / p),
        derivative=lambda u: np.power(u, p - 1.0),
        domain=(0.0, math.inf),
        label=f"power[p={p}]",
        power=p,
    )


def check_generator(gen: QuasiArithmeticGenerator, samples: Sequence[float] | None = None,
                    roundtrip_tol: float = 1e-12, derivative_tol: float = 1e-6) -> None:
    """Verify the generator invariants on sampled points of its domain.

    Checks inverse(forward(u)) = u to relative ``roundtrip_tol``, strict
    monotonicity (either direction), and the derivative against a central
    finite difference to relative ``derivative_tol``.  Raises DomainError
    on the first violation.
    """
    if samples is None:
        lo, hi = gen.domain
        if lo == 0.0 and hi == math.inf:
            samples = np.geomspace(1e-2, 1e2, 17)
        elif math.isfinite(lo) and math.isfinite(hi):
            pad = 1e-3 * (hi - lo)
            samples = np.linspace(lo + pad, hi - pad, 17)
        else:
            samples = np.linspace(-10.0, 10.0, 17)
    samples = [s for s in samples if gen.contains(s)]
    if len(samples) < 3:
        raise DomainError(f"not enough in-domain samples to check generator {gen.label!r}")
    values = [float(gen.forward(s)) for s in samples]
    for s, v in zip(samples, values):
        back = float(gen.inverse(v))
        if abs(back - s) > roundtrip_tol * max(1.0, abs(s)):
            raise DomainError(f"generator {gen.label!r} fails inverse(forward(u)) = u at u={s}")
    diffs = np.diff(values)
    if not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise DomainError(f"generator {gen.label!r} is not strictly monotone on samples")
    for s in samples:
        h = 1e-6 * max(1.0, abs(s))
        if not (gen.contains(s - h) and gen.contains(s + h)):
            continue
        fd = (float(gen.forward(s + h)) - float(gen.forward(s - h))) / (2 * h)
        d = float(gen.derivative(s))
        if abs(fd - d) > derivative_tol * max(1.0, abs(d)):
            raise DomainError(f"generator {gen.label!r} derivative mismatch at u={s}")


# ---------------------------------------------------------------------------
# Closed-form scalar means
# ---------------------------------------------------------------------------

def _require_positive(*xs: float) -> None:
    for x in xs:
        if not x > 0:
            raise DomainError(f"inputs must be positive, got {x!r}")
        if not math.isfinite(x):
            raise DomainError(f"inputs must be finite, got {x!r}")


def _arithmetic(x: float, y: float) -> float:
    """(x + y)/2, halved before the sum so that inputs near the float64
    maximum do not overflow; halving is exact for normal floats."""
    return 0.5 * x + 0.5 * y


def _geometric(x: float, y: float) -> float:
    """sqrt(x) sqrt(y), which cannot overflow or underflow where sqrt(x y)
    would; x itself when y = x, since sqrt(x)^2 need not round back to x."""
    return float(x) if x == y else math.sqrt(x) * math.sqrt(y)


def _harmonic(x: float, y: float) -> float:
    return 2.0 / (1.0 / x + 1.0 / y)


_PYTHAGOREAN_MEANS = {"arithmetic": _arithmetic, "geometric": _geometric, "harmonic": _harmonic}


def pythagorean_mean(kind: str, x: float, y: float) -> float:
    """Arithmetic, geometric, or harmonic mean of two positive reals.

    The geometric and harmonic forms avoid forming the product x y, which
    would overflow or underflow for magnitudes past ~1e154.
    """
    _require_positive(x, y)
    if kind not in _PYTHAGOREAN_MEANS:
        raise DomainError(f"unknown Pythagorean mean kind {kind!r}")
    return _PYTHAGOREAN_MEANS[kind](x, y)


def power_mean(p: float, x: float, y: float) -> float:
    """Scalar power mean M_p(x, y) = ((x^p + y^p)/2)^(1/p).

    The geometric limit is used for |p| below ``POWER_MEAN_P_CUTOFF``.
    Otherwise, with m the input whose p-th power is larger and
    r = (the other input)/m, M_p = m ((1 + r^p)/2)^(1/p) is evaluated as
    m exp(log1p(expm1(p log r)/2)/p): r^p <= 1 cannot overflow, the
    expm1/log1p pair keeps its digits as p -> 0, and x = y returns x.
    """
    if not math.isfinite(p):
        raise DomainError(f"power must be finite, got {p!r}")
    _require_positive(x, y)
    if abs(p) < POWER_MEAN_P_CUTOFF:
        return _geometric(x, y)
    m, other = (max(x, y), min(x, y)) if p > 0 else (min(x, y), max(x, y))
    r = other / m
    # a ratio past the float range falls back to a difference of logs
    log_r = math.log(r) if _TINY <= r <= _HUGE else math.log(other) - math.log(m)
    return m * math.exp(math.log1p(0.5 * math.expm1(p * log_r)) / p)


def quasi_arithmetic_mean(gen: QuasiArithmeticGenerator, points: Sequence[float],
                          weights: WeightVector) -> float:
    """Weighted quasi-arithmetic mean f^{-1}(sum_i w_i f(x_i))."""
    if len(points) != len(weights):
        raise DomainError(f"{len(points)} points but {len(weights)} weights")
    acc = 0.0
    for w, x in zip(weights, points):
        acc += w * float(gen.forward(gen.require(x)))
    return float(gen.inverse(acc))


# ---------------------------------------------------------------------------
# Double sequences
# ---------------------------------------------------------------------------

_BETWEENNESS_GRID = (0.25, 0.5, 1.0, 1.75, 3.0)


def _check_betweenness(name: str, mean: Callable[[float, float], float]) -> None:
    """Raise DomainError unless min <= M(x, y) <= max on the sample grid."""
    slack = 1e-12
    for x in _BETWEENNESS_GRID:
        for y in _BETWEENNESS_GRID:
            m = mean(x, y)
            if not (min(x, y) - slack <= m <= max(x, y) + slack):
                raise DomainError(f"{name} violates in-betweenness at ({x}, {y}): {m}")


@dataclass(frozen=True)
class DoubleSequenceSpec:
    """A pair of binary scalar means driving a coupled double sequence.

    Means from outside this module are checked for in-betweenness
    (min <= M(x, y) <= max) on a fixed sample grid at construction; the
    relative-gap ``tolerance`` and the iteration cap govern the run, and
    its ``TraceRecorder`` checks them before the first step.
    """

    mean_one: Callable[[float, float], float]
    mean_two: Callable[[float, float], float]
    tolerance: float = DEFAULT_TOLERANCE
    max_iterations: int = DEFAULT_MAX_ITERATIONS

    def __post_init__(self):
        for name, mean in (("mean_one", self.mean_one), ("mean_two", self.mean_two)):
            if mean not in _PYTHAGOREAN_MEANS.values():
                _check_betweenness(name, mean)


def double_sequence(spec: DoubleSequenceSpec, x: float, y: float) -> tuple[float, ConvergenceTrace]:
    """Common limit of a_{t+1} = M1(a_t, b_t), b_{t+1} = M2(a_t, b_t).

    Stops when the relative gap |a - b| / max(|a|, |b|) drops to the
    spec tolerance; the reported limit is the geometric midpoint
    sqrt(a b) of the final pair.  In general that sits within the final
    gap of the true limit (quadratically closer for smooth mean pairs);
    for the arithmetic-harmonic pair, which conserves the product a b,
    it is the limit sqrt(xy) exactly.  Raises NonConvergenceError (with
    the partial trace attached) if the cap is exhausted.
    """
    _require_positive(x, y)
    a, b = float(x), float(y)
    recorder = TraceRecorder(spec.tolerance, spec.max_iterations, "double sequence")
    t = 0
    while recorder.record(t, a, abs(a - b) / max(abs(a), abs(b))):
        a, b = spec.mean_one(a, b), spec.mean_two(a, b)
        t += 1
    return _geometric(a, b), recorder.build()


def agm(x: float, y: float, tolerance: float = DEFAULT_TOLERANCE,
        max_iterations: int = DEFAULT_MAX_ITERATIONS) -> tuple[float, ConvergenceTrace]:
    """Arithmetic-geometric mean, the limit of the coupled (A, G) sequence."""
    spec = DoubleSequenceSpec(
        mean_one=_arithmetic,
        mean_two=_geometric,
        tolerance=tolerance,
        max_iterations=max_iterations,
    )
    return double_sequence(spec, x, y)


def ahm(x: float, y: float, tolerance: float = DEFAULT_TOLERANCE,
        max_iterations: int = DEFAULT_MAX_ITERATIONS) -> tuple[float, ConvergenceTrace]:
    """Arithmetic-harmonic mean; its limit is the geometric mean sqrt(xy)."""
    spec = DoubleSequenceSpec(
        mean_one=_arithmetic,
        mean_two=_harmonic,
        tolerance=tolerance,
        max_iterations=max_iterations,
    )
    return double_sequence(spec, x, y)


def elliptic_k(u: float) -> float:
    """Complete elliptic integral of the first kind by adaptive quadrature.

    K(u) = int_0^{pi/2} dtheta / sqrt(1 - u^2 sin^2 theta), |u| < 1,
    to absolute tolerance 1e-13.  Serves as the independent oracle for
    the AGM identity AGM(x, y) = (pi/4) (x + y) / K((x - y)/(x + y)).
    scipy.integrate, which pulls in much of scipy, is loaded on the first
    call rather than on ``import spdmeans``.
    """
    from scipy import integrate

    if not abs(u) < 1.0:
        raise DomainError(f"elliptic_k requires |u| < 1, got {u!r}")
    usq = u * u

    def integrand(theta: float) -> float:
        return 1.0 / math.sqrt(1.0 - usq * math.sin(theta) ** 2)

    value, abserr = integrate.quad(integrand, 0.0, 0.5 * math.pi,
                                   epsabs=1e-13, epsrel=1e-13, limit=200)
    if abserr > 1e-11:
        raise NumericError(f"quadrature error estimate {abserr:.2e} too large for K({u})")
    return float(value)


# ---------------------------------------------------------------------------
# Complex arithmetic-harmonic mean
# ---------------------------------------------------------------------------

def _principal_argument(theta: float) -> float:
    a = math.fmod(theta + math.pi, 2.0 * math.pi)
    if a < 0:
        a += 2.0 * math.pi
    a -= math.pi
    if a == -math.pi:
        a = math.pi
    return a


@dataclass(frozen=True)
class ComplexPolar:
    """Nonzero complex number r e^{i theta} with principal argument."""

    modulus: float
    argument: float

    def __post_init__(self):
        if not (math.isfinite(self.modulus) and self.modulus > 0):
            raise DomainError(f"modulus must be finite and positive, got {self.modulus!r}")
        if not math.isfinite(self.argument):
            raise DomainError(f"argument must be finite, got {self.argument!r}")
        object.__setattr__(self, "argument", _principal_argument(self.argument))

    @classmethod
    def from_complex(cls, z: complex) -> "ComplexPolar":
        return cls(modulus=abs(z), argument=math.atan2(z.imag, z.real))

    def to_complex(self) -> complex:
        return complex(self.modulus * math.cos(self.argument),
                       self.modulus * math.sin(self.argument))


def complex_ahm(z1: ComplexPolar, z2: ComplexPolar, tolerance: float = DEFAULT_TOLERANCE,
                max_iterations: int = DEFAULT_MAX_ITERATIONS) -> ComplexPolar:
    """Arithmetic-harmonic mean of two complex numbers in polar form.

    Iterates a' = a/2 + h/2, h' = a (h / a'), which is 2ah/(a + h) without
    forming a + h or a h, so moduli near the float64 maximum do not
    overflow; on the principal branch
    (|theta_1 - theta_2| < pi required) the limit is
    sqrt(r_1 r_2) e^{i (theta_1 + theta_2)/2}.
    """
    if abs(z1.argument - z2.argument) >= math.pi:
        raise DomainError(
            "complex AHM requires principal arguments separated by less than pi"
        )
    recorder = TraceRecorder(tolerance, max_iterations, "complex AHM")
    a, h = z1.to_complex(), z2.to_complex()
    t = 0
    while recorder.record(t, None, abs(a - h) / max(abs(a), abs(h))):
        mid = 0.5 * a + 0.5 * h
        if mid == 0:
            raise NumericError("complex AHM iteration hit a + h = 0")
        a, h = mid, a * (h / mid)
        t += 1
    return ComplexPolar.from_complex(0.5 * a + 0.5 * h)
