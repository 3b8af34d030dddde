"""SPD-valued sampling and law-of-large-numbers / CLT experiments.

Samples are drawn in the tangent space at a chosen center M and mapped to
the cone by X = M^{1/2} exp(S) M^{1/2}.  Entries of S are truncated
zero-mean Gaussians emitted in antithetic (+S, -S) pairs, which makes M
the exact Karcher mean of every batch and gives the LLN experiments an
analytically known target.  Scalar experiments check the quasi-arithmetic
strong law and the central limit theorem for lognormal data.

Randomness contract: PCG64 generators seeded through SeedSequence; trial
substreams derive from (seed, trial index); no global state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from itertools import count
from typing import Iterable, Iterator, Sequence

import numpy as np

from .convergence import MATRIX_ORDER_FLOOR, ConvergenceTrace, TraceRecorder
from .errors import DomainError, ShapeError
from .multi_means import _weighted_log_sum
from .scalar_means import QuasiArithmeticGenerator
from .spd_core import (SpdMatrix, _Frame, _rho, _slices, _spectral, _stack, _symmetrize,
                       matrix_function)

#: Tangent samples are clipped to this many standard deviations, which
#: keeps the sampling distribution inside a bounded support.
TRUNCATION_SIGMAS = 4.0


def _substream(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, *key))))


@dataclass(frozen=True)
class SampleConfig:
    """Seeded description of one SPD sample batch around a known center."""

    seed: int
    scale: float
    count: int
    center: SpdMatrix

    def __post_init__(self):
        if not (math.isfinite(self.scale) and self.scale >= 0):
            raise DomainError(f"scale must be finite and nonnegative, got {self.scale!r}")
        if self.count < 1:
            raise DomainError(f"count must be at least 1, got {self.count!r}")
        if self.scale > 0 and self.count % 2 != 0:
            raise DomainError(
                "count must be even so samples can be emitted in antithetic pairs"
            )


def sample_spd(config: SampleConfig) -> list[SpdMatrix]:
    """Draw an antithetic batch X_i = M^{1/2} exp(S_i) M^{1/2}.

    The tangent matrices come in (+S, -S) pairs so they sum to zero
    exactly: the Karcher-equation residual of the batch at M vanishes by
    construction.  Batches are deterministic in the seed: pair i takes
    the i-th run of d(d+1)/2 normals of the seed's stream as the upper
    triangle of S_i, row by row.  At scale 0 every sample is the center.
    """
    if config.scale == 0.0:
        return [config.center] * config.count
    return [SpdMatrix._frozen(X) for X in _sample_stack(config)]


def _sample_stack(config: SampleConfig) -> np.ndarray:
    """The batch of ``sample_spd`` as one read-only (count, d, d) array."""
    d, scale, pairs = config.center.dimension, config.scale, config.count // 2
    if scale == 0.0:
        return np.broadcast_to(config.center.array, (config.count, d, d))
    upper = np.triu_indices(d)
    s = np.zeros((pairs, d, d))
    s[:, upper[0], upper[1]] = np.clip(
        _substream(config.seed, 0).normal(0.0, scale, size=(pairs, len(upper[0]))),
        -TRUNCATION_SIGMAS * scale, TRUNCATION_SIGMAS * scale)
    s = _symmetrize(s + np.triu(s, 1).mT)
    tangents = np.empty((config.count, d, d))
    tangents[0::2], tangents[1::2] = s, -s
    root = matrix_function(config.center, np.sqrt)
    batch = np.concatenate([_symmetrize(root @ _spectral(part, np.exp) @ root)
                            for part in _slices(tangents)])
    batch.flags.writeable = False
    return batch


def _inductive_walk(samples: Iterable[np.ndarray], center: SpdMatrix | None,
                    checkpoints: Iterator[int]) -> tuple[SpdMatrix, ConvergenceTrace]:
    """The running inductive mean of a stream of SPD arrays, recording
    rho(M_t, center) at each t of the ascending ``checkpoints`` and at the
    final sample.  The walk carries a factor of M_t; a recorded error is
    measured from M_t itself, so it equals rho of the walk's result over
    that prefix."""
    recorder = TraceRecorder(order_floor=MATRIX_ORDER_FLOOR)
    walk: _Frame | None = None
    d = None if center is None else center.dimension
    t = 0
    next_checkpoint = next(checkpoints, None)
    last_recorded = -1
    for t, X in enumerate(samples, 1):
        if d is not None and X.shape[-1] != d:
            raise ShapeError(f"sample {t} has dimension {X.shape[-1]}, expected {d}")
        if walk is None:
            # the frame of an SpdMatrix, so M_1 is X itself, bit for bit
            walk = _Frame(SpdMatrix._frozen(X))
            d = walk.dimension
        else:
            walk.step(X, 1.0 / t)
        if center is not None and t == next_checkpoint:
            recorder.record(t, None, float(_Frame(walk.base()).distances(center.array)))
            last_recorded = t
            next_checkpoint = next(checkpoints, None)
    if walk is None:
        raise DomainError("sample stream is empty")
    if center is not None and t != last_recorded:
        recorder.record(t, None, float(_Frame(walk.base()).distances(center.array)))
    return walk.base(), recorder.build(iterations_used=t)


def inductive_expectation(samples: Iterable[SpdMatrix],
                          center: SpdMatrix | None = None) -> tuple[SpdMatrix, ConvergenceTrace]:
    """Running inductive (Sturm) mean M_{t+1} = M_t #_{1/(t+1)} X_{t+1}.

    Consumes the whole stream and returns the final iterate.  When the
    true center is supplied, the trace records rho(M_t, center) at
    t = 10, 100, 1000, ... and at the final sample, giving the empirical
    law-of-large-numbers curve; the trace never claims convergence.
    """
    return _inductive_walk((X.array for X in samples), center, (10 ** k for k in count(1)))


def spd_variance(samples: Sequence[SpdMatrix], center: SpdMatrix) -> float:
    """Mean squared Riemannian distance (1/n) sum_i rho^2(X_i, center),
    with every sample whitened by one inverse root of the center."""
    return _variance(_Frame(center), _stack(samples, center))


def _variance(frame: _Frame, stack: np.ndarray) -> float:
    return float(np.mean(frame.fan_out(stack) ** 2))


# ---------------------------------------------------------------------------
# LLN experiment report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LlnReport:
    """Per-seed inductive-mean error curves against the known center."""

    dimension: int
    scale: float
    counts: tuple[int, ...]
    seeds: tuple[int, ...]
    errors: tuple[tuple[float, ...], ...]   # [seed][count]
    median_errors: tuple[float, ...]        # per count, median over seeds
    residual_at_center: tuple[float, ...]   # per seed, on the full batch
    variance_at_center: tuple[float, ...]   # per seed
    variance_at_estimate: tuple[float, ...]  # per seed, at the inductive mean

    def to_dict(self) -> dict:
        return {
            "experiment": "lln",
            "dimension": self.dimension,
            "scale": self.scale,
            "counts": list(self.counts),
            "seeds": list(self.seeds),
            "errors": [list(row) for row in self.errors],
            "median_errors": list(self.median_errors),
            "residual_at_center": list(self.residual_at_center),
            "variance_at_center": list(self.variance_at_center),
            "variance_at_estimate": list(self.variance_at_estimate),
        }


def lln_experiment(center: SpdMatrix, scale: float, counts: Sequence[int],
                   seeds: Sequence[int]) -> LlnReport:
    """Empirical law of large numbers for the inductive SPD mean.

    For each seed, draws the largest requested batch once and records the
    error rho(M_t, center) at every requested count in one pass.  The
    batch is streamed in a seeded shuffle: consumed in emission order,
    adjacent antithetic pairs would cancel and pin the running mean to
    the center exactly at every even step, leaving nothing to measure.
    The sample variance is reported both at the known center and at the
    inductive estimate; the two need not agree and are not equated.
    """
    counts = sorted(int(c) for c in counts)
    if not counts:
        raise DomainError("need at least one sample count")
    if counts[0] < 1:
        raise DomainError(f"sample counts must be at least 1, got {counts[0]}")
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise DomainError("need at least one seed")
    errors: list[tuple[float, ...]] = []
    residuals: list[float] = []
    var_center: list[float] = []
    var_estimate: list[float] = []
    center_frame = _Frame(center)
    for seed in seeds:
        batch = _sample_stack(SampleConfig(seed=seed, scale=scale, count=counts[-1],
                                           center=center))
        order = _substream(seed, 2).permutation(len(batch))
        estimate, trace = _inductive_walk(batch[order], center, iter(sorted(set(counts))))
        by_step = {s.step: s.error for s in trace.steps}
        errors.append(tuple(by_step[c] for c in counts))
        # one whitening at the center: ``_residual``'s sum, and the variance
        tangent, spectra = _weighted_log_sum(center_frame, batch, np.ones(len(batch)))
        residuals.append(float(np.linalg.norm(tangent) / len(batch)))
        var_center.append(float(np.mean(np.concatenate([_rho(mu) for mu, _ in spectra]) ** 2)))
        var_estimate.append(_variance(_Frame(estimate), batch))
    medians = tuple(float(np.median([row[i] for row in errors]))
                    for i in range(len(counts)))
    return LlnReport(
        dimension=center.dimension,
        scale=scale,
        counts=tuple(counts),
        seeds=seeds,
        errors=tuple(errors),
        median_errors=medians,
        residual_at_center=tuple(residuals),
        variance_at_center=tuple(var_center),
        variance_at_estimate=tuple(var_estimate),
    )


# ---------------------------------------------------------------------------
# Scalar quasi-arithmetic SLLN / CLT experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lognormal:
    """Lognormal law: log X ~ N(mu, sigma^2); sigma = 0 degenerates to e^mu."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise DomainError(f"mu must be finite, got {self.mu!r}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise DomainError(f"sigma must be finite and nonnegative, got {self.sigma!r}")

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.exp(rng.normal(self.mu, self.sigma, size=n))


def lognormal_power_reference(p: float, mu: float, sigma: float) -> tuple[float, float]:
    """Analytic quasi-arithmetic expectation and CLT variance for f_p.

    Under lognormal(mu, sigma) data, E_f[X] = exp(mu + p sigma^2 / 2)
    (the geometric expectation e^mu at p = 0, the harmonic expectation
    e^{mu - sigma^2/2} at p = -1), and the limiting variance of
    sqrt(n) (M_f - E_f[X]) is Var[f(X)] / f'(E_f[X])^2.
    """
    if p == 0.0:
        return math.exp(mu), sigma**2 * math.exp(2 * mu)
    m1 = math.exp(p * mu + p * p * sigma * sigma / 2.0)
    m2 = math.exp(2 * p * mu + 2 * p * p * sigma * sigma)
    expectation = m1 ** (1.0 / p)
    var_f = (m2 - m1 * m1) / (p * p)
    deriv = expectation ** (p - 1.0)
    return expectation, var_f / (deriv * deriv)


@dataclass(frozen=True)
class QaExperimentReport:
    """Quasi-arithmetic SLLN / CLT experiment summary."""

    generator: str
    mu: float
    sigma: float
    n: int
    trials: int
    seed: int
    empirical_mean: float
    analytic_expectation: float | None
    empirical_clt_variance: float | None
    analytic_clt_variance: float | None
    trial_means: tuple[float, ...] = field(repr=False, default=())

    def to_dict(self) -> dict:
        """Every field but ``trial_means``, in declaration order."""
        return {"experiment": "clt", **{f.name: getattr(self, f.name) for f in fields(self)
                                        if f.name != "trial_means"}}


def qa_expectation_experiment(gen: QuasiArithmeticGenerator, distribution: Lognormal,
                              n: int, trials: int, seed: int) -> QaExperimentReport:
    """Monte-Carlo check of the quasi-arithmetic SLLN and CLT.

    Each trial draws n lognormal variates on its own substream (seed,
    trial index) and computes M_f of the batch.  The report compares the
    grand mean of M_f against the analytic E_f[X] and the sample variance
    of sqrt(n) (M_f - E_f[X]) against Var[f(X)] / f'(E_f[X])^2; analytic
    values are available for the built-in power-family generators.
    """
    if n < 1 or trials < 1:
        raise DomainError("n and trials must be positive")
    trial_means = np.empty(trials)
    for j in range(trials):
        rng = _substream(seed, 1, j)
        xs = distribution.draw(rng, n)
        trial_means[j] = float(gen.inverse(np.mean(gen.forward(xs))))
    analytic = None
    clt_var = None
    if gen.power is not None:
        analytic, clt_var = lognormal_power_reference(gen.power, distribution.mu,
                                                      distribution.sigma)
    empirical_var = None
    if analytic is not None:
        z = math.sqrt(n) * (trial_means - analytic)
        empirical_var = float(np.var(z, ddof=1)) if trials > 1 else 0.0
    return QaExperimentReport(
        generator=gen.label,
        mu=distribution.mu,
        sigma=distribution.sigma,
        n=n,
        trials=trials,
        seed=seed,
        empirical_mean=float(np.mean(trial_means)),
        analytic_expectation=analytic,
        empirical_clt_variance=empirical_var,
        analytic_clt_variance=clt_var,
        trial_means=tuple(float(v) for v in trial_means),
    )
