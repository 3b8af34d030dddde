import math

import numpy as np
import pytest

from spdmeans import (
    DomainError,
    Lognormal,
    SampleConfig,
    ShapeError,
    SpdMatrix,
    geodesic,
    inductive_expectation,
    karcher_refine,
    karcher_residual,
    lln_experiment,
    lognormal_power_reference,
    matrix_function,
    power_generator,
    qa_expectation_experiment,
    riemannian_distance,
    sample_spd,
    spd_variance,
    weighted_arithmetic,
    WeightVector,
)
from spdmeans import spd_core
from spdmeans.spd_core import _spectral, _symmetrize
from spdmeans.stochastic import TRUNCATION_SIGMAS, _substream
from tests.conftest import random_spd


def make_config(seed=0, dimension=3, scale=0.3, count=100, center=None):
    center = center or SpdMatrix(np.eye(dimension))
    return SampleConfig(seed=seed, scale=scale, count=count, center=center)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def test_config_validation(rng):
    with pytest.raises(DomainError):
        make_config(scale=-0.1)
    with pytest.raises(DomainError):
        make_config(count=0)
    # odd counts cannot form antithetic pairs
    with pytest.raises(DomainError):
        make_config(count=7)
    # except in the degenerate scale = 0 case
    make_config(count=7, scale=0.0)


def test_zero_scale_returns_center(rng):
    center = random_spd(rng, 3)
    batch = sample_spd(make_config(scale=0.0, count=5, center=center))
    assert len(batch) == 5
    assert all(b is center for b in batch)


def test_sampling_is_deterministic():
    b1 = sample_spd(make_config(seed=11, count=10))
    b2 = sample_spd(make_config(seed=11, count=10))
    for x, y in zip(b1, b2):
        np.testing.assert_array_equal(x.array, y.array)
    b3 = sample_spd(make_config(seed=12, count=10))
    assert any(not np.array_equal(x.array, y.array) for x, y in zip(b1, b3))


def test_antithetic_batch_residual_is_zero(rng):
    for seed in range(5):
        center = random_spd(rng, 3)
        batch = sample_spd(make_config(seed=seed, count=50, center=center, scale=0.4))
        assert karcher_residual(center, batch) <= 1e-12


def test_samples_are_valid_spd_and_bounded(rng):
    center = random_spd(rng, 2)
    scale = 0.5
    batch = sample_spd(make_config(seed=4, count=40, center=center, scale=scale))
    for x in batch:
        # tangent coordinates are clipped at 4 sigma, so the distance to
        # the center is bounded by 4 sigma * sqrt(d(d+1)/2 - ish)
        assert riemannian_distance(x, center) <= 4 * scale * math.sqrt(4) + 1e-9


# ---------------------------------------------------------------------------
# Inductive expectation
# ---------------------------------------------------------------------------

def test_inductive_expectation_constant_stream(rng):
    p = random_spd(rng, 3)
    out, trace = inductive_expectation([p] * 25)
    assert riemannian_distance(out, p) <= 1e-12
    assert trace.iterations_used == 25


def test_inductive_expectation_alternating_stream(rng):
    x, y = random_spd(rng, 3), random_spd(rng, 3)
    out, _ = inductive_expectation([x, y] * 1000)
    assert riemannian_distance(out, geodesic(x, y, 0.5)) <= 1e-3


def test_inductive_expectation_records_decades(rng):
    center = random_spd(rng, 3)
    batch = sample_spd(make_config(seed=2, count=200, center=center))
    _, trace = inductive_expectation(batch, center=center)
    steps = [s.step for s in trace.steps]
    assert steps == [10, 100, 200]


def test_inductive_expectation_errors():
    with pytest.raises(DomainError):
        inductive_expectation([])
    with pytest.raises(ShapeError):
        inductive_expectation([SpdMatrix(np.eye(2)), SpdMatrix(np.eye(3))])


@pytest.mark.parametrize("slice_matrices", [None, 3])
@pytest.mark.parametrize("spread", [0.0, 1.0])
def test_sample_spd_matches_per_pair_reference(rng, monkeypatch, spread, slice_matrices):
    # one normal draw for the whole batch and stacked exps (in one slice, or
    # in slices of three matrices) reproduce, bit for bit, a pair-by-pair draw
    # of d(d+1)/2 normals on the seed's stream
    d, seed, scale, pairs = 4, 23, 0.5, 7
    if slice_matrices:
        monkeypatch.setattr(spd_core, "_SLICE_BYTES", slice_matrices * d * d * 8)
    center = random_spd(rng, d, spread) if spread else SpdMatrix(np.eye(d))
    root = matrix_function(center, np.sqrt)  # X = M^{1/2} exp(S) M^{1/2}
    stream = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0))))
    upper = np.triu_indices(d)
    expected = []
    for _ in range(pairs):
        s = np.zeros((d, d))
        s[upper] = np.clip(stream.normal(0.0, scale, size=len(upper[0])),
                           -TRUNCATION_SIGMAS * scale, TRUNCATION_SIGMAS * scale)
        s = _symmetrize(s + np.triu(s, 1).T)
        expected += [SpdMatrix._trusted(root @ _spectral(x, np.exp) @ root) for x in (s, -s)]
    batch = sample_spd(make_config(seed=seed, scale=scale, count=2 * pairs, center=center))
    assert len(batch) == len(expected)
    for got, want in zip(batch, expected):
        np.testing.assert_array_equal(got.array, want.array)


# ---------------------------------------------------------------------------
# Variance
# ---------------------------------------------------------------------------

def test_variance_trivial_and_two_point(rng):
    p = random_spd(rng, 3)
    assert spd_variance([p, p], p) <= 1e-24
    x, y = random_spd(rng, 3), random_spd(rng, 3)
    mid = geodesic(x, y, 0.5)
    expected = riemannian_distance(x, y) ** 2 / 4
    assert spd_variance([x, y], mid) == pytest.approx(expected, rel=1e-10)


def test_variance_rejects_dimension_mismatch():
    # checked before the samples are stacked, so numpy never sees ragged shapes
    eye2, eye3 = SpdMatrix(np.eye(2)), SpdMatrix(np.eye(3))
    with pytest.raises(ShapeError):
        spd_variance([eye3, eye3], eye2)
    with pytest.raises(ShapeError):
        spd_variance([eye2, eye3], eye2)


def test_variance_sigma_scaling():
    center = SpdMatrix(np.eye(3))
    v1 = spd_variance(sample_spd(make_config(seed=3, count=10_000, scale=0.3,
                                             center=center)), center)
    v2 = spd_variance(sample_spd(make_config(seed=4, count=10_000, scale=0.6,
                                             center=center)), center)
    assert v2 / v1 == pytest.approx(4.0, rel=0.15)


def test_variance_at_estimate_close_to_infimum(rng):
    # evaluated both at the known center and at the Karcher estimate of
    # the batch; the two are reported separately and only sanity-compared
    center = SpdMatrix(np.eye(3))
    batch = sample_spd(make_config(seed=5, count=200, scale=0.4, center=center))
    estimate, _ = karcher_refine(
        weighted_arithmetic(batch, WeightVector.uniform(len(batch))), batch, tol=1e-9)
    v_center = spd_variance(batch, center)
    v_estimate = spd_variance(batch, estimate)
    assert v_estimate <= v_center + 1e-12


# ---------------------------------------------------------------------------
# LLN experiment
# ---------------------------------------------------------------------------

def test_lln_experiment_medians_decrease():
    center = SpdMatrix(np.eye(3))
    report = lln_experiment(center, 0.3, [100, 1000], seeds=range(5))
    assert len(report.median_errors) == 2
    assert report.median_errors[0] > report.median_errors[1]
    assert max(report.residual_at_center) <= 1e-12
    d = report.to_dict()
    assert d["experiment"] == "lln" and len(d["errors"]) == 5


def test_lln_experiment_off_decade_counts_match_prefix_replay(rng):
    # Counts that are not powers of ten are recorded in the single pass;
    # each must equal the inductive mean recomputed over its prefix.
    center = random_spd(rng, 3)
    counts = [30, 250, 400]
    report = lln_experiment(center, 0.3, counts, seeds=[4, 5])
    for seed, row in zip(report.seeds, report.errors):
        batch = sample_spd(SampleConfig(seed=seed, scale=0.3, count=counts[-1],
                                        center=center))
        order = _substream(seed, 2).permutation(len(batch))
        stream = [batch[i] for i in order]
        replayed = [riemannian_distance(inductive_expectation(stream[:c])[0], center)
                    for c in counts]
        assert list(row) == replayed


def test_lln_experiment_reads_residual_and_variance_off_one_whitening(rng):
    # the residual is bit for bit karcher_residual's; the variance comes
    # from eigh's eigenvalues instead of eigvalsh's, equal up to roundoff
    center = random_spd(rng, 3)
    report = lln_experiment(center, 0.3, [400], seeds=[4, 5])
    for seed, residual, variance in zip(report.seeds, report.residual_at_center,
                                        report.variance_at_center):
        batch = sample_spd(SampleConfig(seed=seed, scale=0.3, count=400, center=center))
        assert residual == karcher_residual(center, batch)
        assert variance == pytest.approx(spd_variance(batch, center), rel=1e-13)


def test_walk_step_is_one_generalized_solve(rng, count_decompositions):
    # a step of the walk decomposes nothing but its pencil; a 10^4-sample
    # lln_experiment seed walks 9,999 steps, and decomposes the whitened
    # batch once at the center (10^4 eigh) and once at the estimate
    # (10^4 eigvalsh), beside drawing it (10^4 eigh)
    walk = spd_core._Frame(random_spd(rng, 3))
    targets = [random_spd(rng, 3).array for _ in range(50)]
    count_decompositions.clear()
    for t, P in enumerate(targets, 2):
        walk.step(P, 1.0 / t)
    assert dict(count_decompositions) == {"generalized_eigh": 50}
    center = random_spd(rng, 3)
    count_decompositions.clear()
    lln_experiment(center, 0.3, [100, 1000, 10_000], seeds=[5])
    # the rest: the center's and the first sample's frames, and a frame and
    # a distance at each of the three checkpoints
    assert dict(count_decompositions) == {"generalized_eigh": 9_999,
                                          "eigh": 20_000 + 2 + 3, "eigvalsh": 10_000 + 3}


def test_lln_experiment_rejects_nonpositive_count():
    with pytest.raises(DomainError):
        lln_experiment(SpdMatrix(np.eye(2)), 0.3, [0, 10], seeds=[0])


def test_lln_experiment_rejects_empty_seed_list():
    with pytest.raises(DomainError, match="seed"):
        lln_experiment(SpdMatrix(np.eye(2)), 0.3, [10], seeds=[])


# ---------------------------------------------------------------------------
# Quasi-arithmetic expectation experiments
# ---------------------------------------------------------------------------

def test_lognormal_reference_values():
    # geometric expectation e^mu; CLT variance s^2 e^{2 mu}
    e, v = lognormal_power_reference(0.0, 0.3, 0.5)
    assert e == pytest.approx(math.exp(0.3), rel=1e-12)
    assert v == pytest.approx(0.25 * math.exp(0.6), rel=1e-12)
    # harmonic expectation e^{mu - s^2/2}
    e, v = lognormal_power_reference(-1.0, 0.3, 0.5)
    assert e == pytest.approx(math.exp(0.3 - 0.125), rel=1e-12)
    # arithmetic expectation e^{mu + s^2/2} with CLT variance Var[X]
    e, v = lognormal_power_reference(1.0, 0.3, 0.5)
    assert e == pytest.approx(math.exp(0.3 + 0.125), rel=1e-12)
    assert v == pytest.approx((math.exp(0.25) - 1) * math.exp(0.85), rel=1e-12)


def test_qa_experiment_degenerate_distribution():
    # sigma = 0 collapses the lognormal to the point e^mu = c
    c = 2.0
    report = qa_expectation_experiment(power_generator(1.0), Lognormal(math.log(c), 0.0),
                                       n=50, trials=20, seed=0)
    assert report.empirical_mean == pytest.approx(c, rel=1e-12)
    assert report.empirical_clt_variance == pytest.approx(0.0, abs=1e-20)


def test_qa_experiment_geometric_mean_lln():
    report = qa_expectation_experiment(power_generator(0.0), Lognormal(0.3, 0.5),
                                       n=4000, trials=200, seed=1)
    assert report.analytic_expectation == pytest.approx(math.exp(0.3), rel=1e-12)
    assert report.empirical_mean == pytest.approx(math.exp(0.3), rel=2e-3)


def test_qa_experiment_harmonic_expectation():
    report = qa_expectation_experiment(power_generator(-1.0), Lognormal(0.3, 0.5),
                                       n=4000, trials=200, seed=2)
    assert report.analytic_expectation == pytest.approx(math.exp(0.175), rel=1e-12)
    assert report.empirical_mean == pytest.approx(math.exp(0.175), rel=2e-3)


def test_qa_experiment_clt_variance():
    report = qa_expectation_experiment(power_generator(0.0), Lognormal(0.3, 0.5),
                                       n=1000, trials=2000, seed=3)
    assert report.empirical_clt_variance == pytest.approx(
        report.analytic_clt_variance, rel=0.2)


def test_qa_experiment_reproducible():
    r1 = qa_expectation_experiment(power_generator(0.0), Lognormal(0.1, 0.4),
                                   n=100, trials=50, seed=9)
    r2 = qa_expectation_experiment(power_generator(0.0), Lognormal(0.1, 0.4),
                                   n=100, trials=50, seed=9)
    assert r1.trial_means == r2.trial_means
    assert r1.to_dict() == r2.to_dict()
