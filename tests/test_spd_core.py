import math
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from spdmeans import (
    DefinitenessError,
    DomainError,
    Lognormal,
    NumericError,
    SampleConfig,
    ShapeError,
    SpdMatrix,
    WeightVector,
    ahm_iteration,
    bacak_median,
    geodesic,
    holbrook_inductive_mean,
    inductive_expectation,
    karcher_refine,
    log_euclidean_mean,
    loewner_leq,
    matrix_function,
    power_mean,
    q_power_mean,
    riemannian_circumcenter,
    riemannian_distance,
    s_divergence,
    sample_spd,
    spd_inverse,
    weighted_arithmetic,
    weighted_harmonic,
)
from spdmeans import spd_core
from spdmeans.multi_means import _conditions, _weighted_log_sum
from spdmeans.spd_core import _assemble, _Frame, _spectral, _stack, _symmetrize
from tests.conftest import random_invertible, random_spd


def generalized_eig_distance(P1, P2):
    """Independent distance route: log of generalized eigenvalues of (P2, P1)."""
    lam = scipy.linalg.eigh(P2.array, P1.array, eigvals_only=True)
    return float(np.sqrt(np.sum(np.log(lam) ** 2)))


# ---------------------------------------------------------------------------
# SpdMatrix type
# ---------------------------------------------------------------------------

def test_construction_symmetrizes_small_drift():
    m = SpdMatrix([[2.0, 0.1 + 1e-13], [0.1, 1.0]])
    np.testing.assert_array_equal(m.array, m.array.T)


def test_construction_rejects_indefinite():
    with pytest.raises(DefinitenessError) as err:
        SpdMatrix([[1.0, 2.0], [2.0, 1.0]])
    assert err.value.min_eigenvalue == pytest.approx(-1.0, rel=1e-12)


def test_construction_rejects_near_singular(rng):
    # engineered: smallest eigenvalue below the relative threshold
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    lam = np.array([1.0, 0.5, 0.1, 1e-14])
    with pytest.raises(DefinitenessError):
        SpdMatrix((q * lam) @ q.T)
    # just above the default threshold is accepted
    lam = np.array([1.0, 0.5, 0.1, 1e-9])
    SpdMatrix((q * lam) @ q.T)


def test_construction_rejects_nonsquare_and_nonfinite():
    with pytest.raises(ShapeError):
        SpdMatrix([[1.0, 0.0]])
    with pytest.raises(DefinitenessError):
        SpdMatrix([[np.nan, 0.0], [0.0, 1.0]])


def test_array_is_immutable():
    m = SpdMatrix(np.eye(2))
    with pytest.raises(ValueError):
        m.array[0, 0] = 5.0


def test_array_protocol_copy_keyword(rng):
    m = random_spd(rng, 3)
    view = np.asarray(m)
    assert not view.flags.writeable
    copied = np.array(m)
    assert copied.flags.writeable
    np.testing.assert_array_equal(copied, m.array)
    np.testing.assert_array_equal(np.array(m, copy=False), m.array)


def test_spectral_cache_reconstructs(rng):
    for d in (1, 2, 5, 8):
        m = random_spd(rng, d, spread=2.0)
        lam, vecs = m.eigen()
        assert np.all(np.diff(lam) <= 0)  # descending
        rebuilt = (vecs * lam) @ vecs.T
        rel = np.linalg.norm(rebuilt - m.array) / np.linalg.norm(m.array)
        assert rel <= 1e-12
        # orthonormality
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(d), atol=1e-12)


def test_concurrent_spectral_cache_and_geodesics(rng):
    # lazy cache fills are compute-once-or-redundantly; concurrent use of
    # one shared matrix must give identical results
    from concurrent.futures import ThreadPoolExecutor

    x = random_spd(rng, 5, spread=1.5)
    y = random_spd(rng, 5, spread=1.5)

    def work(t):
        return geodesic(x, y, t).array

    ts = [0.1 * k for k in range(1, 10)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(work, ts))
    for t, arr in zip(ts, threaded):
        np.testing.assert_array_equal(arr, geodesic(x, y, t).array)


def test_weight_vector_validation():
    WeightVector([0.25, 0.75])
    with pytest.raises(DomainError):
        WeightVector([0.5, 0.6])
    with pytest.raises(DomainError):
        WeightVector([-0.1, 1.1])
    w = WeightVector.uniform(4)
    assert len(w) == 4 and w[0] == pytest.approx(0.25)
    assert list(WeightVector.pair(0.3)) == pytest.approx([0.7, 0.3])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("build", [
    lambda v: WeightVector([v, 1.0]),
    lambda v: power_mean(v, 2.0, 3.0),
    lambda v: SampleConfig(seed=0, scale=v, count=4, center=SpdMatrix(np.eye(2))),
    lambda v: Lognormal(mu=0.0, sigma=v),
    lambda v: Lognormal(mu=v, sigma=0.5),
    lambda v: bacak_median([SpdMatrix(np.eye(2)), SpdMatrix(2 * np.eye(2))],
                           lambda_schedule=lambda k: v, sweeps=1),
    lambda v: bacak_median([SpdMatrix(np.eye(2)), SpdMatrix(2 * np.eye(2))],
                           lambda_schedule=[v], sweeps=1),
    lambda v: loewner_leq(SpdMatrix(np.eye(2)), SpdMatrix(np.eye(2)), tolerance=v),
], ids=["weights", "power_mean", "sample_scale", "lognormal_sigma", "lognormal_mu",
        "median_schedule", "median_schedule_sequence", "loewner_tolerance"])
def test_non_finite_parameters_are_domain_errors(build, bad):
    # NaN passes every ordering check, so each constructor tests finiteness itself
    with pytest.raises(DomainError, match="finite"):
        build(bad)


# ---------------------------------------------------------------------------
# matrix_function
# ---------------------------------------------------------------------------

def test_matrix_function_identity_spectrum():
    out = matrix_function(SpdMatrix(np.eye(3)), np.exp)
    np.testing.assert_allclose(out, math.e * np.eye(3), rtol=1e-14)


def test_matrix_function_diagonal_sqrt():
    out = matrix_function(SpdMatrix(np.diag([4.0, 9.0])), np.sqrt)
    np.testing.assert_allclose(out, np.diag([2.0, 3.0]), rtol=1e-14)


def test_matrix_function_exp_log_roundtrip(rng):
    for d in (2, 4, 6):
        m = random_spd(rng, d, spread=1.5)
        out = matrix_function(m, lambda x: np.exp(np.log(x)))
        rel = np.linalg.norm(out - m.array) / np.linalg.norm(m.array)
        assert rel <= 1e-12


def test_matrix_function_composition(rng):
    m = random_spd(rng, 4)
    one_shot = matrix_function(m, lambda x: np.sqrt(np.exp(x)))
    half = SpdMatrix(matrix_function(m, np.exp))
    two_step = matrix_function(half, np.sqrt)
    assert np.linalg.norm(one_shot - two_step) / np.linalg.norm(one_shot) <= 1e-10


def test_matrix_function_scalar_callable_fallback(rng):
    m = random_spd(rng, 3)
    out_vec = matrix_function(m, np.sqrt)
    out_scalar = matrix_function(m, lambda x: math.sqrt(x))
    np.testing.assert_allclose(out_vec, out_scalar, rtol=1e-14)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_matrix_function_rejects_nonfinite_values():
    m = SpdMatrix(np.diag([1.0, 2.0]))
    with pytest.raises(DomainError):
        matrix_function(m, lambda x: np.log(x - 1.5))


# ---------------------------------------------------------------------------
# Riemannian distance
# ---------------------------------------------------------------------------

def test_distance_examples():
    p = SpdMatrix([[2.0, 0.3], [0.3, 1.0]])
    assert riemannian_distance(p, p) <= 1e-12
    one = SpdMatrix([[1.0]])
    e2 = SpdMatrix([[math.e ** 2]])
    assert riemannian_distance(one, e2) == pytest.approx(2.0, rel=1e-12)


def test_distance_metric_axioms(rng):
    for _ in range(50):
        d = int(rng.integers(2, 6))
        x, y = random_spd(rng, d), random_spd(rng, d)
        dxy = riemannian_distance(x, y)
        assert dxy >= 0
        assert riemannian_distance(y, x) == pytest.approx(dxy, rel=1e-10)
        assert riemannian_distance(x, x) <= 1e-12


def test_distance_against_generalized_eig_oracle(rng):
    for _ in range(50):
        d = int(rng.integers(2, 8))
        x, y = random_spd(rng, d, 1.5), random_spd(rng, d, 1.5)
        assert riemannian_distance(x, y) == pytest.approx(
            generalized_eig_distance(x, y), rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 8), n=st.integers(1, 12),
       spread=st.floats(0.0, 3.0), per_slice=st.integers(1, 12))
def test_fan_out_kernels_match_one_at_a_time(seed, d, n, spread, per_slice):
    # a stack, whole or in slices of any size, goes through the arithmetic of
    # each matrix alone
    rng = np.random.default_rng(seed)
    x = random_spd(rng, d, spread)
    ys = [random_spd(rng, d, spread) for _ in range(n)]
    stack = _stack(ys)
    frame = _Frame(x)
    one_at_a_time = [float(frame.distances(y.array)) for y in ys]
    assert frame.distances(stack).tolist() == one_at_a_time
    assert frame.fan_out(stack).tolist() == one_at_a_time
    assert one_at_a_time == [riemannian_distance(x, y) for y in ys]
    tangents = _symmetrize(rng.normal(size=(n, d, d)))
    for s, m in zip(tangents, frame.lift(_spectral(tangents, np.exp))):
        np.testing.assert_array_equal(m, frame.lift(_spectral(s, np.exp)))
    weights = rng.uniform(0.0, 1.0, size=n)
    expected = np.zeros((d, d))
    for w, y in zip(weights, ys):
        expected = expected + w * _spectral(frame.whiten(y.array), np.log)
    with mock.patch.object(spd_core, "_SLICE_BYTES", per_slice * stack[0].nbytes):
        assert frame.fan_out(stack).tolist() == one_at_a_time
        log_sum, spectra = _weighted_log_sum(frame, stack, weights)
        np.testing.assert_array_equal(log_sum, expected)
    # the Karcher step size reads the condition numbers off the spectra the
    # log-sum hands back; a second eigensolver agrees on
    # c = lambda_max / lambda_min to about c eps
    lam = np.linalg.eigvalsh(frame.whiten(stack))
    c = lam[:, -1] / lam[:, 0]
    np.testing.assert_allclose(np.concatenate(_conditions(spectra)), c,
                               rtol=64 * np.finfo(float).eps * c.max())


def test_distance_congruence_invariance(rng):
    for _ in range(50):
        d = int(rng.integers(2, 6))
        x, y = random_spd(rng, d), random_spd(rng, d)
        a = random_invertible(rng, d)
        xa = SpdMatrix(a.T @ x.array @ a)
        ya = SpdMatrix(a.T @ y.array @ a)
        assert riemannian_distance(xa, ya) == pytest.approx(
            riemannian_distance(x, y), rel=1e-8, abs=1e-8)


def test_distance_shape_mismatch():
    a, b = SpdMatrix(np.eye(2)), SpdMatrix(np.eye(3))
    with pytest.raises(ShapeError):
        riemannian_distance(a, b)
    with pytest.raises(ShapeError):
        log_euclidean_mean([a, b], WeightVector.uniform(2))
    with pytest.raises(ShapeError):
        log_euclidean_mean([a, a, a], WeightVector.uniform(2))
    for p in (0.5, 1e-9):  # the power branch and the log-Euclidean limit branch
        with pytest.raises(ShapeError):
            q_power_mean(a, b, p)
    with pytest.raises(ShapeError):
        karcher_refine(a, [a, a, a], WeightVector.uniform(2))


# ---------------------------------------------------------------------------
# Geodesic
# ---------------------------------------------------------------------------

def test_geodesic_commuting_case():
    x = SpdMatrix(np.diag([1.0, 4.0]))
    y = SpdMatrix(np.diag([9.0, 16.0]))
    np.testing.assert_allclose(geodesic(x, y, 0.5).array, np.diag([3.0, 8.0]),
                               rtol=1e-12)


def test_geodesic_identity_base_gives_square_root(rng):
    y = random_spd(rng, 4, 1.2)
    half = geodesic(SpdMatrix(np.eye(4)), y, 0.5)
    np.testing.assert_allclose(half.array @ half.array, y.array, rtol=1e-10,
                               atol=1e-12)


def test_geodesic_domain():
    x, y = SpdMatrix(np.eye(2)), SpdMatrix(2 * np.eye(2))
    for t in (-0.1, 1.1, 2.0):
        with pytest.raises(DomainError):
            geodesic(x, y, t)


def test_geodesic_identities_random_pairs(rng):
    # endpoint, swap, and arc-length identities per dimension
    for d in range(2, 9):
        for _ in range(100):
            x, y = random_spd(rng, d), random_spd(rng, d)
            t = float(rng.uniform(0, 1))
            assert geodesic(x, y, 0.0) is x
            assert geodesic(x, y, 1.0) is y
            gt = geodesic(x, y, t)
            swap = geodesic(y, x, 1.0 - t)
            assert np.linalg.norm(gt.array - swap.array) / np.linalg.norm(gt.array) <= 1e-8
            rho = riemannian_distance(x, y)
            assert riemannian_distance(gt, x) == pytest.approx(t * rho, abs=1e-8)


# ---------------------------------------------------------------------------
# Factored geodesic walk through a moving frame
# ---------------------------------------------------------------------------

def _relative_gap(a: SpdMatrix, b: SpdMatrix) -> float:
    return float(np.linalg.norm(a.array - b.array) / np.linalg.norm(b.array))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 8), spread=st.floats(0.0, 3.0),
       ts=st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=3, max_size=3))
def test_walk_steps_match_chained_geodesics(seed, d, spread, ts):
    # the factored step F <- (F V) diag(mu^{t/2}) lands where geodesic does,
    # one step at a time and over three chained steps, and the whitened
    # spectra measure the same distances as riemannian_distance
    rng = np.random.default_rng(seed)
    x, *ys = [random_spd(rng, d, spread) for _ in range(4)]
    stack = np.stack([y.array for y in ys])
    walk, expected = _Frame(x), x
    # before its first step the walk's frame is the base's own: the same bits
    assert walk.base() is x
    assert walk.fan_out(stack).tolist() == [riemannian_distance(x, y) for y in ys]
    for y, t in zip(ys, ts):
        walk.step(y.array, t)
        expected = geodesic(expected, y, t)
        assert _relative_gap(walk.base(), expected) <= 1e-12
        # an absolute floor: a step with t near 1 can land next to a target,
        # where a relative error of a near-zero distance measures nothing
        np.testing.assert_allclose(walk.fan_out(stack),
                                   [riemannian_distance(walk.base(), y) for y in ys],
                                   rtol=1e-12, atol=1e-13)


def test_walk_does_not_drift_over_long_runs():
    # 10^4 inductive steps against the two-eigh geodesic loop they replace
    rng = np.random.default_rng(20240901)
    center = random_spd(rng, 3)
    batch = sample_spd(SampleConfig(seed=11, scale=0.3, count=10_000, center=center))
    stream = [batch[i] for i in rng.permutation(len(batch))]
    reference = stream[0]
    for t, X in enumerate(stream[1:], 2):
        reference = geodesic(reference, X, 1.0 / t)
    walked, _ = inductive_expectation(stream)
    assert _relative_gap(walked, reference) <= 1e-12
    # the same walk driven by hand: G stays the inverse of the moved factor F
    walk = _Frame(stream[0])
    for t, X in enumerate(stream[1:], 2):
        walk.step(X.array, 1.0 / t)
    np.testing.assert_array_equal(walk.base().array, walked.array)
    assert np.linalg.norm(walk._G @ walk._F - np.eye(3)) <= 1e-14
    # det(X #_t Y) = det(X)^{1-t} det(Y)^t: after n * cycles - 1 steps every
    # input has entered the Holbrook mean exactly ``cycles`` times
    mats = [random_spd(rng, 3, 2.0) for _ in range(5)]
    mean, _ = holbrook_inductive_mean(mats, 5 * 1000 - 1)
    logdet = np.linalg.slogdet(mean.array)[1]
    expected_logdet = np.mean([np.linalg.slogdet(P.array)[1] for P in mats])
    assert abs(logdet - expected_logdet) <= 1e-10


@pytest.mark.parametrize("d", [1, 2, 3, 8, 32])
def test_single_matrix_kernels_match_the_stacked_ones(rng, d):
    # one (d, d) matrix goes to LAPACK dsyevd and dgesv, a stack to numpy's
    # batched eigh; both give the same whitened spectrum
    walk = _Frame(random_spd(rng, d, 1.5))
    eye = np.eye(d)
    for t, y in enumerate((random_spd(rng, d, 1.5).array for _ in range(20)), 2):
        mu, vecs = walk.spectra(y)
        mu_stacked, vecs_stacked = walk.spectra(y[None])
        np.testing.assert_allclose(mu, mu_stacked[0], rtol=1e-14, atol=0)
        root = _assemble(vecs, np.sqrt(mu))
        root_stacked = _assemble(vecs_stacked, np.sqrt(mu_stacked))[0]
        assert np.linalg.norm(root - root_stacked) <= 1e-14 * np.linalg.norm(root)
        walk.advance(mu, vecs, 1.0 / t)
        # G from the LAPACK solve stays the inverse of the moved factor F
        assert np.linalg.norm(walk._G @ walk._F - eye) <= 4 * d * np.finfo(float).eps


def test_advance_onto_a_singular_factor_raises(rng):
    walk = _Frame(random_spd(rng, 3))
    mu, vecs = walk.spectra(random_spd(rng, 3).array)
    mu = mu.copy()
    mu[1] = 0.0
    with pytest.raises(NumericError, match="singular"):
        walk.advance(mu, vecs, 0.5)


_TINY = SpdMatrix(1e-200 * np.eye(3))
_HUGE = SpdMatrix(1e200 * np.eye(3))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("call", [
    lambda: riemannian_distance(_TINY, _HUGE),
    lambda: geodesic(_TINY, _HUGE, 0.5),
    lambda: holbrook_inductive_mean([_TINY, _HUGE]),
    lambda: bacak_median([_TINY, _HUGE]),
    lambda: riemannian_circumcenter([_TINY, _HUGE]),
    lambda: ahm_iteration(_TINY, _HUGE),
], ids=["distance", "geodesic", "holbrook", "median", "circumcenter", "ahm"])
def test_overflowing_whitening_raises_numeric_error(call):
    # valid inputs whose whitened product overflows: a typed error, never
    # numpy's LinAlgError and never a matrix of NaNs
    with pytest.raises(NumericError):
        call()


# ---------------------------------------------------------------------------
# Cholesky frame
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [1, 3, 8, 32])
def test_cholesky_frame_matches_eigen_frame(rng, d):
    # any factor F of X = F F^T whitens to the same distances and geodesics
    x = random_spd(rng, d)
    ys = _stack([random_spd(rng, d) for _ in range(4)])
    eigen, chol = _Frame(x), _Frame.cholesky(x.array)
    np.testing.assert_allclose(chol.distances(ys), eigen.distances(ys), rtol=1e-13)
    for y in ys:
        for t in (0.25, 0.5, 0.9):
            expected = eigen.power_sandwich(y, t)
            assert (np.linalg.norm(chol.power_sandwich(y, t) - expected)
                    <= 1e-13 * np.linalg.norm(expected))
    a, b = random_spd(rng, d).array, random_spd(rng, d).array
    expected = a @ np.linalg.inv(x.array) @ b
    assert np.linalg.norm(chol.inverse_sandwich(a, b) - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("bad", [
    [[1.0, 2.0], [2.0, 1.0]],
    [[1.0, 0.0], [0.0, 0.0]],
    [[np.nan, 0.0], [0.0, 1.0]],
    [[1.0, np.nan], [np.nan, 1.0]],
    [[np.inf, 0.0], [0.0, 1.0]],
    [[1.0, 0.0], [0.0, np.inf]],
])
def test_cholesky_frame_rejects_indefinite_and_non_finite(bad):
    # a typed error, not numpy's LinAlgError, and never a frame of NaNs
    with pytest.raises(NumericError):
        _Frame.cholesky(np.array(bad))


# ---------------------------------------------------------------------------
# Weighted arithmetic / harmonic means
# ---------------------------------------------------------------------------

def test_weighted_means_trivial_cases(rng):
    p = random_spd(rng, 3)
    one = WeightVector([1.0])
    np.testing.assert_allclose(weighted_arithmetic([p], one).array, p.array, rtol=1e-14)
    np.testing.assert_allclose(weighted_harmonic([p], one).array, p.array, rtol=1e-12)
    eye = SpdMatrix(np.eye(3))
    np.testing.assert_allclose(
        weighted_arithmetic([eye, eye], WeightVector.uniform(2)).array, np.eye(3),
        rtol=1e-14)


def test_weighted_means_scalar_cases():
    a = SpdMatrix([[1.0]])
    b = SpdMatrix([[3.0]])
    w = WeightVector.uniform(2)
    assert weighted_arithmetic([a, b], w).array[0, 0] == pytest.approx(2.0)
    c = SpdMatrix([[1 / 3]])
    assert weighted_harmonic([a, c], w).array[0, 0] == pytest.approx(0.5, rel=1e-12)


def test_harmonic_is_inverse_of_arithmetic_of_inverses(rng):
    ps = [random_spd(rng, 3) for _ in range(4)]
    w = WeightVector([0.1, 0.2, 0.3, 0.4])
    lhs = weighted_harmonic(ps, w)
    rhs = spd_inverse(weighted_arithmetic([spd_inverse(p) for p in ps], w))
    np.testing.assert_allclose(lhs.array, rhs.array, rtol=1e-10)


def test_agh_sandwich(rng):
    for _ in range(50):
        x, y = random_spd(rng, 3), random_spd(rng, 3)
        t = float(rng.uniform(0, 1))
        w = WeightVector.pair(t)
        h = weighted_harmonic([x, y], w)
        g = geodesic(x, y, t)
        a = weighted_arithmetic([x, y], w)
        assert loewner_leq(h, g)
        assert loewner_leq(g, a)


# ---------------------------------------------------------------------------
# Loewner order and S-divergence
# ---------------------------------------------------------------------------

def test_loewner_examples():
    p = SpdMatrix([[2.0, 0.5], [0.5, 1.0]])
    eye = SpdMatrix(np.eye(2))
    assert loewner_leq(p, p)
    assert loewner_leq(eye, SpdMatrix(2 * np.eye(2)))
    assert not loewner_leq(SpdMatrix(np.diag([1.0, 3.0])), SpdMatrix(np.diag([2.0, 2.0])))
    # a negative slack would demand Q - P >= |tolerance| scale > 0
    assert loewner_leq(p, p, tolerance=0.0)
    with pytest.raises(DomainError, match="nonnegative"):
        loewner_leq(p, p, tolerance=-1e-12)


def test_s_divergence_examples(rng):
    x = random_spd(rng, 3)
    assert s_divergence(x, x) == pytest.approx(0.0, abs=1e-12)
    one = SpdMatrix([[1.0]])
    three = SpdMatrix([[3.0]])
    assert s_divergence(one, three) == pytest.approx(
        math.log(2) - 0.5 * math.log(3), rel=1e-12)
    y = random_spd(rng, 3)
    assert s_divergence(x, y) == pytest.approx(s_divergence(y, x), rel=1e-10)
    assert s_divergence(x, y) > 0
