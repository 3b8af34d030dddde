import logging
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdmeans import (
    DomainError,
    NonConvergenceError,
    NumericError,
    SpdMatrix,
    WeightVector,
    ahm_iteration,
    geodesic,
    geometric_mean_closed_form,
    lim_palfia_power_mean,
    lim_palfia_power_mean_picard,
    loewner_leq,
    log_euclidean_mean,
    power_mean_fixed_point_residual,
    power_mean_limit_study,
    q_power_mean,
    riemannian_distance,
    spd_core,
    spd_inverse,
    weighted_arithmetic,
    weighted_harmonic,
)
from tests.conftest import (
    geometric_mean_reference,
    illcond_pair,
    perturb_spd,
    psd_decrement,
    random_spd,
)

# 2x2 non-commuting pair (substream 42) on which the log-Euclidean and
# Riemannian geometric means visibly differ; the Frobenius gap is ~4e-2.
LEM_GAP_X = [[1.6214128914130037, 0.9016686732368403],
             [0.9016686732368403, 1.3266962040007683]]
LEM_GAP_Y = [[0.5951426317814772, -0.5942717798707651],
             [-0.5942717798707651, 2.7178897909520355]]

# Loewner-ordered 2x2 pairs (X' <= X, Y' <= Y) on which the log-Euclidean
# mean violates operator monotonicity: LEM(X', Y') is not <= LEM(X, Y).
LEM_MONO_X = [[2.4510419462208137, 0.008220882763234337],
              [0.008220882763234337, 0.6190672775119751]]
LEM_MONO_Y = [[0.5880848870254933, -0.004303391155715631],
              [-0.004303391155715631, 0.6227773768156517]]
LEM_MONO_XP = [[2.312357218316639, -0.038992054660113566],
               [-0.038992054660113566, 0.602994408539112]]
LEM_MONO_YP = [[0.48747869316900966, -0.07254131042636829],
               [-0.07254131042636829, 0.5764938086982596]]


def rel_frob(a, b):
    return np.linalg.norm(a.array - b.array) / np.linalg.norm(b.array)


# ---------------------------------------------------------------------------
# AHM iteration and the closed form
# ---------------------------------------------------------------------------

def test_ahm_fixed_point(rng):
    p = random_spd(rng, 3)
    limit, trace = ahm_iteration(p, p)
    assert rel_frob(limit, p) <= 1e-14
    assert trace.iterations_used == 0


def test_ahm_identity_base_is_square_root():
    eye = SpdMatrix(np.eye(2))
    target = SpdMatrix(np.diag([4.0, 9.0]))
    limit, _ = ahm_iteration(eye, target)
    np.testing.assert_allclose(limit.array, np.diag([2.0, 3.0]), rtol=1e-11)


def test_ahm_scalar_case():
    limit, _ = ahm_iteration(SpdMatrix([[4.0]]), SpdMatrix([[9.0]]))
    assert limit.array[0, 0] == pytest.approx(6.0, rel=1e-12)


def test_ahm_matches_closed_form_battery(rng):
    for d in range(2, 9):
        for _ in range(20):
            x, y = random_spd(rng, d), random_spd(rng, d)
            limit, trace = ahm_iteration(x, y)
            closed = geometric_mean_closed_form(x, y)
            assert rel_frob(limit, closed) <= 1e-10
            assert trace.converged


def test_ahm_trace_records_riemannian_gap(rng):
    x, y = random_spd(rng, 3), random_spd(rng, 3)
    _, trace = ahm_iteration(x, y)
    assert trace.steps[0].error == pytest.approx(riemannian_distance(x, y), rel=1e-12)
    assert trace.final_error <= 1e-12
    assert all(step.value is None for step in trace.steps)


def test_ahm_quadratic_order(rng):
    for _ in range(10):
        x, y = random_spd(rng, 4, 1.2), random_spd(rng, 4, 1.2)
        _, trace = ahm_iteration(x, y)
        assert 1.7 <= trace.order_estimate <= 2.3


def test_ahm_nonconvergence_carries_trace(rng):
    x, y = random_spd(rng, 3), random_spd(rng, 3)
    with pytest.raises(NonConvergenceError) as err:
        ahm_iteration(x, y, tol=1e-12, max_iter=1)
    assert err.value.trace is not None
    assert not err.value.trace.converged


def test_ahm_iteration_counts_on_the_seeded_battery(caplog):
    # 100 pairs per d in 2..8 from seed 104, with the step count of each
    # pinned: a harmonic step that rounds worse costs iterations here.  Each
    # pair takes its one matrix step and finishes on the whitened spectrum
    # with the counts the all-matrix iteration took, and logs nothing.
    rng = np.random.default_rng(104)
    tally = Counter()
    with caplog.at_level(logging.DEBUG, logger="spdmeans"):
        for d in range(2, 9):
            for _ in range(100):
                x, y = random_spd(rng, d), random_spd(rng, d)
                tally[ahm_iteration(x, y)[1].iterations_used] += 1
    assert tally == {4: 43, 5: 634, 6: 23}
    assert not [r for r in caplog.records if r.name == "spdmeans.binary_means"]


@pytest.mark.parametrize("seed", range(4))
def test_ahm_finishes_the_ill_conditioned_pair_past_its_floor(seed):
    # The benchmark's construction at d = 32.  Iterated as matrices, the gap
    # stalls near 2-4e-12, above the 1e-12 tolerance, by iteration 10-11,
    # and a matrix loop alone runs to its cap of 64.  On the whitened
    # spectrum from step 1 the gap is exact and has no floor: 9 iterations,
    # rho to G 5.4e-11 to 1.3e-10, on a par with the closed form's 3.2e-11
    # to 1.4e-10.
    x, y, g = illcond_pair(seed, 32)
    mean, trace = ahm_iteration(x, y)
    assert trace.converged
    assert trace.iterations_used <= 16
    assert riemannian_distance(mean, g) <= 5e-10


def _geometric_mean_2x2_reference(x: SpdMatrix, y: SpdMatrix) -> np.ndarray:
    """X # Y at 50 digits from the 2 x 2 formula (det X det Y)^{1/4} N / sqrt(det N),
    N = X / sqrt(det X) + Y / sqrt(det Y)."""
    with mpmath.workdps(50):
        X, Y = mpmath.matrix(x.array.tolist()), mpmath.matrix(y.array.tolist())
        dx, dy = mpmath.det(X), mpmath.det(Y)
        N = X / mpmath.sqrt(dx) + Y / mpmath.sqrt(dy)
        return np.array(((dx * dy) ** mpmath.mpf(0.25) / mpmath.sqrt(mpmath.det(N)) * N).tolist(),
                        dtype=float)


def test_ahm_finishes_the_stalled_s12_pair_to_a_50_digit_reference():
    # d = 2, log-eigenvalues in [-12, 12]: iterated as matrices, the gap
    # stalls at about 3e-12 by step 16, and a matrix loop alone runs to its
    # cap.  On the whitened spectrum from step 1 it converges in 15
    # iterations, to 2.1e-13 relative of the 50-digit mean, closer than the
    # closed form's 2.3e-12.
    rng = np.random.default_rng((4, 2, 120))
    x, y = random_spd(rng, 2, 12.0), random_spd(rng, 2, 12.0)
    mean, trace = ahm_iteration(x, y)
    reference = _geometric_mean_2x2_reference(x, y)
    assert trace.converged
    assert trace.iterations_used <= 20
    assert np.linalg.norm(mean.array - reference) <= 1e-12 * np.linalg.norm(reference)


def test_ahm_decomposes_a_fixed_number_of_matrices(count_decompositions, monkeypatch):
    # One matrix step, then the whitened spectrum: two Cholesky
    # factorizations (X, A_1), one eigvalsh (the step-0 gap) and one eigh
    # (the spectrum of H_1), at 5 iterations as at 9.
    cholesky = spd_core.np.linalg.cholesky

    def counted(a):
        count_decompositions["cholesky"] += 1
        return cholesky(a)

    monkeypatch.setattr(spd_core.np.linalg, "cholesky", counted)
    rng = np.random.default_rng(0)
    pairs = [(random_spd(rng, 4), random_spd(rng, 4), 5), (*illcond_pair(0, 32)[:2], 9)]
    for x, y, iterations in pairs:
        count_decompositions.clear()
        _, trace = ahm_iteration(x, y)
        assert trace.iterations_used == iterations
        assert count_decompositions == {"cholesky": 2, "eigvalsh": 1, "eigh": 1}


#: Bounds on the relative Frobenius error against the 50-digit mean, by
#: log-spread s, fixed before the checked-in run.  Over d in {2, 3, 5, 8}
#: and 10 seeds the maxima were 1.5e-15, 2.3e-13, 9.2e-12 and 1.9e-10.
AHM_REFERENCE_BOUNDS = {2.0: 5e-15, 6.0: 1e-12, 8.0: 5e-11, 10.0: 1e-9}


def test_ahm_matches_a_50_digit_reference_across_spreads():
    # Drawn as in test_ahm_robustness_sweep: d in {2, 3, 5}, seeds 0-2.
    for s, bound in AHM_REFERENCE_BOUNDS.items():
        for d in (2, 3, 5):
            for seed in range(3):
                rng = np.random.default_rng((seed, d, round(10 * s)))
                x, y = random_spd(rng, d, s), random_spd(rng, d, s)
                mean, _ = ahm_iteration(x, y)
                reference = geometric_mean_reference(x, y)
                error = np.linalg.norm(mean.array - reference) / np.linalg.norm(reference)
                assert error <= bound, (s, d, seed, error)


def test_ahm_robustness_sweep():
    # 480 pairs: d in {2, 3, 5, 8, 16, 32}, log-eigenvalues uniform in
    # [-s, s] under a random rotation, 10 seeds.  Up to s = 10 every pair
    # converges; at s = 12 (condition numbers up to e^24) a pair converges
    # or its harmonic step loses definiteness, a typed NumericError, but
    # never exhausts the cap.
    for d in (2, 3, 5, 8, 16, 32):
        for s in (0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0):
            for seed in range(10):
                rng = np.random.default_rng((seed, d, round(10 * s)))
                x, y = random_spd(rng, d, s), random_spd(rng, d, s)
                try:
                    _, trace = ahm_iteration(x, y)
                except NumericError as exc:
                    assert s == 12.0, (d, s, seed, exc)
                    continue
                assert trace.converged and trace.final_error <= 1e-12, (d, s, seed)


def _conditioned(rng, d, cond):
    """A random (d, d) matrix with singular values spread over [1, cond]."""
    q1, _ = np.linalg.qr(rng.normal(size=(d, d)))
    q2, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return (q1 * np.exp(rng.uniform(0.0, np.log(cond), size=d))) @ q2


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 6), spread=st.floats(0.0, 2.0),
       cond=st.floats(1.0, 10.0))
def test_ahm_congruence_equivariance(seed, d, spread, cond):
    # AHM(C X C^T, C Y C^T) = C AHM(X, Y) C^T, although the Cholesky frames
    # on the two sides factor different matrices
    rng = np.random.default_rng(seed)
    x, y = random_spd(rng, d, spread), random_spd(rng, d, spread)
    c = _conditioned(rng, d, cond)
    moved, _ = ahm_iteration(SpdMatrix(c @ x.array @ c.T), SpdMatrix(c @ y.array @ c.T))
    mean, _ = ahm_iteration(x, y)
    assert riemannian_distance(moved, SpdMatrix(c @ mean.array @ c.T)) <= 1e-10


# ---------------------------------------------------------------------------
# Closed-form geometric mean identities
# ---------------------------------------------------------------------------

def test_geometric_mean_trivial_and_commuting(rng):
    x = random_spd(rng, 3)
    assert rel_frob(geometric_mean_closed_form(x, x), x) <= 1e-12
    a = SpdMatrix(np.diag([1.0, 4.0]))
    b = SpdMatrix(np.diag([9.0, 16.0]))
    np.testing.assert_allclose(geometric_mean_closed_form(a, b).array,
                               np.diag([3.0, 8.0]), rtol=1e-12)


def test_geometric_mean_riccati_determinant_inversion(rng):
    for _ in range(50):
        d = int(rng.integers(2, 7))
        x, y = random_spd(rng, d), random_spd(rng, d)
        g = geometric_mean_closed_form(x, y)
        riccati = np.linalg.norm(g.array @ np.linalg.inv(x.array) @ g.array - y.array)
        assert riccati / np.linalg.norm(y.array) <= 1e-8
        det_target = np.sqrt(np.linalg.det(x.array) * np.linalg.det(y.array))
        assert abs(np.linalg.det(g.array) - det_target) / det_target <= 1e-10
        g_inv = geometric_mean_closed_form(spd_inverse(x), spd_inverse(y))
        assert riemannian_distance(g, spd_inverse(g_inv)) <= 1e-8


def test_geometric_mean_variational_characterization(rng):
    x, y = random_spd(rng, 3), random_spd(rng, 3)
    g = geometric_mean_closed_form(x, y)
    base = 0.5 * riemannian_distance(x, g) ** 2 + 0.5 * riemannian_distance(y, g) ** 2
    for _ in range(50):
        p = perturb_spd(g, float(rng.uniform(1e-3, 1e-2)), rng)
        value = 0.5 * riemannian_distance(x, p) ** 2 + 0.5 * riemannian_distance(y, p) ** 2
        assert value >= base - 1e-12


def test_geometric_mean_operator_monotone(rng):
    for _ in range(50):
        x, y = random_spd(rng, 2, 1.2), random_spd(rng, 2, 1.2)
        xp, yp = psd_decrement(x, rng), psd_decrement(y, rng)
        assert loewner_leq(geometric_mean_closed_form(xp, yp),
                           geometric_mean_closed_form(x, y))


# ---------------------------------------------------------------------------
# Log-Euclidean mean
# ---------------------------------------------------------------------------

def test_lem_trivial_and_commuting(rng):
    p = random_spd(rng, 3)
    assert rel_frob(log_euclidean_mean([p, p], WeightVector.uniform(2)), p) <= 1e-12
    a = SpdMatrix(np.diag([1.0, 4.0]))
    b = SpdMatrix(np.diag([9.0, 16.0]))
    np.testing.assert_allclose(
        log_euclidean_mean([a, b], WeightVector.uniform(2)).array,
        np.diag([3.0, 8.0]), rtol=1e-12)


def test_lem_differs_from_geometric_mean_stored_pair():
    x, y = SpdMatrix(LEM_GAP_X), SpdMatrix(LEM_GAP_Y)
    lem = log_euclidean_mean([x, y], WeightVector.uniform(2))
    g = geometric_mean_closed_form(x, y)
    assert np.linalg.norm(lem.array - g.array) > 1e-6


def test_lem_not_operator_monotone_stored_counterexample():
    x, y = SpdMatrix(LEM_MONO_X), SpdMatrix(LEM_MONO_Y)
    xp, yp = SpdMatrix(LEM_MONO_XP), SpdMatrix(LEM_MONO_YP)
    assert loewner_leq(xp, x) and loewner_leq(yp, y)
    lem = log_euclidean_mean([x, y], WeightVector.uniform(2))
    lem_p = log_euclidean_mean([xp, yp], WeightVector.uniform(2))
    assert not loewner_leq(lem_p, lem, tolerance=1e-9)
    # the Riemannian geometric mean stays monotone on the same pair
    assert loewner_leq(geometric_mean_closed_form(xp, yp),
                       geometric_mean_closed_form(x, y))


# ---------------------------------------------------------------------------
# Q_p quasi-arithmetic power family
# ---------------------------------------------------------------------------

def test_q_power_endpoints(rng):
    x, y = random_spd(rng, 3), random_spd(rng, 3)
    w = WeightVector.uniform(2)
    assert rel_frob(q_power_mean(x, y, 1.0), weighted_arithmetic([x, y], w)) <= 1e-12
    assert rel_frob(q_power_mean(x, y, -1.0), weighted_harmonic([x, y], w)) <= 1e-11


def test_q_power_small_p_limit_is_lem(rng):
    x, y = random_spd(rng, 3), random_spd(rng, 3)
    lem = log_euclidean_mean([x, y], WeightVector.uniform(2))
    assert rel_frob(q_power_mean(x, y, 1e-12), lem) <= 1e-12
    for p in (1e-6, -1e-6):
        assert rel_frob(q_power_mean(x, y, p), lem) <= 1e-5


def test_q_power_rejects_nonfinite():
    x = SpdMatrix(np.eye(2))
    with pytest.raises(DomainError):
        q_power_mean(x, x, float("inf"))


# ---------------------------------------------------------------------------
# Lim-Palfia power mean
# ---------------------------------------------------------------------------

def test_power_mean_domain():
    x = SpdMatrix(np.eye(2))
    for p in (0.0, -0.5, 1.5):
        with pytest.raises(DomainError):
            lim_palfia_power_mean(x, x, p)


def test_power_mean_trivial_cases(rng):
    x = random_spd(rng, 3)
    for p in (0.25, 0.5, 1.0):
        assert rel_frob(lim_palfia_power_mean(x, x, p), x) <= 1e-12
    y = random_spd(rng, 3)
    arithmetic = weighted_arithmetic([x, y], WeightVector.uniform(2))
    assert rel_frob(lim_palfia_power_mean(x, y, 1.0), arithmetic) <= 1e-13


def test_power_mean_scalar_closed_form():
    m = lim_palfia_power_mean(SpdMatrix([[4.0]]), SpdMatrix([[9.0]]), 0.5)
    assert m.array[0, 0] == pytest.approx(6.25, rel=1e-12)


def test_power_mean_fixed_point_residual(rng):
    for seed in (0, 1, 2):
        srng = np.random.default_rng(seed)
        x, y = random_spd(srng, 3), random_spd(srng, 3)
        for p in (1.0, 0.5, 0.25, 2.0**-6):
            m = lim_palfia_power_mean(x, y, p)
            assert power_mean_fixed_point_residual(m, x, y, p) <= 1e-10


def test_power_mean_picard_agrees_with_closed_form(rng):
    for seed in (0, 1, 2):
        srng = np.random.default_rng(seed)
        x, y = random_spd(srng, 3), random_spd(srng, 3)
        for p in (1.0, 0.5, 0.25):
            closed = lim_palfia_power_mean(x, y, p)
            picard, trace = lim_palfia_power_mean_picard(x, y, p)
            assert rel_frob(picard, closed) <= 1e-9
            assert trace.converged


def test_power_mean_picard_cap_raises(rng):
    x, y = random_spd(rng, 3), random_spd(rng, 3)
    with pytest.raises(NonConvergenceError):
        lim_palfia_power_mean_picard(x, y, 0.5, tol=1e-12, max_iter=3)


# ---------------------------------------------------------------------------
# The p -> 0 limit study
# ---------------------------------------------------------------------------

def test_limit_study_trivial(rng):
    x = random_spd(rng, 3)
    rows = power_mean_limit_study(x, x, [1.0, 0.5, 0.25])
    assert all(d <= 1e-12 for _, d in rows)


def test_limit_study_scalar_monotone():
    x, y = SpdMatrix([[4.0]]), SpdMatrix([[9.0]])
    grid = [2.0**-k for k in range(8)]
    rows = power_mean_limit_study(x, y, grid)
    distances = [d for _, d in rows]
    assert all(b <= a + 1e-12 for a, b in zip(distances, distances[1:]))
    # scalar power means shrink toward sqrt(xy) = 6
    assert distances[-1] < 1e-2 * distances[0]


def test_limit_study_stored_seeds_bound():
    grid = [2.0**-k for k in range(11)]
    for seed in (0, 1, 2):
        srng = np.random.default_rng(seed)
        x, y = random_spd(srng, 3), random_spd(srng, 3)
        rows = power_mean_limit_study(x, y, grid)
        distances = [d for _, d in rows]
        assert all(b <= a + 1e-9 for a, b in zip(distances, distances[1:]))
        assert distances[-1] <= 1e-3 * riemannian_distance(x, y)


def test_limit_study_grid_validation(rng):
    x, y = random_spd(rng, 2), random_spd(rng, 2)
    with pytest.raises(DomainError):
        power_mean_limit_study(x, y, [])
    with pytest.raises(DomainError):
        power_mean_limit_study(x, y, [0.5, 0.5])
    with pytest.raises(DomainError):
        power_mean_limit_study(x, y, [1.0, 0.5, 2.0])
    with pytest.raises(DomainError):
        power_mean_limit_study(x, y, [1.5, 0.5])


def test_geodesic_midpoint_equals_closed_form(rng):
    x, y = random_spd(rng, 4), random_spd(rng, 4)
    assert rel_frob(geometric_mean_closed_form(x, y), geodesic(x, y, 0.5)) == 0.0


def test_ahm_moderate_dimension_smoke(rng):
    # desk scale reaches d ~ 256; spot check well above the battery range
    x, y = random_spd(rng, 64), random_spd(rng, 64)
    limit, trace = ahm_iteration(x, y)
    assert rel_frob(limit, geometric_mean_closed_form(x, y)) <= 1e-10
    assert trace.converged
