import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdmeans import (
    DomainError,
    NonConvergenceError,
    RecursiveMeanParams,
    ShapeError,
    SpdMatrix,
    WeightVector,
    bacak_median,
    geodesic,
    holbrook_inductive_mean,
    karcher_refine,
    karcher_residual,
    recursive_geometric_mean,
    riemannian_circumcenter,
    riemannian_distance,
    spd_variance,
    weighted_arithmetic,
)
from spdmeans import multi_means, spd_core
from spdmeans.convergence import MATRIX_ORDER_FLOOR, TraceRecorder
from tests.conftest import exp_at, perturb_spd, psd_decrement, random_invertible, random_spd


def uniform_start(mats):
    return weighted_arithmetic(list(mats), WeightVector.uniform(len(mats)))


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

_EYE2 = SpdMatrix(np.eye(2))


@pytest.mark.parametrize("call", [
    lambda Ps: karcher_residual(_EYE2, Ps),
    lambda Ps: karcher_refine(_EYE2, Ps),
    holbrook_inductive_mean,
    riemannian_circumcenter,
    bacak_median,
    lambda Ps: recursive_geometric_mean(Ps, RecursiveMeanParams((0.5,))),
    lambda Ps: spd_variance(Ps, _EYE2),
], ids=["karcher_residual", "karcher_refine", "holbrook", "circumcenter", "median",
        "recursive", "variance"])
def test_n_matrix_entry_points_validate_their_input(call):
    # each validates its matrices once, before stacking them, so numpy never
    # sees an empty or ragged stack
    with pytest.raises(DomainError):
        call([])
    with pytest.raises(ShapeError):
        call([_EYE2, SpdMatrix(np.eye(3))])
    with pytest.raises(ShapeError):
        call(iter([SpdMatrix(np.eye(3)), _EYE2]))


def test_recursive_params_builtins():
    assert RecursiveMeanParams.bmp(3).s_tuple == pytest.approx((2 / 3, 1 / 2))
    assert RecursiveMeanParams.alm(4).s_tuple == pytest.approx((1.0, 1.0, 0.5))
    with pytest.raises(DomainError):
        RecursiveMeanParams((0.5, 1.2))
    with pytest.raises(DomainError):
        RecursiveMeanParams(())


# ---------------------------------------------------------------------------
# Karcher residual and refinement
# ---------------------------------------------------------------------------

def test_karcher_residual_examples(rng):
    p = random_spd(rng, 3)
    assert karcher_residual(p, [p, p, p]) <= 1e-13
    x, y = random_spd(rng, 3), random_spd(rng, 3)
    mid = geodesic(x, y, 0.5)
    assert karcher_residual(mid, [x, y]) <= 1e-10
    # at an endpoint the residual is half the distance
    assert karcher_residual(x, [x, y]) == pytest.approx(
        0.5 * riemannian_distance(x, y), rel=1e-10)


def test_karcher_residual_rejects_dimension_mismatch():
    # checked before the matrices are stacked, so numpy never sees ragged shapes
    eye2, eye3 = SpdMatrix(np.eye(2)), SpdMatrix(np.eye(3))
    with pytest.raises(ShapeError):
        karcher_residual(eye2, [eye3, eye3])
    with pytest.raises(ShapeError):
        karcher_residual(eye2, [eye2, eye3])


def test_karcher_refine_trivial(rng):
    p = random_spd(rng, 3)
    out, trace = karcher_refine(p, [p, p, p], tol=1e-12)
    assert trace.iterations_used == 0
    assert np.linalg.norm(out.array - p.array) == 0.0


def test_karcher_refine_weighted_two_points_is_geodesic(rng):
    x, y = random_spd(rng, 3), random_spd(rng, 3)
    for t in (0.25, 0.5, 0.8):
        out, _ = karcher_refine(uniform_start([x, y]), [x, y],
                                WeightVector.pair(t), tol=1e-11)
        assert riemannian_distance(out, geodesic(x, y, t)) <= 1e-9


def test_karcher_refine_commuting_diagonals():
    mats = [SpdMatrix(np.diag([v, 2 * v])) for v in (2.0, 5.0, 11.0)]
    out, trace = karcher_refine(uniform_start(mats), mats, tol=1e-12)
    g = (2.0 * 5.0 * 11.0) ** (1 / 3)
    np.testing.assert_allclose(out.array, np.diag([g, 2 * g]), rtol=1e-10)
    # commuting inputs: the unit step lands on the mean in one iteration
    assert trace.iterations_used == 1


def test_karcher_refine_residual_meets_tolerance(rng):
    for d in (2, 3, 5):
        mats = [random_spd(rng, d) for _ in range(3)]
        out, trace = karcher_refine(uniform_start(mats), mats, tol=1e-10)
        assert karcher_residual(out, mats) <= 1e-10
        assert trace.converged


def test_karcher_refine_permutation_invariance(rng):
    mats = [random_spd(rng, 3) for _ in range(4)]
    perm = [mats[2], mats[0], mats[3], mats[1]]
    g1, _ = karcher_refine(uniform_start(mats), mats, tol=1e-11)
    g2, _ = karcher_refine(uniform_start(perm), perm, tol=1e-11)
    assert riemannian_distance(g1, g2) <= 1e-8


def test_karcher_refine_congruence_equivariance(rng):
    mats = [random_spd(rng, 3) for _ in range(3)]
    a = random_invertible(rng, 3)
    g, _ = karcher_refine(uniform_start(mats), mats, tol=1e-12)
    cong = [SpdMatrix(a.T @ m.array @ a) for m in mats]
    gc, _ = karcher_refine(uniform_start(cong), cong, tol=1e-12)
    assert riemannian_distance(gc, SpdMatrix(a.T @ g.array @ a)) <= 1e-8


def test_karcher_mean_monotone(rng):
    for trial in range(50):
        d = 2 if trial % 2 == 0 else 3
        mats = [random_spd(rng, d) for _ in range(3)]
        smaller = [psd_decrement(m, rng) for m in mats]
        g, _ = karcher_refine(uniform_start(mats), mats, tol=1e-10)
        gs, _ = karcher_refine(uniform_start(smaller), smaller, tol=1e-10)
        assert gs.dimension == d
        assert karcher_residual(gs, smaller) <= 1e-10
        from spdmeans import loewner_leq
        assert loewner_leq(gs, g)


def test_karcher_refine_outpaces_unit_steps_on_concentrated_sets(rng):
    # the plain fixed-point iteration, whose unit step the Newton step
    # replaces, is the reference: same tolerance, no more iterations, and
    # the same mean
    mats = [random_spd(rng, 4, 0.5) for _ in range(5)]
    weights, stack = WeightVector.uniform(5).values, spd_core._stack(mats)
    G, errors = uniform_start(mats), []
    while True:
        tangent, _ = multi_means._weighted_log_sum(spd_core._Frame(G), stack, weights)
        errors.append(float(np.linalg.norm(tangent)))
        if errors[-1] <= 1e-12:
            break
        G = exp_at(G, tangent)
    out, trace = karcher_refine(uniform_start(mats), mats, tol=1e-12)
    assert trace.converged and trace.final_error <= 1e-12
    assert len(trace.errors) <= len(errors)
    assert riemannian_distance(out, G) <= 1e-10


def _hessian_at(G, mats, weights):
    frame = spd_core._Frame(G)
    tangent, spectra = multi_means._weighted_log_sum(frame, spd_core._stack(mats), weights)
    return frame, tangent, multi_means._hessian_kernels(weights, spectra)


@pytest.mark.parametrize("d", [1, 3, 8])
@pytest.mark.parametrize("per_slice", [None, 6])
def test_weighted_log_sum_adds_in_order(rng, monkeypatch, d, per_slice):
    # the one-pass running sum equals the sequential loop bit for bit, also
    # when it carries its total across slices of ``per_slice`` matrices; at
    # d = 1 numpy's sum along the stack adds more than 8 terms pairwise
    mats = [random_spd(rng, d, 1.5) for _ in range(20)]
    stack = spd_core._stack(mats)
    frame = spd_core._Frame(random_spd(rng, d))
    weights = rng.uniform(0.1, 1.0, size=len(mats))
    if per_slice is not None:
        monkeypatch.setattr(spd_core, "_SLICE_BYTES", per_slice * stack[0].nbytes)
        assert len(spd_core._slices(stack)) == 4
    expected = np.zeros((d, d))
    for w, P in zip(weights, mats):
        expected = expected + w * spd_core._spectral(frame.whiten(P.array), np.log)
    log_sum, _ = multi_means._weighted_log_sum(frame, stack, weights)
    assert np.array_equal(log_sum, expected)


@pytest.mark.parametrize("d", [1, 3, 8])
def test_karcher_hessian_matches_second_difference(rng, d):
    # <Z, H[Z]> is the second derivative of f = (1/2) sum_i w_i rho^2(., P_i)
    # along the geodesic G^{1/2} exp(t Z) G^{1/2}
    for _ in range(3):
        mats = [random_spd(rng, d, 1.5) for _ in range(4)]
        weights = rng.uniform(0.1, 1.0, size=4)
        weights /= weights.sum()
        G = random_spd(rng, d, 1.0)
        frame, _, kernels = _hessian_at(G, mats, weights)
        Z = spd_core._symmetrize(rng.normal(size=(d, d)))
        Z /= np.linalg.norm(Z)

        def f(t):
            X = SpdMatrix._trusted(frame.lift(spd_core._spectral(t * Z, np.exp)))
            return 0.5 * sum(w * riemannian_distance(X, P) ** 2 for w, P in zip(weights, mats))

        h = 1e-3
        second = (f(h) - 2.0 * f(0.0) + f(-h)) / h ** 2
        assert float(np.vdot(Z, multi_means._hessian(kernels, Z))) == pytest.approx(second, rel=1e-5)


def test_karcher_hessian_is_identity_on_diagonals(rng):
    # diagonal inputs at a diagonal base: every K_i is 1 on the diagonal
    mats = [SpdMatrix(np.diag(np.exp(rng.uniform(-2, 2, size=5)))) for _ in range(4)]
    weights = WeightVector.uniform(4).values
    _, _, kernels = _hessian_at(uniform_start(mats), mats, weights)
    Z = np.diag(rng.normal(size=5))
    np.testing.assert_allclose(multi_means._hessian(kernels, Z), Z, rtol=1e-14, atol=1e-15)


def test_karcher_newton_step_is_never_longer_than_unit_step(rng):
    for d, spread in ((2, 0.5), (4, 2.0), (8, 4.0)):
        mats = [random_spd(rng, d, spread) for _ in range(5)]
        weights = WeightVector.uniform(5).values
        _, tangent, kernels = _hessian_at(random_spd(rng, d, spread), mats, weights)
        step = multi_means._newton_step(tangent, kernels)
        assert np.linalg.norm(step) <= np.linalg.norm(tangent)


def test_karcher_step_size_limits():
    # a whitened identity (c = 1) takes the term's limit 2, so theta = 1
    assert multi_means._bini_iannazzo_step(np.array([0.5, 0.5]), [np.ones(2)]) == 1.0
    # c slightly above 1 is continuous with the limit; spread inputs damp the step
    near = multi_means._bini_iannazzo_step(np.array([0.5, 0.5]), [np.array([1.0 + 1e-12, 1.0])])
    assert near == pytest.approx(1.0, abs=1e-11)
    c = np.array([math.e ** 8, 1.0])
    theta = multi_means._bini_iannazzo_step(np.array([0.5, 0.5]), [c])
    assert theta == pytest.approx(2.0 / (0.5 * (c[0] + 1) / (c[0] - 1) * 8.0 + 0.5 * 2.0))
    assert 0.0 < theta < 1.0


def test_karcher_refine_converges_on_spread_sets(rng):
    # d = 8, log-eigenvalues uniform in [-4, 4]: the unit step alone exceeds
    # the 500-iteration cap on these sets; d = 16, s = 5 took the
    # Bini-Iannazzo step alone up to 155 iterations
    for d, spread, n, bound in [(8, 4.0, 3, 15)] * 3 + [(16, 5.0, 3, 20), (16, 5.0, 10, 20)]:
        mats = [random_spd(rng, d, spread) for _ in range(n)]
        out, trace = karcher_refine(uniform_start(mats), mats, tol=1e-12)
        assert trace.converged
        assert trace.iterations_used <= bound
        assert karcher_residual(out, mats) <= 1e-12


@settings(max_examples=12, deadline=None, derandomize=True)
@given(d=st.integers(2, 6), spread=st.floats(0.5, 4.0), n=st.integers(2, 6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_karcher_refine_converges_property(d, spread, n, seed):
    rng = np.random.default_rng(seed)
    mats = [random_spd(rng, d, spread) for _ in range(n)]
    out, trace = karcher_refine(uniform_start(mats), mats, tol=1e-10)
    assert trace.converged
    assert trace.iterations_used <= 15
    residual = karcher_residual(out, mats)
    assert residual <= 1e-10
    assert trace.final_error == pytest.approx(residual, abs=1e-12)


def test_karcher_refine_cap_raises(rng):
    mats = [random_spd(rng, 3) for _ in range(3)]
    with pytest.raises(NonConvergenceError) as err:
        karcher_refine(uniform_start(mats), mats, tol=1e-12, max_iter=1)
    assert err.value.trace is not None


# ---------------------------------------------------------------------------
# Holbrook inductive mean
# ---------------------------------------------------------------------------

def test_holbrook_trivial_cases(rng):
    p = random_spd(rng, 3)
    out, _ = holbrook_inductive_mean([p], 5)
    assert np.linalg.norm(out.array - p.array) == 0.0
    out, _ = holbrook_inductive_mean([p, p, p], 300)
    assert riemannian_distance(out, p) <= 1e-12


def test_holbrook_two_points_reaches_midpoint(rng):
    x, y = random_spd(rng, 3), random_spd(rng, 3)
    out, _ = holbrook_inductive_mean([x, y], 10_000)
    assert riemannian_distance(out, geodesic(x, y, 0.5)) <= 1e-3


def test_holbrook_approaches_refined_mean(rng):
    mats = [random_spd(rng, 3) for _ in range(3)]
    refined, _ = karcher_refine(uniform_start(mats), mats, tol=1e-11)
    out, trace = holbrook_inductive_mean(mats, 10_000)
    assert riemannian_distance(out, refined) <= 1e-2
    # trace records the Karcher residual every n steps and it shrinks
    assert trace.steps[0].step == len(mats)
    assert trace.steps[-1].error < trace.steps[0].error


def test_holbrook_residual_matches_karcher_residual(rng):
    # the monitor whitens through the walk's own factor, not the mean's root;
    # the residual's norm is the same for either
    mats = [random_spd(rng, 3, 1.5) for _ in range(5)]
    out, trace = holbrook_inductive_mean(mats, 5 * 40)
    assert trace.steps[-1].step == 5 * 40
    assert trace.steps[-1].error == pytest.approx(karcher_residual(out, mats), rel=1e-12)


def test_holbrook_permutation_consistency(rng):
    mats = [random_spd(rng, 3) for _ in range(3)]
    perm = [mats[2], mats[0], mats[1]]
    a, _ = holbrook_inductive_mean(mats, 10_000)
    b, _ = holbrook_inductive_mean(perm, 10_000)
    assert riemannian_distance(a, b) <= 1e-3


def test_holbrook_needs_enough_steps(rng):
    mats = [random_spd(rng, 2) for _ in range(3)]
    with pytest.raises(DomainError):
        holbrook_inductive_mean(mats, 2)


# ---------------------------------------------------------------------------
# Circumcenter
# ---------------------------------------------------------------------------

def test_circumcenter_single_point(rng):
    p = random_spd(rng, 3)
    out, _ = riemannian_circumcenter([p], steps=10)
    assert np.linalg.norm(out.array - p.array) == 0.0


def test_circumcenter_two_points(rng):
    x, y = random_spd(rng, 3), random_spd(rng, 3)
    # odd step count ends on the exact re-centering half of the
    # farthest-point alternation; even counts end one overshoot off.
    out, trace = riemannian_circumcenter([x, y], steps=10_001)
    mid = geodesic(x, y, 0.5)
    assert riemannian_distance(out, mid) <= 1e-3
    assert trace.final_error == pytest.approx(0.5 * riemannian_distance(x, y), rel=1e-6)


def test_circumcenter_collinear_triple(rng):
    x, y = random_spd(rng, 3), random_spd(rng, 3)
    mid = geodesic(x, y, 0.5)
    out, _ = riemannian_circumcenter([x, y, mid], steps=10_001)
    assert riemannian_distance(out, mid) <= 1e-3


def test_circumcenter_perturbation_optimality(rng):
    x, y = random_spd(rng, 3), random_spd(rng, 3)
    out, _ = riemannian_circumcenter([x, y], steps=10_001)
    base = max(riemannian_distance(out, p) for p in (x, y))
    for _ in range(100):
        cand = perturb_spd(out, float(rng.uniform(1e-3, 1e-2)), rng)
        radius = max(riemannian_distance(cand, p) for p in (x, y))
        assert radius >= base - 1e-10


# ---------------------------------------------------------------------------
# Bacak median
# ---------------------------------------------------------------------------

def test_median_trivial(rng):
    p = random_spd(rng, 3)
    out, _ = bacak_median([p, p, p], sweeps=3)
    assert riemannian_distance(out, p) <= 1e-12


def test_median_collinear_triple(rng):
    x, y = random_spd(rng, 3), random_spd(rng, 3)
    mid = geodesic(x, y, 0.5)
    out, _ = bacak_median([x, mid, y], sweeps=1000)
    assert riemannian_distance(out, mid) <= 1e-2


def test_median_two_point_objective(rng):
    x, y = random_spd(rng, 3), random_spd(rng, 3)
    out, trace = bacak_median([x, y], sweeps=1000)
    rho = riemannian_distance(x, y)
    objective = trace.final_error
    # every point of the connecting geodesic is optimal with mean
    # distance rho/2, i.e. summed distance rho
    assert 2 * objective == pytest.approx(rho, rel=1e-3)


def test_median_perturbation_optimality(rng):
    x, y = random_spd(rng, 3), random_spd(rng, 3)
    mid = geodesic(x, y, 0.5)
    pts = [x, mid, y]
    out, _ = bacak_median(pts, sweeps=1000)
    base = sum(riemannian_distance(out, p) for p in pts) / 3
    for _ in range(100):
        cand = perturb_spd(out, float(rng.uniform(1e-3, 1e-2)), rng)
        objective = sum(riemannian_distance(cand, p) for p in pts) / 3
        assert objective >= base - 1e-6


def test_median_schedule_validation(rng):
    mats = [random_spd(rng, 2) for _ in range(2)]
    with pytest.raises(DomainError):
        bacak_median(mats, sweeps=0)
    with pytest.raises(DomainError):
        bacak_median(mats, lambda_schedule=[1.0], sweeps=5)
    with pytest.raises(DomainError):
        bacak_median(mats, lambda_schedule=lambda k: -1.0, sweeps=2)
    out, _ = bacak_median(mats, lambda_schedule=[1.0, 0.5, 0.25], sweeps=3)
    assert out.dimension == 2


# ---------------------------------------------------------------------------
# Recursive geometric means (ALM / BMP)
# ---------------------------------------------------------------------------

def test_recursive_two_matrices_midpoint_in_one_round(rng):
    x, y = random_spd(rng, 3), random_spd(rng, 3)
    out, trace = recursive_geometric_mean([x, y], RecursiveMeanParams((0.5,)))
    assert trace.iterations_used == 1
    assert riemannian_distance(out, geodesic(x, y, 0.5)) <= 1e-12


def test_recursive_equal_inputs_zero_rounds(rng):
    p = random_spd(rng, 3)
    out, trace = recursive_geometric_mean([p, p, p], RecursiveMeanParams.bmp(3))
    assert trace.iterations_used == 0
    assert np.linalg.norm(out.array - p.array) == 0.0


def test_recursive_commuting_diagonals_all_tuples(rng):
    mats = [SpdMatrix(np.diag([v, v + 1.0])) for v in (2.0, 5.0, 11.0)]
    expected = np.diag([(2.0 * 5.0 * 11.0) ** (1 / 3), (3.0 * 6.0 * 12.0) ** (1 / 3)])
    for params in (RecursiveMeanParams.bmp(3), RecursiveMeanParams.alm(3)):
        out, _ = recursive_geometric_mean(mats, params)
        np.testing.assert_allclose(out.array, expected, rtol=1e-9)
    refined, _ = karcher_refine(uniform_start(mats), mats, tol=1e-12)
    np.testing.assert_allclose(refined.array, expected, rtol=1e-9)


def test_recursive_validation(rng):
    x = random_spd(rng, 2)
    with pytest.raises(DomainError):
        recursive_geometric_mean([x], RecursiveMeanParams((0.5,)))
    with pytest.raises(DomainError):
        recursive_geometric_mean([x, x, x], RecursiveMeanParams((0.5,)))
    with pytest.raises(DomainError):
        recursive_geometric_mean([x, x], RecursiveMeanParams((0.5,)), tol=-1.0)


def test_bmp_cubic_order_stored_seeds():
    # Orders measured on well-separated triples; the spread sequence of
    # the cubically convergent tuple leaves only one or two usable
    # triples before roundoff, hence the generous upper bound.
    for seed in range(10):
        srng = np.random.default_rng(seed)
        mats = [random_spd(srng, 3, spread=1.4) for _ in range(3)]
        _, trace = recursive_geometric_mean(mats, RecursiveMeanParams.bmp(3))
        assert trace.order_estimate is not None
        assert trace.order_estimate >= 2.5


def test_alm_linear_ratio_band_stored_seeds():
    for seed in range(10):
        srng = np.random.default_rng(seed)
        mats = [random_spd(srng, 3, spread=1.4) for _ in range(3)]
        _, trace = recursive_geometric_mean(mats, RecursiveMeanParams.alm(3), tol=1e-10)
        errors = trace.errors
        ratios = [b / a for a, b in zip(errors, errors[1:])][-5:]
        assert len(ratios) == 5
        assert all(0.0 < r < 1.0 for r in ratios)
        spread = (max(ratios) - min(ratios)) / np.mean(ratios)
        assert spread < 0.25


def test_alm_and_bmp_agree(rng):
    mats = [random_spd(rng, 3) for _ in range(3)]
    bmp, _ = recursive_geometric_mean(mats, RecursiveMeanParams.bmp(3))
    alm, _ = recursive_geometric_mean(mats, RecursiveMeanParams.alm(3))
    # the two named means are distinct in general but both lie near the
    # Karcher mean for moderate spreads
    refined, _ = karcher_refine(uniform_start(mats), mats, tol=1e-11)
    assert riemannian_distance(bmp, refined) < 1e-2
    assert riemannian_distance(alm, refined) < 1e-2


def test_recursive_round_cap(rng):
    mats = [random_spd(rng, 3) for _ in range(3)]
    with pytest.raises(NonConvergenceError):
        recursive_geometric_mean(mats, RecursiveMeanParams.alm(3), max_rounds=2)


def test_recursive_stagnation_raises_with_partial_trace(rng):
    # roundoff floors the spread near 1e-15, so 1e-16 can never be met
    mats = [random_spd(rng, 3) for _ in range(3)]
    with pytest.raises(NonConvergenceError, match="stagnated") as err:
        recursive_geometric_mean(mats, RecursiveMeanParams.bmp(3), tol=1e-16)
    trace = err.value.trace
    assert trace is not None and not trace.converged
    assert trace.steps and trace.steps[-1].error > 1e-16


def _sequential_level(mats, s_tuple, recorder, accept_stagnation=False):
    """One level of the recursive mean computed depth-first, one geodesic and
    one distance at a time: the reference for the lockstep recursion."""
    def spread_of(tup):
        return max(riemannian_distance(p, q) for i, p in enumerate(tup) for q in tup[i + 1:])

    n, rounds, stalls = len(mats), 0, 0
    previous, spread = math.inf, spread_of(mats)
    while recorder.record(rounds, None, spread):
        stalls = stalls + 1 if spread >= 0.99 * previous else 0
        if stalls >= 2:
            if accept_stagnation and spread < 1e-6:
                break
            raise NonConvergenceError(f"{recorder.name} stagnated at spread {spread:.3e} "
                                      f"above tolerance {recorder.tol}", trace=recorder.build())
        if n == 2:
            partners = mats[::-1]
        else:
            name = f"inner {n - 1}-matrix level of the recursive geometric mean"
            partners = [
                _sequential_level(mats[:i] + mats[i + 1:], s_tuple[1:],
                                  TraceRecorder(max(1e-2 * recorder.tol, 1e-14), recorder.max_steps,
                                                name, unit="rounds", order_floor=MATRIX_ORDER_FLOOR),
                                  accept_stagnation=True)
                for i in range(n)
            ]
        mats = tuple(geodesic(p, q, s_tuple[0]) for p, q in zip(mats, partners))
        rounds += 1
        previous, spread = spread, spread_of(mats)
    return mats[0]


def _sequential_mean(mats, params, tol, max_rounds=100):
    recorder = TraceRecorder(tol, max_rounds, "recursive geometric mean", unit="rounds",
                             order_floor=MATRIX_ORDER_FLOOR)
    return _sequential_level(tuple(mats), params.s_tuple, recorder), recorder.build()


def _outcome(mean_fn):
    """(mean array, trace errors), or None if the mean raises NonConvergenceError."""
    try:
        mean, trace = mean_fn()
    except NonConvergenceError:
        return None
    return mean.array, trace.errors


def _assert_same_outcome(mats, params, tol, max_rounds=100):
    """A mean is bit for bit the depth-first one, trace included, or both fail."""
    got = _outcome(lambda: recursive_geometric_mean(mats, params, tol=tol, max_rounds=max_rounds))
    expected = _outcome(lambda: _sequential_mean(mats, params, tol, max_rounds))
    assert (got is None) == (expected is None)
    if expected is not None:
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3, 4]), d=st.sampled_from([1, 2, 3]),
       kind=st.sampled_from(["bmp", "alm"]), tol=st.sampled_from([1e-6, 1e-10, 1e-12]),
       max_rounds=st.sampled_from([2, 3, 100]))
def test_lockstep_recursion_matches_sequential_reference(seed, n, d, kind, tol, max_rounds):
    # Small round budgets make inner and outer levels fail at every n.
    srng = np.random.default_rng(seed)
    mats = [random_spd(srng, d) for _ in range(n)]
    _assert_same_outcome(mats, getattr(RecursiveMeanParams, kind)(n), tol, max_rounds)


def test_chunked_recursion_is_bit_identical(rng, monkeypatch):
    mats = [random_spd(rng, 3) for _ in range(4)]
    params = RecursiveMeanParams.bmp(4)
    srng = np.random.default_rng(9)  # an inner level of ALM n = 5 fails on this tuple
    failing = [random_spd(srng, 3) for _ in range(5)]
    with pytest.raises(NonConvergenceError):
        recursive_geometric_mean(failing, RecursiveMeanParams.alm(5), tol=1e-10)
    batches = []
    lockstep = multi_means._recursive_mean

    def spy(stack, *args, **kwargs):
        batches.append(len(stack))
        return lockstep(stack, *args, **kwargs)

    monkeypatch.setattr(multi_means, "_recursive_mean", spy)
    whole, whole_trace = recursive_geometric_mean(mats, params)
    assert max(batches) == 12
    batches.clear()
    monkeypatch.setattr(spd_core, "_SLICE_BYTES", mats[0].array.nbytes)
    chunked, chunked_trace = recursive_geometric_mean(mats, params)
    assert max(batches) == 1
    assert np.array_equal(chunked.array, whole.array)
    assert chunked_trace == whole_trace
    # Slices of eight matrices hold two 4-tuples or two 3-tuples, so inner
    # levels fail in later chunks of batches that span several parents.
    monkeypatch.setattr(spd_core, "_SLICE_BYTES", 8 * mats[0].array.nbytes)
    with pytest.raises(NonConvergenceError):
        recursive_geometric_mean(failing, RecursiveMeanParams.alm(5), tol=1e-10)


@pytest.mark.parametrize("seed", [4, 8, 9])
def test_lockstep_failure_matches_sequential_reference(seed):
    # An inner level of ALM n = 5 fails on these tuples, and a later sibling
    # fails in fewer rounds than an earlier one: the lockstep recursion must
    # fail wherever the depth-first one does.
    srng = np.random.default_rng(seed)
    mats = [random_spd(srng, 3) for _ in range(5)]
    with pytest.raises(NonConvergenceError):
        recursive_geometric_mean(mats, RecursiveMeanParams.alm(5), tol=1e-10)
    _assert_same_outcome(mats, RecursiveMeanParams.alm(5), 1e-10)
