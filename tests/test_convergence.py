import math

import numpy as np
import pytest

from spdmeans import (
    ComplexPolar,
    DomainError,
    NonConvergenceError,
    NumericError,
    RecursiveMeanParams,
    SampleConfig,
    WeightVector,
    agm,
    ahm,
    ahm_iteration,
    bacak_median,
    complex_ahm,
    estimate_order,
    holbrook_inductive_mean,
    inductive_expectation,
    karcher_refine,
    lim_palfia_power_mean_picard,
    recursive_geometric_mean,
    riemannian_circumcenter,
    sample_spd,
    weighted_arithmetic,
)
from spdmeans.convergence import ConvergenceTrace, TraceRecorder
from tests.conftest import random_spd


def test_estimate_order_quadratic_sequence():
    errors = [0.5]
    for _ in range(5):
        errors.append(errors[-1] ** 2)
    order = estimate_order(errors, floor=1e-300)
    assert order == pytest.approx(2.0, abs=1e-9)


def test_estimate_order_linear_sequence():
    errors = [0.8 * 0.5**k for k in range(12)]
    order = estimate_order(errors, floor=1e-300)
    assert order == pytest.approx(1.0, abs=1e-9)


def test_estimate_order_needs_four_decreasing_samples():
    assert estimate_order([1.0, 0.1, 0.01]) is None
    assert estimate_order([1.0, 2.0, 0.5, 0.1, 3.0]) is None
    assert estimate_order([]) is None


def test_estimate_order_ignores_noise_floor_entries():
    # The 1e-16 tail reflects roundoff, not the iteration; it must not
    # drag the estimate away from 2.
    errors = [0.5, 0.05, 5e-4, 5e-8, 1e-16, 9e-17, 1.1e-16]
    order = estimate_order(errors, floor=1e-13)
    assert order == pytest.approx(2.0, abs=0.2)


def test_recorder_rejects_negative_errors():
    recorder = TraceRecorder()
    with pytest.raises(ValueError):
        recorder.record(0, None, -1.0)


@pytest.mark.parametrize("error", [math.nan, math.inf])
def test_recorder_rejects_non_finite_errors(error):
    # A NaN gap never meets the tolerance, so a tolerance loop would run to
    # its cap and report "failed to reach"; a walk's trace would end in NaN.
    for recorder in (TraceRecorder(1e-12, 10, "toy loop"), TraceRecorder(name="toy walk")):
        assert recorder.record(0, None, 1.0)
        with pytest.raises(NumericError, match=f"{recorder.name} step 1: error proxy is {error}"):
            recorder.record(1, None, error)


def test_trace_fields_and_invariants():
    value, trace = agm(1.0, 2.0)
    assert isinstance(trace, ConvergenceTrace)
    assert trace.converged
    assert trace.iterations_used == len(trace.steps) - 1
    assert all(s.error >= 0 for s in trace.steps)
    # converged means the final recorded gap is at or below the tolerance
    assert trace.final_error <= 1e-13
    # errors strictly decrease after the first step for this pair
    errs = trace.errors
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_trace_without_enough_iterates_has_no_order():
    value, trace = agm(1.0, 1.0)
    assert trace.iterations_used == 0
    assert trace.order_estimate is None


# ---------------------------------------------------------------------------
# The trace contract of every iterative function
# ---------------------------------------------------------------------------

def _mats(n, d=3):
    rng = np.random.default_rng(20240817)
    return [random_spd(rng, d) for _ in range(n)]


def _karcher(tol, cap):
    mats = _mats(4)
    start = weighted_arithmetic(mats, WeightVector.uniform(len(mats)))
    return karcher_refine(start, mats, tol=tol, max_iter=cap)


def _complex_ahm(tol, cap):
    z = complex_ahm(ComplexPolar(2.0, 1.0), ComplexPolar(5.0, -1.5),
                    tolerance=tol, max_iterations=cap)
    return z, None  # returns no trace; only its cap error carries one


#: name -> run(tol, cap) for every loop that stops at a tolerance.
TOLERANCE_LOOPS = {
    "agm": lambda tol, cap: agm(1.0, 1000.0, tolerance=tol, max_iterations=cap),
    "ahm": lambda tol, cap: ahm(1.0, 1000.0, tolerance=tol, max_iterations=cap),
    "complex_ahm": _complex_ahm,
    "ahm_iteration": lambda tol, cap: ahm_iteration(*_mats(2), tol=tol, max_iter=cap),
    "picard": lambda tol, cap: lim_palfia_power_mean_picard(*_mats(2), 0.5, tol=tol,
                                                            max_iter=cap),
    "karcher": _karcher,
    "bmp": lambda tol, cap: recursive_geometric_mean(_mats(4), RecursiveMeanParams.bmp(4),
                                                     tol=tol, max_rounds=cap),
    "alm": lambda tol, cap: recursive_geometric_mean(_mats(3), RecursiveMeanParams.alm(3),
                                                     tol=tol, max_rounds=cap),
}


def _walk_sample():
    center = _mats(1)[0]
    config = SampleConfig(seed=3, scale=0.3, count=40, center=center)
    return inductive_expectation(sample_spd(config), center=center)


#: name -> run() for every walk with a fixed budget and no stopping rule.
FIXED_BUDGET_WALKS = {
    "holbrook": lambda: holbrook_inductive_mean(_mats(3), 30),
    "holbrook_single": lambda: holbrook_inductive_mean(_mats(1), 3),
    "circumcenter": lambda: riemannian_circumcenter(_mats(3), 30),
    "circumcenter_single": lambda: riemannian_circumcenter(_mats(1), 3),
    "median": lambda: bacak_median(_mats(3), sweeps=10),
    "inductive_expectation": _walk_sample,
}


@pytest.mark.parametrize("name", sorted(TOLERANCE_LOOPS))
def test_tolerance_loop_trace_contract(name):
    run = TOLERANCE_LOOPS[name]
    tol = 1e-10
    _, trace = run(tol, 500)
    if trace is not None:
        assert trace.converged and trace.final_error <= tol
        assert trace.iterations_used == len(trace.steps) - 1
    with pytest.raises(NonConvergenceError) as err:
        run(tol, 1)
    capped = err.value.trace
    assert capped is not None
    assert not capped.converged and capped.final_error > tol
    assert capped.iterations_used == len(capped.steps) - 1


@pytest.mark.parametrize("name", sorted(FIXED_BUDGET_WALKS))
def test_fixed_budget_walk_never_claims_convergence(name):
    _, trace = FIXED_BUDGET_WALKS[name]()
    assert trace.steps
    assert not trace.converged


@pytest.mark.parametrize("name", ["ahm_iteration", "complex_ahm", "picard", "karcher", "bmp"])
@pytest.mark.parametrize("tol", [0.0, -1e-3])
def test_nonpositive_tolerance_rejected(name, tol):
    with pytest.raises(DomainError):
        TOLERANCE_LOOPS[name](tol, 10)


@pytest.mark.parametrize("name", sorted(TOLERANCE_LOOPS))
@pytest.mark.parametrize("tol", [math.inf, math.nan])
def test_non_finite_tolerance_rejected(name, tol):
    # An infinite tolerance would stop every loop at its first step and
    # claim convergence that was never checked.
    with pytest.raises(DomainError, match="finite"):
        TOLERANCE_LOOPS[name](tol, 10)


@pytest.mark.parametrize("name", sorted(TOLERANCE_LOOPS))
@pytest.mark.parametrize("cap", [0, -1, 2.5])
def test_invalid_iteration_cap_rejected(name, cap):
    # rejected before any work, not after a full evaluation ending in
    # NonConvergenceError "... within -1 iterations"
    with pytest.raises(DomainError, match="integer of at least 1"):
        TOLERANCE_LOOPS[name](1e-10, cap)


def test_recorder_stopping_rule():
    recorder = TraceRecorder(1e-3, 2, "toy loop")
    assert recorder.record(0, None, 1.0)
    assert not recorder.record(1, None, 1e-3)
    assert recorder.build().converged
    with pytest.raises(NonConvergenceError, match="toy loop failed to reach 0.001 within 2"):
        recorder.record(2, None, 0.5)
    walk = TraceRecorder()
    assert walk.record(0, None, 0.0)
    assert not walk.build(iterations_used=7).converged
    assert walk.build(iterations_used=7).iterations_used == 7
