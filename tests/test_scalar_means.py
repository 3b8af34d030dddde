import math

import mpmath
import numpy as np
import pytest

from spdmeans import (
    ComplexPolar,
    DomainError,
    DoubleSequenceSpec,
    NonConvergenceError,
    WeightVector,
    agm,
    ahm,
    complex_ahm,
    double_sequence,
    elliptic_k,
    identity_generator,
    log_generator,
    power_generator,
    power_mean,
    pythagorean_mean,
    quasi_arithmetic_mean,
    reciprocal_generator,
)
from spdmeans.scalar_means import (
    POWER_MEAN_P_CUTOFF,
    _PYTHAGOREAN_MEANS,
    _check_betweenness,
    check_generator,
)

# AGM(1, 2) to 19 significant digits, computed independently at high
# precision; float64 rounds it to 1.4567910310469069.
AGM_1_2 = 1.456791031046906869


# ---------------------------------------------------------------------------
# Pythagorean and power means
# ---------------------------------------------------------------------------

def test_pythagorean_examples():
    assert pythagorean_mean("arithmetic", 4, 9) == 6.5
    assert pythagorean_mean("geometric", 4, 4) == 4.0
    assert pythagorean_mean("harmonic", 1, 1 / 3) == pytest.approx(0.5, rel=1e-15)


def test_pythagorean_rejects_nonpositive_and_unknown():
    with pytest.raises(DomainError):
        pythagorean_mean("arithmetic", -1, 2)
    with pytest.raises(DomainError):
        pythagorean_mean("arithmetic", 1, 0)
    with pytest.raises(DomainError):
        pythagorean_mean("median", 1, 2)


@pytest.mark.parametrize("mean", [
    lambda x, y: pythagorean_mean("arithmetic", x, y),
    lambda x, y: pythagorean_mean("harmonic", x, y),
    lambda x, y: power_mean(0.5, x, y),
    agm,
    ahm,
])
def test_scalar_means_reject_infinite_inputs(mean):
    for x, y in ((math.inf, 2.0), (2.0, math.inf), (math.inf, math.inf)):
        with pytest.raises(DomainError, match="finite"):
            mean(x, y)


def test_power_mean_examples():
    assert power_mean(1, 4, 9) == pytest.approx(6.5, rel=1e-15)
    assert power_mean(0, 4, 9) == pytest.approx(6.0, rel=1e-15)
    assert power_mean(-1, 1, 1 / 3) == pytest.approx(0.5, rel=1e-15)


def _power_mean_reference(p: float, x: float, y: float) -> float:
    with mpmath.workdps(50):
        p, x, y = mpmath.mpf(p), mpmath.mpf(x), mpmath.mpf(y)
        return float(((x ** p + y ** p) / 2) ** (1 / p))


@pytest.mark.parametrize("p", [1e-7, -1e-7, 1e-6, -1e-6, 1e-3, 0.5, -1.5])
def test_power_mean_matches_a_50_digit_reference(rng, p):
    # near the p -> 0 cutoff a direct ((x^p + y^p)/2)^(1/p) keeps few digits
    for _ in range(100):
        x, y = (float(v) for v in np.exp(rng.uniform(-5, 5, size=2)))
        expected = _power_mean_reference(p, x, y)
        assert abs(power_mean(p, x, y) - expected) <= 1e-14 * expected


@pytest.mark.parametrize("p", [1e-7, 1e-3, 0.5, 2.0, -1.5])
def test_power_mean_of_inputs_whose_ratio_leaves_the_float_range(p):
    # 1e-300 / 1e300 underflows to 0 and its reciprocal overflows; the
    # difference of logs near +-690 used instead keeps about 13 digits
    x, y = 1e-300, 1e300
    expected = _power_mean_reference(p, x, y)
    assert abs(power_mean(p, x, y) - expected) <= 1e-12 * expected


def test_power_mean_zero_cutoff_is_continuous():
    for p in (1e-9, -1e-9):
        assert power_mean(p, 4, 9) == 6.0
    below, above = power_mean(0.999e-8, 4, 9), power_mean(1.001e-8, 4, 9)
    assert abs(above - below) <= 1e-8 * below


@pytest.mark.parametrize("p", [0.0, 1e-9, 1e-3, 0.5, 2.0, -1.5, 30.0])
@pytest.mark.parametrize("x", [1e-300, 1e-200, 1.0, 1e200, 1e300])
def test_power_mean_is_reflexive_and_finite_at_extreme_magnitudes(p, x):
    assert power_mean(p, x, x) == x
    for y in (3.0 * x, x / 3.0):
        value = power_mean(p, x, y)
        assert min(x, y) <= value <= max(x, y)


def test_pythagorean_chain_and_inbetweenness(rng):
    for _ in range(1000):
        x, y = np.exp(rng.uniform(-3, 3, size=2))
        h = pythagorean_mean("harmonic", x, y)
        g = pythagorean_mean("geometric", x, y)
        a = pythagorean_mean("arithmetic", x, y)
        lo, hi = min(x, y), max(x, y)
        assert lo - 1e-12 * hi <= h <= g <= a <= hi + 1e-12 * hi
    # equality iff x == y
    assert pythagorean_mean("harmonic", 3, 3) == pytest.approx(3.0, rel=1e-12)
    x, y = 2.0, 5.0
    assert pythagorean_mean("harmonic", x, y) < pythagorean_mean("geometric", x, y)
    assert pythagorean_mean("geometric", x, y) < pythagorean_mean("arithmetic", x, y)


def test_every_binary_mean_is_in_between(rng):
    def agm_value(x, y):
        return agm(x, y)[0]

    def ahm_value(x, y):
        return ahm(x, y)[0]

    means = [
        lambda x, y: pythagorean_mean("arithmetic", x, y),
        lambda x, y: pythagorean_mean("geometric", x, y),
        lambda x, y: pythagorean_mean("harmonic", x, y),
        lambda x, y: power_mean(2.7, x, y),
        lambda x, y: power_mean(-0.4, x, y),
        agm_value,
        ahm_value,
    ]
    for _ in range(1000):
        x, y = np.exp(rng.uniform(-3, 3, size=2))
        lo, hi = min(x, y), max(x, y)
        for mean in means:
            m = mean(x, y)
            assert lo * (1 - 1e-12) <= m <= hi * (1 + 1e-12)


def test_power_mean_monotone_in_p(rng):
    for _ in range(200):
        x, y = np.exp(rng.uniform(-2, 2, size=2))
        ps = sorted(rng.uniform(-4, 4, size=4))
        values = [power_mean(p, x, y) for p in ps]
        for lo, hi in zip(values, values[1:]):
            assert lo <= hi * (1 + 1e-12)


def test_power_mean_homogeneous(rng):
    for _ in range(200):
        x, y = np.exp(rng.uniform(-2, 2, size=2))
        lam = float(np.exp(rng.uniform(-2, 2)))
        p = float(rng.uniform(-3, 3))
        assert power_mean(p, lam * x, lam * y) == pytest.approx(
            lam * power_mean(p, x, y), rel=1e-12)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def test_builtin_generators_pass_invariant_checks():
    for gen in (identity_generator(), log_generator(), reciprocal_generator(),
                power_generator(0.0), power_generator(0.5), power_generator(-1.3),
                power_generator(2.0)):
        check_generator(gen)


def test_power_generator_rejects_non_finite_power():
    for p in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="power must be finite"):
            power_generator(p)


def test_generator_roundtrip_precision(rng):
    gen = power_generator(0.7)
    for u in np.exp(rng.uniform(-3, 3, size=50)):
        assert float(gen.inverse(gen.forward(u))) == pytest.approx(u, rel=1e-12)


def test_check_generator_flags_wrong_derivative():
    gen = power_generator(2.0)
    broken = type(gen)(
        forward=gen.forward, inverse=gen.inverse,
        derivative=lambda u: np.
        power(u, 2.0),  # wrong: should be u^{p-1}
        domain=gen.domain, label="broken", power=2.0)
    with pytest.raises(DomainError):
        check_generator(broken)


def test_generator_domain_is_enforced():
    gen = log_generator()
    with pytest.raises(DomainError):
        quasi_arithmetic_mean(gen, [1.0, -2.0], WeightVector.uniform(2))


# ---------------------------------------------------------------------------
# Quasi-arithmetic means and centers
# ---------------------------------------------------------------------------

def test_quasi_arithmetic_mean_examples():
    assert quasi_arithmetic_mean(log_generator(), [4, 9], WeightVector.uniform(2)) \
        == pytest.approx(6.0, rel=1e-12)
    assert quasi_arithmetic_mean(identity_generator(), [7.2] * 5,
                                 WeightVector([0.1, 0.2, 0.3, 0.25, 0.15])) \
        == pytest.approx(7.2, rel=1e-12)
    assert quasi_arithmetic_mean(power_generator(-1), [1, 1 / 3],
                                 WeightVector.uniform(2)) == pytest.approx(0.5, rel=1e-12)


def test_quasi_arithmetic_mean_inbetweenness(rng):
    gens = [log_generator(), power_generator(0.5), power_generator(-2.0),
            reciprocal_generator()]
    for _ in range(200):
        pts = list(np.exp(rng.uniform(-2, 2, size=3)))
        w = rng.uniform(0.1, 1.0, size=3)
        w /= w.sum()
        for gen in gens:
            m = quasi_arithmetic_mean(gen, pts, WeightVector(w))
            assert min(pts) - 1e-12 <= m <= max(pts) + 1e-12


# ---------------------------------------------------------------------------
# Double sequences
# ---------------------------------------------------------------------------

def test_double_sequence_registration_rejects_non_mean():
    with pytest.raises(DomainError):
        DoubleSequenceSpec(mean_one=lambda x, y: x + y,
                           mean_two=lambda x, y: math.sqrt(x * y))


def test_builtin_means_pass_the_betweenness_grid():
    # DoubleSequenceSpec skips the grid for these; they must still pass it.
    for kind, mean in _PYTHAGOREAN_MEANS.items():
        _check_betweenness(kind, mean)
        assert mean(2.0, 5.0) == pythagorean_mean(kind, 2.0, 5.0)


def test_double_sequence_fixed_point():
    value, trace = agm(1.0, 1.0)
    assert value == 1.0
    assert trace.iterations_used == 0


def test_ahm_equals_geometric_mean(rng):
    for _ in range(100):
        x, y = np.exp(rng.uniform(-3, 3, size=2))
        value, _ = ahm(x, y)
        assert value == pytest.approx(math.sqrt(x) * math.sqrt(y), rel=1e-12)


def test_agm_frozen_value_and_sandwich():
    value, trace = agm(1.0, 2.0)
    assert value == pytest.approx(AGM_1_2, rel=1e-13)
    # sandwich: once iterated, the recorded arithmetic side stays above the limit
    for step in trace.steps[1:]:
        assert step.value >= value * (1 - 1e-12)


def test_agm_homogeneity(rng):
    base, _ = agm(1.0, 2.0)
    double, _ = agm(2.0, 4.0)
    assert double == pytest.approx(2 * base, rel=1e-12)
    for _ in range(100):
        x, y = np.exp(rng.uniform(-2, 2, size=2))
        lam = float(np.exp(rng.uniform(-2, 2)))
        a, _ = agm(x, y)
        b, _ = agm(lam * x, lam * y)
        assert b == pytest.approx(lam * a, rel=1e-12)


def test_agm_between_geometric_and_arithmetic(rng):
    for _ in range(100):
        x, y = np.exp(rng.uniform(-2, 2, size=2))
        value, _ = agm(x, y)
        assert math.sqrt(x * y) - 1e-12 <= value <= 0.5 * (x + y) + 1e-12


def test_extreme_magnitudes_do_not_overflow():
    # products like x*y would overflow/underflow here; the means must not
    value, _ = ahm(1e250, 4e250, tolerance=1e-12)
    assert value == pytest.approx(2e250, rel=1e-12)
    value, _ = ahm(1e-250, 4e-250, tolerance=1e-12)
    assert value == pytest.approx(2e-250, rel=1e-12)
    value, _ = agm(1e-200, 1e-190)
    assert 1e-200 < value < 1e-190
    assert pythagorean_mean("geometric", 1e200, 4e200) == pytest.approx(2e200, rel=1e-12)
    assert pythagorean_mean("harmonic", 1e300, 1e300) == pytest.approx(1e300, rel=1e-12)


def test_means_halve_before_adding_near_the_float_maximum():
    # x + y overflows; x/2 + y/2 does not, and is exact for normal floats
    x, y = 1e308, 1.5e308
    root = math.sqrt(x) * math.sqrt(y)
    assert pythagorean_mean("arithmetic", x, y) == 1.25e308
    assert agm(x, y)[0] == pytest.approx(1e308 * agm(1.0, 1.5)[0], rel=1e-15)
    assert ahm(x, y)[0] == pytest.approx(root, rel=1e-15)
    z = complex_ahm(ComplexPolar(x, 0.0), ComplexPolar(y, 0.0))
    assert (z.modulus, z.argument) == (pytest.approx(root, rel=1e-15), 0.0)
    z = complex_ahm(ComplexPolar(x, 0.4), ComplexPolar(y, -0.2))
    assert z.modulus == pytest.approx(root, rel=1e-13)
    assert z.argument == pytest.approx(0.1, abs=1e-13)


# of these, sqrt(x) sqrt(x) rounds back to x only at 1.1 and 1e-300
@pytest.mark.parametrize("x", [1.1, 1.3, 2.0, 3.0, 5.0, 7.0, 10.0, 0.3, 1e-300, 1e300])
def test_geometric_means_are_reflexive(x):
    assert pythagorean_mean("geometric", x, x) == x
    assert agm(x, x)[0] == x
    assert ahm(x, x)[0] == x


def test_geometric_mean_of_reciprocal_extremes():
    # max(x, y) sqrt(min/max) would underflow to 0 here
    assert pythagorean_mean("geometric", 1e-300, 1e300) == pytest.approx(1.0, rel=1e-15)


def test_agm_ahm_order_estimates(rng):
    # moderately separated pairs keep the trailing window in the
    # quadratic regime
    for _ in range(20):
        x = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        y = x * float(np.exp(rng.uniform(np.log(1.5), np.log(3.0))))
        assert 1.7 <= agm(x, y)[1].order_estimate <= 2.3
        assert 1.7 <= ahm(x, y)[1].order_estimate <= 2.3


def test_double_sequence_nonconvergence_carries_trace():
    spec = DoubleSequenceSpec(
        mean_one=lambda x, y: 0.5 * (x + y),
        mean_two=lambda x, y: math.sqrt(x * y),
        tolerance=1e-13,
        max_iterations=2,
    )
    with pytest.raises(NonConvergenceError) as err:
        double_sequence(spec, 1.0, 1000.0)
    trace = err.value.trace
    assert trace is not None and not trace.converged
    assert trace.iterations_used == 2
    assert len(trace.steps) == 3


# ---------------------------------------------------------------------------
# Elliptic integral
# ---------------------------------------------------------------------------

def test_elliptic_k_at_zero():
    assert elliptic_k(0.0) == pytest.approx(math.pi / 2, abs=1e-13)


def test_elliptic_k_even(rng):
    for u in rng.uniform(0, 0.99, size=20):
        assert elliptic_k(u) == pytest.approx(elliptic_k(-u), rel=1e-13)


def test_elliptic_k_domain():
    for u in (1.0, -1.0, 1.5):
        with pytest.raises(DomainError):
            elliptic_k(u)


def test_agm_elliptic_identity_frozen_case():
    # pi/4 * (x + y) / K((x - y)/(x + y)) with (x, y) = (2, 1)
    assert math.pi / 4 * 3 / elliptic_k(1 / 3) == pytest.approx(AGM_1_2, rel=1e-12)


def test_agm_elliptic_identity_random(rng):
    for _ in range(100):
        x, y = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), size=2))
        if x == y:
            continue
        value, _ = agm(x, y)
        oracle = math.pi / 4 * (x + y) / elliptic_k((x - y) / (x + y))
        assert value == pytest.approx(oracle, rel=1e-10)


# ---------------------------------------------------------------------------
# Complex AHM
# ---------------------------------------------------------------------------

def test_complex_polar_validation():
    with pytest.raises(DomainError):
        ComplexPolar(0.0, 1.0)
    z = ComplexPolar(1.0, 3 * math.pi)  # normalized to principal branch
    assert z.argument == pytest.approx(math.pi)


@pytest.mark.parametrize("modulus, argument", [
    (math.inf, 0.0), (math.nan, 0.0), (1.0, math.inf), (1.0, -math.inf), (1.0, math.nan),
])
def test_complex_polar_rejects_non_finite(modulus, argument):
    with pytest.raises(DomainError, match="finite"):
        ComplexPolar(modulus, argument)


def test_complex_ahm_examples():
    z = complex_ahm(ComplexPolar(1, 0), ComplexPolar(1, 0))
    assert (z.modulus, z.argument) == (pytest.approx(1.0), pytest.approx(0.0))
    z = complex_ahm(ComplexPolar(2, 0), ComplexPolar(8, math.pi / 2))
    assert z.modulus == pytest.approx(4.0, rel=1e-10)
    assert z.argument == pytest.approx(math.pi / 4, abs=1e-10)
    z = complex_ahm(ComplexPolar(3.7, 1.1), ComplexPolar(3.7, 1.1))
    assert z.modulus == pytest.approx(3.7, rel=1e-12)
    assert z.argument == pytest.approx(1.1, abs=1e-12)


def test_complex_ahm_closed_form_random(rng):
    for _ in range(100):
        r1, r2 = np.exp(rng.uniform(-2, 2, size=2))
        delta = float(rng.uniform(-0.95, 0.95) * math.pi)
        margin = (math.pi - abs(delta)) / 2 * 0.98
        mid = float(rng.uniform(-margin, margin))
        t1, t2 = mid + delta / 2, mid - delta / 2
        z = complex_ahm(ComplexPolar(r1, t1), ComplexPolar(r2, t2))
        assert z.modulus == pytest.approx(math.sqrt(r1 * r2), rel=1e-10)
        assert z.argument == pytest.approx((t1 + t2) / 2, abs=1e-10)


def test_complex_ahm_branch_restriction():
    with pytest.raises(DomainError):
        complex_ahm(ComplexPolar(1, -0.6 * math.pi), ComplexPolar(1, 0.6 * math.pi))
