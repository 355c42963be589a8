"""Drift constants, the exact block law in both regimes, slopes."""

from __future__ import annotations

import math
import random
import re
import statistics
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perisys import (
    BACKEND_SIGNEDLOG,
    PerisysError,
    SystemSpec,
    TooFewPointsError,
    TrajectoryIndexError,
    block_ratio_check,
    classify,
    drift,
    growth_slope,
    random_positive_spec,
    simulate,
    to_signed_log,
    trajectory_rows,
)

from conftest import (
    find_window_cycle,
    fixed_point_spec,
    materialised,
    nonzero_rationals,
    random_signed_spec,
    specs,
)
from oracles import Monotonicity, monotone_check, regression_slope, stride_values


def test_drift_homogeneous():
    report = drift(fixed_point_spec(6, 10))
    assert report.c == 1
    assert report.drift_per_step == 0.0
    assert report.steps_per_block == 60
    assert report.block_ratio == 1
    # ratio 1 is plain periodicity of the x sequence
    spec = random_positive_spec(random.Random(2), 6, 10)
    assert block_ratio_check(simulate(spec, 130))


def test_drift_halving_system():
    spec = replace(random_positive_spec(random.Random(0), 6, 10), a=1, b=2)
    report = drift(spec)
    assert report.c == Fraction(1, 2)
    assert report.drift_per_step == -math.log(2) / 12
    assert report.block_ratio == Fraction(1, 32)
    # oracle: the literal block ratio is that exact constant, everywhere
    full = materialised(spec, 200)
    ratios = {full.x(n + 60) / full.x(n) for n in range(1, 141)}
    assert ratios == {Fraction(1, 32)}
    assert block_ratio_check(simulate(spec, 200))
    assert block_ratio_check(full)


def test_drift_large_doubling_system():
    spec = replace(random_positive_spec(random.Random(1), 60, 84), a=2, b=1)
    report = drift(spec)
    assert report.block_ratio == Fraction(128)
    assert report.steps_per_block == 840
    traj = simulate(spec, 940)
    assert block_ratio_check(traj)
    assert {traj.x(n + 840) / traj.x(n) for n in range(1, 101)} == {Fraction(128)}


def test_drift_omits_ratio_for_even_quotient():
    # d = 4 does not divide q = 6 (p/g even): no one ratio, yet the block
    # law holds as the shifted product W_n W_{n-2} = c^3, W_n = x_{n+M} / x_n
    spec = fixed_point_spec(4, 6)
    assert drift(spec).block_ratio is None
    assert block_ratio_check(simulate(spec, 40))
    halving = replace(random_signed_spec(random.Random(18), 4, 6), a=1, b=2)
    assert drift(halving).block_ratio is None
    assert block_ratio_check(simulate(halving, 40))
    assert block_ratio_check(materialised(halving, 40))


def test_block_ratio_negative_c():
    # b = -a: the ratio law holds exactly with its sign, c^(q/g) = (-1)^5
    spec = random_signed_spec(random.Random(3), 6, 10, a=1, b=-1)
    report = drift(spec)
    assert report.c == -1
    assert report.drift_per_step == 0.0
    assert report.block_ratio == -1
    traj = simulate(spec, 200)
    assert block_ratio_check(traj)
    assert traj.x(61) == -traj.x(1)


@pytest.mark.parametrize("p,q", [(2, 4), (2, 6), (9, 15), (6, 10)])
def test_block_ratio_law_random_parameters(p, q):
    # d | q, p/g odd: the ratio law is exact for arbitrary nonzero a, b,
    # and c^(q/d) is c^(q/g)
    rng = random.Random(100 * p + q)
    spec = random_signed_spec(rng, p, q)
    m = math.lcm(p, 2 * q)
    traj = simulate(spec, 2 * m + q)
    assert block_ratio_check(traj)
    assert drift(spec).block_ratio == spec.c ** (q // math.gcd(p, q))


def test_growth_slope_exactly_zero_on_periodic_balanced_system():
    # c = 1 with odd quotient: the stride-m subsequence is constant from
    # index 0 on, so the block ratio is 1 and its log exactly 0.0
    spec = random_positive_spec(random.Random(16), 6, 10)
    traj = simulate(spec, 400)
    assert traj.x(0) == traj.x(60)
    for t in (0, 13, 59):
        assert growth_slope(traj, 60, t) == 0.0


def test_block_ratio_detects_corruption():
    spec = replace(random_positive_spec(random.Random(4), 6, 10), a=1, b=2)
    traj = materialised(spec, 150)
    assert block_ratio_check(traj)
    traj.x_nums[100] *= 3
    assert not block_ratio_check(traj)


def test_block_ratio_needs_enough_steps():
    """The law refuses only a trajectory that ends before its first comparison."""
    # (6, 10): M = 60 and d = 2 divides q, so x_61 against c^(q/d) x_1 comes first
    spec = random_positive_spec(random.Random(5), 6, 10)
    with pytest.raises(ValueError):
        block_ratio_check(simulate(spec, 59))
    with pytest.raises(TooFewPointsError, match=r"^needs n >= 61$"):
        block_ratio_check(simulate(spec, 60))
    assert block_ratio_check(simulate(spec, 61))
    traj = materialised(spec, 61)
    traj.x_nums[10 + 60] *= 3  # x_61
    assert not block_ratio_check(traj)
    # (4, 6): M = 12 and d = 4 does not divide q, so the head x_13 / x_1,
    # x_14 / x_2 is first compared at x_15
    spec = random_positive_spec(random.Random(5), 4, 6)
    with pytest.raises(TooFewPointsError, match=r"^needs n >= 15$"):
        block_ratio_check(simulate(spec, 14))
    assert block_ratio_check(simulate(spec, 15))
    traj = materialised(spec, 15)
    traj.x_nums[6 + 14] *= 3  # x_15
    assert not block_ratio_check(traj)


def test_block_law_brute_force_small():
    # (2, 3): no cycle exists, yet x_{n+6} / x_n takes d = 2 values, whose
    # product is c^3 = 1, and the second difference it implies is exact
    spec = random_positive_spec(random.Random(6), 2, 3)
    traj = materialised(spec, 60)
    m = 6
    sigma = [traj.x(m + 1) / traj.x(1), traj.x(m + 2) / traj.x(2)]
    assert sigma[0] * sigma[1] == 1 and sigma[0] != sigma[1]
    for n in range(1, 60 - m + 1):
        assert traj.x(n + m) == sigma[(n - 1) % 2] * traj.x(n)
    for n in range(1, 60 - 2 * m + 1):
        assert traj.x(n + 2 * m) * traj.x(n) == traj.x(n + m) ** 2
    assert block_ratio_check(traj)
    assert block_ratio_check(simulate(spec, 60))


@pytest.mark.parametrize("p,q,a,b", [
    (2, 3, 1, 1),
    (4, 6, 1, 1),
    (2, 3, 2, -2),
    (6, 10, -3, 3),
    (3, 5, 5, 5),
    (2, 3, 1, 2),
    (4, 6, Fraction(-3, 2), 5),
    (6, 8, 2, -7),
])
def test_block_law_across_regimes(p, q, a, b):
    spec = random_signed_spec(random.Random(7), p, q, a=a, b=b)
    m = math.lcm(p, 2 * q)
    for traj in (simulate(spec, 2 * m + q + 5), materialised(spec, 2 * m + q + 5)):
        assert block_ratio_check(traj)


def test_block_law_trivial_on_periodic():
    traj = simulate(fixed_point_spec(6, 10), 130)
    assert block_ratio_check(traj)


def test_block_law_needs_only_n_at_least_m_plus_d():
    """|b| != |a| and p/g even are no guard: only n < M + d/2 + 1 is refused, M = 6, d = 2."""
    spec = replace(random_positive_spec(random.Random(8), 2, 3), a=1, b=2)
    assert block_ratio_check(simulate(spec, 30))
    balanced = random_positive_spec(random.Random(8), 2, 3)
    with pytest.raises(TooFewPointsError, match=r"^needs n >= 8$"):
        block_ratio_check(simulate(balanced, 7))
    assert block_ratio_check(simulate(balanced, 8))
    traj = materialised(balanced, 30)
    assert block_ratio_check(traj)
    traj.x_nums[25] *= 5
    assert not block_ratio_check(traj)


REGIMES = {  # q <= 8 delay pairs, by whether d = gcd(p, 2q) divides q
    divides: [(p, q) for q in range(1, 9) for p in range(1, q + 1)
              if (q % math.gcd(p, 2 * q) == 0) is divides]
    for divides in (True, False)
}


@st.composite
def block_law_specs(draw):
    """Signed a, b and initial data on a q <= 8 delay pair, each regime drawn half the time."""
    p, q = draw(st.sampled_from(REGIMES[draw(st.booleans())]))
    values = st.lists(nonzero_rationals, min_size=q, max_size=q)
    return SystemSpec(a=draw(nonzero_rationals), b=draw(nonzero_rationals), p=p, q=q,
                      x_init=tuple(draw(values)), y_init=tuple(draw(values)))


@settings(max_examples=150, deadline=None)
@given(block_law_specs(), st.integers(0, 2))
def test_block_law_holds_in_both_regimes(spec, extra):
    """Materialised and ``simulate`` trajectories pass, from n = M + d to far past the block."""
    m, d = math.lcm(spec.p, 2 * spec.q), math.gcd(spec.p, 2 * spec.q)
    for n in (m + d + extra, 2 * m + spec.q + 3):
        assert block_ratio_check(materialised(spec, n)), n
        assert block_ratio_check(simulate(spec, n)), n
    assert block_ratio_check(simulate(spec, 50 * m + 7))


def test_growth_slope_fixed_point_is_zero():
    traj = simulate(fixed_point_spec(2, 3), 60)
    assert growth_slope(traj, 12, 0) == 0.0


def test_growth_slope_matches_exact_block_increment():
    # stride 12 turns the (2, 3) log subsequence exactly arithmetic
    spec = random_positive_spec(random.Random(9), 2, 3)
    traj = simulate(spec, 240)
    values = stride_values(traj, 12, 0)
    steps = {values[k + 1] / values[k] for k in range(len(values) - 1)}
    assert len(steps) == 1  # exactly one rational ratio between consecutive points
    expected = to_signed_log(steps.pop()).logmag
    slope = growth_slope(traj, 12, 0)
    assert math.isclose(slope, expected, rel_tol=1e-9, abs_tol=1e-9)
    assert abs(slope) > 1e-6


def test_growth_slope_periodic_with_drift():
    spec = replace(random_positive_spec(random.Random(10), 6, 10), a=1, b=2)
    traj = simulate(spec, 250)
    slope = growth_slope(traj, 60, 0)
    assert math.isclose(slope, -5 * math.log(2), rel_tol=0, abs_tol=1e-6)


def test_growth_slope_signedlog_backend():
    spec = random_positive_spec(random.Random(9), 2, 3)
    exact = growth_slope(simulate(spec, 240), 12, 0)
    # the same least-squares fit over the signed-log x_{12n}, n = 0 .. 20
    logs = [to_signed_log(spec.x_init[-1]).logmag]
    logs += [log_x for n, _, _, _, log_x, _, _ in trajectory_rows(spec, 240, BACKEND_SIGNEDLOG)
             if n % 12 == 0]
    logged = statistics.linear_regression(range(len(logs)), logs).slope
    assert math.isclose(exact, logged, rel_tol=1e-9, abs_tol=1e-9)


def test_growth_slope_too_few_points():
    """The ratio needs x_{t+m}: n_max < t + m is refused in the laws' "needs n >= N" form.

    ``simulate`` stores through 2M = 12 on (2, 3), so x_17 is never
    stored there, whatever n is; a trajectory that stores it reads it.
    """
    for n, m, t in ((11, 12, 0), (16, 12, 5), (17, 12, 5), (10**6, 12, 5)):
        with pytest.raises(TooFewPointsError, match=rf"^needs n >= {t + m}$"):
            growth_slope(simulate(fixed_point_spec(2, 3), n), m, t)
    assert growth_slope(simulate(fixed_point_spec(2, 3), 10**6), 12, 0) == 0.0
    assert growth_slope(materialised(fixed_point_spec(2, 3), 17), 12, 5) == 0.0


@pytest.mark.parametrize("m,t,message", [(0, 0, "stride m must be >= 1, got 0"),
                                         (5, 5, "offset t must lie in 0..4, got 5"),
                                         (5, -1, "offset t must lie in 0..4, got -1")])
def test_growth_slope_range_errors_are_typed(m, t, message):
    """A library caller can catch a bad stride or offset as ``PerisysError``; it stays a ValueError."""
    with pytest.raises(PerisysError, match=f"^{re.escape(message)}$") as raised:
        growth_slope(simulate(fixed_point_spec(2, 3), 20), m, t)
    assert isinstance(raised.value, ValueError)


@settings(max_examples=60, deadline=None)
@given(specs())
def test_growth_slope_matches_the_regression_oracle(spec):
    """The exact block increment is the least-squares slope, at every offset of both strides.

    The strides are those ``verify`` passes, the predicted period or the
    witness modulus, and twice that; n = 4 strides gives every offset t at
    least four points, which the trajectory that stores every value
    holds.  ``simulate`` stores through 2M, and gives the same slope
    wherever x_{t+m} lies there.
    """
    classification = classify(spec.p, spec.q)
    base = classification.predicted_period or classification.witness_modulus
    for stride in (base, 2 * base):
        traj = materialised(spec, 4 * stride)
        stored = simulate(spec, 4 * stride)
        for t in range(stride):
            oracle = regression_slope(traj, stride, t)
            slope = growth_slope(traj, stride, t)
            assert abs(slope - oracle) <= 1e-12 * max(1.0, abs(oracle)), (stride, t)
            if t + stride <= stored.n_max:
                assert growth_slope(stored, stride, t) == slope, (stride, t)


def test_growth_slope_reads_two_stored_values_at_any_n():
    """At n = 10**12 on a periodic spec two blocks are stored, and the slope reads two of them.

    The columns hold q + 2M values, M = lcm(p, 2q); x_{2M+1} is not
    stored and raises; the slope is the regression oracle's over the
    trajectory that stores every value through 3M.
    """
    spec = random_signed_spec(random.Random(17), 3, 5, a=2, b=-2)
    m = math.lcm(spec.p, 2 * spec.q)
    expected = {t: regression_slope(materialised(spec, 3 * m), m, t) for t in (0, 1, m - 1)}
    traj = simulate(spec, 10**12)
    assert traj.n_max == 2 * m
    assert all(len(column) == spec.q + 2 * m
               for column in (traj.x_nums, traj.x_dens, traj.y_nums, traj.y_dens))
    with pytest.raises(TrajectoryIndexError):
        traj.x(2 * m + 1)
    for t, value in expected.items():
        assert growth_slope(traj, m, t) == value == 0.0


def test_monotone_constant_on_periodic():
    spec = random_positive_spec(random.Random(11), 6, 10)
    traj = materialised(spec, 400)
    for t in (0, 7, 33, 59):
        assert monotone_check(traj, 60, t) is Monotonicity.CONSTANT


def test_monotone_decreasing_and_increasing():
    halving = replace(random_positive_spec(random.Random(12), 6, 10), a=1, b=2)
    traj = materialised(halving, 400)
    assert monotone_check(traj, 60, 0) is Monotonicity.DECREASING
    doubling = replace(random_positive_spec(random.Random(12), 6, 10), a=2, b=1)
    traj = materialised(doubling, 400)
    assert monotone_check(traj, 60, 5) is Monotonicity.INCREASING


def test_monotone_non_monotone_at_half_period():
    spec = random_positive_spec(random.Random(13), 6, 10)
    traj = materialised(spec, 400)
    # stride 30 alternates between the two half-period values of the cycle
    for t in range(30):
        if traj.x(120 + t) != traj.x(150 + t):
            assert monotone_check(traj, 30, t) is Monotonicity.NON_MONOTONE
            break
    else:
        pytest.fail("no alternating residue class found")


def test_monotone_guards():
    spec = random_positive_spec(random.Random(14), 6, 10)
    with pytest.raises(TooFewPointsError):
        monotone_check(simulate(spec, 100), 60, 0)


def test_alternating_sign_dynamics():
    # b = -a: signs of (x, y) pairs are eventually periodic and magnitudes
    # obey the drift-free laws
    spec = random_signed_spec(random.Random(15), 6, 10, a=2, b=-2)
    traj = materialised(spec, 400)
    signs = [(1 if traj.x(n) > 0 else -1, 1 if traj.y(n) > 0 else -1) for n in range(-9, 401)]
    assert find_window_cycle(signs, 10) is not None
    assert {abs(traj.x(n + 60) / traj.x(n)) for n in range(1, 301)} == {Fraction(1)}
    assert block_ratio_check(traj)
    assert block_ratio_check(simulate(spec, 400))
