"""The three exact conservation checks against naive Fraction oracles.

Each check in perisys is a call into one comparison engine,
``simulator._matches_reference_cycle``, which compares every stored v_k
with r_j w_{k-lag}, cross-multiplied over numerators and denominators,
where the r_j are small references.  A shifted-product law,
W_k W_{k-s} = C, takes as references the s quotients W of its head and C
over each, 2s references.  Three laws are such: the product invariant
(v = y, w = 1/x), W = z = x y and s = q; the x-relation,
W = rho_r = x_r / x_{r-p} and s = q; and the block law when
d = gcd(p, 2q) does not divide q, W = x_{M+r} / x_r and s = d/2, with
M = lcm(p, 2q).  When d | q the block law's one reference is the
constant c^(q/d).  No law compares a stored value outside the engine.
A trajectory from ``simulate`` stores its initial data and the kernel's
values through min(n, 2M): two generated blocks at most.  Every
trajectory is compared at every stored offset.  The ``oracle_*``
functions below are the reference: they form the Fraction products of
each law directly at every index and read every value through the
bounds-checked ``Trajectory.x()``/``y()`` accessors.  They exist only for
the differential tests here.  ``oracle_block_ratio`` and
``oracle_second_difference`` are the two block laws that the one block
law replaced, kept as labelled oracles: where the first applies, the
block law must agree with it, and wherever the block law holds, so must
the second.  Those cover long periodic trajectories in both forms,
simulated and materialised (the conftest ``materialised``, every value
stored through n), clean and corrupted: in their last block, at every
T-th index, T = M, and in their initial data; drifting and unbounded
ones in both forms; and hand-built ones whose values past M scale the
first block by a corrupted multiplier, against the oracles.  One tripled
x in either block that ``simulate`` stores fails the block law on its own.
The block law is also tested against ``oracles.sigma_orbit_block_law``,
the law as it ran before it became one engine call, with its d ratios
and their orbit products: on every corruption and corrupted multiplier
here, on hypothesis draws of both regimes, and on a W that repeats with
period 2q but not d.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perisys import (
    TooFewPointsError,
    Trajectory,
    TrajectoryIndexError,
    block_multipliers,
    block_ratio_check,
    growth_slope,
    product_invariant_check,
    random_positive_spec,
    simulate,
    simulator,
    step_coefficients,
    x_relation_check,
)
from perisys.numerics import Rational, component_bits

from conftest import (
    logical_columns,
    materialised,
    nonzero_rationals,
    outcome,
    product_family_spec,
    random_signed_spec,
    specs,
)
from oracles import WrongRegimeError, sigma_orbit_block_law


def oracle_product_invariant(traj) -> bool:
    """Oracle: (x_n y_n)(x_{n-q} y_{n-q}) == ab as Fraction products."""
    spec = traj.spec
    ab = spec.a * spec.b
    return all(
        (traj.x(n) * traj.y(n)) * (traj.x(n - spec.q) * traj.y(n - spec.q)) == ab
        for n in range(1, traj.n_max + 1)
    )


def oracle_x_relation(traj) -> bool:
    """Oracle: x_n x_{n-q} == c x_{n-p} x_{n-p-q} as Fraction products."""
    spec = traj.spec
    start = max(spec.p, spec.q) + 1
    if traj.n_max < start:
        raise TooFewPointsError(f"need a trajectory through at least n={start}, have {traj.n_max}")
    c = spec.c
    return all(
        traj.x(n) * traj.x(n - spec.q) == c * traj.x(n - spec.p) * traj.x(n - spec.p - spec.q)
        for n in range(start, traj.n_max + 1)
    )


def oracle_block_law(traj) -> bool:
    """Oracle: sigma_r = x_{M+r} / x_r multiply to c^(|orbit| q / d) and x_{n+M} == sigma_n x_n.

    As Fraction products, with the orbit of each class r under the shift
    by q (mod d) formed as a set, so its size is found, not derived.  The
    sigma_r are formed for r = 1 .. min(d, n_max - M); only an orbit whose
    sigma are all formed is multiplied, and with none the trajectory is
    too short.
    """
    spec = traj.spec
    m, d = math.lcm(spec.p, 2 * spec.q), math.gcd(spec.p, 2 * spec.q)
    sigma = {n % d: traj.x(n + m) / traj.x(n) for n in range(1, min(d, traj.n_max - m) + 1)}
    orbits = [{(r + i * spec.q) % d for i in range(d)} for r in range(d)]
    complete = [orbit for orbit in orbits if orbit <= sigma.keys()]
    if not complete:
        raise TooFewPointsError(f"no orbit of sigma is formed through n={traj.n_max}")
    if any(math.prod(sigma[k] for k in orbit) != spec.c ** (len(orbit) * spec.q // d)
           for orbit in complete):
        return False
    return all(traj.x(n + m) == sigma[n % d] * traj.x(n) for n in range(1, traj.n_max - m + 1))


def oracle_block_ratio(traj) -> bool:
    """Oracle of the old block-ratio law, p/g odd only: x_{n+m} == c^(q/g) x_n as Fraction products."""
    spec = traj.spec
    g = math.gcd(spec.p, spec.q)
    if (spec.p // g) % 2 == 0:
        raise WrongRegimeError(f"p/gcd(p, q) is even for (p, q) = ({spec.p}, {spec.q})")
    m = math.lcm(spec.p, 2 * spec.q)
    if traj.n_max < m + 1:
        raise TooFewPointsError(f"need a trajectory through n={m + 1}, have {traj.n_max}")
    ratio = spec.c ** (spec.q // g)
    return all(
        traj.x(n + m) == ratio * traj.x(n)
        for n in range(1, traj.n_max - m + 1)
    )


def oracle_second_difference(traj) -> bool:
    """Oracle of the old second-difference law: x_{n+2m} x_n == x_{n+m}^2 as Fraction products.

    The old law refused |b| != |a|, but the block law implies it for
    every a and b, so the oracle applies in every regime.
    """
    spec = traj.spec
    m = math.lcm(spec.p, 2 * spec.q)
    if traj.n_max < 2 * m + 1:
        raise TooFewPointsError(f"need a trajectory through n={2 * m + 1}, have {traj.n_max}")
    return all(
        traj.x(n + 2 * m) * traj.x(n) == traj.x(n + m) ** 2
        for n in range(1, traj.n_max - 2 * m + 1)
    )


CHECKS_AND_ORACLES = (
    (product_invariant_check, oracle_product_invariant),
    (x_relation_check, oracle_x_relation),
    (block_ratio_check, oracle_block_law),
)


@st.composite
def trajectories(draw, materialise=False):
    """Clean trajectories, and ones with one stored x or y corrupted.

    A corruption scales the value by a rational other than 1, or only
    flips its sign, through its numerator and denominator columns.  It can
    land on an initial entry as well as on a generated one.  Trajectories
    run to n = 4m + 3q.  Past 2M one is drawn as ``simulate`` stores it,
    through 2M, or materialised, with every value through n stored.  With
    ``materialise`` every trajectory is materialised and runs to
    n >= M + d, so that the block law applies.
    """
    spec = draw(specs())
    m, d = math.lcm(spec.p, 2 * spec.q), math.gcd(spec.p, 2 * spec.q)
    n = draw(st.integers(m + d if materialise else 1, 4 * m + 3 * spec.q))
    traj = simulate(spec, n)
    if materialise or (traj.n_max < n and draw(st.booleans())):
        traj = materialised(spec, n)
    corruption = draw(st.sampled_from(["none", "scale", "sign"]))
    if corruption != "none":
        if draw(st.booleans()):
            nums, dens = traj.x_nums, traj.x_dens
        else:
            nums, dens = traj.y_nums, traj.y_dens
        k = draw(st.integers(0, len(nums) - 1))  # stored list offset; below q is an initial entry
        if corruption == "sign":
            nums[k] = -nums[k]
        else:
            factor = draw(nonzero_rationals.filter(lambda r: r != 1))
            nums[k] *= factor.numerator
            dens[k] *= factor.denominator
    return traj


@settings(max_examples=300, deadline=None)
@given(trajectories())
def test_checks_match_fraction_oracles(traj):
    for check, oracle in CHECKS_AND_ORACLES:
        assert outcome(check, traj) == outcome(oracle, traj), check.__name__


@settings(max_examples=200, deadline=None)
@given(trajectories(materialise=True))
def test_block_law_agrees_with_the_old_block_laws(traj):
    """Materialised data, clean and corrupted, against the two laws the block law replaced.

    Where the old block ratio applies, p/gcd(p, q) odd, the verdicts are
    equal.  Wherever the block law passes, the second difference holds
    (or the trajectory is too short for it, n < 2M + 1).
    """
    verdict = block_ratio_check(traj)
    old = outcome(oracle_block_ratio, traj)
    assert old is WrongRegimeError or verdict == old
    if verdict:
        assert outcome(oracle_second_difference, traj) in (True, TooFewPointsError)


@settings(max_examples=300, deadline=None)
@given(trajectories())
def test_block_law_matches_the_sigma_orbit_reference(traj):
    """Both regimes, mixed signs of a and b, both forms, clean and corrupted: one verdict.

    Every value that ``simulate`` or a corruption stores is nonzero, so
    the one intended difference, on a zero x, never arises here.
    """
    assert outcome(block_ratio_check, traj) == outcome(sigma_orbit_block_law, traj)


def test_corrupted_y_fails_product_invariant():
    traj = simulate(random_signed_spec(random.Random(11), 6, 10, a=1, b=1), 200)
    assert product_invariant_check(traj)
    traj.y_nums[10 + 50] *= 3
    assert not product_invariant_check(traj)
    assert not oracle_product_invariant(traj)


def test_sign_flip_of_x_fails_block_ratio():
    spec = replace(random_positive_spec(random.Random(4), 6, 10), a=1, b=2)
    traj = materialised(spec, 150)
    assert block_ratio_check(traj)
    traj.x_nums[100] = -traj.x_nums[100]
    assert not block_ratio_check(traj)
    assert not oracle_block_ratio(traj)


# Pinned corruptions on long trajectories with values of several hundred
# bits: c = 1/2 on (3, 5) (q = 5, s = max(p, q) + 1 = 6, m = 30, d = 1),
# and c = 1 on (2, 3) (m = 6, d = 2, which does not divide q).
# ``simulate`` stores two blocks of these; the tests that corrupt a value
# past them read the conftest ``materialised`` form, every value stored.
DRIFT = random_signed_spec(random.Random(1), 3, 5, a=1, b=2)
UNBOUNDED = random_signed_spec(random.Random(1), 2, 3, a=1, b=1)
LONG = 2000

PINNED = [  # check, oracle, spec, corrupted value (its numerator column), index n, factor
    # head: y_{-4} enters only z_1 z_{-4}; reference: z_10 = z_{2q}; tail
    (product_invariant_check, oracle_product_invariant, DRIFT, "ys", -4, -1),
    (product_invariant_check, oracle_product_invariant, DRIFT, "xs", 10, 3),
    (product_invariant_check, oracle_product_invariant, DRIFT, "ys", 1999, -1),
    # head: x_{-2} enters only at n = s; reference: rho_15 = x_15 / x_12; tail
    (x_relation_check, oracle_x_relation, DRIFT, "xs", -2, -1),
    (x_relation_check, oracle_x_relation, DRIFT, "xs", 15, 3),
    (x_relation_check, oracle_x_relation, DRIFT, "xs", 1990, -1),
    # x_1 and x_31 = x_{M+1}, compared as x_31 = c^(q/d) x_1, c^(q/d) = 1/32; tail
    (block_ratio_check, oracle_block_law, DRIFT, "xs", 1, -1),
    (block_ratio_check, oracle_block_law, DRIFT, "xs", 31, 3),
    (block_ratio_check, oracle_block_law, DRIFT, "xs", 1995, -1),
    # head: x_1 in W_1 = x_7 / x_1; x_8, compared with (c^3 / W_1) x_2, so
    # that W_2 W_1 = c^3 = 1; x_12, compared with (c^3 / W_1) x_6; tail
    (block_ratio_check, oracle_block_law, UNBOUNDED, "xs", 1, -1),
    (block_ratio_check, oracle_block_law, UNBOUNDED, "xs", 8, 3),
    (block_ratio_check, oracle_block_law, UNBOUNDED, "xs", 12, 3),
    (block_ratio_check, oracle_block_law, UNBOUNDED, "xs", 1990, -1),
]


@pytest.mark.parametrize(
    "check, oracle, spec, which, n, factor", PINNED,
    ids=[f"{row[0].__name__}-{'drift' if row[2] is DRIFT else 'unbounded'}"
         f"-{row[3]}[{row[4]}]*{row[5]}" for row in PINNED],
)
def test_pinned_corruption_fails_check_and_oracle(check, oracle, spec, which, n, factor):
    traj = materialised(spec, LONG)
    assert max(map(component_bits, map(Rational, traj.x_nums, traj.x_dens))) >= 300
    assert check(traj)
    nums = traj.x_nums if which == "xs" else traj.y_nums
    nums[n + spec.q - 1] *= factor
    assert not check(traj)
    assert not oracle(traj)


@pytest.mark.parametrize("check, oracle, n", [
    (product_invariant_check, oracle_product_invariant, 2 * DRIFT.q),
    (x_relation_check, oracle_x_relation, max(DRIFT.p, DRIFT.q) + 2 * DRIFT.q),
])
def test_corruption_at_the_end_of_the_literal_head(check, oracle, n):
    """A corruption on the last index of the first cycle of references, where the trajectory ends."""
    traj = simulate(DRIFT, n)
    assert check(traj)
    traj.x_nums[-1] *= 3
    assert not check(traj)
    assert not oracle(traj)


@pytest.mark.parametrize("r", range(DRIFT.q + 1, 2 * DRIFT.q + 1))
@pytest.mark.parametrize("check, oracle, first", [
    (product_invariant_check, oracle_product_invariant, 1),
    (x_relation_check, oracle_x_relation, max(DRIFT.p, DRIFT.q) + 1 - DRIFT.q),
], ids=["product_invariant", "x_relation"])
def test_tail_consistent_corruption_fails_check_and_oracle(check, oracle, first, r):
    """Every stored x_n with n = r (mod 2q), n >= first, scaled by 3.

    ``first`` is the first generated index of each law's quotient (z from
    n = 1, rho from s - q), so each scaled value matches the one 2q before
    it, and only the comparison of the first one, at n = r, with a
    reference from the unscaled head fails.  For the product invariant
    the law fails only there, in the second half of the period.
    """
    traj = materialised(DRIFT, LONG)
    assert check(traj)
    period = 2 * DRIFT.q
    for n in range(first + (r - first) % period, traj.n_max + 1, period):
        traj.x_nums[n + DRIFT.q - 1] *= 3
    assert not check(traj)
    assert not oracle(traj)


@pytest.mark.parametrize("r", [max(DRIFT.p, DRIFT.q) + 1 + DRIFT.q + i for i in range(DRIFT.q)])
def test_tail_consistent_ratio_corruption_fails_x_relation(r):
    """rho_n = x_n / x_{n-p} scaled by 3 for every n = r (mod 2q), n >= r.

    r lies in s + q .. s + 2q - 1.  Each x_n takes the product of the
    scalings along its stride-p chain, so rho_n is scaled only where
    n = r (mod 2q).  The references, rho_{s-q} .. rho_{s-1} and c over
    each, are unscaled, so the check fails at n = r, where rho_r is three
    times rho_{r-2q}, and so does the law.
    """
    traj = materialised(DRIFT, LONG)
    p, q = DRIFT.p, DRIFT.q
    scale = [1] * len(traj.x_nums)  # by list offset
    for k in range(r + q - 1, len(traj.x_nums)):  # list offset k holds n = k - q + 1
        scale[k] = scale[k - p] * (3 if (k - q + 1 - r) % (2 * q) == 0 else 1)
        traj.x_nums[k] *= scale[k]
    assert not x_relation_check(traj)
    assert not oracle_x_relation(traj)


@pytest.mark.parametrize("offset, x_relation", [(3, ZeroDivisionError), (100, False)],
                         ids=["head", "tail"])
def test_zero_stored_x(offset, x_relation):
    """A zero x on (3, 5): the product invariant rejects its zero z and never divides by it.

    The x-relation divides by x_{n-p} only in its head, where list offset 3
    holds x_{-1}, the divisor of rho_2 = x_2 / x_{-1}; past its head it
    compares products, and the zero fails them.
    """
    traj = materialised(DRIFT, 200)
    traj.x_nums[offset] = 0
    assert product_invariant_check(traj) is False
    assert outcome(x_relation_check, traj) == x_relation


def test_zero_stored_x_in_the_block_law():
    """A zero x, the block law's one intended difference from ``sigma_orbit_block_law``.

    The reference divides by every x_r, r = 1 .. d, and raises
    ``ZeroDivisionError`` on a zero one.  The block law divides only in
    the head of its shifted product, by x_1 .. x_{d/2} when d does not
    divide q, and compares every other x as a product.  On (3, 5), where
    d = 1 divides q, a zero x_1 fails against x_{M+1}, and zeros at every
    n = 1 (mod M) pass, as 0 = c^(q/d) 0.  On (2, 3), d = 2, a zero x_1
    still raises and a zero x_2 fails.  ``simulate`` never stores a zero.
    """
    m = math.lcm(DRIFT.p, 2 * DRIFT.q)
    traj = materialised(DRIFT, 200)
    traj.x_nums[DRIFT.q] = 0  # x_1
    assert block_ratio_check(traj) is False
    assert outcome(sigma_orbit_block_law, traj) is ZeroDivisionError
    for k in range(DRIFT.q, len(traj.x_nums), m):  # x_n, n = 1 (mod M)
        traj.x_nums[k] = 0
    assert block_ratio_check(traj) is True
    assert outcome(sigma_orbit_block_law, traj) is ZeroDivisionError
    for n, verdict in ((1, ZeroDivisionError), (2, False)):
        traj = materialised(UNBOUNDED, 200)
        traj.x_nums[UNBOUNDED.q + n - 1] = 0  # x_n
        assert outcome(block_ratio_check, traj) is verdict, n
        assert outcome(sigma_orbit_block_law, traj) is ZeroDivisionError, n


def test_checks_do_not_derive_the_kernel(monkeypatch):
    """The references come from stored values, not from the kernel under test."""
    periodic = simulate(random_signed_spec(random.Random(7), 6, 10, a=1, b=1), 400)
    drifting = simulate(DRIFT, 400)
    unbounded = simulate(UNBOUNDED, 400)

    def kernel(*args):
        raise AssertionError("an exact check derived the step kernel")

    monkeypatch.setattr(simulator, "step_coefficients", kernel)
    monkeypatch.setattr(simulator, "block_multipliers", kernel)
    for traj in (periodic, drifting, unbounded):
        for check, _ in CHECKS_AND_ORACLES:
            assert check(traj), check.__name__


# Long periodic trajectories, at n = 4M + 3q with M = lcm(p, 2q): generic
# c = 1 data on (6, 10), where every R_r = 1 (P = M = 60); b = -a on
# (3, 5), where R = -1 (P = 2M = 60); and x y = b data on (5, 8), which
# repeats with p = 5, far below M = 80.  ``simulate`` stores their initial
# data and two blocks, through 2M; ``materialised`` stores every value
# through n.  Every check compares every stored value.
REPEATING = {
    "c=1-(6,10)": random_signed_spec(random.Random(5), 6, 10, a=1, b=1),
    "b=-a-(3,5)": random_signed_spec(random.Random(5), 3, 5, a=2, b=-2),
    "xy=b-(5,8)": product_family_spec(random.Random(5), 5, 8, 3, 3),
}


def repeat_period(spec) -> int:
    """T = M = lcm(p, 2q), the block length."""
    return math.lcm(spec.p, 2 * spec.q)


def long_trajectory(spec, form):
    n = 4 * repeat_period(spec) + 3 * spec.q
    return simulate(spec, n) if form == "simulated" else materialised(spec, n)


def corrupt(traj, how, nums):
    """Scale stored values of ``nums``, a numerator column of ``traj``, by 3.

    "last-block", the last value but one, in the last block; "last-offset",
    the last value, the last offset that every law compares it at as v: an
    engine that stops one offset short misses it; "every-T", x_n or y_n at
    every n = 1 (mod T), T = M, so the column still repeats with T;
    "every-T-tail", the same at n = T - 1 (mod T), which lies past the head
    of the product invariant and the x-relation; "initial", the entry at
    index 0.  A simulated trajectory ends at 2M, so there the last value is
    the kernel's x_{2M} or y_{2M}.
    """
    q, period = traj.spec.q, repeat_period(traj.spec)
    offsets = {  # list offset k holds index k - q + 1
        "clean": [],
        "last-block": [len(nums) - 2],
        "last-offset": [len(nums) - 1],
        "every-T": range(q, len(nums), period),
        "every-T-tail": range(q + period - 2, len(nums), period),
        "initial": [q - 1],
    }[how]
    for k in offsets:
        nums[k] *= 3


@pytest.mark.parametrize("column", ["x_nums", "y_nums"])
@pytest.mark.parametrize("how", ["clean", "last-block", "last-offset", "every-T", "every-T-tail",
                                 "initial"])
@pytest.mark.parametrize("name", REPEATING)
@pytest.mark.parametrize("form", ["materialised", "simulated"])
def test_checks_on_long_periodic_trajectories_match_the_oracles(form, name, how, column):
    """Both forms fail exactly where the oracles, which read every index, fail.

    A simulated trajectory stores q + 2M values per column, M = lcm(p, 2q),
    every one the kernel's.  A materialised one stores every value through
    n.  No check stops early, so one changed value in the last block fails
    either.
    """
    traj = long_trajectory(REPEATING[name], form)
    spec = traj.spec
    block = math.lcm(spec.p, 2 * spec.q)
    assert len(traj.x_nums) == spec.q + (2 * block if form == "simulated" else traj.n_max)
    corrupt(traj, how, getattr(traj, column))
    got = {check.__name__: outcome(check, traj) for check, _ in CHECKS_AND_ORACLES}
    want = {check.__name__: outcome(oracle, traj) for check, oracle in CHECKS_AND_ORACLES}
    assert got == want
    if how == "clean":
        assert set(want.values()) == {True}
    if how in ("last-block", "last-offset"):
        assert False in want.values()


# Drifting and unbounded specs, whose block multipliers are not all +-1:
# c = 1/2 on (6, 10) and c = 2 on (3, 5), where every R_r is (b/a)^(q/d);
# c = 1 on (2, 3) and free a, b on (4, 6), both p/g even, where the d = 2
# and d = 4 multipliers differ from class to class.
GROWING = {
    "c=1/2-(6,10)": random_signed_spec(random.Random(6), 6, 10, a=1, b=2),
    "c=2-(3,5)": random_signed_spec(random.Random(6), 3, 5, a=-2, b=-1),
    "c=1-(2,3)": random_signed_spec(random.Random(6), 2, 3, a=1, b=1),
    "free-(4,6)": random_signed_spec(random.Random(6), 4, 6, a=Fraction(-3, 2), b=5),
}


@pytest.mark.parametrize("steps", ["M", "M+1", "3M+q", "10M"])
@pytest.mark.parametrize("name", [*REPEATING, *GROWING])
def test_simulated_trajectory_matches_materialised(name, steps):
    """``simulate`` stores the literal values through min(n, 2M), and its readers agree.

    Every stored component equals that of the trajectory that stores every
    value, and so does every x(n) and y(n); an index past min(n, 2M)
    raises.  ``growth_slope``, for strides below, at and past the block
    length, gives the same slope wherever x_{t+m} is stored, and refuses
    the others; every exact law gives the same verdict as at n.
    """
    spec = {**REPEATING, **GROWING}[name]
    m = math.lcm(spec.p, 2 * spec.q)
    n = {"M": m, "M+1": m + 1, "3M+q": 3 * m + spec.q, "10M": 10 * m}[steps]
    stored, full = simulate(spec, n), materialised(spec, n)
    n_max = min(n, 2 * m)
    assert stored.n_max == n_max and full.n_max == n
    assert len(stored.x_nums) == len(stored.y_dens) == spec.q + n_max
    assert len(full.x_nums) == spec.q + n
    for column in ("x_nums", "x_dens", "y_nums", "y_dens"):
        assert getattr(stored, column) == getattr(full, column)[:spec.q + n_max], column
    assert logical_columns(stored) == tuple(column[:spec.q + n_max]
                                            for column in logical_columns(full))
    with pytest.raises(TrajectoryIndexError):
        stored.y(n_max + 1)
    strides = [(1, 0), (2, 1), (7, 5), (spec.q, spec.q - 1), (m, 0), (m, m - 1),
               (m + 1, 1), (2 * m, 3)]
    for stride, t in strides:
        def slope(traj):
            return growth_slope(traj, stride, t)

        want = outcome(slope, full) if t + stride <= n_max else TooFewPointsError
        assert outcome(slope, stored) == want, (stride, t)
    for check, _ in CHECKS_AND_ORACLES:
        assert outcome(check, stored) == outcome(check, full), check.__name__


@pytest.mark.parametrize("how", ["clean", "last-block", "last-offset", "every-T", "every-T-tail",
                                 "initial"])
@pytest.mark.parametrize("name", [*REPEATING, *GROWING])
@pytest.mark.parametrize("form", ["materialised", "simulated"])
def test_block_law_matches_the_sigma_orbit_reference_on_every_corruption(form, name, how):
    """Each ``corrupt`` kind of x, at n = 4M + 3q, in both forms and both regimes: one verdict.

    d divides q on the periodic specs and on c = 1/2 and c = 2; it does
    not on (2, 3) and (4, 6).
    """
    traj = long_trajectory({**REPEATING, **GROWING}[name], form)
    corrupt(traj, how, traj.x_nums)
    verdict = outcome(block_ratio_check, traj)
    assert verdict == outcome(sigma_orbit_block_law, traj)
    if how == "clean":
        assert verdict is True


def corrupted(r, how) -> Rational:
    """The canonical pair of R_r times 2, negated or inverted."""
    num, den = r
    if how == "doubled":
        return Rational(2 * num, den) if den % 2 else Rational(num, den // 2)
    if how == "negated":
        return Rational(-num, den)
    return Rational(den, num) if num > 0 else Rational(-den, -num)


def block_scaled(spec, n_steps, multipliers) -> Trajectory:
    """A trajectory through ``n_steps`` whose values past M scale the kernel's first block.

    Index j + kM, j in 1 .. M, holds y_j R^k and x_j / R^k with
    R = multipliers[j mod d], as unreduced int pairs, each built from the
    one M before it; d = gcd(p, 2q), M = lcm(p, 2q).  With the kernel's
    multipliers these are the literal values (module docstring of
    ``simulator``, Block multipliers); with a wrong one, a kernel that
    scales its block by it.
    """
    q, m, d = spec.q, math.lcm(spec.p, 2 * spec.q), math.gcd(spec.p, 2 * spec.q)
    block = simulate(spec, min(n_steps, m))
    x_nums, x_dens, y_nums, y_dens = (list(column) for column in (
        block.x_nums, block.x_dens, block.y_nums, block.y_dens))
    for k in range(q + m, q + n_steps):  # list offset k holds index k - q + 1
        r_num, r_den = multipliers[(k - q + 1) % d]
        x_nums.append(x_nums[k - m] * r_den)
        x_dens.append(x_dens[k - m] * r_num)
        y_nums.append(y_nums[k - m] * r_num)
        y_dens.append(y_dens[k - m] * r_den)
    return Trajectory(spec, x_nums, x_dens, y_nums, y_dens)


@pytest.mark.parametrize("how", ["doubled", "negated", "inverted"])
@pytest.mark.parametrize("name", [*GROWING, *REPEATING])
def test_corrupted_multiplier_fails_a_law(name, how):
    """Each R_r in turn times 2, negated or inverted, scaling the kernel's block past M.

    With the kernel's R, :func:`block_scaled` gives the literal values.
    With a wrong R_r, through n = 2M + 1, 3M + q and 5M every law gives
    what its oracle gives, which reads every index.  The x-relation fails
    wherever R_r changed: x_n and x_{n-p} lie in different blocks for the
    first p offsets of each.  So does the block law, in both regimes:
    W_r = x_{M+r} / x_r = 1 / R_r is no longer c^(q/d) when d | q, and no
    longer pairs with W_{r+d/2} to c^(2q/d) otherwise.  The sigma-orbit
    reference gives the same verdict.  (An inverted R_r = +-1 is
    unchanged, and every law passes.)
    """
    spec = {**GROWING, **REPEATING}[name]
    m = math.lcm(spec.p, 2 * spec.q)
    multipliers = block_multipliers(spec.p, step_coefficients(spec))
    for n in (2 * m + 1, 3 * m + spec.q, 5 * m):
        traj = block_scaled(spec, n, multipliers)
        assert logical_columns(traj) == logical_columns(materialised(spec, n))
        assert all(outcome(check, traj) is True for check, _ in CHECKS_AND_ORACLES)
        for r, multiplier in enumerate(multipliers):
            wrong = list(multipliers)
            wrong[r] = corrupted(multiplier, how)
            bad = block_scaled(spec, n, wrong)
            for check, oracle in CHECKS_AND_ORACLES:
                assert outcome(check, bad) == outcome(oracle, bad), (n, r, check.__name__)
            assert x_relation_check(bad) is (wrong[r] == multiplier), (n, r)
            assert block_ratio_check(bad) is (wrong[r] == multiplier), (n, r)
            assert sigma_orbit_block_law(bad) is block_ratio_check(bad), (n, r)


@pytest.mark.parametrize("q", range(2, 13))
def test_corrupted_block_value_fails_the_block_law(q):
    """One x of either stored block tripled fails the block law on its own, for each 1 <= p <= q.

    ``simulate(spec, 3M + q)`` stores x_1 .. x_{2M}, every one the
    kernel's, M = lcm(p, 2q), and the block law compares each x_{M+j}
    with x_j.  A tripled x_j, j in 1 .. M, breaks its comparison with
    x_{M+j}, and a tripled x_{M+j} breaks the same one; no R scales the
    corruption along.
    """
    rng = random.Random(q)
    for p in range(1, q + 1):
        spec = random_signed_spec(rng, p, q)
        m = math.lcm(p, 2 * q)
        traj = simulate(spec, 3 * m + q)
        assert block_ratio_check(traj)
        for first in (1, m + 1):
            n = rng.randint(first, first + m - 1)
            bad = replace(traj, x_nums=list(traj.x_nums))
            bad.x_nums[n + q - 1] *= 3  # list offset n + q - 1 holds x_n
            assert block_ratio_check(bad) is False, (p, n)


def test_a_block_ratio_of_period_2q_but_not_d_fails():
    """W_n = x_{n+M} / x_n of period 2q but not d, on (2, 3), where d = 2 does not divide q.

    Past M each x_{n+M} is rebuilt as W_n x_n, with W_1 .. W_3 = 1, 2, 3
    and W_{n+3} = C / W_n, C = c^(2q/d) = c^3.  So
    W_n W_{n-q} = C everywhere, and W repeats with period 2q = 6 but not
    with period d = 2.  The block law, W_n W_{n-d/2} = C, rejects it, and
    so do the sigma-orbit reference and the Fraction oracle; the same
    shifted product with shift q for d/2 accepts it.
    """
    spec = random_signed_spec(random.Random(2), 2, 3, a=1, b=2)
    p, q = spec.p, spec.q
    m, d = math.lcm(p, 2 * q), math.gcd(p, 2 * q)
    const = spec.c ** (2 * q // d)
    head = [Fraction(1), Fraction(2), Fraction(3)]
    ratios = head + [const / w for w in head]  # W_1 .. W_{2q}
    traj = materialised(spec, 5 * m)
    for k in range(q + m, len(traj.x_nums)):  # list offset k holds x_{k-q+1}
        w = ratios[(k - q - m) % (2 * q)]
        traj.x_nums[k] = traj.x_nums[k - m] * w.numerator
        traj.x_dens[k] = traj.x_dens[k - m] * w.denominator
    ws = [traj.x(n + m) / traj.x(n) for n in range(1, 4 * m + 1)]
    assert all(ws[k] == ws[k + 2 * q] for k in range(len(ws) - 2 * q))
    assert ws[0] != ws[d]
    assert block_ratio_check(traj) is False
    assert sigma_orbit_block_law(traj) is False
    assert oracle_block_law(traj) is False
    x = (traj.x_nums, traj.x_dens)
    assert simulator._matches_shifted_product(x, x, m, q + m, q, const)
