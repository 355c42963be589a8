"""Trajectory generation against independent oracles, plus the exact checks."""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import os
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perisys import (
    BACKEND_EXACT,
    BACKEND_SIGNEDLOG,
    DEFAULT_MAX_BITS,
    ArgumentRangeError,
    BitLengthExceededError,
    PerisysError,
    Rational,
    ShapeError,
    SystemSpec,
    TooFewPointsError,
    Trajectory,
    TrajectoryIndexError,
    WrongBackendError,
    block_multipliers,
    block_ratio_check,
    component_bits,
    drift,
    growth_slope,
    iter_pairs,
    parse_spec,
    product_invariant_check,
    random_positive_spec,
    simulate,
    step_coefficients,
    to_signed_log,
    trajectory_to_obj,
    write_trajectory_csv,
    write_trajectory_json,
    x_relation_check,
)
from perisys import simulator
from perisys.model import parse_spec_obj
from perisys.simulator import TRAJECTORY_CSV_HEADER, block_period, trajectory_rows

from conftest import (
    bit_cap,
    canonical_triples,
    columns,
    components,
    csv_writer_export,
    fixed_point_spec,
    json_dump_export,
    logical_columns,
    materialised,
    naive_pairs,
    outcome,
    product_family_spec,
    rand_value,
    random_signed_spec,
    specs,
    stored_columns,
    stored_length,
)
from oracles import (
    fraction_block_multipliers,
    fraction_block_period,
    fraction_step_coefficients,
    has_repeated_root,
    log_pairs,
    str_fraction_row,
)


def naive_simulate(spec, n_steps):
    """The reference values at indices -q+1 .. n_steps, as index dictionaries."""
    x = dict(zip(range(-spec.q + 1, 1), spec.x_init))
    y = dict(zip(range(-spec.q + 1, 1), spec.y_init))
    for n, x_n, y_n in itertools.islice(naive_pairs(spec), n_steps):
        x[n], y[n] = x_n, y_n
    return x, y


def pairs_until_cap(pairs, n_steps):
    """Up to ``n_steps`` items of ``pairs``, and the message of a bit-cap error that cut them short."""
    got = []
    try:
        for item in itertools.islice(pairs, n_steps):
            got.append(item)
    except BitLengthExceededError as exc:
        return got, str(exc)
    return got, None


def simulate_against_oracle(spec, n_steps, want, error):
    """``simulate(spec, n_steps)`` under the current cap, against the oracle's ``want`` and ``error``.

    ``want`` and ``error`` are what :func:`pairs_until_cap` took from the
    capped literal recurrence through ``n_steps``.  ``simulate`` forms
    indices 1 .. min(n, 2M) alone, so it raises the oracle's text iff its
    first value over the cap lies among them, and otherwise stores the
    oracle's values there.  The trajectory, or ``None`` when it raised.
    """
    if len(want) < stored_length(spec, n_steps) - spec.q:
        with pytest.raises(BitLengthExceededError) as info:
            simulate(spec, n_steps)
        assert str(info.value) == error
        return None
    traj = simulate(spec, n_steps)
    assert logical_columns(traj) == stored_columns(spec, want)
    return traj


def direct_log_simulate(spec, n_steps):
    """Reference: the literal recurrence on (sign, log|v|) pairs.

    The logs are added and subtracted in the order the recurrence
    multiplies and divides, so the floats match bit for bit.
    """
    def signed_log(value):
        form = to_signed_log(value)
        return form.sign, form.logmag

    p, q = spec.p, spec.q
    sa, la = signed_log(spec.a)
    sb, lb = signed_log(spec.b)
    x = {i - q + 1: signed_log(v) for i, v in enumerate(spec.x_init)}
    y = {i - q + 1: signed_log(v) for i, v in enumerate(spec.y_init)}
    for n in range(1, n_steps + 1):
        sy_p, ly_p = y[n - p]
        sx_q, lx_q = x[n - q]
        sy_q, ly_q = y[n - q]
        x[n] = (sa * sy_p, la - ly_p)
        y[n] = (sb * sy_p * sx_q * sy_q, (lb + ly_p) - (lx_q + ly_q))
    return x, y


HAND_SPEC = SystemSpec(a=1, b=1, p=2, q=3,
                       x_init=(1, 1, 1), y_init=(2, 3, 5))

# Worked by direct substitution into the two defining equations.
HAND_VALUES = {
    1: (Fraction(1, 3), Fraction(3, 2)),
    2: (Fraction(1, 5), Fraction(5, 3)),
    3: (Fraction(2, 3), Fraction(3, 10)),
    4: (Fraction(3, 5), Fraction(10, 3)),
    5: (Fraction(10, 3), Fraction(9, 10)),
}


def test_hand_computed_first_steps():
    traj = simulate(HAND_SPEC, 5)
    for n, (x, y) in HAND_VALUES.items():
        assert (traj.x(n), traj.y(n)) == (x, y)


def test_matches_naive_reference():
    """``simulate`` through min(40, 2M), and ``iter_pairs`` through 40, read the literal values."""
    rng = random.Random(2024)
    for p, q in [(1, 1), (1, 4), (2, 3), (3, 3), (4, 6), (5, 7)]:
        spec = random_signed_spec(rng, p, q)
        traj = simulate(spec, 40)
        x_ref, y_ref = naive_simulate(spec, 40)
        assert traj.n_max == min(40, 2 * math.lcm(p, 2 * q))
        for n in range(-q + 1, traj.n_max + 1):
            assert traj.x(n) == x_ref[n]
            assert traj.y(n) == y_ref[n]
        for n, x, y in itertools.islice(iter_pairs(spec), 40):
            assert (Fraction(*x), Fraction(*y)) == (x_ref[n], y_ref[n])


@settings(max_examples=200, deadline=None)
@given(specs(), st.integers(1, 300), st.integers(8, 256) | st.just(DEFAULT_MAX_BITS))
def test_exact_kernel_matches_literal_recurrence(spec, n_steps, max_bits):
    """``iter_pairs`` through n, and ``simulate`` through min(n, 2M), are the capped oracle's."""
    want, error = pairs_until_cap(naive_pairs(spec, max_bits), n_steps)
    with bit_cap(max_bits):
        assert pairs_until_cap(iter_pairs(spec), n_steps) == (canonical_triples(want), error)
        simulate_against_oracle(spec, n_steps, want, error)


def is_canonical(num, den):
    return den > 0 and math.gcd(num, den) == 1


@settings(max_examples=200, deadline=None)
@given(specs(), st.sampled_from(["drawn", "x y = b", "x y = b, b = -a"]),
       st.randoms(use_true_random=False), st.integers(1, 300),
       st.integers(8, 256) | st.just(DEFAULT_MAX_BITS))
def test_exact_pairs_and_columns_are_canonical(spec, data, rng, n_steps, max_bits):
    """Every exact pair and column entry is canonical and has the literal recurrence's components.

    Nothing normalises the kernel's pairs after it reduces them, and
    ``detect_cycle`` compares them as pairs, which is sound only on
    canonical forms.  ``specs`` draws signed data, p = q, b = -a and
    a != +-1; the x y = b family is periodic in every regime, and its steps
    run past the block period P, and ``iter_pairs`` steps on.  Past
    2M, M = lcm(p, 2q), ``simulate`` stores two generated blocks, whatever
    the cap (conftest ``stored_length``).  A small cap can stop them
    inside the first block.
    """
    if data != "drawn":
        spec = product_family_spec(rng, spec.p, spec.q, spec.a,
                                   spec.a if data == "x y = b" else -spec.a)
    period = block_period(spec.p, step_coefficients(spec))
    if period is not None:
        n_steps += 2 * period
    want, error = pairs_until_cap(naive_pairs(spec, max_bits), n_steps)
    with bit_cap(max_bits):
        got, got_error = pairs_until_cap(iter_pairs(spec), n_steps)
        traj = simulate(spec, n_steps) if error is None else None
    assert got_error == error
    assert all(type(v) is Rational and is_canonical(*v) for _, x, y in got for v in (x, y))
    assert got == canonical_triples(want)
    if traj is not None:
        for nums, dens in ((traj.x_nums, traj.x_dens), (traj.y_nums, traj.y_dens)):
            assert all(map(is_canonical, nums, dens))
            assert len(nums) == stored_length(spec, n_steps)
        assert logical_columns(traj) == stored_columns(spec, want)


# The README's (6, 10) initial data with a = 2 and b = 3: c = 2/3, every
# R_r = (3/2)^5 = 243/32, so its widest components grow by about 7.9 bits a block.
README_C_2_3 = SystemSpec(a=2, b=3, p=6, q=10, x_init=(1, 2, 3, 1, 2, 3, 1, 2, 3, 1),
                          y_init=(5, 4, 3, 2, 1, 5, 4, 3, 2, 1))


@settings(max_examples=150, deadline=None)
@given(specs(), st.integers(1, 8), st.integers(0, 40), st.integers(-18, 2))
@example(SystemSpec(a=1, b=2, p=3, q=5, x_init=(1, 2, 3, 4, 5), y_init=(5, 4, 3, 2, 1)),
         8, 0, -10)
@example(README_C_2_3, 8, 0, -5)
@example(README_C_2_3, 2, 21, -2)
@example(README_C_2_3, 8, 0, 0)
def test_cap_straddling_the_widest_stored_value(spec, blocks, extra, shift):
    """Past M, a cap drawn around the widest value that ``simulate`` forms: its first error, or two blocks.

    ``simulate`` forms indices 1 .. min(n, 2M) alone.  Under a cap below
    the widest component among them it raises the literal recurrence's
    first error, x_n before y_n; at or above it, it returns the literal
    values through min(n, 2M) (conftest ``stored_length``), whether or not
    a later value would pass the cap.  On every run that returns, every
    exact law and ``growth_slope`` at strides M and 2M give what the
    trajectory that stores every value gives, or, for a stride past the
    two stored blocks, refuse it.  The examples are c = 1/2 on (3, 5),
    R = 32, and c = 2/3 on (6, 10), capped 10, 5 and 2 bits under their
    widest stored value, which first pass the cap at n = 9, 73 and 82;
    and c = 2/3 capped at its widest stored value, 19 bits, which
    n = 2M + 2 = 122 would pass, so ``simulate(spec, 8M + 1)`` returns.
    """
    m = math.lcm(spec.p, 2 * spec.q)
    n_steps = blocks * m + extra + 1
    stored = min(n_steps, 2 * m)
    widest = max(component_bits(v) for _, x, y in itertools.islice(naive_pairs(spec), stored)
                 for v in (x, y))
    cap = max(1, widest + shift)
    want, error = pairs_until_cap(naive_pairs(spec, cap), n_steps)
    with bit_cap(cap):
        traj = simulate_against_oracle(spec, n_steps, want, error)
    assert (traj is None) == (cap < widest)
    if traj is None:
        return
    assert len(traj.x_nums) == stored_length(spec, n_steps) == spec.q + stored
    full = materialised(spec, n_steps)
    laws = [product_invariant_check, x_relation_check, block_ratio_check]
    assert [outcome(law, traj) for law in laws] == [outcome(law, full) for law in laws]
    for stride, t in itertools.product((m, 2 * m), (0, spec.q, m - 1)):
        slope = functools.partial(growth_slope, m=stride, t=t)
        assert outcome(slope, traj) == (outcome(slope, full) if stride + t <= traj.n_max
                                        else TooFewPointsError)


def multipliers_of(spec):
    return [Fraction(*r) for r in block_multipliers(spec.p, step_coefficients(spec))]


@settings(max_examples=300, deadline=None)
@given(specs(), st.sampled_from(["as drawn", "a, b < 0", "x y = b"]), st.randoms())
def test_kernel_pairs_match_the_fraction_oracles(spec, data, rng):
    """K and R are canonical ``Rational`` pairs with the ``Fraction`` oracles' components.

    ``specs`` draws signed a and b; "a, b < 0" makes both negative, so
    every b/z and z/a with z < 0 has a negative denominator before its
    sign moves.  The x y = b family has every |R| = 1 in every regime,
    so ``block_period`` is also compared where it is not ``None``.
    """
    if data == "a, b < 0":
        spec = SystemSpec(a=-abs(spec.a), b=-abs(spec.b), p=spec.p, q=spec.q,
                          x_init=spec.x_init, y_init=spec.y_init)
    elif data == "x y = b":
        spec = product_family_spec(rng, spec.p, spec.q, spec.a, rng.choice([spec.a, -spec.a]))
    coefficients = step_coefficients(spec)
    want = fraction_step_coefficients(spec)
    multipliers = block_multipliers(spec.p, coefficients)
    want_multipliers = fraction_block_multipliers(spec.p, want)
    for got, oracle in ((coefficients, want), (multipliers, want_multipliers)):
        assert all(type(v) is Rational and is_canonical(*v) for v in got)
        assert got == [components(v) for v in oracle]
    assert block_period(spec.p, coefficients) == fraction_block_period(spec.p, want)


@settings(max_examples=60, deadline=None)
@given(specs())
def test_block_law_on_literal_recurrence(spec):
    p, q = spec.p, spec.q
    m, d = math.lcm(p, 2 * q), math.gcd(p, 2 * q)
    multipliers = multipliers_of(spec)
    assert len(multipliers) == d
    x, y = naive_simulate(spec, 2 * m + q)
    for n in range(1 - p, m + q + 1):
        assert y[n + m] == multipliers[n % d] * y[n]
        if n >= 1:
            assert x[n + m] * multipliers[n % d] == x[n]


def v2(n):
    """Exponent of 2 in a positive integer, by repeated halving."""
    exponent = 0
    while n % 2 == 0:
        n //= 2
        exponent += 1
    return exponent


def test_block_multipliers_structure_through_q_64():
    rng = random.Random(64)
    a, b = Fraction(3), Fraction(5)
    for q in range(1, 65):
        for p in range(1, q + 1):
            spec = random_signed_spec(rng, p, q, a=a, b=b)
            d = math.gcd(p, 2 * q)
            closed = q % d == 0
            assert closed == (not has_repeated_root(p, q)), (p, q)
            if closed:
                multipliers = multipliers_of(spec)
                assert multipliers == [(b / a) ** (q // d)] * d, (p, q)
                # p/gcd(p, q) is odd here, and x_{n+M} = x_n / R
                assert all(drift(spec).block_ratio == 1 / r for r in multipliers)
    # the regime rule alone, arithmetic only, further out (simulator docstring)
    for q in range(1, 257):
        for p in range(1, q + 1):
            closed = q % math.gcd(p, 2 * q) == 0
            assert closed == (v2(p) <= v2(q)) == (not has_repeated_root(p, q)), (p, q)


def replay_specs():
    """c = 1 and b = -a specs in periodic regimes, and the x y = b family anywhere."""
    rng = random.Random(77)
    for q in range(1, 11):
        for p in range(1, q + 1):
            if has_repeated_root(p, q):
                yield product_family_spec(rng, p, q, 2, 2)
                yield product_family_spec(rng, p, q, -3, 3)
            else:
                yield random_signed_spec(rng, p, q, a=1, b=1)
                yield random_signed_spec(rng, p, q, a=2, b=-2)


def test_replayed_blocks_match_literal_recurrence():
    """P is M, or 2M iff some R_r = -1, and the literal pairs repeat with period P.

    ``simulate`` at n = 4M + q stores the initial data and the kernel's
    two blocks, and ``iter_pairs`` steps on through n.
    """
    for spec in replay_specs():
        multipliers = multipliers_of(spec)
        assert all(abs(r) == 1 for r in multipliers)
        m = math.lcm(spec.p, 2 * spec.q)
        period = block_period(spec.p, step_coefficients(spec))
        assert period == (2 * m if -1 in multipliers else m)
        n_max = 4 * m + spec.q
        traj = simulate(spec, n_max)
        x, y = naive_simulate(spec, n_max)
        assert all((x[n + period], y[n + period]) == (x[n], y[n]) for n in range(1, period + 1))
        assert len(traj.x_nums) == len(traj.y_dens) == spec.q + 2 * m
        indices = range(1 - spec.q, 2 * m + 1)
        assert logical_columns(traj) == (*columns([x[n] for n in indices]),
                                         *columns([y[n] for n in indices]))
        assert [(n, Fraction(*x_n), Fraction(*y_n))
                for n, x_n, y_n in itertools.islice(iter_pairs(spec), n_max)] == [
            (n, x[n], y[n]) for n in range(1, n_max + 1)]


def test_bit_cap_inside_first_block_matches_literal_recurrence():
    rng = random.Random(78)
    for p, q in [(1, 2), (2, 4), (3, 5), (6, 10), (5, 12)]:
        spec = random_signed_spec(rng, p, q, a=1, b=1)
        m = math.lcm(p, 2 * q)
        first_block = [max(component_bits(v) for v in pair[1:])
                       for pair in itertools.islice(naive_pairs(spec), m)]
        cap = max(first_block) - 1  # trips where the block first reaches its largest value
        want, error = pairs_until_cap(naive_pairs(spec, cap), 4 * m)
        assert error is not None and len(want) < m
        with bit_cap(cap):
            assert pairs_until_cap(iter_pairs(spec), 4 * m) == (canonical_triples(want), error)


def boundary_specs():
    """R = 1 and R = -1 specs, drift specs, and negative a and b, with a block length each.

    The length is the block period P where the pairs repeat, and
    M = lcm(p, 2q) where they do not.
    """
    rng = random.Random(79)
    for p, q in [(1, 1), (1, 2), (2, 3), (3, 5), (4, 6), (6, 10), (5, 12)]:
        candidates = [product_family_spec(rng, p, q, 3, 3), product_family_spec(rng, p, q, -2, 2),
                      random_signed_spec(rng, p, q, a=1, b=2),
                      random_signed_spec(rng, p, q, a=-3, b=-1)]
        if not has_repeated_root(p, q):
            candidates += [random_signed_spec(rng, p, q, a=-2, b=-2),
                           random_signed_spec(rng, p, q, a=-2, b=2)]
        for spec in candidates:
            yield spec, block_period(p, step_coefficients(spec)) or math.lcm(p, 2 * q)


def test_simulate_matches_literal_recurrence_at_replay_boundaries():
    """n < P, n = P, n = P + 1 and n = 3P + 5: the kernel's own steps, through min(n, 2M).

    The columns store q + min(n, 2M) values, M = lcm(p, 2q), whether the
    pairs repeat or drift: these values stay far below the default cap.
    """
    periodic = 0
    for spec, length in boundary_specs():
        period = block_period(spec.p, step_coefficients(spec))
        periodic += period is not None
        x, y = naive_simulate(spec, 3 * length + 5)
        for n_steps in (max(length // 2, 1), length - 1 or 1, length, length + 1, 3 * length + 5):
            traj = simulate(spec, n_steps)
            n_max = min(n_steps, 2 * math.lcm(spec.p, 2 * spec.q))
            indices = range(1 - spec.q, n_max + 1)
            assert traj.n_max == n_max and len(traj.x_nums) == spec.q + n_max
            assert logical_columns(traj) == (*columns([x[n] for n in indices]),
                                             *columns([y[n] for n in indices])), (spec, n_steps)
    assert periodic >= 20


def test_small_cap_raises_the_literal_recurrences_first_error():
    """iter_pairs through n, and simulate through min(n, 2M), stop at the oracle's first error.

    Both test x_n before y_n.  Some of these steps have both x_n and y_n
    over the cap with different bit lengths, so the message tells which
    was tested first.  n = 3P + 5 or 3M + 5 lies past 2M; ``simulate``
    raises where that first error lies among its two blocks, and returns
    them where it lies past them.
    """
    both_over, raised, returned = 0, 0, 0
    for spec, length in boundary_specs():
        for cap in (3, 5, 8):
            n_steps = 3 * length + 5
            want, error = pairs_until_cap(naive_pairs(spec, cap), n_steps)
            if error is None:
                continue
            _, x, y = next(itertools.islice(naive_pairs(spec), len(want), None))
            x_bits, y_bits = component_bits(x), component_bits(y)
            both_over += x_bits > cap and y_bits > cap and x_bits != y_bits
            with bit_cap(cap):
                assert pairs_until_cap(iter_pairs(spec), n_steps) == (canonical_triples(want), error)
                traj = simulate_against_oracle(spec, n_steps, want, error)
            raised += traj is None
            returned += traj is not None
    assert both_over >= 5 and raised >= 70 and returned >= 1


@pytest.mark.parametrize("p, q", [(1, 1), (2, 3), (6, 10)])
def test_signedlog_backend_is_the_literal_recurrence(p, q):
    spec = random_signed_spec(random.Random(100 * p + q), p, q)
    logged = list(trajectory_rows(spec, 500, BACKEND_SIGNEDLOG))
    x, y = direct_log_simulate(spec, 500)
    assert [row[0] for row in logged] == list(range(1, 501))
    for n, _, _, sign_x, log_x, sign_y, log_y in logged:
        assert (sign_x, log_x) == x[n]
        assert (sign_y, log_y) == y[n]


@settings(max_examples=150, deadline=None)
@given(specs(), st.integers(1, 300))
def test_log_rows_match_the_signed_log_recurrence(spec, n_steps):
    """The flat log rows and both exports are the oracle's, exactly.

    Floats are compared with ``==``, not approximately, and the exports
    byte for byte with ``csv.writer`` and ``json.dumps`` renderings of the
    oracle's rows (conftest ``stored_pairs``).
    """
    want = list(itertools.islice(log_pairs(spec), n_steps))
    rows = [(n, "", "", x.sign, x.logmag, y.sign, y.logmag) for n, x, y in want]
    assert list(trajectory_rows(spec, n_steps, BACKEND_SIGNEDLOG)) == rows
    assert_exports_match_stdlib_writers(spec, n_steps, BACKEND_SIGNEDLOG)


# The first component over the cap is y's denominator: the (2, 3) spec of
# test_entry_point.UNBOUNDED_DOC, with x at 62 bits and y = 1/d at 65 bits when n = 117.
CAP_Y_DENOMINATOR = SystemSpec(a=1, b=1, p=2, q=3, x_init=(1, 2, 3), y_init=(3, 1, 2))
# The first is x's numerator, with a = -1, whose reduction takes no gcd:
# x_3 = -1/y_0 = -(2**70 + 3)/5, at 71 bits, while y_3 reaches 73.
CAP_X_NUMERATOR = SystemSpec(a=-1, b=1, p=3, q=4, x_init=(1, 2, 3, 1),
                             y_init=(3, 1, 2, Fraction(5, 2 ** 70 + 3)))


@pytest.mark.parametrize("spec, cap, n_before, bits", [
    (CAP_Y_DENOMINATOR, 64, 116, 65),
    (CAP_X_NUMERATOR, 64, 2, 71),
], ids=["y-denominator", "x-numerator-a-minus-1"])
def test_first_component_over_the_cap(spec, cap, n_before, bits):
    """The inline cap test trips on the right component, with check_bits's text.

    The pairs and the export rows before the error are those of the
    literal recurrence under the same cap.
    """
    want, error = pairs_until_cap(naive_pairs(spec, cap), 1000)
    assert len(want) == n_before
    assert error == f"rational component reached {bits} bits (cap {cap})"
    with bit_cap(cap):
        assert pairs_until_cap(iter_pairs(spec), 1000) == (canonical_triples(want), error)
        rows = trajectory_rows(spec, 1000, BACKEND_EXACT)
        assert pairs_until_cap(rows, 1000) == (list(itertools.starmap(str_fraction_row, want)),
                                               error)


def test_fixed_point_stays_fixed():
    traj = simulate(fixed_point_spec(2, 3), 100)
    assert traj.n_max == 12  # 2M, M = lcm(2, 6)
    assert all(traj.x(n) == 1 and traj.y(n) == 1 for n in range(-2, 13))
    assert list(itertools.islice(iter_pairs(fixed_point_spec(2, 3)), 100)) == [
        (n, (1, 1), (1, 1)) for n in range(1, 101)]


def test_determinism():
    rng = random.Random(7)
    spec = random_signed_spec(rng, 2, 3)
    one = simulate(spec, 60)
    two = simulate(spec, 60)
    assert (one.x_nums, one.x_dens) == (two.x_nums, two.x_dens)
    assert (one.y_nums, one.y_dens) == (two.y_nums, two.y_dens)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=30),
    st.randoms(use_true_random=False),
)
def test_no_zero_ever_appears(p, q, n_steps, rng):
    if p > q:
        p, q = q, p
    spec = random_signed_spec(rng, p, q)
    traj = simulate(spec, n_steps)
    assert all(num != 0 for num in traj.x_nums + traj.y_nums)  # a value is 0 iff its numerator is


def test_backend_agreement_signs_and_logs():
    rng = random.Random(31)
    spec = random_positive_spec(rng, 6, 10)
    exact = {n: Fraction(*x) for n, x, _ in itertools.islice(iter_pairs(spec), 200)}
    for n, _, _, sign, logmag, _, _ in trajectory_rows(spec, 200, BACKEND_SIGNEDLOG):
        want = to_signed_log(exact[n])
        assert sign == want.sign
        assert math.isclose(logmag, want.logmag, rel_tol=1e-9, abs_tol=1e-9)


def test_product_invariant():
    assert product_invariant_check(simulate(fixed_point_spec(), 30))
    rng = random.Random(5)
    for p, q in [(2, 3), (4, 6), (6, 10)]:
        spec = random_signed_spec(rng, p, q)
        assert product_invariant_check(simulate(spec, 150))


def test_conservation_laws_random_grid():
    rng = random.Random(500)
    for _ in range(8):
        p = rng.randint(1, 11)
        q = rng.randint(p, 12)
        spec = random_signed_spec(rng, p, q)
        traj = simulate(spec, rng.randint(q + p + 1, 300))
        assert product_invariant_check(traj)
        assert x_relation_check(traj)


def test_product_invariant_detects_corruption():
    traj = materialised(random_signed_spec(random.Random(6), 2, 3), 50)
    assert product_invariant_check(traj)
    traj.x_nums[20] += traj.x_dens[20]  # x at list offset 20 plus 1
    assert not product_invariant_check(traj)


def test_x_relation_homogeneous_and_with_ratio():
    assert x_relation_check(simulate(fixed_point_spec(), 30))
    rng = random.Random(8)
    for a, b in [(1, 1), (1, 2), (3, -3), (-2, 5)]:
        spec = random_signed_spec(rng, 2, 5, a=a, b=b)
        assert x_relation_check(simulate(spec, 120))


def test_x_relation_detects_corruption():
    traj = materialised(random_signed_spec(random.Random(9), 2, 3), 60)
    assert x_relation_check(traj)
    traj.x_nums[40] *= 2
    assert not x_relation_check(traj)


def test_x_relation_needs_enough_steps():
    with pytest.raises(ValueError):
        x_relation_check(simulate(fixed_point_spec(2, 3), 3))


@pytest.mark.parametrize("n_steps", [0, -1])
def test_simulate_needs_one_step(n_steps):
    with pytest.raises(PerisysError, match=r"^needs n >= 1$") as raised:
        simulate(fixed_point_spec(), n_steps)
    assert isinstance(raised.value, TooFewPointsError)


def test_iter_pairs_rejects_unknown_backend():
    with pytest.raises(WrongBackendError, match="unknown backend 'floats'"):
        iter_pairs(fixed_point_spec(), "floats")  # raised by the call, before any pair
    # the log backend exports rows (trajectory_rows); it yields no pairs
    with pytest.raises(WrongBackendError, match="unknown backend 'signedlog'"):
        iter_pairs(fixed_point_spec(), BACKEND_SIGNEDLOG)
    buffer = io.StringIO()
    with pytest.raises(WrongBackendError):
        write_trajectory_csv(fixed_point_spec(), 5, "floats", buffer)
    assert buffer.getvalue() == ""


def test_hand_built_trajectory_shape_is_checked():
    """Columns that no reader can read consistently are refused when the Trajectory is built.

    Unequal columns would let ``zip`` in the laws stop at the shortest.
    Every column holds the q initial values and then the generated ones,
    so ``n_max`` is the columns' length less q; columns of unequal length,
    or shorter than q, are refused.  Each is a typed
    ``ArgumentRangeError``, still a ValueError.
    """
    full = materialised(HAND_SPEC, 20)  # q = 3, 23 values per column
    cols = (full.x_nums, full.x_dens, full.y_nums, full.y_dens)
    cases = {
        "x_dens shorter": (*cols[:1], cols[1][:-1], *cols[2:]),
        "y_dens longer": (*cols[:3], cols[3] + [1]),
        "two blocks beside every value": (*(column[:15] for column in cols[:2]), *cols[2:]),
        "fewer than q": tuple(column[:2] for column in cols),
        "empty": ([], [], [], []),
    }
    for name, (x_nums, x_dens, y_nums, y_dens) in cases.items():
        with pytest.raises(ArgumentRangeError,
                           match=r"^column lengths \[.*\]; q = 3 needs equal lengths of at "
                                 r"least 3$") as raised:
            Trajectory(HAND_SPEC, x_nums, x_dens, y_nums, y_dens)
        assert isinstance(raised.value, ValueError), name
    traj = simulate(HAND_SPEC, 200)  # M = 6: two blocks, 15 values per column
    assert traj.n_max == 12 and len(traj.x_nums) == 15
    assert [column[:15] for column in cols] == [traj.x_nums, traj.x_dens, traj.y_nums,
                                                traj.y_dens]
    # the initial data alone, two blocks, and every value
    assert Trajectory(HAND_SPEC, *(column[:3] for column in cols)).n_max == 0
    two_blocks = Trajectory(HAND_SPEC, *(column[:15] for column in cols))
    assert two_blocks.n_max == 12 and two_blocks.x(12) == full.x(12)
    assert full.n_max == 20 and full.x(20) == HAND_SPEC.a / full.y(18) != full.x(2)


def test_bit_length_cap_enforced():
    """A 64-bit cap stops ``iter_pairs`` at n = 56; ``simulate`` meets it only through 2M = 12.

    The widest of the 12 stored values is the last, with 16 bits, so a
    16-bit cap lets ``simulate`` return, and a 15-bit cap stops it at
    n = 12 with the literal recurrence's error.
    """
    spec = random_signed_spec(random.Random(10), 2, 3, a=1, b=1)
    for cap in (64, 16, 15):
        want, error = pairs_until_cap(naive_pairs(spec, cap), 2000)
        assert error is not None
        with bit_cap(cap):
            assert pairs_until_cap(iter_pairs(spec), 2000) == (canonical_triples(want), error)
            traj = simulate_against_oracle(spec, 2000, want, error)
        assert (traj is None) == (cap == 15)
    assert len(want) == 11


def test_iter_pairs_rejects_oversized_p():
    """A p > q spec never reaches iter_pairs or simulate: it cannot be built or parsed."""
    with pytest.raises(ShapeError, match="insufficient-history"):
        next(iter_pairs(SystemSpec(a=1, b=1, p=4, q=3, x_init=(1, 1, 1), y_init=(1, 1, 1))))
    doc = {"a": "1", "b": "1", "p": 4, "q": 3, "x_init": ["1", "1", "1"], "y_init": ["1", "1", "1"]}
    with pytest.raises(ShapeError, match="insufficient-history"):
        simulate(parse_spec(json.dumps(doc)), 5)


def test_csv_export_contract():
    traj = simulate(HAND_SPEC, 25)
    buffer = io.StringIO()
    write_trajectory_csv(HAND_SPEC, 25, BACKEND_EXACT, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == ",".join(TRAJECTORY_CSV_HEADER)
    assert len(lines) == 26  # header + one row per generated index
    first = lines[1].split(",")
    assert first[0] == "1"
    assert Fraction(first[1]) == traj.x(1) and Fraction(first[2]) == traj.y(1)
    assert int(first[3]) == 1
    # 17 significant digits round-trip exactly
    assert float(first[4]) == to_signed_log(traj.x(1)).logmag


def test_csv_export_signedlog_has_no_literals():
    buffer = io.StringIO()
    write_trajectory_csv(HAND_SPEC, 4, BACKEND_SIGNEDLOG, buffer)
    row = buffer.getvalue().splitlines()[1].split(",")
    assert row[1] == "" and row[2] == ""
    assert row[3] in ("1", "-1")


@pytest.mark.parametrize("backend", [BACKEND_EXACT, BACKEND_SIGNEDLOG])
def test_csv_and_json_exports_carry_the_same_rows(backend):
    spec = random_signed_spec(random.Random(5), 3, 5, a=1, b=2)
    buffer = io.StringIO()
    write_trajectory_csv(spec, 120, backend, buffer)
    buffer.seek(0)
    csv_rows = list(csv.DictReader(buffer))
    json_rows = trajectory_to_obj(spec, 120, backend)["rows"]
    assert len(csv_rows) == len(json_rows) == 120
    for csv_row, json_row in zip(csv_rows, json_rows):
        assert list(csv_row) == list(json_row) == list(TRAJECTORY_CSV_HEADER)
        for field in ("n", "sign_x", "sign_y"):
            assert int(csv_row[field]) == json_row[field]
        for field in ("x", "y"):
            assert csv_row[field] == json_row[field]
        for field in ("log_abs_x", "log_abs_y"):
            assert float(csv_row[field]) == json_row[field]


def assert_exports_match_stdlib_writers(spec, n_steps, backend):
    """CSV bytes equal the csv.writer oracle; JSON bytes and ``trajectory_to_obj`` equal json.dumps.

    The oracles build their rows from a stored sequence (conftest), not
    from the writers' own rows.  Lines are compared as lists: pytest
    reports the first differing line, where a string diff of lines with
    thousands of digits takes minutes.
    """
    written, expected = io.StringIO(), io.StringIO()
    write_trajectory_csv(spec, n_steps, backend, written)
    csv_writer_export(spec, n_steps, backend, expected)
    assert written.getvalue().splitlines(True) == expected.getvalue().splitlines(True)
    written = io.StringIO()
    write_trajectory_json(spec, n_steps, backend, written)
    expected = json_dump_export(spec, n_steps, backend).splitlines(True)
    assert written.getvalue().splitlines(True) == expected
    obj = trajectory_to_obj(spec, n_steps, backend)
    assert (json.dumps(obj, indent=2) + "\n").splitlines(True) == expected


def at_replay_boundaries(test):
    """Explicit examples: periodic specs with R = 1 and R = -1, exported at n = P, P + 1 and 3P + q.

    Past the block period P the exact export cycles its first P rows.
    """
    rng = random.Random(23)
    for spec in (product_family_spec(rng, 2, 3, 2, 2), product_family_spec(rng, 3, 5, -3, 3)):
        period = block_period(spec.p, step_coefficients(spec))
        for n_steps in (period, period + 1, 3 * period + spec.q):
            test = example(spec, n_steps, BACKEND_EXACT)(test)
    return test


@settings(max_examples=150, deadline=None)
@given(specs(), st.integers(1, 150), st.sampled_from([BACKEND_EXACT, BACKEND_SIGNEDLOG]))
@at_replay_boundaries
def test_exports_match_stdlib_writers(spec, n_steps, backend):
    assert_exports_match_stdlib_writers(spec, n_steps, backend)


@pytest.mark.parametrize("backend", [BACKEND_EXACT, BACKEND_SIGNEDLOG])
@pytest.mark.parametrize("n_steps", [0, -1])
def test_exports_need_one_row(n_steps, backend):
    """n < 1 raises ``simulate``'s typed error, before the cap is read and with nothing written."""
    with bit_cap("bogus"):
        with pytest.raises(TooFewPointsError, match=r"^needs n >= 1$"):
            trajectory_rows(HAND_SPEC, n_steps, backend)
        for write in (write_trajectory_csv, write_trajectory_json):
            written = io.StringIO()
            with pytest.raises(TooFewPointsError, match=r"^needs n >= 1$"):
                write(HAND_SPEC, n_steps, backend, written)
            assert written.getvalue() == ""


def test_exports_of_long_negative_literals():
    big = Fraction(-(10 ** 3999 + 7), 3)
    # p = q = 1: x_1 = a / y_0, y_1 = b / x_0, x_2 = a / y_1, y_2 = b / x_1
    spec = SystemSpec(a=big, b=-5, p=1, q=1, x_init=(1,), y_init=(1,))
    assert_exports_match_stdlib_writers(spec, 2, BACKEND_EXACT)
    written = io.StringIO()
    write_trajectory_csv(spec, 2, BACKEND_EXACT, written)
    rows = list(csv.reader(io.StringIO(written.getvalue())))
    assert [Fraction(row[1]) for row in rows[1:]] == [big, big / -5]
    assert [Fraction(row[2]) for row in rows[1:]] == [Fraction(-5), -5 / big]
    assert len(rows[1][1]) == 4003  # "-", 4000 digits, "/3"


def _non_unit(rng: random.Random) -> Fraction:
    """A random signed value other than +-1."""
    while True:
        value = rand_value(rng, 5, signed=True)
        if abs(value) != 1:
            return value


def _str_fraction_rows(spec, n_steps):
    return [str_fraction_row(n, Fraction(*x), Fraction(*y))
            for n, x, y in itertools.islice(iter_pairs(spec), n_steps)]


@pytest.mark.parametrize("seed", range(48))
def test_exact_rows_match_the_str_fraction_rendering(seed):
    """Rows rendered from Decimal images equal those of ``str(Fraction)``, a != +-1.

    The seeds run through p = 1, p = q and a random p <= q, and every
    fourth spec has b = -a.
    """
    rng = random.Random(seed)
    q = rng.randint(1, 9)
    p = (1, q, rng.randint(1, q))[seed % 3]
    a = _non_unit(rng)
    b = -a if seed % 4 == 0 else rand_value(rng, 5, signed=True)
    spec = random_signed_spec(rng, p, q, a=a, b=b)
    n_steps = rng.randint(1, 300)
    assert list(trajectory_rows(spec, n_steps, BACKEND_EXACT)) == _str_fraction_rows(spec, n_steps)


@pytest.mark.parametrize("p,q,sign", [(1, 1, -1), (1, 4, 1), (2, 3, -1), (3, 3, 1), (4, 6, -1),
                                      (5, 7, 1)])
def test_exact_rows_match_the_str_fraction_rendering_in_block_replay(p, q, sign):
    """Past the block period P the export cycles its first P rows, renumbered.

    At n = P, P + 1 and 3P + q the rows equal the ``str(Fraction)``
    rendering of the pairs that ``iter_pairs`` goes on stepping, and the
    CSV and JSON exports equal the stdlib writers' bytes.
    """
    rng = random.Random(100 * p + q)
    a = _non_unit(rng)
    spec = product_family_spec(rng, p, q, a, sign * a)
    period = block_period(p, step_coefficients(spec))
    assert period is not None
    for n_steps in (period, period + 1, 3 * period + q):
        rows = list(trajectory_rows(spec, n_steps, BACKEND_EXACT))
        assert rows == _str_fraction_rows(spec, n_steps), n_steps
        assert_exports_match_stdlib_writers(spec, n_steps, BACKEND_EXACT)


# Initial values whose steps give integer literals, with no "/", and
# signed ones.
INTEGRAL_VALUES = (1, -1, 2, -3, 5, Fraction(1, 2), Fraction(-1, 3))


@pytest.mark.parametrize("a", [1, -1, 2, Fraction(-3, 4)], ids=str)
@pytest.mark.parametrize("p,q", [(1, 1), (1, 4), (3, 3), (2, 5), (4, 6)])
def test_exact_rows_reusing_the_rendering_of_y_match_str_fraction(p, q, a):
    """Rows where x_n reuses what y_{n-p} rendered equal those of ``str(Fraction)``.

    |a| = 1 reuses both components of 1/y_{n-p}, and a = 2 or -3/4 one or
    none of them.  Each case exports signed random data and data of
    integers and unit fractions, whose rows hold integer literals, and
    compares the CSV and JSON bytes with the stdlib writers' too.
    """
    rng = random.Random(10 * p + q)
    a = Fraction(a)
    signed = random_signed_spec(rng, p, q, a=a, b=rand_value(rng, 5, signed=True))
    integral = SystemSpec(a=a, b=rng.choice((1, -1, 2, -3)), p=p, q=q,
                          x_init=tuple(rng.choice(INTEGRAL_VALUES) for _ in range(q)),
                          y_init=tuple(rng.choice(INTEGRAL_VALUES) for _ in range(q)))
    for spec in (signed, integral):
        rows = list(trajectory_rows(spec, 150, BACKEND_EXACT))
        assert rows == _str_fraction_rows(spec, 150)
        assert_exports_match_stdlib_writers(spec, 150, BACKEND_EXACT)
    literals = [literal for row in rows for literal in row[1:3]]
    assert any("/" not in literal for literal in literals)
    assert any(literal.startswith("-") for literal in literals)


@pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (4, 6)])
def test_unit_a_export_renders_each_component_once(monkeypatch, p, q):
    """With |a| = 1 an export of n rows makes at most 2n + 2p texts: y_n's two, and y_init's window.

    a = 2 makes one x_n component anew in every row, which the count shows.
    """
    calls = []
    image_text = simulator._image_text

    def counting(image):
        calls.append(image)
        return image_text(image)

    monkeypatch.setattr(simulator, "_image_text", counting)
    n_steps = 200
    for a in (1, -1, 2):
        spec = random_signed_spec(random.Random(p + q), p, q, a=a, b=3)
        assert block_period(p, step_coefficients(spec)) is None  # every row is rendered
        calls.clear()
        write_trajectory_csv(spec, n_steps, BACKEND_EXACT, io.StringIO())
        if abs(a) == 1:
            assert 0 < len(calls) <= 2 * n_steps + 2 * p
        else:
            assert len(calls) > 2 * n_steps + 2 * p


@pytest.mark.parametrize("a", [1, -1, 2])
@pytest.mark.parametrize("cap", [64, 256])
def test_csv_export_streams_the_rows_before_the_cap(a, cap):
    """Under a small cap a CSV export to a stream writes the oracle's rows up to the first value over it.

    Then it raises the oracle's error, with nothing more written.
    """
    spec = random_signed_spec(random.Random(cap), 2, 3, a=a, b=1)
    want, error = pairs_until_cap(naive_pairs(spec, cap), 2000)
    assert error is not None and len(want) > 3
    expected = io.StringIO()
    csv_writer_export(spec, len(want), BACKEND_EXACT, expected)  # no cap: the rows before it
    written = io.StringIO()
    with bit_cap(cap), pytest.raises(BitLengthExceededError) as raised:
        write_trajectory_csv(spec, 2000, BACKEND_EXACT, written)
    assert str(raised.value) == error
    assert written.getvalue().splitlines(True) == expected.getvalue().splitlines(True)


def _block_law_spec(rng: random.Random, p: int, q: int, a) -> SystemSpec:
    """Signed random data with b = 2a, whose export takes its rows past M from the block law.

    c = 1/2, so p = 1 and p = q drift (R_r = c^(q/d)), and (2, 3) and
    (4, 6) are unbounded; the components of R stay far below the width
    at which the kernel renders every row.
    """
    spec = random_signed_spec(rng, p, q, a=a, b=2 * Fraction(a))
    coefficients = step_coefficients(spec)
    assert block_period(p, coefficients) is None
    assert all(component.bit_length() <= simulator._BLOCK_LAW_BITS
               for r in block_multipliers(p, coefficients) for component in r)
    return spec


@pytest.mark.parametrize("a", [1, -1, 2, Fraction(-3, 4)], ids=str)
@pytest.mark.parametrize("p,q", [(2, 3), (4, 6), (1, 4), (5, 5)])
def test_rows_past_the_block_follow_the_block_law(p, q, a):
    """Past M = lcm(p, 2q) unbounded and drifting exports take each y_n from y_{n-M}.

    At n = M - 1, M, M + 1 and 3M + q the rows equal the ``str(Fraction)``
    rendering of the literal recurrence, and the CSV and JSON exports
    equal the stdlib writers' bytes.
    """
    spec = _block_law_spec(random.Random(10 * p + q), p, q, a)
    m = math.lcm(p, 2 * q)
    want = [str_fraction_row(*pair) for pair in itertools.islice(naive_pairs(spec), 3 * m + q)]
    for n_steps in (m - 1, m, m + 1, 3 * m + q):
        assert list(trajectory_rows(spec, n_steps, BACKEND_EXACT)) == want[:n_steps], n_steps
        assert_exports_match_stdlib_writers(spec, n_steps, BACKEND_EXACT)


# (2, 3) with R = (4/3, -16/9): y_2 = -9/64, y_8 = -3/16 and y_14 = -1/4
# have denominators that share 4 with A = 4, and y_2 and y_8 numerators
# that share 3 with B = 3, so the chain of n = 2 (mod 6) takes gcds other
# than 1 on its second and third values before it settles.
UNSETTLED_SPEC = SystemSpec(a=Fraction(-3, 4), b=1, p=2, q=3,
                            x_init=(Fraction(-1, 2), Fraction(-16, 3), Fraction(-2)),
                            y_init=(Fraction(-16, 3), Fraction(-4, 3), Fraction(-1)))


def test_a_chain_settles_only_on_a_gcd_of_1():
    spec = UNSETTLED_SPEC
    assert block_multipliers(2, step_coefficients(spec)) == [Rational(4, 3), Rational(-16, 9)]
    pairs = list(itertools.islice(naive_pairs(spec), 60))
    ys = {n: y for n, _, y in pairs}
    assert [ys[n] for n in (2, 8, 14, 20)] == [Fraction(-9, 64), Fraction(-3, 16),
                                              Fraction(-1, 4), Fraction(-1, 3)]
    assert list(trajectory_rows(spec, 60, BACKEND_EXACT)) == [str_fraction_row(*pair)
                                                              for pair in pairs]
    assert_exports_match_stdlib_writers(spec, 60, BACKEND_EXACT)


@pytest.mark.parametrize("a", [1, 2, Fraction(-3, 4)], ids=str)
def test_csv_export_streams_the_block_law_rows_before_the_cap(a):
    """A cap first passed past M: the CSV stream holds the oracle's rows, then the oracle's error."""
    spec = _block_law_spec(random.Random(7), 2, 5, a)
    m = 10
    cap = max(component_bits(value) for _, x, y in itertools.islice(naive_pairs(spec), 2 * m)
              for value in (x, y))
    want, error = pairs_until_cap(naive_pairs(spec, cap), 10 * m)
    assert error is not None and len(want) >= 2 * m
    expected = io.StringIO()
    csv_writer_export(spec, len(want), BACKEND_EXACT, expected)  # no cap: the rows before it
    written = io.StringIO()
    with bit_cap(cap), pytest.raises(BitLengthExceededError) as raised:
        write_trajectory_csv(spec, 10 * m, BACKEND_EXACT, written)
    assert str(raised.value) == error
    assert written.getvalue().splitlines(True) == expected.getvalue().splitlines(True)


# (2, 5), M = 10, with a = 2^20 + 1: x_n = a / y_{n-2} carries about 20
# bits more than y_{n-2}, so under a 75-bit cap the first value over it is
# x_12, at 94 bits, a row past M that the block law makes.
X_FIRST_PAST_M = random_signed_spec(random.Random(0), 2, 5, a=1048577, b=5)


def test_csv_export_streams_the_rows_before_an_x_over_the_cap_past_the_block():
    """Past M the block law tests x_n against the cap before y_n, as the kernel does.

    The stream holds the header and exactly the rows before x_12, those of
    the literal recurrence, and the error is the literal recurrence's.
    """
    spec, cap = X_FIRST_PAST_M, 75
    coefficients = step_coefficients(spec)
    assert block_period(spec.p, coefficients) is None
    assert all(component.bit_length() <= simulator._BLOCK_LAW_BITS
               for r in block_multipliers(spec.p, coefficients) for component in r)
    want, error = pairs_until_cap(naive_pairs(spec, cap), 100)
    assert len(want) == 11
    assert error == f"rational component reached 94 bits (cap {cap})"
    _, x_12, _ = next(itertools.islice(naive_pairs(spec), 11, None))
    assert component_bits(x_12) == 94
    written = io.StringIO()
    with bit_cap(cap), pytest.raises(BitLengthExceededError) as raised:
        write_trajectory_csv(spec, 100, BACKEND_EXACT, written)
    assert str(raised.value) == error
    rows = list(csv.reader(io.StringIO(written.getvalue())))
    assert rows[0] == list(TRAJECTORY_CSV_HEADER)
    assert [row[:3] for row in rows[1:]] == [[str(n), str(x), str(y)] for n, x, y in want]
    expected = io.StringIO()
    csv_writer_export(spec, len(want), BACKEND_EXACT, expected)
    assert written.getvalue() == expected.getvalue()


def _wide_spec(p: int, q: int) -> SystemSpec:
    """Positive data with 20-bit components; for q well above 12, R is wider than the block law takes."""
    rng = random.Random(p * q)

    def value() -> Fraction:
        return Fraction(rng.randint(1 << 19, 1 << 20), rng.randint(1 << 19, 1 << 20))

    return SystemSpec(a=1, b=1, p=p, q=q, x_init=tuple(value() for _ in range(q)),
                      y_init=tuple(value() for _ in range(q)))


def test_exact_export_routes_by_the_block_multipliers(monkeypatch):
    """Pairs drawn from ``iter_pairs``: M past a narrow R, every row past a wide one, P when periodic.

    Each export forms K once, and hands it to ``iter_pairs``.
    """
    drawn, formed = [], []

    def counting(spec, backend=BACKEND_EXACT, *, coefficients=None):
        for item in iter_pairs(spec, backend, coefficients=coefficients):
            drawn.append(item[0])
            yield item

    def forming(spec):
        formed.append(spec)
        return step_coefficients(spec)

    monkeypatch.setattr(simulator, "iter_pairs", counting)
    monkeypatch.setattr(simulator, "step_coefficients", forming)
    narrow = _block_law_spec(random.Random(3), 2, 3, 1)
    wide = _wide_spec(2, 31)
    assert max(component.bit_length() for r in block_multipliers(2, step_coefficients(wide))
               for component in r) > simulator._BLOCK_LAW_BITS
    periodic = product_family_spec(random.Random(3), 2, 3, 2, -2)
    for spec, n_steps, pairs in ((narrow, 60, 6), (wide, 100, 100), (periodic, 60, 12)):
        drawn.clear()
        formed.clear()
        rows = list(trajectory_rows(spec, n_steps, BACKEND_EXACT))
        assert drawn == list(range(1, pairs + 1)) and formed == [spec]
        assert rows == _str_fraction_rows(spec, n_steps)


def test_signedlog_csv_export_streams():
    """50000 log rows to devnull in O(q) memory: no trajectory is stored."""
    spec = random_positive_spec(random.Random(61), 2, 3)
    with open(os.devnull, "w", encoding="utf-8", newline="") as stream:
        tracemalloc.start()
        try:
            write_trajectory_csv(spec, 50_000, BACKEND_SIGNEDLOG, stream)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_trajectory_obj_spec_round_trips():
    obj = trajectory_to_obj(HAND_SPEC, 6, BACKEND_EXACT)
    assert parse_spec_obj(obj["spec"]) == HAND_SPEC
    assert obj["n"] == 6 and len(obj["rows"]) == 6


def test_trajectory_index_bounds():
    traj = simulate(HAND_SPEC, 5)
    assert traj.n_max == 5
    with pytest.raises(IndexError, match=r"^index 6 outside stored range -2 \.\. 5$") as raised:
        traj.x(6)
    # a typed error, which the CLI reports as one line
    assert isinstance(raised.value, TrajectoryIndexError)
    assert isinstance(raised.value, PerisysError)
    blocks = simulate(HAND_SPEC, 20)  # two blocks of M = 6, through index 12
    assert blocks.n_max == 12 and blocks.y(12) == materialised(HAND_SPEC, 12).y(12)
    with pytest.raises(TrajectoryIndexError, match=r"^index 13 outside stored range -2 \.\. 12$"):
        blocks.y(13)
    with pytest.raises(IndexError, match=r"^index -3 outside stored range -2 \.\. 5$"):
        traj.y(-3)
    # q = 1 stores from index 0
    one = simulate(SystemSpec(a=1, b=1, p=1, q=1, x_init=(1,), y_init=(2,)), 3)
    assert one.n_max == 3 and one.x(0) == 1 and one.y(0) == 2
    with pytest.raises(IndexError, match=r"^index -1 outside stored range 0 \.\. 3$"):
        one.x(-1)
