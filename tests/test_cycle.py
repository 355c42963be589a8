"""Cycle decision from the block multipliers: minimality, replay, agreement with a scan."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perisys import (
    DEFAULT_MAX_BITS,
    BitLengthExceededError,
    NoCycleWithinHorizon,
    Periodic,
    Regime,
    ShapeError,
    SystemSpec,
    block_multipliers,
    classify,
    default_horizon,
    detect_cycle,
    random_positive_spec,
    simulate,
    step_coefficients,
)
from perisys import cycle, simulator
from perisys.numerics import component_bits
from perisys.simulator import block_period, iter_pairs

import conftest
from conftest import (
    bit_cap,
    find_window_cycle,
    fixed_point_spec,
    materialised,
    naive_pairs,
    nonzero_rationals,
    product_family_spec,
    random_signed_spec,
    scan_cycle,
    specs,
)
from oracles import block_min_period, block_scan_cycle

SMALL_VALUES = [Fraction(v) for v in (1, -1, 2, -2)] + [Fraction(1, 2), Fraction(-1, 2)]


def window_differs(traj, n, period):
    """True iff the trailing windows at n and n + period differ (state level)."""
    w = max(traj.spec.p, traj.spec.q)
    left = [(traj.x(i), traj.y(i)) for i in range(n - w + 1, n + 1)]
    right = [(traj.x(i), traj.y(i)) for i in range(n - w + 1 + period, n + period + 1)]
    return left != right


def replays(traj, preperiod, period, cycles=2):
    """Pairs at n and n + period agree for preperiod <= n <= preperiod + cycles*period."""
    return all(traj.x(n) == traj.x(n + period) and traj.y(n) == traj.y(n + period)
               for n in range(preperiod, preperiod + cycles * period + 1))


def test_fixed_point_is_periodic_from_zero():
    assert detect_cycle(fixed_point_spec(2, 3)) == Periodic(preperiod=0, period=1)


def test_window_cycle_on_plain_sequences():
    assert find_window_cycle([0, 1, 2, 1, 2, 1, 2], 2) == (1, 2)
    assert find_window_cycle([0, 1, 2, 3, 4], 2) is None
    assert find_window_cycle([5, 5], 3) is None
    assert find_window_cycle([7, 7, 7], 1) == (0, 1)


def test_period_60_with_replay_and_minimality():
    rng = random.Random(42)
    for _ in range(5):
        spec = random_positive_spec(rng, 6, 10)
        result = detect_cycle(spec)
        assert isinstance(result, Periodic)
        assert 60 % result.period == 0
        assert result.period == 60  # generic initial data
        traj = materialised(spec, result.preperiod + 3 * result.period)
        assert replays(traj, result.preperiod, result.period)
        # no proper divisor of the period passes the replay check
        for d in (2, 3, 5):
            assert not replays(traj, result.preperiod, result.period // d)
        # the preperiod is minimal at window level
        if result.preperiod > 0:
            assert window_differs(traj, result.preperiod - 1, result.period)


def test_period_840_spot_check():
    spec = random_positive_spec(random.Random(4), 60, 84)
    result = detect_cycle(spec)
    assert isinstance(result, Periodic)
    assert 840 % result.period == 0 and result.period == 840


def test_no_cycle_when_q_odd_and_p_even():
    rng = random.Random(11)
    for _ in range(3):
        spec = random_positive_spec(rng, 2, 3)
        assert detect_cycle(spec) == NoCycleWithinHorizon(default_horizon(2, 3))


def test_default_horizon_covers_periodic_regimes():
    assert default_horizon(6, 10) == 4 * 60 + 4 * 10
    spec = random_positive_spec(random.Random(19), 6, 10)
    assert isinstance(detect_cycle(spec), Periodic)


def test_detector_agrees_with_classifier_on_grid():
    rng = random.Random(23)
    for p in range(1, 8):
        for q in range(p + 1, 9):
            prediction = classify(p, q)
            for _ in range(2):
                spec = random_positive_spec(rng, p, q)
                result = detect_cycle(spec)
                if prediction.regime is Regime.EVENTUALLY_PERIODIC:
                    assert isinstance(result, Periodic)
                    assert prediction.predicted_period % result.period == 0
                else:
                    # generic data: no cycle (degenerate data would be periodic)
                    assert isinstance(result, NoCycleWithinHorizon)


def test_detect_cycle_propagates_bit_cap():
    """A periodic spec whose first block outgrows the cap fails as the recurrence does."""
    spec = random_positive_spec(random.Random(29), 6, 10)
    assert isinstance(detect_cycle(spec), Periodic)
    with pytest.raises(BitLengthExceededError) as literal:
        scan_cycle(spec, default_horizon(6, 10), max_bits=8)
    with bit_cap(8), pytest.raises(BitLengthExceededError) as decided:
        detect_cycle(spec)
    assert str(decided.value) == str(literal.value)


def test_detect_cycle_rejects_bad_horizon():
    """No horizon is taken, by position or by name."""
    with pytest.raises(TypeError):
        detect_cycle(fixed_point_spec(), 100)
    with pytest.raises(TypeError):
        detect_cycle(fixed_point_spec(), horizon=100)


def oracle_cycle(traj):
    """The naive window-tuple scan, as Periodic / NoCycleWithinHorizon."""
    spec = traj.spec
    w = max(spec.p, spec.q)
    pairs = [(traj.x(n), traj.y(n)) for n in range(1 - spec.q, traj.n_max + 1)]
    hit = find_window_cycle(pairs, w)
    if hit is None:
        return NoCycleWithinHorizon(traj.n_max)
    # pairs begin at index -q+1, so the window starting at offset k ends at k + w - q
    return Periodic(preperiod=hit[0] + w - spec.q, period=hit[1])


@st.composite
def small_alphabet_specs(draw):
    """Few distinct values, sign flips, drift and fixed points: many window repeats."""
    q = draw(st.integers(1, 8))
    p = draw(st.integers(1, q))
    a = draw(st.sampled_from(SMALL_VALUES))
    kind = draw(st.sampled_from(["c=1", "b=-a", "drift", "fixed-point"]))
    if kind == "fixed-point":
        x = draw(st.sampled_from(SMALL_VALUES))
        return SystemSpec(a=a, b=a, p=p, q=q, x_init=(x,) * q, y_init=(a / x,) * q)
    if kind == "c=1":
        b = a
    elif kind == "b=-a":
        b = -a
    else:
        b = draw(st.sampled_from([v for v in SMALL_VALUES if v != a]))
    alphabet = draw(st.lists(st.sampled_from(SMALL_VALUES), min_size=1, max_size=3, unique=True))
    values = st.sampled_from(alphabet)
    return SystemSpec(a=a, b=b, p=p, q=q,
                      x_init=tuple(draw(values) for _ in range(q)),
                      y_init=tuple(draw(values) for _ in range(q)))


@settings(max_examples=150, deadline=None)
@given(small_alphabet_specs(), st.integers(1, 300))
def test_rolling_detector_matches_naive_oracle(spec, horizon):
    """The rolling-hash scan oracle agrees with the window-tuple oracle at any horizon."""
    assert scan_cycle(spec, horizon) == oracle_cycle(materialised(spec, horizon))


def outcome(run):
    """The result object's ``to_obj()``, or the exception type and message."""
    try:
        return run().to_obj()
    except BitLengthExceededError as exc:
        return type(exc), str(exc)


def counted_draws(monkeypatch) -> list:
    """Patch ``cycle.iter_pairs`` to record the index of every pair drawn from it."""
    drawn = []

    def counting(spec, *args, **kwargs):
        for n, x, y in iter_pairs(spec, *args, **kwargs):
            drawn.append(n)
            yield n, x, y

    monkeypatch.setattr(cycle, "iter_pairs", counting)
    return drawn


def under_cap(spec, max_bits, uncapped):
    """What ``detect_cycle`` gives under ``max_bits`` (``None``: the default cap).

    ``uncapped``, unless a pair that :func:`counted_draws` records in an
    uncapped run passes the cap; then the ``naive_pairs`` error for the
    first such pair, x_n tested before y_n.
    """
    with pytest.MonkeyPatch.context() as patch, bit_cap(None):
        drawn = counted_draws(patch)
        detect_cycle(spec)
    assert drawn == list(range(1, len(drawn) + 1))  # one iterator, drawn in order
    try:
        for _ in itertools.islice(naive_pairs(spec, max_bits or DEFAULT_MAX_BITS), len(drawn)):
            pass
    except BitLengthExceededError as exc:
        return type(exc), str(exc)
    return uncapped


def test_find_cycle_matches_detect_cycle():
    """The decision equals the window-tuple scan of a stored trajectory."""
    spec = random_positive_spec(random.Random(13), 6, 10)
    horizon = default_horizon(6, 10)
    detected = detect_cycle(spec)
    assert isinstance(detected, Periodic)
    assert detected == oracle_cycle(simulate(spec, horizon))


@settings(max_examples=200, deadline=None)
@given(specs() | small_alphabet_specs(), st.integers(8, 256) | st.none())
def test_no_cycle_proof_matches_scan(spec, max_bits):
    """The decision, the no-cycle proof from the multipliers included, equals an
    uncapped scan of the literal recurrence over the default horizon, unless a
    pair that the period search draws passes the cap (:func:`under_cap`).

    A spec without a cycle draws nothing, so no cap stops its answer.
    """
    horizon = default_horizon(spec.p, spec.q)
    want = scan_cycle(spec, horizon).to_obj()
    with bit_cap(max_bits):
        got = outcome(lambda: detect_cycle(spec))
    assert got == under_cap(spec, max_bits, want)


def test_rolling_detector_on_plus_minus_one_data_63_64():
    rng = random.Random(64)
    spec = SystemSpec(a=1, b=1, p=63, q=64,
                      x_init=tuple(rng.choice((1, -1)) for _ in range(64)),
                      y_init=tuple(rng.choice((1, -1)) for _ in range(64)))
    result = detect_cycle(spec)
    assert isinstance(result, Periodic)
    n = result.preperiod + result.period
    assert scan_cycle(spec, n) == oracle_cycle(simulate(spec, n)) == result


def test_hash_collisions_are_confirmed_exactly(monkeypatch):
    """The scan oracle stays exact when every pair hashes alike, so every window key collides."""
    monkeypatch.setattr(conftest, "pair_hash", lambda pair: 0)
    rng = random.Random(31)
    for p, q in ((1, 2), (2, 3), (2, 4), (3, 5)):
        spec = random_positive_spec(rng, p, q)
        horizon = default_horizon(p, q)
        assert (scan_cycle(spec, horizon) == detect_cycle(spec)
                == oracle_cycle(materialised(spec, horizon)))


def test_one_detection_forms_k_once(monkeypatch):
    """``detect_cycle`` hands its K to the ``iter_pairs`` it draws from."""
    formed = []

    def counting(spec):
        formed.append(spec)
        return step_coefficients(spec)

    monkeypatch.setattr(cycle, "step_coefficients", counting)
    monkeypatch.setattr(simulator, "step_coefficients", counting)
    drawn = counted_draws(monkeypatch)
    spec = random_positive_spec(random.Random(13), 6, 10)
    assert isinstance(detect_cycle(spec), Periodic) and drawn
    assert formed == [spec]


def test_no_cycle_proof_skips_the_scan(monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("iter_pairs called")

    spec = random_positive_spec(random.Random(3), 2, 3)
    monkeypatch.setattr(cycle, "iter_pairs", no_scan)
    assert detect_cycle(spec) == NoCycleWithinHorizon(default_horizon(2, 3))


def test_plus_minus_one_multipliers_are_scanned():
    """In repeated-root regimes x y = b data has a block period; generic data has none."""
    rng = random.Random(41)
    for q in range(2, 13):
        for p in range(1, q + 1):
            if classify(p, q).regime is Regime.EVENTUALLY_PERIODIC:
                continue
            m = math.lcm(p, 2 * q)
            for a in (3, -3):
                spec = product_family_spec(rng, p, q, a, 3)
                multipliers = [Fraction(*r) for r in block_multipliers(p, step_coefficients(spec))]
                assert set(multipliers) <= {1, -1}
                period = block_period(p, step_coefficients(spec))
                assert period == (2 * m if -1 in multipliers else m), (p, q, a)
                result = detect_cycle(spec)
                assert isinstance(result, Periodic), (p, q, a)
                assert period % result.period == 0
                assert (m if a == 3 else 2 * m) % result.period == 0
            generic = random_signed_spec(rng, p, q)
            assert block_period(p, step_coefficients(generic)) is None, (p, q)
            assert detect_cycle(generic) == NoCycleWithinHorizon(default_horizon(p, q))


def test_period_search_matches_full_scan_oracle():
    """The early-out search gives the oracle's minimal period on every kind of block.

    Generic data (T = P), x y = b data (small periods, every regime),
    b = -a data (P = 2M), and data from {1, -1, 2}, where pair t often
    equals pair 0 without the block being t-periodic.
    """
    rng = random.Random(2024)
    checked = 0
    for q in range(1, 11):
        for p in range(1, q + 1):
            periodic = classify(p, q).regime is Regime.EVENTUALLY_PERIODIC
            candidates = [product_family_spec(rng, p, q, 3, 3), product_family_spec(rng, p, q, -3, 3),
                          SystemSpec(a=1, b=1, p=p, q=q,
                                     x_init=tuple(rng.choice((1, -1, 2)) for _ in range(q)),
                                     y_init=tuple(rng.choice((1, -1, 2)) for _ in range(q)))]
            if periodic:
                candidates += [random_signed_spec(rng, p, q, a=2, b=2),
                               random_signed_spec(rng, p, q, a=2, b=-2)]
            for spec in candidates:
                size = block_period(p, step_coefficients(spec))
                if size is None:
                    continue
                block = [(x, y) for _, x, y in itertools.islice(iter_pairs(spec), size)]
                assert detect_cycle(spec).period == block_min_period(block), spec
                checked += 1
    assert checked > 150


def test_detect_cycle_rejects_oversized_p():
    """A p > q spec never reaches detect_cycle: construction refuses it."""
    with pytest.raises(ShapeError, match="insufficient-history"):
        detect_cycle(SystemSpec(a=1, b=2, p=4, q=3, x_init=(1, 2, 3), y_init=(3, 2, 1)))


@st.composite
def product_family_specs(draw):
    """x_k y_k = b at every initial index and a = +-b: every R_r = +-1, in every regime."""
    q = draw(st.integers(1, 12))
    p = draw(st.integers(1, q))
    b = draw(nonzero_rationals)
    a = draw(st.sampled_from([b, -b]))
    ys = tuple(draw(st.lists(nonzero_rationals, min_size=q, max_size=q)))
    return SystemSpec(a=a, b=b, p=p, q=q, x_init=tuple(b / y for y in ys), y_init=ys)


@settings(max_examples=300, deadline=None)
@given(specs() | product_family_specs() | small_alphabet_specs(), st.sampled_from([None, 8, 24]))
def test_detect_cycle_matches_the_block_scan(spec, max_bits):
    """The decision from K's rotations and the backward window equals the uncapped
    scan of the generated block, unless a drawn pair passes the cap, which then
    fails with the literal recurrence's text (:func:`under_cap`)."""
    want = block_scan_cycle(spec).to_obj()
    with bit_cap(max_bits):
        got = outcome(lambda: detect_cycle(spec))
    assert got == under_cap(spec, max_bits, want)


@pytest.mark.parametrize("spec, block, draws", [
    # p | 2q: only t = P leaves generic K unchanged under rotation
    (random_positive_spec(random.Random(5), 5, 10), 20, 0),
    # t = 20 is the one proper divisor of P = 60 that rotation passes
    (random_positive_spec(random.Random(6), 6, 10), 60, 20),
    # t = 10 and 20 draw; t = 30 = M with P = 2M is refused undrawn
    (random_signed_spec(random.Random(3), 3, 5, a=2, b=-2), 60, 20),
    # every R_r = 1 here (d = 2 divides q), so P = M, and t = 24 draws
    (random_signed_spec(random.Random(10), 10, 12, a=2, b=-2), 120, 24),
], ids=["generic (5, 10)", "generic (6, 10)", "b = -a (3, 5)", "b = -a (10, 12)"])
def test_period_search_draws_a_short_prefix(monkeypatch, spec, block, draws):
    """A periodic spec draws pairs only for divisors t < P that K's rotation
    passes, t at a time from one iterator: far fewer than the block."""
    assert block_period(spec.p, step_coefficients(spec)) == block
    want = block_scan_cycle(spec)
    assert want.period == block  # generic data: T = P
    drawn = counted_draws(monkeypatch)
    assert detect_cycle(spec) == want
    assert drawn == list(range(1, draws + 1))


@pytest.mark.parametrize("spec, cap, want", [
    # nothing drawn: the block reaches 9 bits, and the answer stands
    (random_positive_spec(random.Random(5), 5, 10), 8,
     {"status": "periodic", "n0": 5, "period": 20}),
    # 20 drawn, the widest at 12 bits, while the block reaches 15
    (random_positive_spec(random.Random(6), 6, 10), 12,
     {"status": "periodic", "n0": 4, "period": 60}),
    (random_positive_spec(random.Random(6), 6, 10), 11,
     (BitLengthExceededError, "rational component reached 12 bits (cap 11)")),
], ids=["(5, 10), nothing drawn, cap 8", "(6, 10), 20 drawn, cap 12",
        "(6, 10), 20 drawn, cap 11"])
def test_cap_meets_only_the_drawn_prefix(spec, cap, want):
    """Under a cap that a pair of the block passes, the detector answers as with
    no cap unless a pair that the search draws passes it too; then it fails
    with the kernel's text for the first such pair."""
    size = block_period(spec.p, step_coefficients(spec))
    widths = [component_bits(value) for _, x, y in itertools.islice(iter_pairs(spec), size)
              for value in (x, y)]
    assert max(widths) > cap
    with bit_cap(cap):
        assert outcome(lambda: detect_cycle(spec)) == want
    assert want == under_cap(spec, cap, block_scan_cycle(spec).to_obj())
