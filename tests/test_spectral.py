"""The regime classifier against the root-enumeration and repeated-root oracles."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from perisys import (
    PerisysError,
    Reason,
    Regime,
    classify,
)

from oracles import (
    decompose,
    enumerate_roots,
    has_repeated_root,
    negation_root_turns,
    predicted_period,
    repeated_root_by_condition,
    repeated_root_by_intersection,
    turn,
    two_adic_valuation,
    unit_root_turns,
    WrongRegimeError,
)


@pytest.mark.parametrize("p,q,expected", [
    (6, 10, (2, 1, 1, 3, 5)),
    (2, 3, (1, 0, 1, 2, 3)),
    (60, 84, (12, 2, 3, 5, 7)),
])
def test_decompose(p, q, expected):
    dec = decompose(p, q)
    assert (dec.g, dec.r, dec.u, dec.s, dec.t) == expected
    assert dec.g == (2 ** dec.r) * dec.u
    assert dec.u % 2 == 1
    assert p == dec.g * dec.s and q == dec.g * dec.t
    assert math.gcd(dec.s, dec.t) == 1


def test_two_adic_valuation():
    assert [two_adic_valuation(n) for n in (1, 2, 3, 12, 60, 84, 96)] == [0, 1, 0, 2, 2, 2, 5]
    with pytest.raises(ValueError):
        two_adic_valuation(0)


def test_turn_is_reduced_and_wrapped():
    assert turn(5, 10) == Fraction(1, 2)
    assert turn(7, 7) == 0
    assert turn(0, 4) == Fraction(0, 1)
    assert all(0 <= t < 1 for t in unit_root_turns(12) + negation_root_turns(9))


def test_enumerate_roots_2_3():
    report = enumerate_roots(2, 3)
    assert report.roots == (
        (Fraction(0, 1), 1),
        (Fraction(1, 6), 1),
        (Fraction(1, 2), 2),   # lambda = -1 solves both factors
        (Fraction(5, 6), 1),
    )
    assert report.degree == 5
    assert report.repeated_turns() == (Fraction(1, 2),)


def test_enumerate_roots_6_10_all_simple():
    report = enumerate_roots(6, 10)
    assert report.degree == 16
    assert all(mult == 1 for _, mult in report.roots)


def test_enumerate_roots_4_6_repeats_at_quarter_turns():
    # independent oracle: brute-force intersection of the two explicit lists
    unit = {Fraction(l, 4) for l in range(4)}
    negation = {Fraction(2 * k + 1, 12) for k in range(6)}
    assert unit & negation == {Fraction(1, 4), Fraction(3, 4)}
    report = enumerate_roots(4, 6)
    assert report.repeated_turns() == (Fraction(1, 4), Fraction(3, 4))
    assert report.degree == 10


def test_multiplicity_sum_is_degree():
    for p in range(1, 65):
        for q in range(1, 65):
            report = enumerate_roots(p, q)
            assert report.degree == p + q
            assert all(mult in (1, 2) for _, mult in report.roots)


@pytest.mark.parametrize("p,q,expected", [(2, 3, True), (6, 10, False), (4, 6, True)])
def test_has_repeated_root_examples(p, q, expected):
    assert has_repeated_root(p, q) is expected
    assert repeated_root_by_condition(p, q) is expected
    assert repeated_root_by_intersection(p, q) is expected


def test_repeated_root_routes_agree_small_grid():
    for p in range(1, 33):
        for q in range(p + 1, 33):
            closed = has_repeated_root(p, q)
            assert repeated_root_by_condition(p, q) is closed
            assert repeated_root_by_intersection(p, q) is closed
            assert closed is (two_adic_valuation(p) > two_adic_valuation(q))


@pytest.mark.parametrize("p,q,period", [(6, 10, 60), (60, 84, 840), (3, 5, 30)])
def test_predicted_period(p, q, period):
    assert predicted_period(p, q) == period


def test_predicted_period_refuses_repeated_roots():
    with pytest.raises(WrongRegimeError, match=r"^\(p, q\) = \(2, 3\) has a repeated "
                                               r"characteristic root; no period exists$"):
        predicted_period(2, 3)


def test_classify_examples():
    unbounded_coprime = classify(2, 3)
    assert unbounded_coprime.regime is Regime.GENERICALLY_UNBOUNDED
    assert unbounded_coprime.reason is Reason.COPRIME_Q_ODD
    assert unbounded_coprime.witness_modulus == 12  # 2pq
    assert unbounded_coprime.predicted_period is None

    periodic = classify(6, 10)
    assert periodic.regime is Regime.EVENTUALLY_PERIODIC
    assert periodic.reason is Reason.ODD_QUOTIENT
    assert periodic.predicted_period == 60

    unbounded_even = classify(4, 6)
    assert unbounded_even.regime is Regime.GENERICALLY_UNBOUNDED
    assert unbounded_even.reason is Reason.EVEN_QUOTIENT
    assert unbounded_even.witness_modulus == 12  # lcm(4, 12)

    odd_coprime = classify(3, 5)
    assert odd_coprime.regime is Regime.EVENTUALLY_PERIODIC
    assert odd_coprime.reason is Reason.P_ODD
    assert odd_coprime.predicted_period == 30  # 2pq

    divides = classify(3, 6)
    assert divides.regime is Regime.EVENTUALLY_PERIODIC
    assert divides.predicted_period == 12  # 2q


def test_classify_regime_matches_root_structure():
    for p in range(1, 25):
        for q in range(1, 25):
            result = classify(p, q)
            periodic = result.regime is Regime.EVENTUALLY_PERIODIC
            assert periodic is (not has_repeated_root(p, q))
            if periodic:
                assert result.predicted_period == predicted_period(p, q)
                assert result.witness_modulus is None
            else:
                assert result.predicted_period is None
                assert result.witness_modulus is not None


def test_classification_to_obj():
    obj = classify(6, 10).to_obj()
    assert obj == {
        "regime": "EventuallyPeriodic",
        "reason": "odd-quotient",
        "predicted_period": 60,
        "witness_modulus": None,
    }


def test_positive_arguments_required():
    for func in (classify, enumerate_roots, has_repeated_root, decompose):
        with pytest.raises(ValueError):
            func(0, 3)


def test_nonpositive_delays_are_a_typed_error():
    """A library caller can catch the delay error as ``PerisysError``; it stays a ValueError."""
    with pytest.raises(PerisysError, match=r"^p and q must be positive integers, got p=0, q=3$") as raised:
        classify(0, 3)
    assert isinstance(raised.value, ValueError)
