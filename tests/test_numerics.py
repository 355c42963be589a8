"""Rational literals, canonical form, and the signed-log representation."""

from __future__ import annotations

import decimal
import math
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from perisys import (
    ArgumentRangeError,
    BitCapSettingError,
    BitLengthExceededError,
    DEFAULT_MAX_BITS,
    ENV_MAX_BITS,
    PerisysError,
    SignedLog,
    SpecSyntaxError,
    ZeroValueError,
    component_bits,
    format_rational,
    parse_rational,
    resolve_max_bits,
    simulate,
    to_signed_log,
)
from perisys.numerics import check_bits, log_abs_int

from conftest import fixed_point_spec
from oracles import chunked_literal

nonzero_fractions = st.fractions(max_denominator=60).filter(lambda f: f != 0)


def high_precision_log(value: Fraction) -> float:
    """Independent oracle: 50-digit log of |value|, rounded to a float."""
    with mpmath.workdps(50):
        return float(mpmath.log(abs(mpmath.mpf(value.numerator)))
                     - mpmath.log(mpmath.mpf(value.denominator)))


@pytest.mark.parametrize("text,expected", [
    ("2", Fraction(2)),
    ("-3/7", Fraction(-3, 7)),
    ("+4/6", Fraction(2, 3)),
    ("0", Fraction(0)),
    ("-0", Fraction(0)),
    ("120/36", Fraction(10, 3)),
])
def test_parse_rational(text, expected):
    assert parse_rational(text) == expected


@pytest.mark.parametrize("text", [
    "", "3/0", "2/-3", "1.5", " 2", "2 ", "3 /2", "a", "1/2/3", "/3", "2/", None, 7,
])
def test_parse_rational_rejects(text):
    with pytest.raises(SpecSyntaxError):
        parse_rational(text)


@given(st.fractions(max_denominator=10**6))
def test_literal_round_trip(value):
    assert parse_rational(format_rational(value)) == value


@pytest.mark.parametrize("value", [
    Fraction(-(10 ** 4400 + 7), 3 ** 9100),  # both components past 4300 digits
    Fraction(10 ** 4400 + 7, 3),
    Fraction(5, 3 ** 9100),
    Fraction(-(10 ** 4400 + 7)),
])
def test_format_rational_past_the_int_string_limit(value):
    limit = sys.get_int_max_str_digits()
    text = format_rational(value)
    assert sys.get_int_max_str_digits() == limit
    assert text == chunked_literal(value)
    assert parse_rational(text) == value


def decimal_text(n: int) -> str:
    """Decimal literal of ``n`` that does not go through ``int.__str__``."""
    return format(decimal.Decimal(n), "f")


@pytest.mark.parametrize("num,den", [
    (10**4300 - 1, 1),                 # 4300 digits: the last length int() accepts
    (-(10**4300 + 7), 1),              # 4301 digits
    (3**12000, 2**20000 + 1),          # 5726 / 6021 digits
    (-(10**9000 + 1), 10**4400 - 3),
], ids=["4300-digits", "4301-digits", "power-ratio", "signed-ratio"])
def test_literal_round_trip_beyond_int_str_digit_limit(num, den):
    limit = sys.get_int_max_str_digits()
    text = decimal_text(num) if den == 1 else f"{decimal_text(num)}/{decimal_text(den)}"
    value = parse_rational(text)
    assert value == Fraction(num, den)
    canonical = f"{decimal_text(value.numerator)}/{decimal_text(value.denominator)}"
    assert parse_rational(canonical) == value
    assert sys.get_int_max_str_digits() == limit


def test_parse_rational_long_literal_is_typed():
    assert parse_rational("1" * 5000) == Fraction((10**5000 - 1) // 9)
    with pytest.raises(SpecSyntaxError):
        parse_rational("1" * 5000 + "/" + "0" * 5000)


@given(nonzero_fractions, nonzero_fractions)
def test_canonical_form_closed_under_arithmetic(r, s):
    for value in (r + s, r * s, r / s, r ** 3):
        assert math.gcd(abs(value.numerator), value.denominator) == 1
        assert value.denominator > 0
    assert (r - r).denominator == 1  # zero is 0/1


def test_equal_values_share_hash():
    assert Fraction(2, 4) == Fraction(1, 2)
    assert hash(Fraction(2, 4)) == hash(Fraction(1, 2))
    assert hash(parse_rational("120/36")) == hash(Fraction(10, 3))


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 2) / Fraction(0)


def test_signed_log_of_one_is_exact():
    assert to_signed_log(Fraction(1)) == SignedLog(1, 0.0)


@pytest.mark.parametrize("value", [Fraction(-8), Fraction(3, 2)])
def test_signed_log_matches_high_precision_within_4_ulp(value):
    got = to_signed_log(value)
    want = high_precision_log(value)
    assert got.sign == (1 if value > 0 else -1)
    assert abs(got.logmag - want) <= 4 * math.ulp(want)


def test_signed_log_frozen_examples():
    assert to_signed_log(Fraction(-8)) == SignedLog(-1, 2.0794415416798357)
    got = to_signed_log(Fraction(3, 2))
    assert got.sign == 1
    assert got.logmag == pytest.approx(math.log(3) - math.log(2), abs=1e-15)


def test_signed_log_huge_components_do_not_overflow():
    value = Fraction(3 ** 2000, 2 ** 1500)
    got = to_signed_log(value)
    want = 2000 * math.log(3) - 1500 * math.log(2)
    assert got.sign == 1
    assert math.isclose(got.logmag, high_precision_log(value), rel_tol=1e-12)
    assert math.isclose(got.logmag, want, rel_tol=1e-12)


def test_signed_log_rejects_zero():
    with pytest.raises(ZeroValueError):
        to_signed_log(Fraction(0))
    with pytest.raises(ZeroValueError):
        log_abs_int(0)


def test_signed_log_combine():
    """A product combines as the log loop does: signs multiply, logs add."""
    r, s = to_signed_log(Fraction(3, 2)), to_signed_log(Fraction(2, 3))
    assert r.sign * s.sign == to_signed_log(Fraction(1)).sign == 1
    assert abs(r.logmag + s.logmag) < 1e-12
    r, s = to_signed_log(Fraction(-8)), to_signed_log(Fraction(-1, 8))
    assert SignedLog(r.sign * s.sign, r.logmag + s.logmag) == SignedLog(1, 0.0)


def test_signed_log_rejects_bad_sign():
    with pytest.raises(ValueError) as raised:
        SignedLog(0, 1.0)
    assert isinstance(raised.value, ArgumentRangeError)
    assert isinstance(raised.value, PerisysError)


@given(nonzero_fractions, nonzero_fractions)
def test_signed_log_product_round_trip(r, s):
    lhs = to_signed_log(r * s)
    r_log, s_log = to_signed_log(r), to_signed_log(s)
    assert lhs.sign == r_log.sign * s_log.sign
    assert math.isclose(lhs.logmag, r_log.logmag + s_log.logmag, rel_tol=1e-9, abs_tol=1e-9)


def test_component_bits_and_cap():
    assert component_bits(Fraction(5, 16)) == 5
    check_bits(Fraction(5, 16), 5)
    with pytest.raises(BitLengthExceededError):
        check_bits(Fraction(2 ** 70, 3), 64)


def test_resolve_max_bits(monkeypatch):
    monkeypatch.delenv(ENV_MAX_BITS, raising=False)
    assert resolve_max_bits() == DEFAULT_MAX_BITS
    monkeypatch.setenv(ENV_MAX_BITS, "4096")
    assert resolve_max_bits() == 4096
    monkeypatch.setenv(ENV_MAX_BITS, "bogus")
    with pytest.raises(ValueError):
        resolve_max_bits()
    monkeypatch.setenv(ENV_MAX_BITS, "0")
    with pytest.raises(ValueError):
        resolve_max_bits()


@pytest.mark.parametrize("setting, message", [
    ("bogus", "PERISYS_MAX_BITS must be an integer, got 'bogus'"),
    ("0", "PERISYS_MAX_BITS must be positive, got 0"),
])
def test_malformed_cap_is_a_perisys_error(setting, message, monkeypatch):
    """A library caller catches a malformed cap as ``PerisysError``, and as ``ValueError``."""
    monkeypatch.setenv(ENV_MAX_BITS, setting)
    for call in (resolve_max_bits, lambda: simulate(fixed_point_spec(), 5)):
        with pytest.raises(PerisysError) as caught:
            call()
        assert type(caught.value) is BitCapSettingError
        assert isinstance(caught.value, ValueError)
        assert str(caught.value) == message
