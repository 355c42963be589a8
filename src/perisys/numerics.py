"""Exact rational scalars and their signed-logarithm companions.

Rationals are plain :class:`fractions.Fraction` values: the stdlib type
already guarantees the canonical form the rest of the package relies on
(``gcd(|numerator|, denominator) == 1``, ``denominator > 0``, zero stored
as 0/1) and its arithmetic is closed, exact, and rejects division by zero.
This module adds what ``Fraction`` does not have:

* :class:`Rational`, the canonical components of a rational as a named
  pair of ints.  The exact kernel reduces its own products and yields
  these, since building a ``Fraction`` costs more per step than the
  arithmetic on the ints; its step coefficients and block multipliers
  are these pairs too.  :func:`component_bits`, :func:`check_bits` and
  :func:`to_signed_log` read only ``numerator`` and ``denominator``, so
  they accept either type,
* a strict literal syntax shared by every text format ("-3/7", "2":
  optional sign, decimal integer, optional "/" plus positive decimal
  integer, no whitespace),
* a bit-length cap so trajectories in growing regimes abort with a typed
  error instead of exhausting memory,
* :class:`SignedLog`, a (sign, log-magnitude) representation of nonzero
  reals; a product or quotient of two is a product of signs and a float
  sum or difference of logs, which cannot overflow,
* :data:`EXACT`, the one ``decimal`` context of the package, in which
  integers of any length are exact ``Decimal`` values.  ``str`` of an int
  takes time quadratic in its length and refuses more than
  ``sys.get_int_max_str_digits()`` digits (4300 by default); ``str`` of a
  ``Decimal`` takes linear time and has no limit.  The limit itself is
  never changed, since it belongs to the host program.

Log magnitudes of huge integers are computed from the integer directly,
as (bit_length - 53) * ln 2 plus the log of the top 53 bits; the full
integer is never converted to a float, so there is no overflow at any
size.  Truncating to 53 bits perturbs the log by less than 2**-52, far
below one ulp of any large log value.
"""

from __future__ import annotations

import decimal
import math
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    ArgumentRangeError,
    BitCapSettingError,
    BitLengthExceededError,
    SpecSyntaxError,
    ZeroValueError,
)

DEFAULT_MAX_BITS = 1_000_000
ENV_MAX_BITS = "PERISYS_MAX_BITS"

_LN2 = math.log(2)
_MANTISSA_BITS = 53

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")

# Every result below MAX_PREC digits is exact, and any rounding, inexact
# division or division by zero raises instead of rounding silently.  Only
# integers go through it, so no exponent ever leaves 0.
EXACT = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation, decimal.DivisionByZero],
)


class Rational(NamedTuple):
    """A rational in canonical form: ``gcd(|numerator|, denominator) == 1``, ``denominator > 0``.

    Nothing checks or restores the form; whoever builds one guarantees it,
    and then equality of values is equality of pairs.
    """

    numerator: int
    denominator: int


def _parse_int(digits: str) -> int:
    """Exact ``int`` of a validated decimal literal of any length.

    ``int()`` refuses literals longer than ``sys.get_int_max_str_digits()``
    (4300 by default); ``Decimal`` parses them exactly and converts to
    ``int`` without going through that limit, which stays untouched for the
    host program.
    """
    try:
        return int(digits)
    except ValueError:
        return int(decimal.Decimal(digits))


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal such as ``-3/7`` or ``2``, of any length."""
    if not isinstance(text, str) or _RATIONAL_RE.fullmatch(text) is None:
        raise SpecSyntaxError(f"not a rational literal: {text!r}")
    num_text, _, den_text = text.partition("/")
    if not den_text:
        return Fraction(_parse_int(num_text))
    den = _parse_int(den_text)
    if den == 0:
        raise SpecSyntaxError(f"denominator must be positive: {text!r}")
    return Fraction(_parse_int(num_text), den)


def format_rational(value: Fraction) -> str:
    """Render ``value`` in the literal syntax accepted by :func:`parse_rational`.

    Components longer than ``sys.get_int_max_str_digits()`` digits, which
    ``str`` refuses, are rendered through :data:`EXACT`, as
    :func:`_parse_int` parses them, into the text that ``str`` would give:
    "num" when the denominator is 1, else "num/den".
    """
    try:
        return str(value)
    except ValueError:
        numerator = str(EXACT.create_decimal(value.numerator))
        if value.denominator == 1:
            return numerator
        return f"{numerator}/{EXACT.create_decimal(value.denominator)}"


def component_bits(value: Fraction | Rational) -> int:
    """Bit length of the larger of numerator magnitude and denominator."""
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def check_bits(value: Fraction | Rational, cap: int) -> None:
    """Raise :class:`BitLengthExceededError` if either component exceeds the cap."""
    bits = component_bits(value)
    if bits > cap:
        raise BitLengthExceededError(
            f"rational component reached {bits} bits (cap {cap})"
        )


def resolve_max_bits() -> int:
    """Effective bit cap: ``PERISYS_MAX_BITS`` if set, else the default.

    A value that is not a positive integer raises ``BitCapSettingError``,
    a ``PerisysError`` that is also a ``ValueError``.
    """
    env = os.environ.get(ENV_MAX_BITS)
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise BitCapSettingError(f"{ENV_MAX_BITS} must be an integer, got {env!r}") from None
        if value < 1:
            raise BitCapSettingError(f"{ENV_MAX_BITS} must be positive, got {value}")
        return value
    return DEFAULT_MAX_BITS


def log_abs_int(n: int) -> float:
    """Natural log of ``|n|`` for a nonzero integer of any size."""
    if n == 0:
        raise ZeroValueError("log of zero")
    n = abs(n)
    excess = n.bit_length() - _MANTISSA_BITS
    if excess <= 0:
        return math.log(n)
    return math.log(n >> excess) + excess * _LN2


@dataclass(frozen=True)
class SignedLog:
    """A nonzero real stored as its sign and the natural log of its magnitude."""

    sign: int
    logmag: float

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ArgumentRangeError(f"sign must be +1 or -1, got {self.sign!r}")


def to_signed_log(value: Fraction | Rational | int) -> SignedLog:
    """Convert a nonzero rational to its signed-log form.

    The log magnitude is the difference of the integer logs of numerator
    and denominator, each computed via the bit-length decomposition above.
    """
    numerator = value.numerator  # an int is its own numerator, over 1
    if numerator == 0:
        raise ZeroValueError("signed-log form exists only for nonzero values")
    sign = 1 if numerator > 0 else -1
    return SignedLog(sign, log_abs_int(numerator) - log_abs_int(value.denominator))
