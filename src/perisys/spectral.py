"""Exact root analysis of the factored characteristic polynomial.

Taking logs of the pure-x relation linearizes the system; the resulting
linear recurrence has characteristic polynomial

    (lambda^p - 1) * (lambda^q + 1)

whose roots are all roots of unity.  Each root is represented exactly as a
reduced "turn" fraction k/d in [0, 1) standing for exp(2*pi*i*k/d): the
first factor contributes turns l/p, the second turns (2k+1)/(2q).  A root
is repeated exactly when it solves both factors, which happens iff
v2(p) > v2(q) where v2 is the 2-adic valuation.  A repeated root forces a
linear-in-n term in log space, hence an exponentially growing or decaying
subsequence and no periodicity; all-simple roots give eventual periodicity
with period lcm(p, 2q).

At runtime ``verify`` and ``sweep`` check :func:`classify` against the
exact cycle detector.  The root enumeration (the ``*_root_turns`` helpers,
:func:`decompose`, :func:`enumerate_roots` and the ``repeated_root_by_*``
tests) runs only in the test suite, as reference oracles for the
classifier.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import WrongRegimeError


def _require_positive(p: int, q: int) -> None:
    if p < 1 or q < 1:
        raise ValueError(f"p and q must be positive integers, got p={p}, q={q}")


def two_adic_valuation(n: int) -> int:
    """Exponent of 2 in the factorization of a positive integer."""
    if n < 1:
        raise ValueError(f"need a positive integer, got {n}")
    return (n & -n).bit_length() - 1


def turn(k: int, d: int) -> Fraction:
    """The root exp(2*pi*i*k/d) as a reduced fraction of a full turn in [0, 1)."""
    if d < 1:
        raise ValueError(f"turn denominator must be positive, got {d}")
    return Fraction(k % d, d)


def unit_root_turns(p: int) -> list[Fraction]:
    """Turns of the p solutions of lambda^p = 1 (test oracle)."""
    return [turn(l, p) for l in range(p)]


def negation_root_turns(q: int) -> list[Fraction]:
    """Turns of the q solutions of lambda^q = -1 (test oracle)."""
    return [turn(2 * k + 1, 2 * q) for k in range(q)]


@dataclass(frozen=True)
class Decomposition:
    """p = 2^r * u * s and q = 2^r * u * t with u odd and gcd(s, t) = 1."""

    g: int
    r: int
    u: int
    s: int
    t: int


def decompose(p: int, q: int) -> Decomposition:
    """Split p and q as in :class:`Decomposition` (test oracle)."""
    _require_positive(p, q)
    g = math.gcd(p, q)
    r = two_adic_valuation(g)
    return Decomposition(g=g, r=r, u=g >> r, s=p // g, t=q // g)


@dataclass(frozen=True)
class SpectrumReport:
    """All roots as (turn, multiplicity), sorted by turn."""

    roots: tuple[tuple[Fraction, int], ...]

    @property
    def degree(self) -> int:
        return sum(mult for _, mult in self.roots)

    def repeated_turns(self) -> tuple[Fraction, ...]:
        return tuple(t for t, mult in self.roots if mult > 1)


def enumerate_roots(p: int, q: int) -> SpectrumReport:
    """Multiset union of the two explicit root families (test oracle)."""
    _require_positive(p, q)
    counts = Counter(unit_root_turns(p))
    counts.update(negation_root_turns(q))
    return SpectrumReport(roots=tuple(sorted(counts.items())))


def repeated_root_by_condition(p: int, q: int) -> bool:
    """Repeated-root test via the coincidence condition (2k+1) s = 2 l t (test oracle).

    Scans the q odd-multiple candidates; a solution in integers l is a
    shared root of the two factors (the implied l always lands in 0..p-1).
    """
    dec = decompose(p, q)
    s, t = dec.s, dec.t
    for k in range(q):
        value = (2 * k + 1) * s
        if value % (2 * t) == 0 and value // (2 * t) < p:
            return True
    return False


def repeated_root_by_intersection(p: int, q: int) -> bool:
    """Repeated-root test via intersecting the two exact turn sets (test oracle)."""
    _require_positive(p, q)
    return not set(unit_root_turns(p)).isdisjoint(negation_root_turns(q))


def has_repeated_root(p: int, q: int) -> bool:
    """Closed-form repeated-root test: v2(p) > v2(q)."""
    _require_positive(p, q)
    return two_adic_valuation(p) > two_adic_valuation(q)


def predicted_period(p: int, q: int) -> int:
    """Eventual period lcm(p, 2q) in the all-simple-roots regime."""
    if has_repeated_root(p, q):
        raise WrongRegimeError(
            f"(p, q) = ({p}, {q}) has a repeated characteristic root; no period exists"
        )
    return math.lcm(p, 2 * q)


class Regime(Enum):
    EVENTUALLY_PERIODIC = "EventuallyPeriodic"
    GENERICALLY_UNBOUNDED = "GenericallyUnbounded"


class Reason(Enum):
    P_ODD = "p-odd"
    COPRIME_Q_ODD = "coprime-q-odd"
    ODD_QUOTIENT = "odd-quotient"
    EVEN_QUOTIENT = "even-quotient"


@dataclass(frozen=True)
class Classification:
    """Predicted regime for generic initial data.

    ``predicted_period`` is set exactly when the regime is periodic;
    ``witness_modulus`` is the stride of a provably growing or decaying
    subsequence when it is not.  Special initial data can be periodic even
    in an unbounded regime (the growth coefficient can vanish), which is
    why the regime is a generic statement.
    """

    regime: Regime
    reason: Reason
    predicted_period: int | None
    witness_modulus: int | None

    def to_obj(self) -> dict:
        return {
            "regime": self.regime.value,
            "reason": self.reason.value,
            "predicted_period": self.predicted_period,
            "witness_modulus": self.witness_modulus,
        }


def classify(p: int, q: int) -> Classification:
    """Regime trichotomy driven by gcd(p, q) and the parity of p/gcd(p, q).

    Odd p never yields a repeated root, so those delay pairs (including
    p dividing q, where lcm(p, 2q) = 2q, and coprime odd p, where it is
    2pq) classify as periodic alongside the even-p odd-quotient case.
    """
    _require_positive(p, q)
    g = math.gcd(p, q)
    m = math.lcm(p, 2 * q)
    if p % 2 == 1:
        return Classification(Regime.EVENTUALLY_PERIODIC, Reason.P_ODD, m, None)
    if g == 1:
        return Classification(Regime.GENERICALLY_UNBOUNDED, Reason.COPRIME_Q_ODD, None, 2 * p * q)
    if (p // g) % 2 == 1:
        return Classification(Regime.EVENTUALLY_PERIODIC, Reason.ODD_QUOTIENT, m, None)
    return Classification(Regime.GENERICALLY_UNBOUNDED, Reason.EVEN_QUOTIENT, None, m)
