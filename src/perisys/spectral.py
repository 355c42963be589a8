"""The regime classifier: periodic or not, from the delays p and q alone.

Taking logs of the pure-x relation linearizes the system; the resulting
linear recurrence has characteristic polynomial

    (lambda^p - 1) * (lambda^q + 1)

whose roots are all roots of unity.  A root is repeated exactly when it
solves both factors, which happens iff v2(p) > v2(q) where v2 is the
2-adic valuation, that is iff p/gcd(p, q) is even.  A repeated root
forces a linear-in-n term in log space, hence an exponentially growing or
decaying subsequence and no periodicity; all-simple roots give eventual
periodicity with period lcm(p, 2q).

:func:`classify` is the runtime route: ``classify`` prints it, and
``verify`` and ``sweep`` check it against the exact cycle detector.  The
explicit root enumeration that it is tested against lives in
``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import ArgumentRangeError


def _require_positive(p: int, q: int) -> None:
    if p < 1 or q < 1:
        raise ArgumentRangeError(f"p and q must be positive integers, got p={p}, q={q}")


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
