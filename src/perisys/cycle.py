"""Minimal preperiod and period of the joint (x, y) sequence, decided exactly.

The exact kernel (see ``simulator``) gives, with M = lcm(p, 2q) and
d = gcd(p, 2q), the block law y_{n+M} = R_{n mod d} y_n and
x_{n+M} = x_n / R_{n mod d} for n >= 1, so the d block multipliers R
decide the answer.  ``simulator.block_period`` owns the rule:

* some |R_r| != 1: |y| is strictly monotone along a stride-M subsequence,
  so no pair, and no window of pairs, ever recurs.  ``block_period`` is
  ``None``, and the answer is ``NoCycleWithinHorizon`` without generating
  a pair.
* every R_r = +-1: the pairs from n = 1 on repeat with period P = M, or
  2M when some R_r = -1, which ``block_period`` returns.  The first P
  pairs are generated, each checked against the bit cap.  The minimal
  period T divides P, and it is the smallest divisor t of P for which the
  block equals itself shifted by t: a P-periodic sequence whose first
  block is t-periodic is t-periodic.  A divisor t < P is compared only
  when pair t equals pair 0, which that equality requires.

The preperiod is reported at window level.  The next pair depends only on
the trailing window of max(p, q) = q pairs (every spec has p <= q).
Window k ends at pair index k, and k = 0 is the initial data.  The
preperiod n0 is the smallest k whose window equals window k + T, which is
the first window that recurs.  Windows from k = q on hold generated pairs
only, so they all recur.  Window k < q recurs iff every initial pair from
its start on equals the pair T steps later.  Hence n0 is one plus the
largest initial offset i (index i - q + 1) with pair_i != pair_{i+T}, or 0
if there is none.  Pairwise equality (x_{n+T}, y_{n+T}) = (x_n, y_n)
holds for every n >= n0 - q + 1, in particular for all n >= n0.

A no-cycle answer carries ``horizon = default_horizon(p, q)``, so the
output reads as that of a window scan over that many steps, which could
find no repeat either; the decision itself depends on no horizon.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Union

from .model import SystemSpec
from .numerics import Rational, resolve_max_bits
from .simulator import block_period, iter_pairs, step_coefficients


@dataclass(frozen=True)
class Periodic:
    preperiod: int
    period: int

    def to_obj(self) -> dict:
        return {"status": "periodic", "n0": self.preperiod, "period": self.period}


@dataclass(frozen=True)
class NoCycleWithinHorizon:
    horizon: int

    def to_obj(self) -> dict:
        return {"status": "no-cycle", "horizon": self.horizon}


CycleResult = Union[Periodic, NoCycleWithinHorizon]


def default_horizon(p: int, q: int) -> int:
    """The horizon a no-cycle answer reports: 4 lcm(p, 2q) + 4 max(p, q)."""
    return 4 * math.lcm(p, 2 * q) + 4 * max(p, q)


def detect_cycle(spec: SystemSpec) -> CycleResult:
    """Minimal window preperiod and period, or no cycle when some |R_r| != 1.

    Generates at most 2 lcm(p, 2q) exact pairs, and none for an unbounded
    spec (module docstring).  The bit cap is resolved first, so a
    malformed ``PERISYS_MAX_BITS`` fails on every spec.
    """
    resolve_max_bits()
    size = block_period(spec.p, step_coefficients(spec))
    if size is None:
        return NoCycleWithinHorizon(horizon=default_horizon(spec.p, spec.q))
    block = [(x, y) for _, x, y in itertools.islice(iter_pairs(spec), size)]
    # block[t] == block[0] is necessary, and spares generic data (T = P)
    # the two slice copies per divisor
    period = next((t for t in range(1, size) if size % t == 0 and block[t] == block[0]
                   and block[t:] == block[:-t]), size)
    # exact pairs are canonical Rational pairs, so equal values are equal pairs
    initial = [(Rational(*x.as_integer_ratio()), Rational(*y.as_integer_ratio()))
               for x, y in zip(spec.x_init, spec.y_init)]
    pairs = initial + block
    preperiod = next((i + 1 for i in reversed(range(spec.q)) if pairs[i] != pairs[i + period]), 0)
    return Periodic(preperiod=preperiod, period=period)
