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
  2M when some R_r = -1, which ``block_period`` returns.  The minimal
  period T is the smallest divisor t of P that is a period of the pairs
  from n = 1 on, and the block need not be generated to find it.  Since
  x_n = a / y_{n-p}, t is such a period iff y is t-periodic from n = 1 - p
  on, and since y_n = y_{n-p} K_n with K 2q-periodic, that holds iff

  - K equals itself rotated by gcd(t, 2q), and
  - y_{m+t} = y_m for the p indices m = 1 - p .. 0.

  (<=) by induction, y_{n+t} = y_{n+t-p} K_{n+t} = y_{n-p} K_n = y_n;
  (=>) K_n = y_n / y_{n-p}, and no y is zero.  t = P always passes.  A
  t < P that M divides is M itself with P = 2M, where some
  y_{n+M} = -y_n, so it never passes.  Any other t draws pairs 1 .. t
  from one ``iter_pairs`` iterator, shared by the divisors in increasing
  order, so the search draws fewer than P pairs, and none when
  P = M = 2q and no rotation of K but the full one leaves it unchanged.

  Only the drawn pairs meet the bit cap: the kernel tests each, x_n
  before y_n, and raises with its own text.  What the search forms
  without drawing stays bounded whatever the cap: every 2q/d consecutive
  K along a chain j, j - p, ... multiply to R_r = +-1, so each y_j of the
  block is +-y_m, m in 1 - p .. 0, times fewer than 2q/d consecutive K of
  one class, and x_j = a / y_{j-p}.  So no component of the first P
  pairs, the q + p values of the backward window below among them, is
  wider than W: the widest of those y_m, plus the largest sum over a
  class of the K's widest components, plus a's widest.  Any answer but a
  drawn pair's cap error is the one given with no cap.

The preperiod is reported at window level.  The next pair depends only on
the trailing window of max(p, q) = q pairs (every spec has p <= q).
Window k ends at pair index k, and k = 0 is the initial data.  The
preperiod n0 is the smallest k whose window equals window k + T, which is
the first window that recurs.  Windows from k = q on hold generated pairs
only, so they all recur.  Window k < q recurs iff every initial pair from
its start on equals the pair T steps later.  Hence n0 is one plus the
largest initial offset i (index i - q + 1) with pair_i != pair_{i+T}, or 0
if there is none.  The pairs T + 1 - q .. T come from a window
of y_j, j = T down to max(T + 1 - q - p, 1 - q), formed backwards: the
initial y_j for j <= 0, the initial y_{j-T} for j > T - p, where
periodicity gives it, and y_{j+p} / K_{j+p} otherwise; then
x_n = a / y_{n-p}.  Pairwise equality (x_{n+T}, y_{n+T}) = (x_n, y_n)
holds for every n >= n0 - q + 1, in particular for all n >= n0.

A no-cycle answer carries ``horizon = default_horizon(p, q)``, so the
output reads as that of a window scan over that many steps, which could
find no repeat either; the decision itself depends on no horizon.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Union

from .model import SystemSpec
from .numerics import resolve_max_bits
from .simulator import _reduced, block_period, iter_pairs, step_coefficients


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

    Draws fewer than P = ``block_period`` exact pairs on a periodic spec,
    and none on an unbounded spec (module docstring).  Only a drawn pair
    can pass the bit cap, and it raises as the kernel does; any other
    answer is the uncapped one.  The cap is resolved first, so a
    malformed ``PERISYS_MAX_BITS`` fails on every spec.
    """
    resolve_max_bits()
    p, q = spec.p, spec.q
    coefficients = step_coefficients(spec)
    size = block_period(p, coefficients)
    if size is None:
        return NoCycleWithinHorizon(horizon=default_horizon(p, q))
    # a Fraction's integer ratio is its canonical pair, so it equals the
    # kernel's Rational of the same value, and equal values are equal pairs
    a = spec.a.as_integer_ratio()
    initial = [(x.as_integer_ratio(), y.as_integer_ratio())
               for x, y in zip(spec.x_init, spec.y_init)]
    ys = [y for _, y in initial[q - p:]]  # y_j at offset j + p - 1, drawn as far as needed
    block = math.lcm(p, 2 * q)

    def draws() -> Iterator:  # y_1, y_2, ... of one iter_pairs, opened by the first draw
        for _, _, y in iter_pairs(spec):
            yield y
    later = draws()

    def is_period(t: int) -> bool:
        shift = math.gcd(t, 2 * q)
        if coefficients[shift:] + coefficients[:shift] != coefficients:
            return False
        if t == size:
            return True
        if t % block == 0:
            return False
        ys.extend(itertools.islice(later, t + p - len(ys)))
        return ys[t:t + p] == ys[:p]

    period = next(t for t in range(1, size + 1) if size % t == 0 and is_period(t))
    window = {}  # y_j for j = T down to max(T + 1 - q - p, 1 - q)
    for j in range(period, max(period - q - p, -q), -1):
        if j <= 0:
            window[j] = initial[j + q - 1][1]
        elif j > period - p:
            window[j] = initial[j - period + q - 1][1]
        else:
            (y_num, y_den), (k_num, k_den) = window[j + p], coefficients[(j + p - 1) % (2 * q)]
            window[j] = _reduced(y_num * k_den, y_den * k_num)

    def pair(n: int) -> tuple:
        if n <= 0:
            return initial[n + q - 1]
        y_num, y_den = window[n - p]
        return _reduced(a[0] * y_den, a[1] * y_num), window[n]

    preperiod = next((i + 1 for i in reversed(range(q))
                      if initial[i] != pair(i + 1 - q + period)), 0)
    return Periodic(preperiod=preperiod, period=period)
