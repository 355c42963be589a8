"""Minimal-period detection for the joint (x, y) sequence.

The next pair depends only on the trailing window of max(p, q) consecutive
pairs (q of them, since every spec has p <= q), so the sequence of windows
is the orbit of a deterministic map.
Scanning windows for the first one that recurs therefore gives both the
minimal cycle length and the minimal window preperiod: window i recurring
first at window j > i means the orbit has tail length i and cycle length
j - i.

Window k is the one ending at pair index k; k = 0 is the initial data.  A
preperiod of 0 thus means the trajectory repeats from the first generated
pair onward.  Pairwise equality (x_{n+period}, y_{n+period}) = (x_n, y_n)
is guaranteed for every n >= preperiod - max(p, q) + 1, in particular for
all n >= preperiod.

Each pair is hashed once, from the numerators and denominators of its
canonical rationals, and the hashes of a window are combined into a
polynomial rolling hash modulo the Mersenne prime 2**61 - 1, updated in
O(1) per step.  Equal windows always get equal keys, and a window whose
key is already taken is compared pair by pair with the stored window
before it counts as a repeat.  A hash collision therefore never produces
a false positive or hides a repeat, and the first confirmed repeat is the
minimal one.  Memory is O(horizon) pairs and hashes.

``detect_cycle`` first derives the block multipliers R_r of the exact
kernel (see ``simulator``): y_{n+M} = R_{n mod d} y_n with M = lcm(p, 2q)
and d = gcd(p, 2q).  If some |R_r| != 1, |y| is strictly monotone along
the stride-M subsequences of that class, so no window ever recurs and the
scan could only end at the horizon.  It then answers without a scan,
provided the scan could not have hit the bit cap first: since
y_{n+kM} = R^k y_n and x_n = a / y_{n-p}, and the bits of a product or
quotient are at most the sum of the operands' bits, every component
generated within horizon h has at most

    bits(a) + max bits(y_init) + (M/p) max bits(K) + ceil(h/M) max bits(R)

bits.  When that bound exceeds the cap, or every |R_r| = 1, the scan runs
as before and raises ``BitLengthExceededError`` wherever it would.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Hashable, Iterable, Sequence
from dataclasses import dataclass
from typing import Union

from .model import SystemSpec
from .numerics import component_bits, resolve_max_bits
from .simulator import (
    BACKEND_EXACT,
    Trajectory,
    _require_exact,
    block_multipliers,
    iter_pairs,
    step_coefficients,
)


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
    """Large enough to expose every periodic regime in scope, with slack."""
    return 4 * math.lcm(p, 2 * q) + 4 * max(p, q)


_MODULUS = (1 << 61) - 1
_BASE = 1_181_783_497_276_652_981


def _pair_hash(pair: tuple) -> int:
    x, y = pair
    # Canonical rationals are equal iff their components are; hashing the
    # integers avoids Fraction.__hash__, which reduces modulo a prime.  Keys
    # do collide on small data (hash(-1) == hash(-2)), hence the exact
    # confirmation in _first_repeat.
    return hash((x.numerator, x.denominator, y.numerator, y.denominator))


def _first_repeat(initial_pairs: Sequence[tuple], generated_pairs: Iterable[tuple],
                  w: int) -> CycleResult:
    """First recurring length-``w`` window, scanning every generated pair.

    Window k ends at the k-th generated pair; window 0 is the last ``w``
    initial pairs.  ``generated_pairs`` is consumed only up to the repeat;
    without one, the horizon is the number of generated pairs.
    """
    pairs = list(initial_pairs)
    hashes = [_pair_hash(pair) for pair in pairs]
    key = 0
    for h in hashes[-w:]:
        key = (key * _BASE + h) % _MODULUS
    drop = pow(_BASE, w, _MODULUS)
    end0 = len(pairs)  # pairs[k + end0 - w : k + end0] is window k
    seen = {key: 0}
    k = 0
    for k, pair in enumerate(generated_pairs, 1):
        h = _pair_hash(pair)
        key = (key * _BASE + h - hashes[-w] * drop) % _MODULUS
        pairs.append(pair)
        hashes.append(h)
        slot = key
        while (j := seen.setdefault(slot, k)) != k:
            if pairs[j + end0 - w:j + end0] == pairs[-w:]:
                return Periodic(preperiod=j, period=k - j)
            slot += 1  # a different window holds this slot: probe the next one
    return NoCycleWithinHorizon(horizon=k)


def find_window_cycle(items: Sequence[Hashable], window: int) -> tuple[int, int] | None:
    """First repeated length-``window`` window of ``items``.

    Naive reference oracle for the rolling-hash scan: it builds and hashes
    a fresh tuple per window, so it costs O(window) per item.  Returns
    (first_occurrence, distance) in window-start indices, or None if every
    window is distinct.
    """
    if window < 1 or len(items) < window:
        return None
    seen: dict = {}
    for k in range(len(items) - window + 1):
        state = tuple(items[k:k + window])
        if state in seen:
            return seen[state], k - seen[state]
        seen[state] = k
    return None


def find_cycle(traj: Trajectory) -> CycleResult:
    """Scan an existing exact trajectory for its first repeated window."""
    _require_exact(traj)
    spec = traj.spec
    pairs = traj.pairs()
    return _first_repeat(pairs[:spec.q], pairs[spec.q:], max(spec.p, spec.q))


def _proves_no_cycle(spec: SystemSpec, horizon: int, cap: int) -> bool:
    """True if some |R_r| != 1 and the bit bound over ``horizon`` stays within ``cap``."""
    coefficients = step_coefficients(spec)
    multipliers = block_multipliers(spec.p, coefficients)
    if all(abs(r) == 1 for r in multipliers):
        return False
    block = math.lcm(spec.p, 2 * spec.q)
    bound = (component_bits(spec.a) + max(map(component_bits, spec.y_init))
             + block // spec.p * max(map(component_bits, coefficients))
             + -(-horizon // block) * max(map(component_bits, multipliers)))
    return bound <= cap


def detect_cycle(spec: SystemSpec, horizon: int | None = None,
                 max_bits: int | None = None) -> CycleResult:
    """Simulate up to ``horizon`` generated pairs, stopping at the first repeat.

    A spec with some block multiplier |R_r| != 1 has no cycle at all; it
    is answered without generating a pair when the bit bound of the
    module docstring stays within the cap.  ``horizon`` defaults to
    :func:`default_horizon`.
    """
    if horizon is None:
        horizon = default_horizon(spec.p, spec.q)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if _proves_no_cycle(spec, horizon, resolve_max_bits(max_bits)):
        return NoCycleWithinHorizon(horizon=horizon)
    generated = itertools.islice(iter_pairs(spec, BACKEND_EXACT, max_bits), horizon)
    return _first_repeat(tuple(zip(spec.x_init, spec.y_init)),
                         ((x, y) for _, x, y in generated), max(spec.p, spec.q))


def confirm_periodic(traj: Trajectory, preperiod: int, period: int, cycles: int = 2) -> bool:
    """Replay check: pairs at n and n + period agree for preperiod <= n <= preperiod + cycles*period."""
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    if cycles < 0:
        raise ValueError(f"cycles must be >= 0, got {cycles}")
    last = preperiod + (cycles + 1) * period
    if traj.n_max < last:
        raise ValueError(f"need a trajectory through n={last}, have {traj.n_max}")
    lo = traj._offset(preperiod)
    hi = lo + cycles * period + 1
    return (traj.xs[lo:hi] == traj.xs[lo + period:hi + period]
            and traj.ys[lo:hi] == traj.ys[lo + period:hi + period])
