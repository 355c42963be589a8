"""Test oracles that no command runs: roots, subsequence statistics, literals, signed logs.

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

The root enumeration is the reference that :func:`perisys.spectral.classify`
is tested against; :func:`monotone_check` reads the growing or decaying
witness subsequence exactly (acceptance criterion 7), and
:func:`regression_slope` is the least-squares fit over it that
``closedform.growth_slope``'s exact block increment replaced.  The literal
renderers and the ``SignedLog`` recurrence are the references for the
export's exact and signed-log rows, the ``Fraction`` forms of K, R and
the block period are those of the simulator's int pairs, and the block
scans are the detector's minimal-period search without its early-out
and the whole detector as it ran before it stopped generating the block.
:func:`sigma_orbit_block_law`, at the end, is the block law as
``closedform.block_ratio_check`` ran it before it became one call of the
comparison engine.
"""

from __future__ import annotations

import itertools
import math
import statistics
from collections import Counter, deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from perisys.cycle import NoCycleWithinHorizon, Periodic, default_horizon
from perisys.errors import PerisysError, TooFewPointsError
from perisys.numerics import Rational, SignedLog, resolve_max_bits, to_signed_log
from perisys.simulator import (
    Trajectory,
    _matches_reference_cycle,
    block_period,
    iter_pairs,
    step_coefficients,
)
from perisys.spectral import _require_positive


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


class WrongRegimeError(PerisysError):
    """A period or an old law's oracle was asked for outside the regime where it holds."""


def predicted_period(p: int, q: int) -> int:
    """Eventual period lcm(p, 2q) in the all-simple-roots regime."""
    if has_repeated_root(p, q):
        raise WrongRegimeError(
            f"(p, q) = ({p}, {q}) has a repeated characteristic root; no period exists"
        )
    return math.lcm(p, 2 * q)


class Monotonicity(Enum):
    INCREASING = "Increasing"
    DECREASING = "Decreasing"
    CONSTANT = "Constant"
    NON_MONOTONE = "NonMonotone"


def stride_values(traj: Trajectory, m: int, t: int) -> list[Fraction]:
    """x_t, x_{t+m}, x_{t+2m}, ... through n_max, read by the accessors (test oracle)."""
    return [traj.x(n) for n in range(t, traj.n_max + 1, m)]


def regression_slope(traj: Trajectory, m: int, t: int) -> float:
    """Least-squares slope of ln|x_{t+km}| against k, for t + km <= n_max (test oracle).

    The float estimate of ``closedform.growth_slope``'s exact value when m
    is a multiple of lcm(p, 2q); it takes one log per value, and needs 3.
    """
    logs = [to_signed_log(value).logmag for value in stride_values(traj, m, t)]
    if len(logs) < 3:
        raise TooFewPointsError(f"need at least 3 subsequence points, got {len(logs)}")
    return statistics.linear_regression(range(len(logs)), logs).slope


def monotone_check(traj: Trajectory, m: int, t: int) -> Monotonicity:
    """Eventual strict monotonicity of |x_{mn+t}|, by exact comparison.

    Classifies the longest suffix of the subsequence on which consecutive
    comparisons all agree; the suffix must span at least 3 points, so a
    preperiod is skipped but the verdict is never read off fewer than two
    comparisons.  Magnitudes are compared cross-multiplied over their
    components: |u|/v < |r|/s iff |u| s < |r| v for positive v and s.
    """
    values = [(abs(v.numerator), v.denominator) for v in stride_values(traj, m, t)]
    if len(values) < 3:
        raise TooFewPointsError(f"need at least 3 subsequence points, got {len(values)}")
    directions = [
        (num2 * den1 > num1 * den2) - (num2 * den1 < num1 * den2)
        for (num1, den1), (num2, den2) in zip(values, values[1:])
    ]
    tail = directions[-1]
    span = 0
    for step in reversed(directions):
        if step != tail:
            break
        span += 1
    if span < 2:
        return Monotonicity.NON_MONOTONE
    if tail > 0:
        return Monotonicity.INCREASING
    if tail < 0:
        return Monotonicity.DECREASING
    return Monotonicity.CONSTANT


def str_fraction_row(n: int, x: Fraction, y: Fraction) -> tuple:
    """The export row of an exact pair, its literals rendered by ``str(Fraction)`` (test oracle).

    The direct rendering that the export's Decimal images replace: ``str``
    of an int takes time quadratic in its length and refuses more than
    ``sys.get_int_max_str_digits()`` digits.
    """
    sx, sy = to_signed_log(x), to_signed_log(y)
    return n, str(x), str(y), sx.sign, sx.logmag, sy.sign, sy.logmag


_CHUNK_DIGITS = 1000
_CHUNK = 10 ** _CHUNK_DIGITS


def chunked_decimal(n: int) -> str:
    """Decimal text of an int of any length, from ``str`` of chunks under the limit (test oracle)."""
    if n < 0:
        return "-" + chunked_decimal(-n)
    if n < _CHUNK:
        return str(n)
    high, low = divmod(n, _CHUNK)
    return chunked_decimal(high) + str(low).zfill(_CHUNK_DIGITS)


def chunked_literal(value: Fraction) -> str:
    """The literal of ``str(value)``, for components of any length (test oracle)."""
    if value.denominator == 1:
        return chunked_decimal(value.numerator)
    return f"{chunked_decimal(value.numerator)}/{chunked_decimal(value.denominator)}"


def log_pairs(spec):
    """(n, x_n, y_n) of the literal recurrence on ``SignedLog`` values (test oracle).

    The signed-log route as it was before the export's flat rows replaced
    it: a window of ``SignedLog`` pairs, stepped in the recurrence's order
    of operations, a - y_p and (b + y_p) - (x_q + y_q) on the logs.
    """
    a, b = to_signed_log(spec.a), to_signed_log(spec.b)
    back_p = spec.q - spec.p  # window[k] holds the pair at n - q + k
    window = deque(zip(map(to_signed_log, spec.x_init), map(to_signed_log, spec.y_init)),
                   maxlen=spec.q)
    for n in itertools.count(1):
        _, y_p = window[back_p]
        x_q, y_q = window[0]
        x = SignedLog(a.sign * y_p.sign, a.logmag - y_p.logmag)
        y = SignedLog(b.sign * y_p.sign * x_q.sign * y_q.sign,
                      (b.logmag + y_p.logmag) - (x_q.logmag + y_q.logmag))
        window.append((x, y))
        yield n, x, y


def fraction_step_coefficients(spec) -> list[Fraction]:
    """K_n = b / z_{n-q} for n = 1 .. 2q by ``Fraction`` arithmetic (test oracle).

    The form that ``simulator.step_coefficients`` replaces: the q initial
    products z = x y, then b / z and z / a, each a ``Fraction`` operation.
    """
    z = [x * y for x, y in zip(spec.x_init, spec.y_init)]  # z at indices -q+1 .. 0
    return [spec.b / z_k for z_k in z] + [z_k / spec.a for z_k in z]


def fraction_block_multipliers(p: int, coefficients) -> list[Fraction]:
    """R_r for r = 0 .. d-1 as ``Fraction``s, d = gcd(p, 2q) (test oracle).

    The form that ``simulator.block_multipliers`` replaces, reduced once
    by the ``Fraction`` constructor from the integer products of the
    members' components.
    """
    d = math.gcd(p, len(coefficients))
    multipliers = []
    for r in range(d):
        members = coefficients[(r - 1) % d::d]  # offset k holds K_{k+1}
        multipliers.append(Fraction(math.prod(k.numerator for k in members),
                                    math.prod(k.denominator for k in members)))
    return multipliers


def fraction_block_period(p: int, coefficients) -> int | None:
    """M = lcm(p, 2q) if every R_r = 1, 2M if every R_r = +-1, else ``None`` (test oracle).

    The |R| rule on ``Fraction`` multipliers, as ``simulator.block_period``
    read it before it took canonical pairs.
    """
    multipliers = fraction_block_multipliers(p, coefficients)
    if any(abs(r) != 1 for r in multipliers):
        return None
    return math.lcm(p, len(coefficients)) * (1 if all(r == 1 for r in multipliers) else 2)


def block_min_period(block) -> int:
    """The smallest divisor t of len(block) with block[t:] == block[:-t] (test oracle).

    The scan ``cycle.detect_cycle`` ran before it compared pair t with
    pair 0 first: two slice copies for every divisor, len(block) included.
    """
    size = len(block)
    return next(t for t in range(1, size + 1) if size % t == 0 and block[t:] == block[:-t])


def block_scan_cycle(spec):
    """``cycle.detect_cycle`` as it was when it generated the block (test oracle).

    The first P = ``block_period`` pairs of ``iter_pairs``, each checked
    against the bit cap; the smallest divisor t of P whose shift leaves
    the block unchanged, with pair t compared to pair 0 first; and the
    window preperiod from the initial pairs against those T later.
    """
    resolve_max_bits()
    size = block_period(spec.p, step_coefficients(spec))
    if size is None:
        return NoCycleWithinHorizon(horizon=default_horizon(spec.p, spec.q))
    block = [(x, y) for _, x, y in itertools.islice(iter_pairs(spec), size)]
    period = next((t for t in range(1, size) if size % t == 0 and block[t] == block[0]
                   and block[t:] == block[:-t]), size)
    initial = [(Rational(*x.as_integer_ratio()), Rational(*y.as_integer_ratio()))
               for x, y in zip(spec.x_init, spec.y_init)]
    pairs = initial + block
    preperiod = next((i + 1 for i in reversed(range(spec.q)) if pairs[i] != pairs[i + period]), 0)
    return Periodic(preperiod=preperiod, period=period)


def sigma_orbit_block_law(traj: Trajectory) -> bool:
    """The block law by its d references and their orbit products (test oracle).

    ``closedform.block_ratio_check`` as it was before it became one call
    of the comparison engine: with M = lcm(p, 2q), d = gcd(p, 2q) and
    e = d / gcd(d, q), it forms the d references sigma_r = x_{M+r} / x_r,
    r = 1 .. d, requires the e references of each orbit r, r + q, ...
    (mod d) to multiply to c^(e q / d), and then compares every x_{n+M}
    with sigma_{n mod d} x_n, from x_{M+1} on, in the one comparison
    engine.  A zero x_r, r = 1 .. d, raises ``ZeroDivisionError``.  Only
    r = 1 .. min(d, n_max - M) are formed, and only the orbits they
    complete are multiplied; n_max too short for any complete orbit
    raises ``TooFewPointsError``.
    """
    spec = traj.spec
    m, d = math.lcm(spec.p, 2 * spec.q), math.gcd(spec.p, 2 * spec.q)
    e = d // math.gcd(d, spec.q)
    orbits = [[(r + i * spec.q) % d for i in range(e)] for r in range(d)]
    first = m + 1 + min(max(orbit) for orbit in orbits)  # list index k holds sigma_{k+1}
    if traj.n_max < first:
        raise TooFewPointsError(f"needs n >= {first}")
    sigma = [traj.x(m + r) / traj.x(r) for r in range(1, min(d, traj.n_max - m) + 1)]
    const = spec.c ** (e * spec.q // d)
    if any(math.prod(sigma[k] for k in orbit) != const
           for orbit in orbits if max(orbit) < len(sigma)):
        return False
    x = (traj.x_nums, traj.x_dens)
    return _matches_reference_cycle(x, x, m, spec.q + m,
                                    [value.as_integer_ratio() for value in sigma])
