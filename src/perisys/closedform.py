"""Drift and growth laws layered on top of exact trajectories.

With c = a/b, log magnitudes satisfy an affine version of the linear
recurrence, adding a deterministic drift of A = ln(c) / (2p) per index on
top of the oscillatory part.  Over one block of m = lcm(p, 2q) steps the
oscillation cancels exactly whenever p/gcd(p, q) is odd, leaving the exact
rational ratio

    x_{n+m} / x_n = c^(q/g),       g = gcd(p, q),

valid for every generated n (m/(2p) = q/g is an integer precisely in this
regime).  Separately, for |b| = |a| the log magnitude restricted to any
residue class mod m is at most affine in the block counter (repeated
characteristic roots contribute the linear part, simple roots cancel over
a block), so the second difference along stride m vanishes exactly:
x_{n+2m} * x_n = x_{n+m}^2, signs included, even in regimes with no cycle
at all.  (The block law below gives it for every a and b, and a trajectory
from ``simulate`` satisfies it by construction; see
:func:`second_difference_check`.)

Growth.  Along a stride m that is a multiple of M = lcm(p, 2q), the block
multipliers of :mod:`perisys.simulator` give x_{n+M} = x_n / R_{n mod d}
for every n >= 1 - p, so ln|x| on each residue class modulo m is affine in
the block counter.  Its slope is one exact number, ln|x_{t+m} / x_t|, the
log of one reduced ratio of two stored values: :func:`growth_slope` reads
it, where a least-squares fit over the whole subsequence would only
estimate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ArgumentRangeError, TooFewPointsError, WrongRegimeError
from .model import SystemSpec
from .numerics import format_rational, to_signed_log
from .simulator import Trajectory, _matches_reference_cycle, _quotients


@dataclass(frozen=True)
class DriftReport:
    """Per-step and per-block growth constants of a spec."""

    c: Fraction
    drift_per_step: float
    steps_per_block: int
    block_ratio: Fraction | None

    def to_obj(self) -> dict:
        return {
            "c": format_rational(self.c),
            "drift_per_step": self.drift_per_step,
            "steps_per_block": self.steps_per_block,
            "block_ratio": None if self.block_ratio is None else format_rational(self.block_ratio),
        }


def _block_steps(spec: SystemSpec) -> int:
    return math.lcm(spec.p, 2 * spec.q)


def _block_ratio(spec: SystemSpec) -> Fraction | None:
    """c^(q/g), g = gcd(p, q), or ``None`` when p/g is even (module docstring)."""
    g = math.gcd(spec.p, spec.q)
    return spec.c ** (spec.q // g) if (spec.p // g) % 2 == 1 else None


def drift(spec: SystemSpec) -> DriftReport:
    """Drift constants for a spec.

    ``drift_per_step`` is ln|c| / (2p) (log-magnitude units per index).
    ``block_ratio`` is the exact c^(q/g); it exists only when p/g is odd,
    otherwise the block exponent m/(2p) is not an integer and the field is
    omitted.
    """
    return DriftReport(
        c=spec.c,
        drift_per_step=to_signed_log(spec.c).logmag / (2 * spec.p),
        steps_per_block=_block_steps(spec),
        block_ratio=_block_ratio(spec),
    )


def block_ratio_check(traj: Trajectory) -> bool:
    """True iff x_{n+m} = c^(q/g) * x_n exactly for every generated n.

    One call of :func:`perisys.simulator._matches_reference_cycle`, the
    engine that states the comparison and its stop after one block, with
    v = w = x, lag m, first q + m (the list offset of x_{m+1}) and the one
    reference c^(q/g), as an int pair, so no step divides by a stored
    value.  Signs are compared too: a sign flip alone fails the check.  It
    refuses an even p/g with ``WrongRegimeError`` and n_max < m + 1 with
    ``TooFewPointsError``.
    """
    spec = traj.spec
    ratio = _block_ratio(spec)
    if ratio is None:
        raise WrongRegimeError("needs p/gcd(p, q) odd")
    m = _block_steps(spec)
    if traj.n_max < m + 1:
        raise TooFewPointsError(f"needs n >= {m + 1}")
    x = (traj.x_nums, traj.x_dens)
    return _matches_reference_cycle(traj, x, x, m, spec.q + m, [ratio.as_integer_ratio()])


def second_difference_check(traj: Trajectory) -> bool:
    """True iff x_{n+2m} * x_n = x_{n+m}^2 exactly for every generated n.

    Holds for |b| = |a| regardless of periodicity; a repeated root only
    adds a linear log term, which the second difference kills.

    With sigma_n = x_{n+m} / x_n the law reads sigma_{n+m} = sigma_n, for
    n = 1 .. n_max - 2m.  It is checked as x_{n+m} = sigma_r x_n for
    n = m + 1 .. n_max - m, where r = n (mod m) lies in 1 .. m and the
    reference sigma_r is the reduced ratio of two stored values.  By
    induction along the stride m, both forms say that sigma is constant on
    each residue class of n = 1 .. n_max - m modulo m, so no literal head
    is needed.  The equivalence uses that every stored value is nonzero:
    sigma is a quotient of stored values, and the law becomes
    sigma_{n+m} = sigma_n by dividing it by x_n x_{n+m}.  A trajectory from
    ``simulate`` has no zero value (see
    :func:`perisys.simulator.x_relation_check`).

    One call of :func:`perisys.simulator._matches_reference_cycle`, with
    v = w = x, lag m, first q + 2m (the list offset of x_{2m+1}) and the m
    references sigma_1 .. sigma_m, as reduced int pairs.  It refuses
    |b| != |a| with ``WrongRegimeError`` and n_max < 2m + 1 with
    ``TooFewPointsError``.

    On a trajectory from ``simulate`` this check cannot fail: it needs
    n_max >= 2m + 1 > M, where ``simulate`` stores one block and its
    multipliers, and the reader then gives x_{n+M} / x_n = 1 / R_{n mod d}
    for every n >= 1 whatever the block and R hold.  So it tests the
    reader, not the kernel; the x-relation is the law that sees a wrong
    block value or R.  The law itself holds for every a and b, since
    sigma_n = 1 / R_{n mod d} in every regime, so the |b| = |a| guard is
    narrower than the law.
    """
    spec = traj.spec
    if abs(spec.a) != abs(spec.b):
        raise WrongRegimeError("needs |b| = |a|")
    m = _block_steps(spec)
    if traj.n_max < 2 * m + 1:
        raise TooFewPointsError(f"needs n >= {2 * m + 1}")
    x, q = (traj.x_nums, traj.x_dens), spec.q  # list offset q holds x_1
    return _matches_reference_cycle(traj, x, x, m, q + 2 * m,
                                    _quotients(traj, x, x, m, q + m, q + 2 * m))


def growth_slope(traj: Trajectory, m: int, t: int) -> float:
    """ln|x_{t+m} / x_t|, the log of one reduced ratio of two values read by the accessors.

    When m is a multiple of M = lcm(p, 2q), ln|x_{t+km}| is exactly affine
    in k (module docstring), and this is its slope, the value that a
    least-squares fit over k = 0, 1, 2, ... estimates.  Every stride that
    ``verify`` passes is such a multiple.  It reads two values whatever
    n_max is.  It raises ``ArgumentRangeError`` unless m >= 1 and
    0 <= t < m, and ``TooFewPointsError`` when n_max < t + m.
    """
    if m < 1:
        raise ArgumentRangeError(f"stride m must be >= 1, got {m}")
    if not 0 <= t < m:
        raise ArgumentRangeError(f"offset t must lie in 0..{m - 1}, got {t}")
    if traj.n_max < t + m:
        raise TooFewPointsError(f"needs n >= {t + m}")
    return to_signed_log(traj.x(t + m) / traj.x(t)).logmag
