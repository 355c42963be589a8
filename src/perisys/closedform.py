"""Drift, the block law and growth, layered on top of exact trajectories.

With c = a/b, log magnitudes satisfy an affine version of the linear
recurrence, adding a deterministic drift of A = ln(c) / (2p) per index on
top of the oscillatory part.

The block law.  With M = lcm(p, 2q) and d = gcd(p, 2q), the block
multipliers of :mod:`perisys.simulator` give x_{n+M} = x_n / R_{n mod d}
for every n >= 1 - p, in every regime and for all initial data, so

    sigma_n = x_{n+M} / x_n = 1 / R_{n mod d}

depends on n mod d alone.  The spec fixes the product of the sigma along
each orbit r, r + q, ... (mod d).  R_r is the product of the step
coefficients K_n over the 2q/d indices n in 1 .. 2q with n = r (mod d),
and K_n K_{n+q} = b/a for n = 1 .. q, since K_n = b / z_{n-q} and
K_{n+q} = z_{n-q} / a share z_{n-q}.  The shift n -> n + q (mod 2q) pairs
these indices off and takes class r onto class r + q (mod d).  Let
e = d / gcd(d, q), which is 1 or 2 since d divides 2q:

* e = 1, d | q: the shift keeps class r, whose members form q/d pairs,
  so R_r = (b/a)^(q/d) and sigma_r = c^(q/g), since d = g = gcd(p, q)
  here.  This is the periodic regime of ``spectral.classify``,
  p/g odd, where the oscillation cancels over a block;
* e = 2, d does not divide q: classes r and r + d/2 are distinct, their
  4q/d members form 2q/d pairs, and R_r R_{r+d/2} = (b/a)^(2q/d), so
  sigma_r sigma_{r+d/2} = c^(2q/d).

Either way the e references of an orbit multiply to c^(e q / d), which
:func:`block_ratio_check` requires of the d ratios x_{M+r} / x_r it reads
from stored values, before it compares every later value with them.  The
law implies the second difference x_{n+2M} x_n = x_{n+M}^2, since
sigma_{n+M} = sigma_n.

Growth.  Along a stride m that is a multiple of M, ln|x| on each residue
class modulo m is affine in the block counter.  Its slope is one exact
number, ln|x_{t+m} / x_t|, the log of one reduced ratio of two stored
values: :func:`growth_slope` reads it, where a least-squares fit over the
whole subsequence would only estimate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ArgumentRangeError, TooFewPointsError
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
    """True iff x_{n+M} = sigma_{n mod d} x_n exactly for every generated n, sigma fixed by c.

    The block law of the module docstring, in every regime.  Its d
    references sigma_1 .. sigma_d are x_{M+r} / x_r, the reduced ratios of
    stored values (:func:`perisys.simulator._quotients`), so none comes
    from ``step_coefficients`` or ``block_multipliers``.  With
    e = d / gcd(d, q), the product of the e references of the classes
    r, r + q, ... (mod d) must be c^(e q / d) for every r: c^(q/g) when
    d | q, and sigma_r sigma_{r+d/2} = c^(2q/d) otherwise, signs included.
    Then one call of :func:`perisys.simulator._matches_reference_cycle`,
    with v = w = x, lag M, first q + M (the list offset of x_{M+1}) and the
    d references, compares every later value.  By induction along the
    stride M, sigma_n = x_{n+M} / x_n then depends on n mod d alone, so the
    law implies x_{n+2M} x_n = x_{n+M}^2.  It refuses n_max < M + d with
    ``TooFewPointsError``.

    On a trajectory from ``simulate`` the comparison reads the block and
    its first scaled pass, x_{j+M} = x_j / R_{j mod d}, so it holds
    whatever the block and R are; the constant is what sees a wrong R, and
    the x-relation what sees a wrong block value.  A zero x_r makes its
    reference divide by zero, which raises ``ZeroDivisionError``.
    """
    spec = traj.spec
    m, d = _block_steps(spec), math.gcd(spec.p, 2 * spec.q)
    if traj.n_max < m + d:
        raise TooFewPointsError(f"needs n >= {m + d}")
    e = d // math.gcd(d, spec.q)
    x, first = (traj.x_nums, traj.x_dens), spec.q + m  # list offset q + M holds x_{M+1}
    sigma = _quotients(traj, x, x, m, first, first + d)
    const = spec.c ** (e * spec.q // d)
    if any(math.prod(Fraction(*sigma[(r + i * spec.q) % d]) for i in range(e)) != const
           for r in range(d)):
        return False
    return _matches_reference_cycle(traj, x, x, m, first, sigma)


# The benchmark tracer binds this name (ROADMAP item 2); no command calls it.
# The block law implies x_{n+2M} x_n = x_{n+M}^2, the second difference.
second_difference_check = block_ratio_check


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
