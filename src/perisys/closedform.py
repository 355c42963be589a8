"""Drift, the block law and growth, layered on top of exact trajectories.

With c = a/b, log magnitudes satisfy an affine version of the linear
recurrence, adding a deterministic drift of A = ln(c) / (2p) per index on
top of the oscillatory part.

The block law.  With M = lcm(p, 2q) and d = gcd(p, 2q), the block
multipliers of :mod:`perisys.simulator` give x_{n+M} = x_n / R_{n mod d}
for every n >= 1 - p, in every regime and for all initial data, so

    W_n = x_{n+M} / x_n = 1 / R_{n mod d}

depends on n mod d alone.  The spec fixes the rest.  R_r is the product
of the step coefficients K_n over the 2q/d indices n in 1 .. 2q with
n = r (mod d), and K_n K_{n+q} = b/a for n = 1 .. q, since
K_n = b / z_{n-q} and K_{n+q} = z_{n-q} / a share z_{n-q}.  The shift
n -> n + q (mod 2q) pairs these indices off and takes class r onto class
r + q (mod d).  Since d divides 2q, q is 0 or d/2 modulo d:

* d | q: the shift keeps class r, whose members form q/d pairs, so
  R_r = (b/a)^(q/d) and every W_n is the one constant c^(q/d), the
  ``block_ratio`` of :func:`drift`.  Here d = g = gcd(p, q), and d | q
  iff p/g is odd: the periodic regime of ``spectral.classify``, where the
  oscillation cancels over a block;
* q = d/2 (mod d): classes r and r + d/2 are distinct, their 4q/d
  members form 2q/d pairs, and R_r R_{r+d/2} = (b/a)^(2q/d), so the law
  is the shifted product W_n W_{n-d/2} = c^(2q/d).  That product law
  holds iff W repeats with period d and the pairs of its first d values
  multiply to c^(2q/d) (``simulator._matches_shifted_product``), which is
  what the multipliers give.

:func:`block_ratio_check` compares the stored values with the law from
x_{M+1} on, in one call of the comparison engine either way.  The law
implies the second difference x_{n+2M} x_n = x_{n+M}^2, since
W_{n+M} = W_n.

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
from .simulator import Trajectory, _matches_reference_cycle, _matches_shifted_product


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
    """c^(q/d), d = gcd(p, 2q), when d | q, else ``None`` (module docstring, The block law)."""
    d = math.gcd(spec.p, 2 * spec.q)
    return spec.c ** (spec.q // d) if spec.q % d == 0 else None


def drift(spec: SystemSpec) -> DriftReport:
    """Drift constants for a spec.

    ``drift_per_step`` is ln|c| / (2p) (log-magnitude units per index).
    ``block_ratio`` is the exact c^(q/d), d = gcd(p, 2q), which every
    x_{n+M} / x_n equals when d | q, that is, when p/gcd(p, q) is odd.
    Otherwise the block law is a shifted product with no one ratio, and
    the field is ``None``.
    """
    return DriftReport(
        c=spec.c,
        drift_per_step=to_signed_log(spec.c).logmag / (2 * spec.p),
        steps_per_block=_block_steps(spec),
        block_ratio=_block_ratio(spec),
    )


def block_ratio_check(traj: Trajectory) -> bool:
    """True iff x_{n+M} = W_{n mod d} x_n exactly at every generated n, W as the spec fixes it.

    The block law of the module docstring, in every regime, with
    M = lcm(p, 2q) and d = gcd(p, 2q).  It is one call of the comparison
    engine, with v = w = x, lag M and first q + M, the list offset of
    x_{M+1}:

    * d | q: :func:`perisys.simulator._matches_reference_cycle` with the
      one reference c^(q/d) of :func:`drift`, so every x_{n+M} is compared
      with c^(q/d) x_n and no quotient is formed;
    * otherwise: :func:`perisys.simulator._matches_shifted_product` with
      shift d/2 and const c^(2q/d), whose head is the d/2 quotients
      x_{M+r} / x_r, r = 1 .. d/2.

    Neither reads ``step_coefficients`` or ``block_multipliers``.  The law
    implies x_{n+2M} x_n = x_{n+M}^2.  It refuses with
    ``TooFewPointsError`` a trajectory that ends before the first
    comparison: n_max < M + 1 when d | q, n_max < M + d/2 + 1 otherwise.

    On a trajectory from ``simulate`` it compares the kernel's two
    blocks, x_{M+j} with x_j for j in 1 .. M, so a wrong value in either
    block fails it, and so does a wrong R, against the constant that the
    spec fixes.  When d | q no comparison
    divides, so a zero x_n fails against a nonzero x_{n+M} and passes
    against a zero one, as 0 = c^(q/d) 0; otherwise a zero x_r,
    r = 1 .. d/2, divides a head quotient by zero, which raises
    ``ZeroDivisionError``.  ``simulate`` stores no zero.
    """
    spec = traj.spec
    m, d = _block_steps(spec), math.gcd(spec.p, 2 * spec.q)
    ratio = _block_ratio(spec)
    floor = m + 1 if ratio is not None else m + d // 2 + 1  # the first comparison's index
    if traj.n_max < floor:
        raise TooFewPointsError(f"needs n >= {floor}")
    x, first = (traj.x_nums, traj.x_dens), spec.q + m  # list offset q + M holds x_{M+1}
    if ratio is None:
        return _matches_shifted_product(x, x, m, first, d // 2, spec.c ** (2 * spec.q // d))
    return _matches_reference_cycle(x, x, m, first, [ratio.as_integer_ratio()])


# The benchmark tracer binds this name (ROADMAP item 2); no command calls it.
# The block law implies x_{n+2M} x_n = x_{n+M}^2, the second difference.
second_difference_check = block_ratio_check


def growth_slope(traj: Trajectory, m: int, t: int) -> float:
    """ln|x_{t+m} / x_t|, the log of one reduced ratio of two values read by the accessors.

    When m is a multiple of M = lcm(p, 2q), ln|x_{t+km}| is exactly affine
    in k (module docstring), and this is its slope, the value that a
    least-squares fit over k = 0, 1, 2, ... estimates.  Every stride that
    ``verify`` passes is such a multiple, and at most 2M, so x_{t+m}
    lies in what ``simulate`` stores whatever n is.  It raises
    ``ArgumentRangeError`` unless m >= 1 and 0 <= t < m, and
    ``TooFewPointsError`` when n_max < t + m.
    """
    if m < 1:
        raise ArgumentRangeError(f"stride m must be >= 1, got {m}")
    if not 0 <= t < m:
        raise ArgumentRangeError(f"offset t must lie in 0..{m - 1}, got {t}")
    if traj.n_max < t + m:
        raise TooFewPointsError(f"needs n >= {t + m}")
    return to_signed_log(traj.x(t + m) / traj.x(t)).logmag
