"""Trajectory generation and the exact conservation laws of the system.

Each step n >= 1 computes

    x_n = a / y_{n-p}
    y_n = b * y_{n-p} / (x_{n-q} * y_{n-q})

on top of initial data at indices -q+1 .. 0, so every read stays inside
known values as long as p <= q (enforced by general-mode validation).

Backends:

* ``exact`` stores ``Fraction`` values; all zero-tolerance identity checks
  live on this backend.
* ``signedlog`` stores :class:`SignedLog` values whose log magnitudes track
  the exact trajectory to float precision and cannot overflow, which makes
  very long runs in growing regimes cheap.

The exact backend does not run the second equation literally.  The product
of the two equations is

    z_n = x_n y_n = ab / z_{n-q},

so z_{n+2q} = z_n: the product takes at most 2q values, z at indices
-q+1 .. q, all fixed by the initial data.  Hence

    y_n = y_{n-p} * K_n,   K_n = b / z_{n-q},

where K_n repeats with period 2q in n.  An exact step is one division of
the constant a by y_{n-p} and one product of y_{n-p} with a small
coefficient.  ``Fraction`` reduces a product or quotient by gcds of cross
pairs of numerators and denominators, so every gcd pairs a full-size
integer with a small one and costs time linear in its bit length; the
literal recurrence forms x_{n-q} y_{n-q} and divides by it, which takes
gcds of two full-size integers.  A canonical ``Fraction`` is unique, so
both forms give identical values.

The signed-log backend keeps the literal recurrence: the coefficient form
would add the logs in another order, which changes float rounding and with
it the exported log magnitudes.
"""

from __future__ import annotations

import csv
import itertools
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .errors import WrongBackendError
from .model import SystemSpec, spec_to_obj, validate
from .numerics import SignedLog, check_bits, format_rational, resolve_max_bits, to_signed_log

BACKEND_EXACT = "exact"
BACKEND_SIGNEDLOG = "signedlog"

TRAJECTORY_CSV_HEADER = ("n", "x", "y", "sign_x", "log_abs_x", "sign_y", "log_abs_y")


@dataclass(frozen=True)
class Trajectory:
    """Generated values for indices -q+1 .. n_max, plus their spec."""

    spec: SystemSpec
    backend: str
    xs: list
    ys: list

    @property
    def n_max(self) -> int:
        return len(self.xs) - self.spec.q

    def _offset(self, n: int) -> int:
        if not -self.spec.q + 1 <= n <= self.n_max:
            raise IndexError(f"index {n} outside stored range -{self.spec.q - 1} .. {self.n_max}")
        return n + self.spec.q - 1

    def x(self, n: int):
        return self.xs[self._offset(n)]

    def y(self, n: int):
        return self.ys[self._offset(n)]

    def pairs(self) -> list[tuple]:
        """All stored (x, y) pairs in index order, starting at -q+1."""
        return list(zip(self.xs, self.ys))


def _initial_state(spec: SystemSpec, backend: str, max_bits: int | None) -> tuple:
    """(a, b, initial xs, initial ys, bit cap) in the backend's number form."""
    if backend == BACKEND_EXACT:
        return spec.a, spec.b, list(spec.x_init), list(spec.y_init), resolve_max_bits(max_bits)
    if backend != BACKEND_SIGNEDLOG:
        raise WrongBackendError(f"unknown backend {backend!r}")
    a, b = to_signed_log(spec.a), to_signed_log(spec.b)
    return a, b, list(map(to_signed_log, spec.x_init)), list(map(to_signed_log, spec.y_init)), None


def iter_pairs(spec: SystemSpec, backend: str = BACKEND_EXACT,
               max_bits: int | None = None) -> Iterator[tuple]:
    """Yield (n, x_n, y_n) lazily for n = 1, 2, ...  Keeps O(q) state.

    The exact backend generates y_n as y_{n-p} times the coefficient
    K_n = b / z_{n-q}, one of 2q values fixed by the initial data, where
    z = x y repeats with period 2q (see the module docstring).  Every gcd
    that reduces a step then pairs a full-size integer with a small one.
    Both components of x_n and y_n are checked against the bit cap, x_n
    first.  The signed-log backend runs the literal recurrence so that its
    float rounding, and the exported logs, stay those of the recurrence.
    """
    report = validate(spec, "general")
    if not report.ok:
        raise ValueError(f"spec fails general validation: {report.violations}")
    a, b, xs, ys, cap = _initial_state(spec, backend, max_bits)
    q = spec.q
    back_p = q - spec.p  # window[k] holds index n - q + k

    if backend == BACKEND_SIGNEDLOG:
        window = deque(zip(xs, ys), maxlen=q)
        for n in itertools.count(1):
            _, y_p = window[back_p]
            x_q, y_q = window[0]
            x = a / y_p
            y = b * y_p / (x_q * y_q)
            window.append((x, y))
            yield n, x, y
    else:
        # z[k] is z at index k - q + 1: the initial products, then z_n for n = 1 .. q
        z = [x * y for x, y in zip(xs, ys)]
        ab = a * b
        for k in range(q):
            z.append(ab / z[k])
        coefficients = [b / z_k for z_k in z]  # K_n for n = 1 .. 2q
        window = deque(ys, maxlen=q)
        for n, coefficient in zip(itertools.count(1), itertools.cycle(coefficients)):
            y_p = window[back_p]
            x = a / y_p
            y = y_p * coefficient
            check_bits(x, cap)
            check_bits(y, cap)
            window.append(y)
            yield n, x, y


def simulate(spec: SystemSpec, n_steps: int, backend: str = BACKEND_EXACT,
             max_bits: int | None = None) -> Trajectory:
    """Generate the trajectory through index ``n_steps`` (deterministic)."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    _, _, xs, ys, _ = _initial_state(spec, backend, max_bits)
    for _, x, y in itertools.islice(iter_pairs(spec, backend, max_bits), n_steps):
        xs.append(x)
        ys.append(y)
    return Trajectory(spec=spec, backend=backend, xs=xs, ys=ys)


def _require_exact(traj: Trajectory) -> None:
    if traj.backend != BACKEND_EXACT:
        raise WrongBackendError(f"exact backend required, got {traj.backend!r}")


def product_invariant_check(traj: Trajectory) -> bool:
    """True iff (x_n y_n)(x_{n-q} y_{n-q}) = ab exactly at every generated n.

    Compared cross-multiplied over numerators (N) and denominators (D):

        xN yN xqN yqN abD == abN xD yD xqD yqD

    Canonical rationals have positive denominators, so u/v = r/s holds
    exactly when u*s = r*v, signs included.  The test stays exact and
    zero-tolerance without forming a Fraction product or its gcd.
    """
    _require_exact(traj)
    spec = traj.spec
    ab = spec.a * spec.b
    ab_num, ab_den = ab.numerator, ab.denominator
    q, xs, ys = spec.q, traj.xs, traj.ys
    # list offset k holds index k - q + 1, so x_n for n = 1 sits at offset q
    return all(
        x.numerator * y.numerator * x_q.numerator * y_q.numerator * ab_den
        == ab_num * x.denominator * y.denominator * x_q.denominator * y_q.denominator
        for x, y, x_q, y_q in zip(
            itertools.islice(xs, q, None), itertools.islice(ys, q, None), xs, ys,
        )
    )


def x_relation_check(traj: Trajectory) -> bool:
    """True iff x_n x_{n-q} = (a/b) x_{n-p} x_{n-p-q} exactly wherever it must hold.

    The relation first links generated values at n = max(p, q) + 1.  For
    smaller n it would tie together unconstrained initial data (the x and y
    initial values are independent of each other), and it fails there for
    generic specs.

    With c = a/b it is compared cross-multiplied over numerators (N) and
    denominators (D), as xN xqN xpD xpqD cD == cN xpN xpqN xD xqD.  The
    denominators of canonical rationals are positive, so this holds
    exactly when the Fraction identity does, signs included.
    """
    _require_exact(traj)
    spec = traj.spec
    start = max(spec.p, spec.q) + 1
    if traj.n_max < start:
        raise ValueError(f"need a trajectory through at least n={start}, have {traj.n_max}")
    c = spec.c
    c_num, c_den = c.numerator, c.denominator
    p, q, xs = spec.p, spec.q, traj.xs
    first = start + q - 1  # list offset of x_start
    return all(
        x.numerator * x_q.numerator * x_p.denominator * x_pq.denominator * c_den
        == c_num * x_p.numerator * x_pq.numerator * x.denominator * x_q.denominator
        for x, x_q, x_p, x_pq in zip(
            itertools.islice(xs, first, None), itertools.islice(xs, first - q, None),
            itertools.islice(xs, first - p, None), itertools.islice(xs, first - p - q, None),
        )
    )


def subsequence(traj: Trajectory, m: int, t: int, which: str = "x") -> list:
    """Values at indices t, t+m, t+2m, ... up to n_max, in order."""
    if m < 1:
        raise ValueError(f"stride m must be >= 1, got {m}")
    if not 0 <= t < m:
        raise ValueError(f"offset t must lie in 0..{m - 1}, got {t}")
    if which == "x":
        values = traj.xs
    elif which == "y":
        values = traj.ys
    else:
        raise ValueError(f"which must be 'x' or 'y', got {which!r}")
    return values[t + traj.spec.q - 1::m]


def _signed_log_of(traj: Trajectory, value) -> SignedLog:
    if traj.backend == BACKEND_EXACT:
        return to_signed_log(value)
    return value


def trajectory_records(traj: Trajectory) -> Iterator[dict]:
    """One export record per generated index n = 1 .. n_max.

    Exact values are rendered as rational literals; the signed-log backend
    has no exact form, so its x and y columns are empty.
    """
    exact = traj.backend == BACKEND_EXACT
    q = traj.spec.q
    generated = zip(itertools.islice(traj.xs, q, None), itertools.islice(traj.ys, q, None))
    for n, (xv, yv) in enumerate(generated, 1):
        sx, sy = _signed_log_of(traj, xv), _signed_log_of(traj, yv)
        yield {
            "n": n,
            "x": format_rational(xv) if exact else "",
            "y": format_rational(yv) if exact else "",
            "sign_x": sx.sign,
            "log_abs_x": sx.logmag,
            "sign_y": sy.sign,
            "log_abs_y": sy.logmag,
        }


def write_trajectory_csv(traj: Trajectory, stream) -> None:
    writer = csv.writer(stream)
    writer.writerow(TRAJECTORY_CSV_HEADER)
    for rec in trajectory_records(traj):
        writer.writerow([
            rec["n"], rec["x"], rec["y"],
            rec["sign_x"], f"{rec['log_abs_x']:.17g}",
            rec["sign_y"], f"{rec['log_abs_y']:.17g}",
        ])


def trajectory_to_obj(traj: Trajectory) -> dict:
    """JSON-ready export: spec echo plus the same records as the CSV."""
    return {
        "spec": spec_to_obj(traj.spec),
        "backend": traj.backend,
        "n": traj.n_max,
        "rows": list(trajectory_records(traj)),
    }
