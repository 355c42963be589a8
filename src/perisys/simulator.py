"""Trajectory generation and the exact conservation laws of the system.

Each step n >= 1 computes

    x_n = a / y_{n-p}
    y_n = b * y_{n-p} / (x_{n-q} * y_{n-q})

on top of initial data at indices -q+1 .. 0, so every read stays inside
known values as long as p <= q, which every ``SystemSpec`` guarantees.

Backends.  Trajectories are generated on two backends:

* ``exact`` values are :class:`numerics.Rational`, the canonical
  (numerator, denominator) int pairs.  One kernel, :func:`_exact_steps`,
  runs every exact step: it appends the four int components of x_n and
  y_n to columns that its caller gives, and reads y_{n-p} back from
  them.  :func:`simulate` gives it the four int lists of a
  :class:`Trajectory`, which every zero-tolerance law reads, for the
  first two blocks, and builds no pair; :func:`iter_pairs` gives it two
  int deques of the last p values of y, and asks it for pairs.
* ``signedlog`` values are (sign, log magnitude) pairs that track the
  exact trajectory to float precision and cannot overflow, which makes
  very long exports in growing regimes cheap; no ``Trajectory`` holds
  them.  The recurrence runs on the flat export rows of
  :func:`trajectory_rows`, and nothing else reads it.

The exact backend does not run the second equation literally.  The product
of the two equations is

    z_n = x_n y_n = ab / z_{n-q},

so z_{n+2q} = z_n: the product takes at most 2q values, z at indices
-q+1 .. q, all fixed by the initial data.  Hence

    y_n = y_{n-p} * K_n,   K_n = b / z_{n-q},

where K_n repeats with period 2q in n.  Only the q initial products are
needed: K_n = b / z_{n-q} for n = 1 .. q, and for n = q+1 .. 2q,
z_{n-q} = ab / z_{n-2q} gives K_n = z_{n-2q} / a.  An exact step is one
product of the constant a with 1/y_{n-p} and one product of y_{n-p} with a
small coefficient; the literal recurrence forms x_{n-q} y_{n-q} and
divides by it, which takes gcds of two full-size integers.

Reduction.  The kernel works on the components of canonical rationals,
:class:`numerics.Rational` pairs, and reduces each product itself, by the
cross gcds that ``Fraction`` multiplication uses.  Let u = N/D and
v = N'/D' be reduced with positive denominators.  With g1 = gcd(N, D') and
g2 = gcd(N', D),

    u v = ((N/g1) (N'/g2)) / ((D/g2) (D'/g1)),

and no prime divides both sides: N/g1 is prime to D/g2 since u is
reduced and to D'/g1 by the choice of g1, and N'/g2 is prime to D'/g1
since v is reduced and to D/g2 by the choice of g2.  The denominator is
positive, and a reduced rational with a positive denominator is unique,
so these are the components of the canonical product, those ``Fraction``
would give.  For y_n, u = y_{n-p} and v = K_n; for x_n, u = 1/y_{n-p},
whose components are those of y_{n-p} swapped, both negated when
y_{n-p} < 0, and v = a.  Each gcd pairs a full-size component of u with a
small one of v, and one with v's component +-1 is 1 without a pass over
the full-size int, so x_n = 1/y_{n-p} costs no gcd at all when a = +-1.
A full-size component is divided only by a gcd other than 1, and
multiplied only by a factor other than 1.

The step loop does both reductions inline, with no call per product, and
builds a ``Rational``, through ``tuple.__new__``, only for the pairs that
``iter_pairs`` yields.  It tests the bit cap inline too, by comparing the
``bit_length()`` of the four new components with the cap, and calls
``numerics.check_bits``, which owns the error text, only for a value with
a component over it, x_n before y_n.

Block multipliers.  Unrolling y_n = y_{n-p} K_n over one block of
M = lcm(p, 2q) steps multiplies M/p = 2q/d coefficients, d = gcd(p, 2q),
whose indices n + p, n + 2p, ..., n + M, taken modulo 2q, run once
through the coset of n modulo the subgroup of Z_2q generated by p, that
is, through the residues congruent to n modulo d.  Hence

    y_{n+M} = R_{n mod d} y_n   for n >= 1 - p,
    R_r = product of K_n over the n in 1 .. 2q with n = r (mod d),

and, since x_n = z_n / y_n and 2q divides M, x_{n+M} = x_n / R_{n mod d}
for n >= 1 - p too.  So the d multipliers settle the long-run behaviour:

* every R_r = 1: the pairs from n = 1 on repeat with period M;
* every R_r = +-1: they repeat with period 2M;
* some |R_r| != 1: |y| grows or shrinks geometrically along a stride-M
  subsequence, so no pair, and no window of pairs, ever recurs.

K and R are :class:`numerics.Rational` pairs, like the kernel's values,
and no ``Fraction`` arithmetic derives them.  :func:`step_coefficients`
forms each K_n from integer products of the spec's components, with
z = (xn yn)/(xd yd): b/z is (bn xd yd)/(bd xn yn) and z/a is
(xn yn ad)/(xd yd an).  :func:`block_multipliers` forms each R_r from the
products of its members' numerators and of their denominators.  Each
value is reduced once, by one gcd, with the sign moved to the numerator,
so it is the canonical pair that ``Fraction`` would give.

:func:`block_period` owns this rule: it gives the period P = M or 2M, or
``None`` in the third case.  On canonical pairs |R_r| = 1 reads
denominator 1 and numerator +-1, and R_r = 1 then reads numerator 1.
:func:`trajectory_rows` uses P to stop computing: it cycles its first P
rendered rows, with n renumbered, each of which already passed the bit
cap; without P it takes each row past M from the row M before it, by the
block law, unless R is too wide (Rendering).  ``cycle.detect_cycle``
decides from P: no cycle without one, and otherwise the minimal period
among the divisors of P, from K's rotations and a short prefix of
``iter_pairs``, which itself never replays; only that prefix meets the
bit cap.

:func:`simulate` needs no P.  Past 2M it stores the initial data and two
generated blocks, indices 1 .. 2M at offsets q .. q + 2M - 1 of each
column, and nothing else: every value that an exact law compares lies
there, so each law compares values that the kernel made.  The kernel
forms no value past the two blocks, so the bit cap meets only the values
that ``simulate`` stores, at indices 1 .. min(n, 2M).

Which case generic data reaches depends on p and q alone.  K_n and
K_{n+q} share z_{n-q}, once as a divisor and once as a factor, and no
other pair of coefficients shares a z.  When d | q the two lie in one
class, every z cancels, and R_r = (b/a)^(q/d); otherwise every R_r is a
product of distinct z^(+-1), so |R_r| != 1 for generic data.  And d | q
is the periodic regime of ``spectral.classify``, p/gcd(p, q) odd:

    d | q  <=>  v2(d) <= v2(q)       (the odd part of d divides that of q)
    v2(d) = min(v2(p), v2(q) + 1)    (d = gcd(p, 2q))

so d | q iff v2(p) <= v2(q), iff (L^p - 1)(L^q + 1) has no repeated root
(the test oracle ``has_repeated_root`` in ``tests/oracles.py``).

Rendering.  An exact export writes x_n and y_n as literals "num/den" of
their reduced forms, which ``str(Fraction)`` would give.  ``str`` of an
int takes time quadratic in its length and refuses more than
``sys.get_int_max_str_digits()`` digits, so the export never converts a
component: it keeps exact ``Decimal`` images (``numerics.EXACT``) of the
component magnitudes of y_{n-p} .. y_{n-1} and steps them by the kernel's
own relations, y_n = y_{n-p} K_n and x_n = a / y_{n-p}: each image is
divided by the cross gcd and multiplied by the other side's reduced
component that the kernel's Reduction uses, so the literal is byte for
byte ``str(Fraction)``.  The gcds pair a full-size int with a small one,
and each image is divided by one small int and multiplied by another, so
a literal costs time linear in its length.

Each component magnitude is rendered once: its image, its decimal text
and its ``numerics.log_abs_int`` are made when the component is made, and
kept in the window with it.  Row n steps y_{n-p}'s components twice: by
K_n into y_n's, and, swapped, by a into x_n's.  A component that its step
leaves unchanged, divisor 1 and factor 1, reuses y_{n-p}'s three as they
are; any other gets its three made in row n.  So y_n's are made in row n
and reused by x_{n+p}, and x_n's are made only where a's reduction
changes them, never when |a| = 1.  A literal is the sign, the numerator's
text, and "/" and the denominator's text unless the denominator is 1; a
row's log magnitude is the difference of its two components' logs, the
float that ``numerics.to_signed_log`` gives.

Past the block.  An export whose pairs have no block period takes rows
1 .. M from the kernel, through ``iter_pairs``, and every later y_n from
y_{n-M} by the block law, y_n = y_{n-M} R with R = R_{n mod d} = A/B,
reduced by the cross gcds of Reduction: with y_{n-M} = N/D,
g1 = gcd(N, B) and g2 = gcd(A, D).  x_n = a / y_{n-p} is formed as the
kernel forms it, and both are tested against the cap as the kernel tests
them, x_n first.  The window holds y_{n-M} .. y_{n-1}, with their
images, texts and logs.  One R applies along each chain y_j, y_{j+M},
y_{j+2M}, ..., and once g1 = 1 it stays 1 along the chain: the next
numerator is N (A/g2), R is reduced, so A is prime to B, and no prime of
B divides N or A/g2.  Likewise once g2 = 1 the next denominator D (B/g1)
is prime to A.  Before that, each step divides N by the power in B of
each prime the two share, or by all of it, and A brings none back, so
g1 = 1 within max over such primes l of v_l(N) / v_l(B) + 1 steps, and
g2 likewise.  A settled chain takes no gcd, and a row of y then costs two
int products and two ``Decimal`` products.  Those products by R cost more
than the kernel's by K and its gcds once R is wide, so when a component
of R has more than ``_BLOCK_LAW_BITS`` bits the kernel renders every row.

The signed-log backend keeps the literal recurrence: the coefficient form
would add the logs in another order, which changes float rounding and with
it the exported log magnitudes.  Its window holds flat export rows
(n, "", "", sign_x, log_x, sign_y, log_y), which the log export writes as
they are, and each step forms a - y_{n-p} and
(b + y_{n-p}) - (x_{n-q} + y_{n-q}) on the logs, in that order.
"""

from __future__ import annotations

import decimal
import itertools
import json
import math
from collections import deque
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ArgumentRangeError,
    TooFewPointsError,
    TrajectoryIndexError,
    WrongBackendError,
)
from .model import SystemSpec, spec_to_obj
from .numerics import (
    EXACT,
    Rational,
    check_bits,
    log_abs_int,
    resolve_max_bits,
    to_signed_log,
)

BACKEND_EXACT = "exact"
BACKEND_SIGNEDLOG = "signedlog"

TRAJECTORY_CSV_HEADER = ("n", "x", "y", "sign_x", "log_abs_x", "sign_y", "log_abs_y")

# An exact export renders the rows past M by the block law only when no
# component of the block multipliers is wider than this; a wider R makes
# the products of the law cost more than the kernel's steps.
_BLOCK_LAW_BITS = 512


@dataclass(frozen=True)
class Trajectory:
    """Exact values for indices -q+1 .. n_max, plus their spec.

    The values are stored as four int columns, the numerators and
    denominators of x and of y; list offset k holds index k - q + 1.
    Each column holds the q initial values, then the ``n_max`` generated
    ones, and nothing else: a value past them is not held, and reading it
    raises.  Columns of unequal length, or shorter than q, raise
    ``ArgumentRangeError``.
    """

    spec: SystemSpec
    x_nums: list
    x_dens: list
    y_nums: list
    y_dens: list

    def __post_init__(self) -> None:
        lengths = sorted({len(self.x_nums), len(self.x_dens), len(self.y_nums), len(self.y_dens)})
        if len(lengths) != 1 or lengths[0] < self.spec.q:
            raise ArgumentRangeError(f"column lengths {lengths}; q = {self.spec.q} needs "
                                     f"equal lengths of at least {self.spec.q}")

    @property
    def n_max(self) -> int:
        """The last stored index: the generated values each column holds."""
        return len(self.x_nums) - self.spec.q

    def _at(self, column: list, n: int) -> int:
        """``column``'s value at index n; n outside -q+1 .. n_max raises."""
        if not 1 - self.spec.q <= n <= self.n_max:
            raise TrajectoryIndexError(f"index {n} outside stored range {1 - self.spec.q} .. "
                                       f"{self.n_max}")
        return column[n + self.spec.q - 1]

    def x(self, n: int) -> Fraction:
        """x_n, reduced."""
        return Fraction(self._at(self.x_nums, n), self._at(self.x_dens, n))

    def y(self, n: int) -> Fraction:
        """y_n, reduced."""
        return Fraction(self._at(self.y_nums, n), self._at(self.y_dens, n))


def _reduced(num: int, den: int) -> Rational:
    """The canonical pair of num/den (den != 0): one gcd, the sign moved to the numerator.

    The steps of the ``Fraction`` constructor, without its type dispatch.
    """
    g = math.gcd(num, den)
    if den < 0:
        g = -g
    return tuple.__new__(Rational, (num // g, den // g))


def step_coefficients(spec: SystemSpec) -> list[Rational]:
    """K_n for n = 1 .. 2q, at list offset n - 1, as ``Rational`` pairs (module docstring).

    With z = x y = (xn yn)/(xd yd) at each initial index, K_n = b/z for
    n = 1 .. q and z/a for n = q+1 .. 2q; each is formed from integer
    products of the spec's components and reduced once.
    """
    a_num, a_den = spec.a.numerator, spec.a.denominator
    b_num, b_den = spec.b.numerator, spec.b.denominator
    by_b, by_a = [], []
    for x, y in zip(spec.x_init, spec.y_init):  # z at indices -q+1 .. 0
        z_num, z_den = x.numerator * y.numerator, x.denominator * y.denominator
        by_b.append(_reduced(b_num * z_den, b_den * z_num))
        by_a.append(_reduced(z_num * a_den, z_den * a_num))
    return by_b + by_a


def block_multipliers(p: int, coefficients: Sequence[Rational]) -> list[Rational]:
    """R_r for r = 0 .. d-1, so that y_{n+M} = R_{n mod d} y_n (module docstring).

    ``coefficients`` are the 2q pairs of :func:`step_coefficients`;
    d = gcd(p, 2q) and M = lcm(p, 2q).  Each R_r is a ``Rational`` pair,
    reduced once from the integer products of its members' numerators and
    denominators.
    """
    d = math.gcd(p, len(coefficients))
    multipliers = []
    for r in range(d):
        members = coefficients[(r - 1) % d::d]  # offset k holds K_{k+1}
        multipliers.append(_reduced(math.prod(k.numerator for k in members),
                                    math.prod(k.denominator for k in members)))
    return multipliers


def block_period(p: int, coefficients: Sequence[Rational]) -> int | None:
    """M = lcm(p, 2q) if every R_r = 1, 2M if every R_r = +-1, else ``None`` (module docstring).

    ``coefficients`` are the 2q pairs of :func:`step_coefficients`.  On
    canonical pairs |R_r| = 1 reads denominator 1 and numerator +-1.
    """
    multipliers = block_multipliers(p, coefficients)
    if any(r.denominator != 1 or r.numerator not in (1, -1) for r in multipliers):
        return None
    return math.lcm(p, len(coefficients)) * (1 if all(r.numerator == 1 for r in multipliers) else 2)


def iter_pairs(spec: SystemSpec, backend: str = BACKEND_EXACT, *,
               coefficients: Sequence[Rational] | None = None) -> Iterator[tuple]:
    """An endless iterator of exact (n, x_n, y_n) for n = 1, 2, ..., computed lazily.

    x_n and y_n are :class:`numerics.Rational` pairs from the one exact
    kernel, :func:`_exact_steps`, which keeps the components of
    y_{n-p} .. y_{n-1} in two int deques, so memory is O(q).  It generates
    y_n as y_{n-p} times the coefficient K_n = b / z_{n-q}, one of 2q
    values fixed by the initial data, where z = x y repeats with period
    2q, and x_n as a times 1/y_{n-p}; it reduces both products itself, and
    every gcd pairs a full-size integer with a small one (module
    docstring, Reduction).  Both components of x_n and y_n are checked
    against the bit cap of :func:`resolve_max_bits`, x_n first, inline,
    and a value over it raises through :func:`numerics.check_bits`; the
    cap is resolved by this call, before any pair is taken.  Every step is
    computed, past a :func:`block_period` too, where the values are
    bounded; a caller that knows how many pairs it needs replays the block
    itself.  ``backend`` must be ``"exact"``: any other name, the
    signed-log one included, raises ``WrongBackendError`` from this call.
    ``coefficients``, when given, must be :func:`step_coefficients` of
    ``spec``, which a caller that has already formed K passes so that it is
    not formed again; ``None`` forms it here.
    """
    if backend != BACKEND_EXACT:
        raise WrongBackendError(f"unknown backend {backend!r} for exact pairs")
    history = spec.y_init[-spec.p:]
    x_sink = deque(maxlen=0)  # the pairs carry x_n; no step reads a stored x
    if coefficients is None:
        coefficients = step_coefficients(spec)
    return _exact_steps(spec, resolve_max_bits(), coefficients, None, x_sink, x_sink,
                        deque((y.numerator for y in history), maxlen=spec.p),
                        deque((y.denominator for y in history), maxlen=spec.p))


def _gcd(large: int, small: int) -> int:
    """gcd(large, small); one with +-1 is 1 without a pass over ``large``."""
    return 1 if small in (1, -1) else math.gcd(large, small)


def _exact_steps(spec: SystemSpec, cap: int, coefficients: Sequence[Rational],
                 stop: int | None, x_nums, x_dens, y_nums, y_dens) -> Iterator[tuple]:
    """The exact steps n = 1 .. ``stop``, each reduced and tested against ``cap`` inline.

    The one exact kernel (module docstring, Reduction).  ``coefficients``
    are the 2q pairs of :func:`step_coefficients`.  Step n appends the
    four int components of x_n and y_n to the given columns, lists or
    deques, and reads y_{n-p} at offset -p of the y columns, so these must
    end with y_{n-p} .. y_{n-1}.

    With a ``stop`` the generator yields nothing: the caller drains it and
    reads the columns.  ``stop`` ``None`` runs forever and yields
    (n, x_n, y_n) with ``Rational`` values.
    """
    a_num, a_den = spec.a.as_integer_ratio()
    back = -spec.p
    append_x_num, append_x_den = x_nums.append, x_dens.append
    append_y_num, append_y_den = y_nums.append, y_dens.append
    pairs = stop is None
    steps = zip(itertools.count(1), itertools.cycle(coefficients))
    gcd, new = math.gcd, tuple.__new__
    for n, (k_num, k_den) in itertools.islice(steps, stop):
        y_num, y_den = y_nums[back], y_dens[back]
        # x_n = (1/y_{n-p}) * a, the reciprocal's sign on its numerator; the
        # skips are those of Reduction (a denominator +-1 can only be 1)
        if y_num > 0:
            x_num, x_den = y_den, y_num
        else:
            x_num, x_den = -y_den, -y_num
        f_num, f_den = a_num, a_den
        if f_den != 1:
            g = gcd(x_num, f_den)
            if g != 1:
                x_num //= g
                f_den //= g
        if f_num != 1 and f_num != -1:
            g = gcd(x_den, f_num)
            if g != 1:
                x_den //= g
                f_num //= g
        if f_num != 1:
            x_num *= f_num
        if f_den != 1:
            x_den *= f_den
        # y_n = y_{n-p} * K_n
        if k_den != 1:
            g = gcd(y_num, k_den)
            if g != 1:
                y_num //= g
                k_den //= g
        if k_num != 1 and k_num != -1:
            g = gcd(y_den, k_num)
            if g != 1:
                y_den //= g
                k_num //= g
        if k_num != 1:
            y_num *= k_num
        if k_den != 1:
            y_den *= k_den
        # check_bits owns the error text; it runs only on a value over the cap
        if x_num.bit_length() > cap or x_den.bit_length() > cap:
            check_bits(Rational(x_num, x_den), cap)
        if y_num.bit_length() > cap or y_den.bit_length() > cap:
            check_bits(Rational(y_num, y_den), cap)
        append_x_num(x_num)
        append_x_den(x_den)
        append_y_num(y_num)
        append_y_den(y_den)
        if pairs:
            yield n, new(Rational, (x_num, x_den)), new(Rational, (y_num, y_den))


def _log_rows(spec: SystemSpec) -> Iterator[tuple]:
    """Signed-log export rows of the literal recurrence, in its order of operations.

    Each row is (n, "", "", sign_x, log_x, sign_y, log_y): the signed-log
    backend has no exact form, so the literal columns are empty.  The
    window holds the rows at n - q .. n - 1, the initial ones included.
    """
    a, b = to_signed_log(spec.a), to_signed_log(spec.b)
    sign_a, log_a, sign_b, log_b = a.sign, a.logmag, b.sign, b.logmag
    back_p = spec.q - spec.p  # window[k] holds the row at n - q + k
    window = deque(((n, "", "", x.sign, x.logmag, y.sign, y.logmag)
                    for n, x, y in zip(itertools.count(1 - spec.q),
                                       map(to_signed_log, spec.x_init),
                                       map(to_signed_log, spec.y_init))),
                   maxlen=spec.q)
    for n in itertools.count(1):
        _, _, _, _, _, sign_y_p, log_y_p = window[back_p]
        _, _, _, sign_x_q, log_x_q, sign_y_q, log_y_q = window[0]
        row = (n, "", "", sign_a * sign_y_p, log_a - log_y_p,
               sign_b * sign_y_p * sign_x_q * sign_y_q,
               (log_b + log_y_p) - (log_x_q + log_y_q))
        window.append(row)
        yield row


def simulate(spec: SystemSpec, n_steps: int) -> Trajectory:
    """The exact trajectory through index min(``n_steps``, 2M), M = lcm(p, 2q) (deterministic).

    The exact kernel :func:`_exact_steps` appends its steps straight to the
    four int columns of the :class:`Trajectory`, with no per-step pair.
    It runs min(``n_steps``, 2M) steps, and the trajectory stores each of
    them and nothing else: at most two generated blocks, so memory is
    O(q + M) whatever ``n_steps`` is, and ``n_max`` = min(``n_steps``, 2M).
    Every value that the exact laws and ``closedform.growth_slope`` compare
    for ``verify`` lies at an index <= 2M, so they compare only values that
    the kernel made.

    The bit cap meets the values that the kernel forms, and no others:
    each of indices 1 .. min(``n_steps``, 2M) is tested inline, x_n
    before y_n, and the first over the cap raises the kernel's error.  A
    value past 2M is never formed, so it is never tested, however wide it
    would be.  The cap is that of :func:`resolve_max_bits`, resolved
    before the first step.  ``n_steps`` < 1 raises ``TooFewPointsError``.
    """
    if n_steps < 1:
        raise TooFewPointsError("needs n >= 1")
    cap = resolve_max_bits()
    columns = ([x.numerator for x in spec.x_init], [x.denominator for x in spec.x_init],
               [y.numerator for y in spec.y_init], [y.denominator for y in spec.y_init])
    n_max = min(n_steps, 2 * math.lcm(spec.p, 2 * spec.q))
    deque(_exact_steps(spec, cap, step_coefficients(spec), n_max, *columns), maxlen=0)
    return Trajectory(spec, *columns)


def _matches_reference_cycle(v: tuple, w: tuple, lag: int, first: int,
                             references: Sequence[tuple[int, int]]) -> bool:
    """True iff v_k == r_j * w_{k - lag} for every list offset k >= first, r_j = references[j].

    The one comparison engine of the three exact laws: every comparison
    of a stored value that any of them makes is made here.  ``v`` and ``w``
    are (nums, dens) column pairs of one :class:`Trajectory`; ``w`` is
    ``v`` itself, or, when v = y, the x columns swapped, which stands for
    1/x.  j = (k - first) mod
    len(references), so the references repeat along the offsets.  Every
    stored offset from ``first`` on is compared, through the last index;
    a value swapped in for 1/x may have a negative denominator, and each
    reference is an int pair (rN, rD), reduced or not.  Each comparison is
    cross-multiplied over numerators (N) and denominators (D), as
    vN wD rD == rN wN vD: for any nonzero denominators u/v = r/s holds
    exactly when u*s = r*v, signs included, so neither reduced forms nor
    positive denominators are needed, and no comparison divides.  The
    exact laws take their references from the stored values themselves:
    small rationals in a correct trajectory, so an offset costs two
    products of value-sized integers and two by a small one.  The laws
    take no reference from K or R, and a trajectory from ``simulate``
    stores only values that the kernel made, so a wrong value fails the
    law that compares it.
    """
    (v_nums, v_dens), (w_nums, w_dens) = v, w
    return all(
        v_num * w_den * r_den == r_num * w_num * v_den
        for v_num, v_den, w_num, w_den, (r_num, r_den) in zip(
            itertools.islice(v_nums, first, None), itertools.islice(v_dens, first, None),
            itertools.islice(w_nums, first - lag, None), itertools.islice(w_dens, first - lag, None),
            itertools.cycle(references),
        )
    )


def _matches_shifted_product(v: tuple, w: tuple, lag: int, first: int, shift: int,
                             const: Fraction) -> bool:
    """True iff W_k W_{k-s} = ``const`` at every list offset k >= first + s, W_k = v_k / w_{k-lag}.

    s is ``shift``.  One call of :func:`_matches_reference_cycle`, from
    first + s, with the 2s references const/W_first .. const/W_{first+s-1},
    W_first .. W_{first+s-1}: the s quotients of the head are the only ones
    formed, each the reduced pair of ``Fraction(vN wD, vD wN)`` of stored
    values, and each const/W is the
    unreduced pair (cN W_D, cD W_N), with no division.  So
    r_j r_{j+s} = const for j < s, and the law holds at every k >= first + s
    iff W_k = r_j, j = (k - first - s) mod 2s, at every such k.  (=>) by
    induction on k: for k < first + 2s, W_k = const / W_{k-s} = r_j; for
    larger k the law at k and at k - s >= first + s gives
    W_k W_{k-s} = W_{k-s} W_{k-2s}, W_{k-s} is nonzero since ``const`` is,
    so W_k = W_{k-2s}, which is r_j by induction.  (<=) for k < first + 2s,
    W_{k-s} is the head's W_{first+j} and r_j = const / W_{first+j}; for
    larger k, W_k W_{k-s} is r_j r_{j-s} or r_j r_{j+s}; either way it is
    ``const``.  So the law holds iff W repeats with period 2s from
    ``first`` on and W_k W_{k+s} = const for k in the head.  A zero
    w_{k-lag} in the head raises ``ZeroDivisionError``.
    A zero W in the head makes its const/W a pair with denominator 0,
    which fails the comparison against any v_k whose w_{k-lag} is nonzero.
    """
    (v_nums, v_dens), (w_nums, w_dens) = v, w
    v_head, w_head = slice(first, first + shift), slice(first - lag, first - lag + shift)
    head = [Fraction(v_num * w_den, v_den * w_num).as_integer_ratio()
            for v_num, v_den, w_num, w_den in zip(v_nums[v_head], v_dens[v_head],
                                                  w_nums[w_head], w_dens[w_head])]
    c_num, c_den = const.as_integer_ratio()
    return _matches_reference_cycle(v, w, lag, first + shift,
                                    [(c_num * h_den, c_den * h_num) for h_num, h_den in head] + head)


def product_invariant_check(traj: Trajectory) -> bool:
    """True iff (x_n y_n)(x_{n-q} y_{n-q}) = ab exactly at every generated n.

    With z_n = x_n y_n the law reads z_n z_{n-q} = ab, which
    :func:`_matches_shifted_product` checks with v = y, w = 1/x (the x
    columns swapped), lag 0, first 0 (index -q+1), shift q and const ab,
    so W = z: from the q initial z, every z_n, n >= 1, against
    ab / z_{n-q} for n <= q and against z_r, r = n (mod 2q) in
    -q+1 .. 0, for n > q, compared as xN yN zD == zN xD yD.  A zero
    stored value makes its z zero, which the law rejects, so the check
    returns ``False`` and never divides by it.
    """
    ab = traj.spec.a * traj.spec.b
    return _matches_shifted_product((traj.y_nums, traj.y_dens), (traj.x_dens, traj.x_nums),
                                    0, 0, traj.spec.q, ab)


def x_relation_check(traj: Trajectory) -> bool:
    """True iff x_n x_{n-q} = (a/b) x_{n-p} x_{n-p-q} exactly wherever it must hold.

    The relation first links generated values at n = s = max(p, q) + 1.
    For smaller n it would tie together unconstrained initial data (the x
    and y initial values are independent of each other), and it fails there
    for generic specs, so n_max < s raises ``TooFewPointsError``.

    With c = a/b and rho_n = x_n / x_{n-p} it reads rho_n rho_{n-q} = c,
    which :func:`_matches_shifted_product` checks with v = w = x, lag p,
    first s - 1 (the list offset of x_{s-q}), shift q and const c, so
    W = rho: from the q quotients rho_{s-q} .. rho_{s-1}, every x_n,
    n >= s, against (c / rho_{n-q}) x_{n-p} for n < s + q and against
    rho_r x_{n-p}, r = n (mod 2q) in s - q .. s - 1, for n >= s + q.

    The two forms agree because every stored value is nonzero: rho is a
    quotient of stored values, and the relation becomes rho_n rho_{n-q} = c
    by dividing it by x_{n-p} x_{n-p-q}.  A zero stored x among
    x_{s-q-p} .. x_{s-1-p}, the divisors of those q quotients, raises
    ``ZeroDivisionError``.  A trajectory
    from ``simulate`` has no zero value: the spec's a, b and initial values
    are validated nonzero, and each step divides or multiplies nonzero
    values.
    """
    spec = traj.spec
    start = max(spec.p, spec.q) + 1
    if traj.n_max < start:
        raise TooFewPointsError(f"needs n >= {start}")
    x = (traj.x_nums, traj.x_dens)
    return _matches_shifted_product(x, x, spec.p, start - 1, spec.q, spec.c)


def _image_text(image: decimal.Decimal) -> str:
    """The decimal text of an exact image; the export makes every text it writes here."""
    return str(image)


def _rendered(value: int) -> tuple:
    """(image, text, log) of the magnitude of a nonzero int (module docstring, Rendering)."""
    image = EXACT.create_decimal(abs(value))
    return image, _image_text(image), log_abs_int(value)


def _component_step(rendered: tuple, value: int, divisor: int, factor: int) -> tuple:
    """(image, text, log) of ``value``'s magnitude, m / divisor * factor, from those of m.

    ``rendered`` is what :func:`_rendered` or this step made for m.  A
    step by divisor 1 and factor 1 leaves m as it is, and returns its
    image, text and log; any other makes all three anew, the image in time
    linear in its length.
    """
    if divisor == 1 and factor == 1:
        return rendered
    image = rendered[0]
    if divisor != 1:
        image = EXACT.divide(image, divisor)
    if factor != 1:
        image = EXACT.multiply(image, factor)
    return image, _image_text(image), log_abs_int(value)


def _literal(num: int, den: int, num_text: str, den_text: str) -> str:
    """The literal of num/den from the texts of its magnitudes, as ``str(Fraction)`` writes it."""
    sign = "-" if num < 0 else ""
    return f"{sign}{num_text}" if den == 1 else f"{sign}{num_text}/{den_text}"


def _stepped(value: int, rendered: tuple, divisor: int, factor: int) -> tuple:
    """value / divisor * factor, and its (image, text, log), made from ``rendered``, those of value.

    ``divisor`` divides ``value``; a negative ``factor`` changes the sign
    of the int and leaves its magnitude's rendering to ``|factor|``.
    """
    if divisor != 1:
        value //= divisor
    if factor != 1:
        value *= factor
    return value, _component_step(rendered, value, divisor, abs(factor))


def _y_window(spec: SystemSpec, size: int) -> deque:
    """y_{1-p} .. y_0 as an export window of ``size`` at most: each one's ints and renderings."""
    return deque(((y.numerator, y.denominator, _rendered(y.numerator), _rendered(y.denominator))
                  for y in spec.y_init[-spec.p:]), maxlen=size)


def _exact_rows(spec: SystemSpec, coefficients: Sequence[Rational], pairs: Iterator[tuple],
                window: deque) -> Iterator[tuple]:
    """Export rows of exact pairs, each component rendered once (module docstring, Rendering).

    ``coefficients`` are the 2q pairs of :func:`step_coefficients`, and
    ``window`` is a :func:`_y_window`, of size p or more, that ends with
    y_{n-p} .. y_{n-1}.  Row n appends y_n to it, and makes the (image,
    text, log) of y_n's components, which x_{n+p} reuses p rows later,
    and of x_n's only where a's reduction changes a component of
    1/y_{n-p}: never when |a| = 1.  A row's sign is that of its
    numerator, and its log the difference of its components' logs, the
    floats of ``to_signed_log``.
    """
    a_num, a_den = abs(spec.a.numerator), spec.a.denominator
    back = -spec.p
    steps = zip(pairs, itertools.cycle(coefficients))
    for (n, (x_num, x_den), (y_num, y_den)), (k_num, k_den) in steps:
        num, den, num_rendered, den_rendered = window[back]
        # x_n = (1/y_{n-p}) a, where 1/y_{n-p} has magnitudes den / |num|
        g1, g2 = _gcd(den, a_den), _gcd(num, a_num)
        x_num_rendered = _component_step(den_rendered, x_num, g1, a_num // g2)
        x_den_rendered = _component_step(num_rendered, x_den, g2, a_den // g1)
        # y_n = y_{n-p} K_n
        g1, g2 = _gcd(num, k_den), _gcd(den, k_num)
        y_num_rendered = _component_step(num_rendered, y_num, g1, abs(k_num) // g2)
        y_den_rendered = _component_step(den_rendered, y_den, g2, k_den // g1)
        window.append((y_num, y_den, y_num_rendered, y_den_rendered))
        yield (n, _literal(x_num, x_den, x_num_rendered[1], x_den_rendered[1]),
               _literal(y_num, y_den, y_num_rendered[1], y_den_rendered[1]),
               1 if x_num > 0 else -1, x_num_rendered[2] - x_den_rendered[2],
               1 if y_num > 0 else -1, y_num_rendered[2] - y_den_rendered[2])


def _block_rows(spec: SystemSpec, coefficients: Sequence[Rational],
                multipliers: Sequence[Rational], pairs: Iterator[tuple],
                cap: int) -> Iterator[tuple]:
    """Export rows n = 1, 2, ...: the first M from ``pairs``, every later one by the block law.

    Rows 1 .. M are those of :func:`_exact_rows`, whose window then holds
    y_1 .. y_M.  Row n > M forms y_n = y_{n-M} R, R = R_{n mod d} of
    ``multipliers``, and x_n = a / y_{n-p}, each reduced by the cross gcds
    of the kernel's Reduction, tests x_n and then y_n against ``cap`` as
    the kernel does, and renders them as :func:`_exact_rows` does.  The
    window holds y_{n-M} .. y_{n-1}.  Chain j holds the indices n = j + 1
    (mod M), all of one class, and two flags: whether gcd(num, B) = 1 and
    gcd(den, A) = 1, R = A/B, are still unknown for its last value.  A
    gcd that returns 1 settles its flag for good (module docstring,
    Rendering), so a settled chain costs no gcd.
    """
    block = math.lcm(spec.p, 2 * spec.q)
    window = _y_window(spec, block)
    yield from itertools.islice(_exact_rows(spec, coefficients, pairs, window), block)
    a_num, a_den = spec.a.as_integer_ratio()
    back, d = -spec.p, len(multipliers)
    chains = [[*multipliers[(j + 1) % d], True, True] for j in range(block)]
    for n, chain in zip(itertools.count(block + 1), itertools.cycle(chains)):
        num, den, num_rendered, den_rendered = window[back]
        # x_n = (1/y_{n-p}) a, the reciprocal's sign on its numerator
        g1, g2 = _gcd(den, a_den), _gcd(num, a_num)
        x_num, x_num_rendered = _stepped(den if num > 0 else -den, den_rendered, g1, a_num // g2)
        x_den, x_den_rendered = _stepped(abs(num), num_rendered, g2, a_den // g1)
        if x_num.bit_length() > cap or x_den.bit_length() > cap:
            check_bits(Rational(x_num, x_den), cap)
        # y_n = y_{n-M} R
        num, den, num_rendered, den_rendered = window[0]
        r_num, r_den, num_open, den_open = chain
        g1 = _gcd(num, r_den) if num_open else 1
        g2 = _gcd(den, r_num) if den_open else 1
        chain[2], chain[3] = g1 != 1, g2 != 1
        y_num, y_num_rendered = _stepped(num, num_rendered, g1, r_num // g2)
        y_den, y_den_rendered = _stepped(den, den_rendered, g2, r_den // g1)
        if y_num.bit_length() > cap or y_den.bit_length() > cap:
            check_bits(Rational(y_num, y_den), cap)
        window.append((y_num, y_den, y_num_rendered, y_den_rendered))
        yield (n, _literal(x_num, x_den, x_num_rendered[1], x_den_rendered[1]),
               _literal(y_num, y_den, y_num_rendered[1], y_den_rendered[1]),
               1 if x_num > 0 else -1, x_num_rendered[2] - x_den_rendered[2],
               1 if y_num > 0 else -1, y_num_rendered[2] - y_den_rendered[2])


def trajectory_rows(spec: SystemSpec, n_steps: int, backend: str) -> Iterator[tuple]:
    """One export row per index n = 1 .. n_steps, in TRAJECTORY_CSV_HEADER order.

    The rows are drawn lazily.  Exact rows 1 .. M, M = lcm(p, 2q), come
    from ``iter_pairs(spec)``, which is called, and so resolves the bit
    cap and rejects an unknown backend, before this returns; their values
    are rendered as rational literals, of any length and in time linear in
    it (module docstring, Rendering).  Past M:

    * when the pairs repeat with a :func:`block_period` P < ``n_steps``,
      only the first P rows are computed, and stored as they are drawn;
      the later rows cycle them with ``n`` renumbered;
    * otherwise, when no component of the block multipliers has more than
      ``_BLOCK_LAW_BITS`` bits, each row comes from the row M before it
      by the block law, and a value over the cap raises the kernel's error
      at the kernel's index, x_n before y_n;
    * otherwise the kernel steps and renders every row.

    Signed-log rows are those of the log recurrence itself; that backend
    has no exact form, so its x and y columns are empty.  ``n_steps`` < 1
    raises ``TooFewPointsError``, before the bit cap is resolved.
    """
    if n_steps < 1:
        raise TooFewPointsError("needs n >= 1")
    if backend == BACKEND_SIGNEDLOG:
        return itertools.islice(_log_rows(spec), n_steps)
    coefficients = step_coefficients(spec)
    pairs = iter_pairs(spec, backend, coefficients=coefficients)
    multipliers = block_multipliers(spec.p, coefficients)
    period = block_period(spec.p, coefficients)
    if period is None and all(component.bit_length() <= _BLOCK_LAW_BITS
                              for r in multipliers for component in r):
        return itertools.islice(_block_rows(spec, coefficients, multipliers, pairs,
                                            resolve_max_bits()), n_steps)
    stop = n_steps if period is None else min(n_steps, period)
    window = _y_window(spec, spec.p)
    rows = itertools.islice(_exact_rows(spec, coefficients, pairs, window), stop)
    return rows if stop == n_steps else _replayed(rows, n_steps)


def _replayed(block: Iterator[tuple], n_steps: int) -> Iterator[tuple]:
    """The rows of ``block`` as they come, then those rows again, renumbered, through ``n_steps``."""
    stored = []
    for row in block:
        stored.append(row)
        yield row
    for n, row in zip(range(len(stored) + 1, n_steps + 1), itertools.cycle(stored)):
        yield (n, *row[1:])


def write_trajectory_csv(spec: SystemSpec, n_steps: int, backend: str, stream) -> None:
    """Write the header, then each row as one CRLF-terminated line and one ``write``.

    The bytes are those of ``csv.writer``'s default dialect: no field ever
    needs quoting, since literals hold only digits, ``-`` and ``/``, the
    other fields are ints or ``.17g`` floats, and no row is a lone empty
    field.  A malformed bit cap fails before the header; a value over the
    cap leaves the header and the rows before it written, since each row
    is written as soon as it is made.
    """
    rows = trajectory_rows(spec, n_steps, backend)
    stream.write(",".join(TRAJECTORY_CSV_HEADER) + "\r\n")
    for n, x, y, sign_x, log_x, sign_y, log_y in rows:
        stream.write(f"{n},{x},{y},{sign_x},{log_x:.17g},{sign_y},{log_y:.17g}\r\n")


def _export_obj(spec: SystemSpec, n_steps: int, backend: str, rows: list) -> dict:
    return {"spec": spec_to_obj(spec), "backend": backend, "n": n_steps, "rows": rows}


def trajectory_to_obj(spec: SystemSpec, n_steps: int, backend: str) -> dict:
    """JSON-ready export: spec echo plus the same rows as the CSV, one dict per row.

    :func:`write_trajectory_json` writes ``json.dump(trajectory_to_obj(spec,
    n_steps, backend), indent=2)`` without building these dicts.
    """
    rows = [dict(zip(TRAJECTORY_CSV_HEADER, row))
            for row in trajectory_rows(spec, n_steps, backend)]
    return _export_obj(spec, n_steps, backend, rows)


# One row object at the indent of json.dump(..., indent=2), preceded by the
# "[" or "," before it.  Literals are JSON strings that need no escaping;
# ints and the finite log floats render with repr, as json renders them.
_JSON_ROW = "{}\n    {{\n" + ",\n".join(
    f'      "{name}": ' + ('"{}"' if name in ("x", "y") else "{!r}")
    for name in TRAJECTORY_CSV_HEADER
) + "\n    }}"


def write_trajectory_json(spec: SystemSpec, n_steps: int, backend: str, stream) -> None:
    """Write ``json.dump(trajectory_to_obj(...), stream, indent=2)`` and a newline.

    Every row is generated and formatted before the first byte is written,
    so a failed export writes nothing; memory is then O(n_steps) formatted
    rows.  The rows are written one ``write`` each, never joined into one
    string.
    """
    head, tail = json.dumps(_export_obj(spec, n_steps, backend, []), indent=2).rsplit("[]", 1)
    separators = itertools.chain("[", itertools.repeat(","))
    rows = [_JSON_ROW.format(sep, *row)
            for sep, row in zip(separators, trajectory_rows(spec, n_steps, backend))]
    stream.write(head)
    for row in rows:
        stream.write(row)
    stream.write("\n  ]" + tail + "\n")
