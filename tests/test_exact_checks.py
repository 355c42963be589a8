"""The four exact conservation checks against naive Fraction oracles.

The checks in perisys compare integer cross products of numerators and
denominators.  The ``oracle_*`` functions below are the reference: they
form the Fraction products of each law directly and read every value
through the bounds-checked ``Trajectory.x()``/``y()`` accessors.  They
exist only for the differential tests here.
"""

from __future__ import annotations

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from perisys import (
    BACKEND_EXACT,
    BACKEND_SIGNEDLOG,
    NotOddQuotientError,
    WrongBackendError,
    WrongRegimeError,
    block_ratio_check,
    product_invariant_check,
    random_positive_spec,
    second_difference_check,
    simulate,
    x_relation_check,
)

from conftest import nonzero_rationals, random_signed_spec, specs


def _oracle_require_exact(traj) -> None:
    if traj.backend != BACKEND_EXACT:
        raise WrongBackendError(f"exact backend required, got {traj.backend!r}")


def oracle_product_invariant(traj) -> bool:
    """Oracle: (x_n y_n)(x_{n-q} y_{n-q}) == ab as Fraction products."""
    _oracle_require_exact(traj)
    spec = traj.spec
    ab = spec.a * spec.b
    return all(
        (traj.x(n) * traj.y(n)) * (traj.x(n - spec.q) * traj.y(n - spec.q)) == ab
        for n in range(1, traj.n_max + 1)
    )


def oracle_x_relation(traj) -> bool:
    """Oracle: x_n x_{n-q} == c x_{n-p} x_{n-p-q} as Fraction products."""
    _oracle_require_exact(traj)
    spec = traj.spec
    start = max(spec.p, spec.q) + 1
    if traj.n_max < start:
        raise ValueError(f"need a trajectory through at least n={start}, have {traj.n_max}")
    c = spec.c
    return all(
        traj.x(n) * traj.x(n - spec.q) == c * traj.x(n - spec.p) * traj.x(n - spec.p - spec.q)
        for n in range(start, traj.n_max + 1)
    )


def oracle_block_ratio(traj) -> bool:
    """Oracle: x_{n+m} == c^(q/g) x_n as Fraction products."""
    _oracle_require_exact(traj)
    spec = traj.spec
    g = math.gcd(spec.p, spec.q)
    if (spec.p // g) % 2 == 0:
        raise NotOddQuotientError(f"p/gcd(p, q) is even for (p, q) = ({spec.p}, {spec.q})")
    m = math.lcm(spec.p, 2 * spec.q)
    if traj.n_max < m + 1:
        raise ValueError(f"need a trajectory through n={m + 1}, have {traj.n_max}")
    ratio = spec.c ** (spec.q // g)
    return all(
        traj.x(n + m) == ratio * traj.x(n)
        for n in range(1, traj.n_max - m + 1)
    )


def oracle_second_difference(traj) -> bool:
    """Oracle: x_{n+2m} x_n == x_{n+m}^2 as Fraction products."""
    _oracle_require_exact(traj)
    spec = traj.spec
    if abs(spec.a) != abs(spec.b):
        raise WrongRegimeError(f"needs |b| = |a|, got a={spec.a}, b={spec.b}")
    m = math.lcm(spec.p, 2 * spec.q)
    if traj.n_max < 2 * m + 1:
        raise ValueError(f"need a trajectory through n={2 * m + 1}, have {traj.n_max}")
    return all(
        traj.x(n + 2 * m) * traj.x(n) == traj.x(n + m) ** 2
        for n in range(1, traj.n_max - 2 * m + 1)
    )


CHECKS_AND_ORACLES = (
    (product_invariant_check, oracle_product_invariant),
    (x_relation_check, oracle_x_relation),
    (block_ratio_check, oracle_block_ratio),
    (second_difference_check, oracle_second_difference),
)


def outcome(check, traj):
    """The check's verdict, or the type of the exception it raised."""
    try:
        return check(traj)
    except Exception as exc:  # compared by type against the oracle's
        return type(exc)


@st.composite
def trajectories(draw):
    """Clean trajectories, and ones with one generated x or y corrupted.

    A corruption scales the value by a rational other than 1, or only
    flips its sign.
    """
    spec = draw(specs())
    m = math.lcm(spec.p, 2 * spec.q)
    n = draw(st.integers(1, 3 * m + spec.q))
    if draw(st.integers(0, 9)) == 0:
        return simulate(spec, n, backend=BACKEND_SIGNEDLOG)
    traj = simulate(spec, n)
    corruption = draw(st.sampled_from(["none", "scale", "sign"]))
    if corruption != "none":
        values = traj.xs if draw(st.booleans()) else traj.ys
        k = spec.q + draw(st.integers(0, n - 1))  # list offset of a generated index
        if corruption == "sign":
            values[k] = -values[k]
        else:
            values[k] *= draw(nonzero_rationals.filter(lambda r: r != 1))
    return traj


@settings(max_examples=300, deadline=None)
@given(trajectories())
def test_checks_match_fraction_oracles(traj):
    for check, oracle in CHECKS_AND_ORACLES:
        assert outcome(check, traj) == outcome(oracle, traj), check.__name__


def test_corrupted_y_fails_product_invariant():
    traj = simulate(random_signed_spec(random.Random(11), 6, 10, a=1, b=1), 200)
    assert product_invariant_check(traj)
    traj.ys[10 + 50] *= 3
    assert not product_invariant_check(traj)
    assert not oracle_product_invariant(traj)


def test_sign_flip_of_x_fails_block_ratio():
    spec = random_positive_spec(random.Random(4), 6, 10, a=1, b=2)
    traj = simulate(spec, 150)
    assert block_ratio_check(traj)
    traj.xs[100] = -traj.xs[100]
    assert not block_ratio_check(traj)
    assert not oracle_block_ratio(traj)
