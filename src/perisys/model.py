"""System specification, admissibility checks, and the on-disk spec format.

A spec fixes the constants a, b, the delays p <= q, and the 2q nonzero
initial values occupying indices -q+1 .. 0.  Generation starts at n = 1:
a step at n = 0 would read x and y at index -q, which is outside the
given data, so index 0 is treated as the last piece of initial data.
With p <= q every later read falls on given or generated data, so any
spec that can be constructed can be run.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import ArgumentRangeError, ShapeError, SpecSyntaxError, ZeroValueError
from .numerics import format_rational, parse_rational

VALIDATION_MODES = ("strict", "general")

_SPEC_KEYS = ("a", "b", "p", "q", "x_init", "y_init")


def _as_nonzero_fraction(value, name: str, index: int | None = None) -> Fraction:
    """``value`` as an exact ``Fraction``; one whose type is exactly ``Fraction`` is kept.

    The error names ``name``, or ``name[index]`` for an array entry; that
    label is built only to raise.
    """
    if type(value) is not Fraction:
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            label = name if index is None else f"{name}[{index}]"
            raise ShapeError(f"{label} must be a rational value, got {value!r}")
        value = Fraction(value)
    if not value:
        label = name if index is None else f"{name}[{index}]"
        raise ZeroValueError(f"{label} must be nonzero")
    return value


@dataclass(frozen=True)
class SystemSpec:
    """Parameters and initial data of one system instance."""

    a: Fraction
    b: Fraction
    p: int
    q: int
    x_init: tuple[Fraction, ...]
    y_init: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        for name in ("p", "q"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ShapeError(f"{name} must be a positive integer, got {value!r}")
        if self.p > self.q:
            raise ShapeError(f"insufficient-history: p={self.p} exceeds q={self.q}; "
                             "only q pairs of initial data exist")
        object.__setattr__(self, "a", _as_nonzero_fraction(self.a, "a"))
        object.__setattr__(self, "b", _as_nonzero_fraction(self.b, "b"))
        for name in ("x_init", "y_init"):
            values = getattr(self, name)
            if not isinstance(values, (tuple, list)):
                raise ShapeError(f"{name} must be a tuple or list of values, got {values!r}")
            if len(values) != self.q:
                raise ShapeError(f"{name} must hold exactly q={self.q} values, got {len(values)}")
            coerced = tuple(_as_nonzero_fraction(v, name, i) for i, v in enumerate(values))
            object.__setattr__(self, name, coerced)

    @property
    def c(self) -> Fraction:
        """The ratio a/b driving the drift analysis."""
        return self.a / self.b


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking a spec against one admissibility mode."""

    mode: str
    violations: tuple[tuple[str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(spec: SystemSpec, mode: str = "strict") -> ValidationReport:
    """Check delay hypotheses.

    ``strict`` enforces the classical p < q and p not dividing q.
    ``general`` adds no rule beyond the spec's own: every ``SystemSpec``
    already has p <= q, which is all the simulator needs, so a general
    report is always ok.  Any other mode raises ``ArgumentRangeError``.
    """
    if mode not in VALIDATION_MODES:
        raise ArgumentRangeError(f"mode must be one of {VALIDATION_MODES}, got {mode!r}")
    violations: list[tuple[str, str]] = []
    if mode == "strict":
        if spec.p >= spec.q:
            violations.append(("p-not-less-than-q", f"require p < q, got p={spec.p}, q={spec.q}"))
        if spec.q % spec.p == 0:
            violations.append(("p-divides-q", f"require p to not divide q, got {spec.p} | {spec.q}"))
    return ValidationReport(mode=mode, violations=tuple(violations))


def parse_spec_obj(obj) -> SystemSpec:
    """Build a spec from a decoded JSON object."""
    if not isinstance(obj, dict):
        raise ShapeError(f"spec document must be a JSON object, got {type(obj).__name__}")
    missing = [key for key in _SPEC_KEYS if key not in obj]
    if missing:
        raise ShapeError(f"spec document is missing keys: {', '.join(missing)}")
    for name in ("x_init", "y_init"):
        if not isinstance(obj[name], list):
            raise ShapeError(f"{name} must be a JSON array, got {obj[name]!r}")

    def rational(value, what: str) -> Fraction:
        if not isinstance(value, str):
            raise ShapeError(f"{what} must be a rational literal string, got {value!r}")
        return parse_rational(value)

    return SystemSpec(
        a=rational(obj["a"], "a"),
        b=rational(obj["b"], "b"),
        p=obj["p"],
        q=obj["q"],
        x_init=tuple(rational(v, f"x_init[{i}]") for i, v in enumerate(obj["x_init"])),
        y_init=tuple(rational(v, f"y_init[{i}]") for i, v in enumerate(obj["y_init"])),
    )


def _unique_keys(pairs) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise SpecSyntaxError(f"invalid JSON: duplicate key {key!r}")
        obj[key] = value
    return obj


def parse_spec(text: str) -> SystemSpec:
    """Parse a spec document (JSON with rationals as literal strings, no repeated key)."""
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, or an int over 4300 digits
        raise SpecSyntaxError(f"invalid JSON: {exc}") from exc
    return parse_spec_obj(obj)


def spec_to_obj(spec: SystemSpec) -> dict:
    """The JSON-ready form of a spec; arrays are ordered by ascending index."""
    return {
        "a": format_rational(spec.a),
        "b": format_rational(spec.b),
        "p": spec.p,
        "q": spec.q,
        "x_init": [format_rational(v) for v in spec.x_init],
        "y_init": [format_rational(v) for v in spec.y_init],
    }


def load_spec(path) -> SystemSpec:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_spec(handle.read())


@functools.cache
def _positive_values() -> tuple[Fraction, ...]:
    """The 256 values n/d, n and d in 1..16, at index 16 (n - 1) + (d - 1)."""
    return tuple(Fraction(n, d) for n in range(1, 17) for d in range(1, 17))


def random_positive_spec(rng: random.Random, p: int, q: int) -> SystemSpec:
    """Random generic spec with a = b = 1 and positive initial values.

    Numerators and denominators are drawn uniformly from 1..16, as
    perfbench's ``positive_spec(rng, p, q, 1, 16)`` draws them; small
    magnitudes keep exact arithmetic fast while staying generic with
    overwhelming probability.  Each component is drawn as
    ``rng.randint(1, 16)`` draws it, one ``getrandbits(5)`` again while it
    is 16 or more, numerator before denominator and x_init before y_init.
    So the spec, and the state left in ``rng``, are those of
    ``Fraction(rng.randint(1, 16), rng.randint(1, 16))`` per value.  The
    256 values come from one table, built on the first draw.
    """
    values, bits = _positive_values(), rng.getrandbits
    drawn = []
    for _ in range(2 * q):
        num = bits(5)
        while num >= 16:
            num = bits(5)
        den = bits(5)
        while den >= 16:
            den = bits(5)
        drawn.append(values[num << 4 | den])
    return SystemSpec(a=1, b=1, p=p, q=q, x_init=tuple(drawn[:q]), y_init=tuple(drawn[q:]))
