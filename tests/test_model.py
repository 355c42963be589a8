"""Spec parsing, serialization round-trips, and admissibility modes."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from perisys import (
    ArgumentRangeError,
    PerisysError,
    ShapeError,
    SpecSyntaxError,
    SystemSpec,
    ZeroValueError,
    parse_spec,
    random_positive_spec,
    spec_to_obj,
    validate,
)

from oracles import randint_positive_spec

FIXED_POINT_DOC = json.dumps({
    "a": "1", "b": "1", "p": 2, "q": 3,
    "x_init": ["1", "1", "1"], "y_init": ["1", "1", "1"],
})


def test_parse_fixed_point_doc():
    spec = parse_spec(FIXED_POINT_DOC)
    assert (spec.a, spec.b, spec.p, spec.q) == (1, 1, 2, 3)
    assert spec.x_init == (1, 1, 1)
    assert spec.y_init == (1, 1, 1)


def test_parse_wrong_length_is_shape_error():
    doc = json.loads(FIXED_POINT_DOC)
    doc["y_init"] = ["1", "1"]
    with pytest.raises(ShapeError):
        parse_spec(json.dumps(doc))


def test_parse_large_spec_and_ratio():
    rng = random.Random(99)
    literals = lambda: [f"{rng.randint(1, 30)}/{rng.randint(1, 30)}" for _ in range(10)]
    doc = json.dumps({
        "a": "1", "b": "2", "p": 6, "q": 10,
        "x_init": literals(), "y_init": literals(),
    })
    spec = parse_spec(doc)
    assert spec.c == Fraction(1, 2)


@pytest.mark.parametrize("mutate,error", [
    (lambda d: d.update(a="0"), ZeroValueError),
    (lambda d: d.update(x_init=["1", "0", "1"]), ZeroValueError),
    (lambda d: d.update(p=0), ShapeError),
    (lambda d: d.update(p=True), ShapeError),
    (lambda d: d.update(q="3"), ShapeError),
    (lambda d: d.update(a=1), ShapeError),            # rationals must be strings
    (lambda d: d.update(a="1.5"), SpecSyntaxError),
    (lambda d: d.update(x_init="111"), ShapeError),
    (lambda d: d.pop("b"), ShapeError),
])
def test_parse_bad_documents(mutate, error):
    doc = json.loads(FIXED_POINT_DOC)
    mutate(doc)
    with pytest.raises(error):
        parse_spec(json.dumps(doc))


def test_parse_non_json_and_non_object():
    with pytest.raises(SpecSyntaxError):
        parse_spec("{not json")
    with pytest.raises(ShapeError):
        parse_spec("[1, 2, 3]")


@pytest.mark.parametrize("doc", [
    "[" * 100_000 + "]" * 100_000,
    '{"a": ' * 100_000 + "1" + "}" * 100_000,
], ids=["arrays", "objects"])
def test_parse_deeply_nested_document(doc):
    """Nesting past the decoder's recursion limit is a syntax error, not a RecursionError."""
    with pytest.raises(SpecSyntaxError, match="invalid JSON"):
        parse_spec(doc)


def test_parse_integer_past_the_digit_limit():
    """The decoder raises a plain ValueError for a 5001-digit integer; it is a syntax error."""
    doc = FIXED_POINT_DOC.replace('"p": 2', '"p": 1' + "0" * 5000)
    with pytest.raises(SpecSyntaxError, match="^invalid JSON: Exceeds the limit"):
        parse_spec(doc)


def test_parse_rejects_duplicate_keys():
    """The last value would win: a = 2 here would turn a fixed point into no cycle."""
    doc = ('{"a": "1", "a": "2", "b": "1", "p": 1, "q": 1, '
           '"x_init": ["1"], "y_init": ["1"]}')
    with pytest.raises(SpecSyntaxError, match="duplicate key 'a'"):
        parse_spec(doc)
    with pytest.raises(SpecSyntaxError, match="duplicate key 'k'"):
        parse_spec(doc.replace('"a": "1", "a": "2"', '"a": "1", "m": {"k": 1, "k": 1}'))
    assert parse_spec(doc.replace('"a": "1", ', "")).a == 2


def test_spec_constructor_checks():
    with pytest.raises(ShapeError):
        SystemSpec(a=1, b=1, p=2, q=3, x_init=(1, 1), y_init=(1, 1, 1))
    with pytest.raises(ZeroValueError):
        SystemSpec(a=1, b=1, p=2, q=2, x_init=(1, 0), y_init=(1, 1))
    with pytest.raises(ShapeError):
        SystemSpec(a=1, b=1, p=2, q=2, x_init=(1.5, 1), y_init=(1, 1))
    spec = SystemSpec(a=2, b=4, p=1, q=1, x_init=[3], y_init=[Fraction(1, 2)])
    assert spec.a == Fraction(2) and isinstance(spec.x_init, tuple)
    assert spec.c == Fraction(1, 2)


class _SubFraction(Fraction):
    pass


@pytest.mark.parametrize("make", [int, Fraction, _SubFraction], ids=lambda make: make.__name__)
def test_spec_fields_are_exact_fractions(make):
    """Every rational field has type exactly ``Fraction``, whatever rational type it was given."""
    values = (make(-3), make(5), make(2), make(7))
    spec = SystemSpec(a=make(2), b=make(-1), p=2, q=4, x_init=values, y_init=values[::-1])
    fields = (spec.a, spec.b, *spec.x_init, *spec.y_init)
    assert all(type(v) is Fraction for v in fields)
    assert fields == (2, -1, -3, 5, 2, 7, 7, 2, 5, -3)
    assert spec_to_obj(spec)["x_init"] == ["-3", "5", "2", "7"]


def test_spec_coercion_errors_name_the_entry():
    ones = (1, 1, 1, 1)
    with pytest.raises(ShapeError, match=r"^x_init\[1\] must be a rational value, got True$"):
        SystemSpec(a=1, b=1, p=2, q=4, x_init=(1, True, 1, 1), y_init=ones)
    with pytest.raises(ShapeError, match=r"^a must be a rational value, got True$"):
        SystemSpec(a=True, b=1, p=2, q=4, x_init=ones, y_init=ones)
    with pytest.raises(ZeroValueError, match=r"^x_init\[3\] must be nonzero$"):
        SystemSpec(a=1, b=1, p=2, q=4, x_init=(1, 1, 1, 0), y_init=ones)
    with pytest.raises(ZeroValueError, match=r"^y_init\[0\] must be nonzero$"):
        SystemSpec(a=1, b=1, p=2, q=4, x_init=ones, y_init=(Fraction(0), 1, 1, 1))
    with pytest.raises(ZeroValueError, match=r"^b must be nonzero$"):
        SystemSpec(a=1, b=Fraction(0), p=2, q=4, x_init=ones, y_init=ones)
    # initial data without a length is a ShapeError too, not a bare TypeError
    for values in (5, None, (v for v in ones)):
        with pytest.raises(ShapeError, match=r"^y_init must be a tuple or list of values, got "):
            SystemSpec(a=1, b=1, p=2, q=4, x_init=ones, y_init=values)


def test_spec_rejects_oversized_p():
    """p > q would read before the q pairs of initial data: no such spec exists."""
    with pytest.raises(ShapeError, match="insufficient-history"):
        SystemSpec(a=1, b=1, p=4, q=3, x_init=(1, 1, 1), y_init=(1, 1, 1))
    doc = json.loads(FIXED_POINT_DOC)
    doc["p"] = 4
    with pytest.raises(ShapeError, match="insufficient-history"):
        parse_spec(json.dumps(doc))


nonzero = st.fractions(max_denominator=40).filter(lambda f: f != 0)


@given(st.integers(min_value=1, max_value=6), st.data())
def test_serialize_parse_round_trip(p, data):
    q = data.draw(st.integers(min_value=p, max_value=6))
    spec = SystemSpec(
        a=data.draw(nonzero), b=data.draw(nonzero), p=p, q=q,
        x_init=tuple(data.draw(nonzero) for _ in range(q)),
        y_init=tuple(data.draw(nonzero) for _ in range(q)),
    )
    text = json.dumps(spec_to_obj(spec))
    assert parse_spec(text) == spec
    # a second round proves the text form is a fixed point
    assert spec_to_obj(parse_spec(text)) == spec_to_obj(spec)


def _delays(p, q):
    return SystemSpec(a=1, b=1, p=p, q=q,
                      x_init=(Fraction(1),) * q, y_init=(Fraction(1),) * q)


def test_validate_modes():
    assert validate(_delays(2, 3), "strict").ok
    report = validate(_delays(3, 6), "strict")
    assert [rule for rule, _ in report.violations] == ["p-divides-q"]
    assert validate(_delays(3, 6), "general").ok
    assert validate(_delays(4, 4), "general").ok
    strict_equal = validate(_delays(4, 4), "strict")
    assert {rule for rule, _ in strict_equal.violations} == {"p-not-less-than-q", "p-divides-q"}
    with pytest.raises(ShapeError, match="insufficient-history"):
        _delays(5, 3)
    with pytest.raises(ValueError):
        validate(_delays(2, 3), "lenient")


@pytest.mark.parametrize("mode", ["bogus", "lenient", "STRICT", ""])
def test_validate_rejects_an_unknown_mode_with_a_typed_error(mode):
    with pytest.raises(ArgumentRangeError) as raised:
        validate(_delays(2, 3), mode)
    assert isinstance(raised.value, PerisysError) and isinstance(raised.value, ValueError)
    assert str(raised.value) == f"mode must be one of ('strict', 'general'), got {mode!r}"


def test_validate_is_pure():
    spec = _delays(3, 6)
    assert validate(spec, "strict") == validate(spec, "strict")
    assert validate(spec, "general") == validate(spec, "general")


def test_random_positive_spec_is_positive_and_seeded():
    one = random_positive_spec(random.Random(5), 6, 10)
    two = random_positive_spec(random.Random(5), 6, 10)
    assert one == two
    assert one.a == one.b == 1
    assert all(v > 0 for v in one.x_init + one.y_init)
    assert len(one.x_init) == 10


@pytest.mark.parametrize("seed", [0, 1, 9])
def test_random_positive_spec_draws_as_randint_does(seed):
    """The table draw gives the ``randint`` spec and leaves the generator in its state.

    Every (p, q) with 1 <= p <= q <= 40, each generator seeded as ``sweep``
    seeds a trial's; a Python whose ``randint`` draws otherwise fails here.
    """
    for q in range(1, 41):
        for p in range(1, q + 1):
            drawn, reference = (random.Random(f"{seed}:{p}:{q}:0") for _ in range(2))
            assert random_positive_spec(drawn, p, q) == randint_positive_spec(reference, p, q)
            assert drawn.getstate() == reference.getstate(), (p, q)
