"""Shared helpers: random system instances, spec files and child runs of the CLI, and the
literal-recurrence, cycle-scan and export oracles."""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

from hypothesis import strategies as st

from perisys import (
    BACKEND_SIGNEDLOG,
    NoCycleWithinHorizon,
    Periodic,
    Rational,
    SystemSpec,
    Trajectory,
    spec_to_obj,
)
from perisys.numerics import ENV_MAX_BITS, check_bits
from perisys.simulator import TRAJECTORY_CSV_HEADER

from oracles import log_pairs, str_fraction_row


@contextlib.contextmanager
def bit_cap(bits):
    """Set ``PERISYS_MAX_BITS`` to ``bits``, or unset it for ``None``; restore it on exit.

    A context manager rather than the ``monkeypatch`` fixture, so that a
    hypothesis test can set a drawn cap for each example.
    """
    old = os.environ.get(ENV_MAX_BITS)
    try:
        if bits is None:
            os.environ.pop(ENV_MAX_BITS, None)
        else:
            os.environ[ENV_MAX_BITS] = str(bits)
        yield
    finally:
        if old is None:
            os.environ.pop(ENV_MAX_BITS, None)
        else:
            os.environ[ENV_MAX_BITS] = old


def rand_value(rng: random.Random, max_component: int = 16, signed: bool = False) -> Fraction:
    value = Fraction(rng.randint(1, max_component), rng.randint(1, max_component))
    if signed and rng.random() < 0.5:
        value = -value
    return value


def random_signed_spec(rng: random.Random, p: int, q: int,
                       a: Fraction | int | None = None,
                       b: Fraction | int | None = None) -> SystemSpec:
    """Random spec with sign-mixed initial data and (by default) random a, b."""
    if a is None:
        a = rand_value(rng, 5, signed=True)
    if b is None:
        b = rand_value(rng, 5, signed=True)
    return SystemSpec(
        a=Fraction(a), b=Fraction(b), p=p, q=q,
        x_init=tuple(rand_value(rng, signed=True) for _ in range(q)),
        y_init=tuple(rand_value(rng, signed=True) for _ in range(q)),
    )


def product_family_spec(rng: random.Random, p: int, q: int, a, b) -> SystemSpec:
    """Signed initial data with x_k y_k = b at every initial index.

    With a = b the product z = x y stays b, so every step coefficient and
    block multiplier is 1; with a = -b it alternates between b and -b, and
    they are all +-1.  Such data is periodic in every regime.
    """
    ys = tuple(rand_value(rng, signed=True) for _ in range(q))
    return SystemSpec(a=Fraction(a), b=Fraction(b), p=p, q=q,
                      x_init=tuple(Fraction(b) / y for y in ys), y_init=ys)


def fixed_point_spec(p: int = 2, q: int = 3) -> SystemSpec:
    return SystemSpec(a=1, b=1, p=p, q=q,
                      x_init=(Fraction(1),) * q, y_init=(Fraction(1),) * q)


nonzero_rationals = st.builds(
    Fraction,
    st.integers(1, 16) | st.integers(-16, -1),
    st.integers(1, 16),
)


@st.composite
def specs(draw):
    """Signed initial data, p <= q <= 12, with c = 1, b = -a, c = 1/2 and c = 2 all drawn."""
    q = draw(st.integers(1, 12))
    p = draw(st.integers(1, q))
    a = draw(nonzero_rationals)
    kind = draw(st.sampled_from(["c=1", "b=-a", "c=1/2", "c=2", "free"]))
    b = {"c=1": a, "b=-a": -a, "c=1/2": 2 * a, "c=2": a / 2}.get(kind)
    if b is None:
        b = draw(nonzero_rationals)
    values = st.lists(nonzero_rationals, min_size=q, max_size=q)
    return SystemSpec(a=a, b=b, p=p, q=q,
                      x_init=tuple(draw(values)), y_init=tuple(draw(values)))


def naive_pairs(spec, max_bits=None):
    """Independent reference: the literal recurrence over explicit index dictionaries.

    With ``max_bits`` it applies ``check_bits`` to x_n and then y_n after
    each step, as the simulator must.
    """
    x, y = {}, {}
    for i in range(spec.q):
        x[i - spec.q + 1] = spec.x_init[i]
        y[i - spec.q + 1] = spec.y_init[i]
    for n in itertools.count(1):
        x[n] = spec.a / y[n - spec.p]
        y[n] = spec.b * y[n - spec.p] / (x[n - spec.q] * y[n - spec.q])
        if max_bits is not None:
            check_bits(x[n], max_bits)
            check_bits(y[n], max_bits)
        yield n, x[n], y[n]


def components(value) -> Rational:
    """The canonical pair of a ``Fraction`` or int, the form exact pairs take."""
    return Rational(*value.as_integer_ratio())


def canonical_triples(triples) -> list:
    """(n, x_n, y_n) triples of ``Fraction``s, with x_n and y_n as canonical pairs."""
    return [(n, components(x), components(y)) for n, x, y in triples]


def columns(values) -> tuple[list, list]:
    """The numerator and denominator columns of a sequence of ``Fraction``s."""
    return [v.numerator for v in values], [v.denominator for v in values]


def logical_columns(traj) -> tuple[list, list, list, list]:
    """The four columns of ``traj`` at every index -q+1 .. n_max, read through ``x()`` and ``y()``."""
    indices = range(1 - traj.spec.q, traj.n_max + 1)
    return (*columns([traj.x(n) for n in indices]), *columns([traj.y(n) for n in indices]))


def stored_columns(spec, pairs) -> tuple[list, list, list, list]:
    """Test oracle: the four columns that ``simulate(spec, n)`` stores, from n literal ``pairs``.

    The initial data, then the first min(n, 2M) of the (n, x_n, y_n)
    ``pairs``, M = lcm(p, 2q), each a ``Fraction``: two blocks at most.
    """
    kept = pairs[:stored_length(spec, len(pairs)) - spec.q]
    return (*columns(list(spec.x_init) + [x for _, x, _ in kept]),
            *columns(list(spec.y_init) + [y for _, _, y in kept]))


def materialised(spec, n_steps) -> Trajectory:
    """Test oracle: the trajectory of ``spec`` through ``n_steps`` with every value stored.

    Its columns hold all q + n_steps values of the literal recurrence,
    :func:`naive_pairs`, also past the two blocks that ``simulate`` keeps.
    """
    steps = list(itertools.islice(naive_pairs(spec), n_steps))
    return Trajectory(spec, *columns(list(spec.x_init) + [x for _, x, _ in steps]),
                      *columns(list(spec.y_init) + [y for _, _, y in steps]))


def stored_length(spec, n_steps) -> int:
    """Test oracle: the column length of every ``simulate(spec, n_steps)`` that returns.

    q + min(n_steps, 2M), M = lcm(p, 2q): past 2M two generated blocks are
    stored, whatever the bit cap.
    """
    return spec.q + min(n_steps, 2 * math.lcm(spec.p, 2 * spec.q))


def outcome(check, traj):
    """The check's verdict, or the type of the exception it raised."""
    try:
        return check(traj)
    except Exception as exc:  # compared by type against the oracle's
        return type(exc)


_MODULUS = (1 << 61) - 1
_BASE = 1_181_783_497_276_652_981


def pair_hash(pair):
    x, y = pair
    # Canonical rationals are equal iff their components are.  Keys do
    # collide on small data (hash(-1) == hash(-2)), hence the exact
    # confirmation in first_repeat.
    return hash((x.numerator, x.denominator, y.numerator, y.denominator))


def first_repeat(initial_pairs, generated_pairs, w):
    """Test oracle: the first recurring length-``w`` window, by a rolling-hash scan.

    Window k ends at the k-th generated pair; window 0 is the last ``w``
    initial pairs.  Window keys are a polynomial rolling hash of the pair
    hashes modulo 2**61 - 1, and a window whose key is taken is compared
    pair by pair with the stored one, so a collision never yields a false
    repeat or hides a true one.  Without a repeat the horizon is the
    number of generated pairs.
    """
    pairs = list(initial_pairs)
    hashes = [pair_hash(pair) for pair in pairs]
    key = 0
    for h in hashes[-w:]:
        key = (key * _BASE + h) % _MODULUS
    drop = pow(_BASE, w, _MODULUS)
    end0 = len(pairs)  # pairs[k + end0 - w : k + end0] is window k
    seen = {key: 0}
    k = 0
    for k, pair in enumerate(generated_pairs, 1):
        h = pair_hash(pair)
        key = (key * _BASE + h - hashes[-w] * drop) % _MODULUS
        pairs.append(pair)
        hashes.append(h)
        slot = key
        while (j := seen.setdefault(slot, k)) != k:
            if pairs[j + end0 - w:j + end0] == pairs[-w:]:
                return Periodic(preperiod=j, period=k - j)
            slot += 1  # a different window holds this slot: probe the next one
    return NoCycleWithinHorizon(horizon=k)


def scan_cycle(spec, horizon, max_bits=None):
    """Test oracle: :func:`first_repeat` over ``horizon`` pairs of :func:`naive_pairs`."""
    generated = itertools.islice(naive_pairs(spec, max_bits), horizon)
    return first_repeat(tuple(zip(spec.x_init, spec.y_init)),
                        ((x, y) for _, x, y in generated), spec.q)


def find_window_cycle(items, window):
    """Test oracle: first repeated length-``window`` window of ``items``.

    Builds and hashes a fresh tuple per window, O(window) per item.
    Returns (first_occurrence, distance) in window-start indices, or None
    if every window is distinct.
    """
    if window < 1 or len(items) < window:
        return None
    seen = {}
    for k in range(len(items) - window + 1):
        state = tuple(items[k:k + window])
        if state in seen:
            return seen[state], k - seen[state]
        seen[state] = k
    return None


def stored_pairs(spec, n_steps, backend):
    """Test oracle: the (n, x_n, y_n) the exports must carry, from a stored sequence.

    Exact pairs come from the literal recurrence :func:`naive_pairs`, log
    pairs from the ``SignedLog`` recurrence ``oracles.log_pairs``; neither
    reads the exports' own rows.
    """
    pairs = log_pairs(spec) if backend == BACKEND_SIGNEDLOG else naive_pairs(spec)
    return list(itertools.islice(pairs, n_steps))


def export_rows(spec, n_steps, backend):
    """Test oracle: the export rows of :func:`stored_pairs`, in TRAJECTORY_CSV_HEADER order."""
    pairs = stored_pairs(spec, n_steps, backend)
    if backend == BACKEND_SIGNEDLOG:
        return [(n, "", "", x.sign, x.logmag, y.sign, y.logmag) for n, x, y in pairs]
    return list(itertools.starmap(str_fraction_row, pairs))


def csv_writer_export(spec, n_steps, backend, stream):
    """Test oracle: the ``csv.writer`` loop that ``write_trajectory_csv`` replaced."""
    writer = csv.writer(stream)
    writer.writerow(TRAJECTORY_CSV_HEADER)
    for n, x, y, sign_x, log_x, sign_y, log_y in export_rows(spec, n_steps, backend):
        writer.writerow((n, x, y, sign_x, f"{log_x:.17g}", sign_y, f"{log_y:.17g}"))


def json_dump_export(spec, n_steps, backend):
    """Test oracle: ``json.dumps(..., indent=2)`` of the export document, plus a newline."""
    doc = {"spec": spec_to_obj(spec), "backend": backend, "n": n_steps,
           "rows": [dict(zip(TRAJECTORY_CSV_HEADER, row))
                    for row in export_rows(spec, n_steps, backend)]}
    return json.dumps(doc, indent=2) + "\n"


# The README spec file with c = 1/2 (6, 10), and its variants: a = 2, b = 1
# (c = 2) and a = 2, b = 3 (c = 2/3); x y = b data on (6, 10); and b = -a
# data on (3, 5), P = 60.
README_SPEC = {"a": "1", "b": "2", "p": 6, "q": 10,
               "x_init": ["1", "2", "3", "1", "2", "3", "1", "2", "3", "1"],
               "y_init": ["5", "4", "3", "2", "1", "5", "4", "3", "2", "1"]}
MEMORY_SPECS = {
    "c=1/2": README_SPEC,
    "c=2": {**README_SPEC, "a": "2", "b": "1"},
    "c=2/3": {**README_SPEC, "a": "2", "b": "3"},
    "xy=b": {**README_SPEC, "b": "1",
             "x_init": ["1/5", "1/4", "1/3", "1/2", "1", "1/5", "1/4", "1/3", "1/2", "1"]},
    "b=-a": {"a": "2", "b": "-2", "p": 3, "q": 5, "x_init": ["1", "-2", "3", "1/2", "-5/3"],
             "y_init": ["3", "1", "-2", "4/3", "1/5"]},
}

# Run in a child process, so that its peak RSS is that of these runs
# alone: argv[1] is a JSON list of ``main`` argument lists, run in turn.
# The child prints each run's exit code and stdout, and its peak RSS: its
# VmHWM, that of its own address space; its RUSAGE_SELF peak would also
# count the test process's resident set at the fork.
MAIN_CHILD = """
import contextlib, io, json, sys
from perisys.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    runs.append([code, out.getvalue()])
with open("/proc/self/status") as status:
    rss_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps({"runs": runs, "rss_mb": rss_kb / 1024}))
"""


def child_runs(argvs, cap, seconds):
    """``MAIN_CHILD``'s runs of ``argvs`` under the bit cap ``cap`` (None: unset), and its peak MB."""
    env = {key: value for key, value in os.environ.items() if key != ENV_MAX_BITS}
    if cap is not None:
        env[ENV_MAX_BITS] = str(cap)
    proc = subprocess.run([sys.executable, "-c", MAIN_CHILD, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, timeout=seconds)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert len(result["runs"]) == len(argvs)
    return result["runs"], result["rss_mb"]
