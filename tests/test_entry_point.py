"""The CLI on the README spec files, on capped and long exports, and in bounded time and memory.

Each test calls ``main`` in-process, as ``test_cli`` does, except where
the process is what gets checked, a timeout or a peak RSS: those
runs take place in a child process (``conftest.child_runs``).
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import random
import sys
from fractions import Fraction

import pytest

from perisys import SystemSpec, parse_spec, spec_to_obj
from perisys.cli import VERDICT_CONSISTENT, main

from conftest import MEMORY_SPECS, README_SPEC, child_runs, csv_writer_export, naive_pairs
from oracles import chunked_literal

# (2, 3) with a = b = 1: unbounded, so an exact export soon outgrows a 64-bit cap.
UNBOUNDED_DOC = {"a": "1", "b": "1", "p": 2, "q": 3, "x_init": ["1", "2", "3"],
                 "y_init": ["3", "1", "2"]}
# (2, 3) with initial components of about 20 bits, a = 1 or -1 to be set:
# the literals pass Python's 4300-digit int/str limit near n = 820 and
# reach about 7400 digits at n = 1200, and each x_n = a/y_{n-2} reuses
# the rendered texts of y_{n-2}.
WIDE_DOC = {"b": "1", "p": 2, "q": 3,
            "x_init": ["1048573/1234567", "1299709/1048583", "1505117/1676543"],
            "y_init": ["1162261/1594319", "1398269/1111111", "2015177/1815157"]}


def spec_file(tmp_path, name, doc) -> str:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_sweep_to_q_48_agrees_within_120_s():
    """All 1081 rows 2 <= p < q <= 48 of generic data agree with the classifier on E.

    The detector's period search draws far fewer pairs than the block
    period; the whole sweep, a process of its own, ends within 120 s.
    """
    argv = ["sweep", "48", "48", "--trials", "1", "--p-min", "2", "--seed", "1", "--format", "json"]
    [(code, out)], _ = child_runs([argv], None, 120)
    rows = json.loads(out)
    assert code == 0 and len(rows) == 1081
    assert {row["verdict"] for row in rows} == {VERDICT_CONSISTENT}


def test_readme_spec_through_every_command(tmp_path, capsys, monkeypatch):
    """The README spec, c = 1/2, and its c = 2 mirror.

    ``verify -n 10000`` passes on both.  Under a 12-bit cap, which index
    95 of the two blocks that ``simulate`` forms passes, the same run exits
    1 with one line on stderr.  At
    ``-n 5`` each law that does not apply says why.  Both backends export
    300 rows in both formats, and ``detect-period`` answers.
    """
    readme = spec_file(tmp_path, "readme", README_SPEC)
    mirror = spec_file(tmp_path, "mirror", MEMORY_SPECS["c=2"])
    assert main(["verify", "--config", readme, "-n", "10000"]) == 0
    assert main(["verify", "--config", mirror, "-n", "10000"]) == 0
    assert main(["detect-period", "--config", readme]) == 0
    capsys.readouterr()
    assert main(["verify", "--config", readme, "-n", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["skipped"] == {"x_relation": "needs n >= 11",
                                                             "block_ratio": "needs n >= 61"}
    for backend in ("exact", "log"):
        simulate = ["simulate", "--config", readme, "-n", "300", "--backend", backend]
        assert main(simulate + ["--format", "json"]) == 0
        assert len(json.loads(capsys.readouterr().out)["rows"]) == 300
        assert main(simulate) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 301 and all(len(row) == 7 for row in rows)
    monkeypatch.setenv("PERISYS_MAX_BITS", "12")
    assert main(["verify", "--config", readme, "-n", "10000"]) == 1
    err = capsys.readouterr().err
    assert err == "rational component reached 13 bits (cap 12)\n"


def test_verify_forms_no_value_past_two_blocks(tmp_path):
    """``WIDE_DOC`` with a = 1 at ``-n 100000``: every check passes within 30 s.

    M = 6, so ``simulate`` forms indices 1 .. 12 alone.  The values from
    about n = 48767 on would pass the default cap, but ``verify`` forms
    none of them, so none is tested.
    """
    path = spec_file(tmp_path, "wide", dict(WIDE_DOC, a="1"))
    [(code, out)], _ = child_runs([["verify", "--config", path, "-n", "100000"]], None, 30)
    report = json.loads(out)
    assert code == 0 and report["skipped"] == {}
    assert set(report["checks"].values()) == {"pass"} and len(report["checks"]) == 4


def test_xy_equals_b_data_is_degenerate_and_cycles_its_block(tmp_path, capsys):
    """x y = b data on (6, 10): y_n = y_{n-6}, so the period properly divides E = 60.

    ``verify`` reads the agreement as degenerate.  The block period is
    P = 60, so an exact export past P cycles its first 60 rows: row
    n + 60 equals row n in every field but n.
    """
    path = spec_file(tmp_path, "special", MEMORY_SPECS["xy=b"])
    assert main(["verify", "--config", path]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks["classifier_detector_agreement"] == "pass-degenerate"
    assert main(["detect-period", "--config", path]) == 0
    period = json.loads(capsys.readouterr().out)["period"]
    assert period < 60 and 60 % period == 0
    for fmt in ("csv", "json"):
        assert main(["simulate", "--config", path, "-n", "200", "--format", fmt]) == 0
        text = capsys.readouterr().out
        rows = ([list(row.values()) for row in json.loads(text)["rows"]] if fmt == "json"
                else list(csv.reader(io.StringIO(text)))[1:])
        assert [int(row[0]) for row in rows] == list(range(1, 201))
        assert all(rows[k + 60][1:] == rows[k][1:] for k in range(140))


def test_capped_export_leaves_no_file_and_the_log_backend_ignores_the_cap(tmp_path, capsys,
                                                                          monkeypatch):
    """An exact export that outgrows the cap exits 1 and leaves no --out file.

    The log backend has no cap and never reads the variable, so a
    malformed one does not stop it.
    """
    path, out = spec_file(tmp_path, "unbounded", UNBOUNDED_DOC), tmp_path / "traj.csv"
    monkeypatch.setenv("PERISYS_MAX_BITS", "64")
    assert main(["simulate", "--config", path, "-n", "2000", "--out", str(out)]) == 1
    assert "(cap 64)" in capsys.readouterr().err
    assert not out.exists()
    monkeypatch.setenv("PERISYS_MAX_BITS", "bogus")
    assert main(["simulate", "--config", path, "-n", "2000", "--backend", "log",
                 "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2001


@functools.cache
def wide_magnitudes() -> tuple:
    """|x_n|, |y_n| and their ``chunked_literal`` texts, n = 1 .. 1200, of ``WIDE_DOC`` with a = 1.

    Negating a changes signs only, which the test asserts, so one
    rendering, about a second of ``chunked_literal``, serves both a.
    """
    spec = parse_spec(json.dumps(dict(WIDE_DOC, a="1")))
    values = [(abs(x), abs(y)) for _, x, y in itertools.islice(naive_pairs(spec), 1200)]
    return values, [[chunked_literal(x), chunked_literal(y)] for x, y in values]


@pytest.mark.parametrize("a", ["1", "-1"])
def test_export_past_the_int_string_limit(a, tmp_path, capsys):
    """Both formats export all 1200 rows, every literal that of the literal recurrence.

    The exact export leaves ``sys.get_int_max_str_digits()`` as it was.
    Rows are compared one by one: a failing comparison of whole lists of
    such literals would take pytest minutes to report.
    """
    spec_doc = dict(WIDE_DOC, a=a)
    pairs = list(itertools.islice(naive_pairs(parse_spec(json.dumps(spec_doc))), 1200))
    magnitudes, literals = wide_magnitudes()
    assert [(abs(x), abs(y)) for _, x, y in pairs] == magnitudes
    want = [["-" * (x < 0) + x_text, "-" * (y < 0) + y_text]
            for (_, x, y), (x_text, y_text) in zip(pairs, literals)]
    assert max(len(part) for literal in want[-1] for part in literal.lstrip("-").split("/")) > 7000
    path, limit = spec_file(tmp_path, "wide", spec_doc), sys.get_int_max_str_digits()
    assert main(["simulate", "--config", path, "-n", "1200"]) == 0
    rows = [row[1:3] for row in csv.reader(io.StringIO(capsys.readouterr().out))][1:]
    assert len(rows) == 1200 and [n for n, row in enumerate(rows) if row != want[n]] == []
    assert main(["simulate", "--config", path, "-n", "1200", "--format", "json"]) == 0
    rows = [[row["x"], row["y"]] for row in json.loads(capsys.readouterr().out)["rows"]]
    assert len(rows) == 1200 and [n for n, row in enumerate(rows) if row != want[n]] == []
    assert sys.get_int_max_str_digits() == limit


def test_unbounded_30_31_export_is_the_recurrence_in_bounded_time_and_memory(tmp_path):
    """An unbounded (30, 31) spec with a = -3/4 and components 1 .. 16, exported through 3M + q.

    M = lcm(30, 62) = 930, so rows 931 .. 2821 come from the block law
    over a window of 930 values of y, and each x_n from a's reduction of
    1/y_{n-30}.  The child exports within 120 s, at a peak RSS under
    200 MB, and its file holds the ``csv.writer`` oracle's bytes.
    """
    rng = random.Random(30)
    values = [Fraction(rng.randint(1, 16), rng.randint(1, 16)) * rng.choice((1, -1))
              for _ in range(62)]
    spec = SystemSpec(a=Fraction(-3, 4), b=1, p=30, q=31, x_init=tuple(values[:31]),
                      y_init=tuple(values[31:]))
    path, out = spec_file(tmp_path, "block", spec_to_obj(spec)), tmp_path / "traj.csv"
    runs, peak_mb = child_runs([["simulate", "--config", path, "-n", "2821", "--out", str(out)]],
                               None, 120)
    assert runs == [[0, ""]] and peak_mb < 200
    expected = io.StringIO()
    csv_writer_export(spec, 2821, "exact", expected)
    with open(out, encoding="utf-8", newline="") as written:
        assert written.read().splitlines(True) == expected.getvalue().splitlines(True)
