"""End-to-end CLI behavior: output formats, exit codes, determinism."""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import itertools
import json
import math
import os
import pkgutil
import random
import stat
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings

from perisys import (
    BitLengthExceededError,
    NoCycleWithinHorizon,
    Periodic,
    Regime,
    SystemSpec,
    classify,
    default_horizon,
    detect_cycle,
    parse_spec,
    random_positive_spec,
    spec_to_obj,
)
from perisys.cli import (
    VERDICT_CONSISTENT,
    VERDICT_DEGENERATE,
    VERDICT_INCONSISTENT,
    agreement,
    build_run_report,
    main,
    sweep_grid,
)
import perisys
import perisys.cli as cli_module
import perisys.simulator as simulator_module

from conftest import (
    MEMORY_SPECS,
    child_runs,
    csv_writer_export,
    fixed_point_spec,
    naive_pairs,
    random_signed_spec,
    specs,
)
from oracles import sweep_row_obj


@pytest.fixture
def periodic_config(tmp_path):
    spec = random_positive_spec(random.Random(60), 6, 10)
    path = tmp_path / "periodic.json"
    path.write_text(json.dumps(spec_to_obj(spec)))
    return str(path), spec


@pytest.fixture
def growing_config(tmp_path):
    spec = random_positive_spec(random.Random(61), 2, 3)
    path = tmp_path / "growing.json"
    path.write_text(json.dumps(spec_to_obj(spec)))
    return str(path), spec


def test_classify_lines(capsys):
    assert main(["classify", "-p", "6", "-q", "10"]) == 0
    assert "EventuallyPeriodic period=60" in capsys.readouterr().out
    assert main(["classify", "-p", "2", "-q", "3"]) == 0
    assert "GenericallyUnbounded witness=12" in capsys.readouterr().out
    assert main(["classify", "-p", "4", "-q", "6"]) == 0
    assert "GenericallyUnbounded witness=12 (lcm)" in capsys.readouterr().out


def test_classify_json(capsys):
    assert main(["classify", "-p", "6", "-q", "10", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["regime"] == "EventuallyPeriodic" and obj["predicted_period"] == 60


def test_classify_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["classify", "-p", "0", "-q", "3"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["classify", "-p", "2", "-q", "-5"])
    assert err.value.code == 2


def test_non_integer_n_is_a_usage_error(capsys):
    """``-n abc`` fails in the parser, before the spec file is read: exit 2, argparse's message."""
    with pytest.raises(SystemExit) as err:
        main(["verify", "--config", "/nonexistent/spec.json", "-n", "abc"])
    assert err.value.code == 2
    assert capsys.readouterr().err.endswith(
        "perisys verify: error: argument -n: expected an integer, got 'abc'\n")


def test_simulate_csv_row_count(periodic_config, capsys):
    path, _ = periodic_config
    assert main(["simulate", "--config", path, "-n", "300", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("n,x,y,sign_x")
    assert len(lines) == 301


def test_simulate_fixed_point_rows(tmp_path, capsys):
    path = tmp_path / "fp.json"
    path.write_text(json.dumps(spec_to_obj(fixed_point_spec(2, 3))))
    assert main(["simulate", "--config", str(path), "-n", "8"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert all(row.split(",")[1:3] == ["1", "1"] for row in rows)


def test_simulate_json_round_trips_spec(periodic_config, capsys):
    path, spec = periodic_config
    assert main(["simulate", "--config", path, "-n", "10", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert parse_spec(json.dumps(obj["spec"])) == spec
    assert len(obj["rows"]) == 10


def test_simulate_signedlog_backend(growing_config, capsys):
    path, _ = growing_config
    assert main(["simulate", "--config", path, "-n", "50", "--backend", "log"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert all(row.split(",")[1] == "" for row in rows)


def test_simulate_out_file(periodic_config, tmp_path, capsys):
    path, _ = periodic_config
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--config", path, "-n", "5", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert len(out.read_text().splitlines()) == 6


def _fail_mid_export(monkeypatch):
    """Make an exact export fail on its second row, as the old 4300-digit fault did.

    Each exact row forms the literal of x_n, then that of y_n, so the third
    literal is that of x_2.
    """
    original = simulator_module._literal
    calls = []

    def failing(*args):
        calls.append(args)
        if len(calls) == 3:
            raise ValueError("Exceeds the limit (4300 digits) for integer string conversion")
        return original(*args)
    monkeypatch.setattr(simulator_module, "_literal", failing)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_failed_export_leaves_no_out_file(periodic_config, tmp_path, capsys, monkeypatch, fmt):
    path, _ = periodic_config
    out = tmp_path / f"traj.{fmt}"
    out.write_text("stale\n")
    _fail_mid_export(monkeypatch)
    assert main(["simulate", "--config", path, "-n", "5", "--format", fmt,
                 "--out", str(out)]) == 1
    assert "4300 digits" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_failed_export_to_stdout_prints_what_stdlib_writers_print(periodic_config, capsys,
                                                                   monkeypatch, fmt):
    """CSV: the header and row 1, as csv.writer printed them; JSON: nothing."""
    path, spec = periodic_config
    expected = ""
    if fmt == "csv":
        buffer = io.StringIO()
        csv_writer_export(spec, 1, "exact", buffer)
        expected = buffer.getvalue()
    _fail_mid_export(monkeypatch)
    assert main(["simulate", "--config", path, "-n", "5", "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.out == expected
    assert "4300 digits" in captured.err


def test_out_dev_null_is_never_removed(periodic_config, capsys, monkeypatch):
    path, _ = periodic_config
    assert main(["simulate", "--config", path, "-n", "5", "--out", os.devnull]) == 0
    _fail_mid_export(monkeypatch)
    assert main(["simulate", "--config", path, "-n", "5", "--out", os.devnull]) == 1
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


LONG = "1" + "0" * 4400  # past the 4300-digit default of sys.get_int_max_str_digits()


@pytest.mark.parametrize("doc,key,literal", [
    # y_1 = y_{-1} b / (x_{-2} y_{-2})
    ({"a": "1", "b": "1", "p": 2, "q": 3, "x_init": [LONG, "2", "3"], "y_init": ["3", "1", "2"]},
     "y", "1/3" + "0" * 4400),
    # x_1 = a / y_0; c = a/b and its block ratio c^(q/g) are LONG as well
    ({"a": LONG, "b": "1", "p": 1, "q": 1, "x_init": ["2"], "y_init": ["3"]}, "x", LONG + "/3"),
], ids=["long-initial-value", "long-a"])
def test_literals_past_the_int_string_limit_are_echoed_and_exported(doc, key, literal, tmp_path,
                                                                     capsys):
    """A 4401-digit spec literal loads, and every command that renders it exits 0."""
    limit = sys.get_int_max_str_digits()
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--config", str(path), "-n", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["spec"] == doc
    assert report["drift"]["c"] == doc["a"] and report["drift"]["block_ratio"] in (None, doc["a"])
    assert main(["simulate", "--config", str(path), "-n", "5", "--format", "json"]) == 0
    export = json.loads(capsys.readouterr().out)
    assert export["spec"] == doc and export["rows"][0][key] == literal
    assert main(["simulate", "--config", str(path), "-n", "5"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 5 and rows[0][key] == literal
    assert sys.get_int_max_str_digits() == limit


def test_simulate_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"a": "0", "b": "1", "p": 2, "q": 3, "x_init": ["1","1","1"], "y_init": ["1","1","1"]}')
    assert main(["simulate", "--config", str(bad), "-n", "5"]) == 1
    assert "nonzero" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["simulate", "-n", "5"],
    ["simulate", "-n", "5", "--out", "OUT"],
    ["detect-period"],
    ["verify"],
], ids=["simulate", "simulate-out", "detect-period", "verify"])
def test_simulate_reports_validation_failure(command, tmp_path, capsys):
    """A p > q spec fails while loading, before any --out file is opened."""
    deep = tmp_path / "deep.json"
    deep.write_text('{"a": "1", "b": "1", "p": 5, "q": 3, "x_init": ["1","1","1"], "y_init": ["1","1","1"]}')
    out = tmp_path / "out.csv"
    argv = [str(out) if arg == "OUT" else arg for arg in command]
    assert main(argv + ["--config", str(deep)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "insufficient-history" in captured.err
    assert not out.exists()


DEEP_DOC = "[" * 100_000 + "]" * 100_000
DUPLICATE_KEY_DOC = ('{"a": "1", "a": "2", "b": "1", "p": 1, "q": 1, '
                     '"x_init": ["1"], "y_init": ["1"]}')
LONG_INT_DOC = DUPLICATE_KEY_DOC.replace('"a": "1", ', "").replace('"p": 1', '"p": 1' + "0" * 5000)


@pytest.mark.parametrize("doc, message", [
    (DEEP_DOC, "invalid JSON"),
    (DUPLICATE_KEY_DOC, "duplicate key 'a'"),
    (LONG_INT_DOC, "invalid JSON: Exceeds the limit (4300 digits)"),
], ids=["nested", "duplicate-key", "5001-digit-integer"])
@pytest.mark.parametrize("command", [
    ["simulate", "-n", "5", "--out", "OUT"],
    ["detect-period"],
    ["verify"],
], ids=["simulate-out", "detect-period", "verify"])
def test_malformed_document_is_one_line_error(command, doc, message, tmp_path, capsys):
    config = tmp_path / "spec.json"
    config.write_text(doc)
    out = tmp_path / "out.csv"
    argv = [str(out) if arg == "OUT" else arg for arg in command]
    assert main(argv + ["--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and message in captured.err
    assert not out.exists()


def test_detect_period_periodic(periodic_config, capsys):
    path, _ = periodic_config
    assert main(["detect-period", "--config", path]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["status"] == "periodic" and obj["period"] == 60 and "n0" in obj


def test_detect_period_no_cycle(growing_config, capsys):
    path, _ = growing_config
    assert main(["detect-period", "--config", path]) == 0
    horizon = default_horizon(2, 3)
    assert json.loads(capsys.readouterr().out) == {"status": "no-cycle", "horizon": horizon}


def test_verify_all_pass(periodic_config, capsys):
    path, _ = periodic_config
    assert main(["verify", "--config", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report["checks"]) == {
        "product_invariant", "x_relation", "block_ratio", "classifier_detector_agreement",
    }
    assert report["skipped"] == {}
    assert all(value == "pass" for value in report["checks"].values())
    assert report["drift"]["block_ratio"] == "1"
    assert parse_spec(json.dumps(report["spec"]))  # spec echo is parseable


def test_verify_reports_drifting_block_ratio(tmp_path, capsys):
    spec = replace(random_positive_spec(random.Random(62), 6, 10), a=1, b=2)
    path = tmp_path / "halving.json"
    path.write_text(json.dumps(spec_to_obj(spec)))
    assert main(["verify", "--config", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["checks"]["block_ratio"] == "pass"
    assert report["drift"]["block_ratio"] == "1/32"
    assert report["drift"]["c"] == "1/2"
    assert report["cycle"]["status"] == "no-cycle"  # drift forbids exact cycles
    (m, t, slope) = report["slopes"][0]
    assert m == 60 and t == 0 and slope < 0


def test_verify_alternating_sign_system(tmp_path, capsys):
    spec = replace(random_positive_spec(random.Random(63), 6, 10), a=1, b=-1)
    path = tmp_path / "alternating.json"
    path.write_text(json.dumps(spec_to_obj(spec)))
    assert main(["verify", "--config", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert all(value == "pass" for value in report["checks"].values())
    assert report["cycle"]["status"] == "periodic"
    assert 120 % report["cycle"]["period"] == 0  # sign flip doubles the block


def test_verify_skips_inapplicable_checks(growing_config, capsys):
    """On (2, 3), p/g even, every law applies at -n 100; at -n 7 < M + d/2 + 1 = 8 the block law is not."""
    path, _ = growing_config
    assert main(["verify", "--config", path, "-n", "100"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["skipped"] == {}
    assert report["checks"]["block_ratio"] == "pass"
    assert report["checks"]["classifier_detector_agreement"] == "pass"
    assert report["cycle"]["status"] == "no-cycle"
    assert main(["verify", "--config", path, "-n", "7"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["skipped"] == {"block_ratio": "needs n >= 8"}
    assert all(value == "pass" for value in report["checks"].values())


def guard_table(spec, n):
    """Test oracle: the applicability guards ``build_run_report`` once tested itself.

    Returns the ``checks`` keys, the ``skipped`` items and whether a slope
    is reported, from p, q and n alone, with the reason strings the report
    prints.  No law has a regime guard: each needs only enough steps.
    """
    p, q = spec.p, spec.q
    m, d = math.lcm(p, 2 * q), math.gcd(p, 2 * q)
    classification = classify(p, q)
    stride = classification.predicted_period or classification.witness_modulus
    checks, skipped = ["product_invariant"], {}
    if n >= max(p, q) + 1:
        checks.append("x_relation")
    else:
        skipped["x_relation"] = f"needs n >= {max(p, q) + 1}"
    floor = m + 1 if q % d == 0 else m + d // 2 + 1  # the law's first comparison
    if n < floor:
        skipped["block_ratio"] = f"needs n >= {floor}"
    else:
        checks.append("block_ratio")
    checks.append("classifier_detector_agreement")
    return checks, list(skipped.items()), n >= stride


@settings(max_examples=150, deadline=None)
@given(specs())
def test_skipped_laws_match_the_guard_table(spec):
    """Each law's own refusal gives the report the guard table's keys and reasons."""
    m, d = math.lcm(spec.p, 2 * spec.q), math.gcd(spec.p, 2 * spec.q)
    s = max(spec.p, spec.q) + 1
    classification = classify(spec.p, spec.q)
    stride = classification.predicted_period or classification.witness_modulus
    boundaries = {1, s - 1, s, m, m + 1, m + d // 2, m + d // 2 + 1, m + d - 1, m + d, 2 * m,
                  2 * m + 1, stride - 1, stride}
    for n in sorted(k for k in boundaries if k >= 1):
        report = build_run_report(spec, n)
        got = list(report["checks"]), list(report["skipped"].items()), bool(report["slopes"])
        assert got == guard_table(spec, n), n


def test_verify_failure_exits_1(periodic_config, capsys, monkeypatch):
    path, _ = periodic_config
    monkeypatch.setattr(cli_module, "product_invariant_check", lambda traj: False)
    assert main(["verify", "--config", path]) == 1
    captured = capsys.readouterr()
    assert "product_invariant" in captured.err


def test_verify_degenerate_inside_unbounded_regime(tmp_path, capsys):
    path = tmp_path / "ones.json"
    path.write_text(json.dumps(spec_to_obj(fixed_point_spec(2, 3))))
    assert main(["verify", "--config", str(path), "-n", "80"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["checks"]["classifier_detector_agreement"] == "pass-degenerate"
    assert report["cycle"] == {"status": "periodic", "n0": 0, "period": 1}


def test_sweep_rows_and_determinism(capsys):
    assert main(["sweep", "6", "6", "--trials", "2", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert main(["sweep", "6", "6", "--trials", "2", "--seed", "9"]) == 0
    assert capsys.readouterr().out == first
    lines = first.splitlines()
    assert lines[0] == "p,q,regime,modulus,verdict,outcomes"
    rows = {tuple(line.split(",")[:2]): line for line in lines[1:]}
    assert len(rows) == 15  # all 1 <= p < q <= 6
    assert "EventuallyPeriodic,12,CONSISTENT" in rows[("3", "6")]   # p | q: period 2q
    assert "EventuallyPeriodic,30,CONSISTENT" in rows[("3", "5")]   # odd p: period 2pq
    assert "GenericallyUnbounded,12,CONSISTENT" in rows[("2", "3")]


def test_sweep_json_format(capsys):
    assert main(["sweep", "4", "4", "--trials", "1", "--format", "json", "--seed", "3"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [(row["p"], row["q"]) for row in rows] == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    assert all(row["verdict"].startswith("CONSISTENT") for row in rows)


@pytest.mark.parametrize("argv, grid", [
    (["24", "24", "--trials", "3"], (24, 24, 3)),
    (["12", "30", "--trials", "2", "--seed", "9"], (12, 30, 2, 9)),
    (["1", "1"], (1, 1, 3)),
], ids=["24-24-trials-3", "12-30-seed-9", "no-row"])
def test_sweep_json_is_json_dump_of_the_row_objects(argv, grid, capsys):
    """The template rows are ``json.dump(..., indent=2)`` of the oracle objects, byte for byte."""
    rows = sweep_grid(*grid)
    kinds = {type(res) for row in rows for res in row.outcomes}
    assert kinds == ({Periodic, NoCycleWithinHorizon} if rows else set())
    assert main(["sweep", *argv, "--format", "json"]) == 0
    expected = io.StringIO()
    json.dump([sweep_row_obj(row) for row in rows], expected, indent=2)
    assert capsys.readouterr().out == expected.getvalue() + "\n"


def test_sweep_trials_only_through_the_flag(capsys):
    assert main(["sweep", "3", "3", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [len(row["outcomes"]) for row in rows] == [3, 3, 3]  # the default
    with pytest.raises(SystemExit) as exited:
        main(["sweep", "6", "6", "2"])
    assert exited.value.code == 2
    assert "unrecognized arguments: 2" in capsys.readouterr().err


def test_sweep_grid_degenerate_verdict(monkeypatch):
    rows = sweep_grid(2, 3, 1, seed=0, p_min=2)
    assert len(rows) == 1
    # inject the all-ones fixed point by hand: a periodic trajectory inside
    # the generically unbounded (2, 3) regime is degenerate, not inconsistent
    result = detect_cycle(fixed_point_spec(2, 3))
    assert agreement(classify(2, 3), fixed_point_spec(2, 3), result) == "pass-degenerate"
    monkeypatch.setattr(cli_module, "detect_cycle", lambda spec: result)
    assert sweep_grid(2, 3, 1, seed=0, p_min=2)[0].verdict == VERDICT_DEGENERATE


# classify(6, 10) is periodic with period 60 and q/g = 5, so c^(q/g) = c;
# classify(2, 3) is generically unbounded
@pytest.mark.parametrize("p, q, c, result, expected", [
    (6, 10, Fraction(1), Periodic(3, 60), "pass"),
    (6, 10, Fraction(1), Periodic(0, 12), "pass-degenerate"),  # a proper divisor: special data
    (6, 10, Fraction(1), NoCycleWithinHorizon(500), "fail"),   # no cycle, periodic regime
    (6, 10, Fraction(1), Periodic(0, 7), "fail"),              # does not divide 60
    (6, 10, Fraction(1), Periodic(0, 120), "fail"),            # doubling needs b = -a
    (6, 10, Fraction(-1), Periodic(0, 120), "pass"),           # b = -a doubles the bound
    (6, 10, Fraction(-1), Periodic(0, 240), "fail"),
    (6, 10, Fraction(-1), NoCycleWithinHorizon(500), "fail"),
    (6, 10, Fraction(1, 2), Periodic(0, 60), "fail"),          # drift: no exact cycle
    (6, 10, Fraction(3, 5), NoCycleWithinHorizon(500), "pass"),
    (2, 3, Fraction(2), Periodic(0, 1), "fail"),
    (2, 3, Fraction(2), NoCycleWithinHorizon(500), "pass"),
    (2, 3, Fraction(1), Periodic(0, 1), "pass-degenerate"),    # special data, unbounded regime
    (2, 3, Fraction(-1), Periodic(4, 2), "pass-degenerate"),
    (2, 3, Fraction(1), NoCycleWithinHorizon(500), "pass"),
    # classify(3, 4) has period 24 and q/g = 4 even: c = -1 gives c^(q/g) = 1, so E = 24
    (3, 4, Fraction(-1), Periodic(0, 24), "pass"),
    (3, 4, Fraction(-1), Periodic(1, 8), "pass-degenerate"),
    (3, 4, Fraction(-1), Periodic(0, 48), "fail"),
    (3, 4, Fraction(-1), Periodic(0, 16), "fail"),
])
def test_agreement_table(p, q, c, result, expected):
    spec = SystemSpec(a=c, b=1, p=p, q=q, x_init=(1,) * q, y_init=(1,) * q)
    assert agreement(classify(p, q), spec, result) == expected


def test_agreement_matches_generic_detector_periods():
    """Generic signed data with |c| = 1 has period exactly E in every periodic regime."""
    rng = random.Random(645)
    for q in range(2, 13):
        for p in range(1, q + 1):
            classification = classify(p, q)
            if classification.predicted_period is None:
                continue
            for a, b in ((2, 2), (2, -2)):
                spec = random_signed_spec(rng, p, q, a=a, b=b)
                assert agreement(classification, spec, detect_cycle(spec)) == "pass", (p, q, a, b)


@pytest.mark.parametrize("mutant, verdict", [
    ("period 1", VERDICT_DEGENERATE),     # 1 properly divides every E: special data, not E
    ("period 2E", VERDICT_INCONSISTENT),  # a multiple of E is no reading of generic data
])
def test_wrong_detector_periods_break_the_ci_sweep(mutant, verdict, monkeypatch, capsys):
    """The sweep 2 <= p < q <= 16 of generic data reads all 105 rows CONSISTENT under the true detector.

    A detector that answers period 1 or twice E on every periodic spec
    turns every periodic-regime row to ``verdict``.
    """
    def sweep_verdicts():
        code = main(["sweep", "16", "16", "--trials", "1", "--p-min", "2", "--seed", "1",
                     "--format", "json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 105
        return {(row["p"], row["q"]): row["verdict"] for row in rows}

    def wrong(spec):
        result = detect_cycle(spec)
        if not isinstance(result, Periodic):
            return result
        return Periodic(result.preperiod, 1 if mutant == "period 1" else 2 * result.period)

    assert set(sweep_verdicts().values()) == {VERDICT_CONSISTENT}
    monkeypatch.setattr(cli_module, "detect_cycle", wrong)
    verdicts = sweep_verdicts()
    for (p, q), row_verdict in verdicts.items():
        periodic = classify(p, q).regime is Regime.EVENTUALLY_PERIODIC
        assert row_verdict == (verdict if periodic else VERDICT_CONSISTENT), (p, q)


def test_sweep_verdict_from_trial_agreements(monkeypatch):
    # rows (2, 3) unbounded, (2, 4) periodic with period 8, (2, 5) unbounded
    outcomes = iter([
        Periodic(0, 1), NoCycleWithinHorizon(9),   # degenerate + pass
        Periodic(0, 8), NoCycleWithinHorizon(9),   # pass + fail
        NoCycleWithinHorizon(9), NoCycleWithinHorizon(9),
    ])
    monkeypatch.setattr(cli_module, "detect_cycle", lambda spec: next(outcomes))
    rows = sweep_grid(2, 5, 2, p_min=2)
    assert [(row.q, row.verdict) for row in rows] == [
        (3, VERDICT_DEGENERATE), (4, VERDICT_INCONSISTENT), (5, VERDICT_CONSISTENT),
    ]


def test_closed_stdout_exits_1_quietly(periodic_config):
    """A reader that stops early leaves the run incomplete: exit 1, nothing on stderr."""
    path, _ = periodic_config
    proc = subprocess.Popen([sys.executable, "-m", "perisys.cli", "simulate", "--config", path,
                             "-n", "20000"], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"n,x,y,")
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_back_to_back_main_calls_match_separate_processes(periodic_config, growing_config,
                                                           tmp_path, capsys):
    """One parser serves every ``main`` call of a process; no call leaks into the next.

    Subcommands, flags, --out and stdout, and a usage error (exit 2) in
    between, each run once in its own interpreter and then all in this one.
    """
    periodic, growing = periodic_config[0], growing_config[0]
    out = str(tmp_path / "out")
    commands = [
        ["sweep", "5", "6", "--trials", "2", "--seed", "3"],
        ["classify", "-p", "6", "-q", "10", "--json"],
        ["simulate", "--config", growing, "-n", "30", "--backend", "log", "--format", "json"],
        ["classify", "-p", "0", "-q", "3"],
        ["verify", "--config", periodic, "-n", "130"],
        ["simulate", "--config", periodic, "-n", "25", "--out", out],
        ["sweep", "4", "5", "--trials", "1", "--format", "json", "--out", out],
        ["detect-period", "--config", growing],
        ["classify", "-p", "2", "-q", "3"],
    ]

    def written():
        if not os.path.exists(out):
            return None
        with open(out, encoding="utf-8", newline="") as handle:
            text = handle.read()
        os.remove(out)
        return text

    separate = []
    for argv in commands:
        proc = subprocess.run([sys.executable, "-m", "perisys.cli", *argv],
                              capture_output=True, text=True, timeout=120)
        separate.append((proc.returncode, proc.stdout, proc.stderr, written()))
    together = []
    for argv in commands:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        together.append((code, captured.out, captured.err, written()))
    assert [entry[0] for entry in separate] == [0, 0, 0, 2, 0, 0, 0, 0, 0]
    assert together == separate


@pytest.mark.parametrize("n, names, cap, rss_mb, seconds", [
    (10**12, ("xy=b", "b=-a"), None, 200, 120),
    (10**6, ("c=1/2", "c=2"), None, 200, 120),
    (100000, ("c=2/3",), 13239, 64, 60),
], ids=["periodic-n-10^12", "drifting-n-10^6", "c=2/3-under-the-cap"])
def test_verify_memory_is_bounded_at_any_n(n, names, cap, rss_mb, seconds, tmp_path):
    """``simulate`` stores two generated blocks, so verify at a large n runs in bounded memory.

    One ``MAIN_CHILD`` runs ``verify`` on the spec files and reports its
    own peak RSS.  Every run exits 0, and every law that applies
    passes; the periodic specs skip none at n = 10^12, where the growth
    slope reads two stored values.  On c = 2/3 at n = 100000 the block law
    bounds the values by 13339 bits, over the 13239-bit cap; ``simulate``
    forms and tests only its two blocks, far under the cap, and no value
    past them.
    """
    argvs = []
    for name in names:
        path = tmp_path / f"{len(argvs)}.json"
        path.write_text(json.dumps(MEMORY_SPECS[name]))
        argvs.append(["verify", "--config", str(path), "-n", str(n)])
    runs, peak_mb = child_runs(argvs, cap, seconds)
    laws = ("product_invariant", "x_relation", "block_ratio")
    for name, (code, out) in zip(names, runs):
        report = json.loads(out)
        assert code == 0, name
        assert all(report["checks"][law] == "pass" for law in laws
                   if law not in report["skipped"]), name
        if n == 10**12:
            assert report["skipped"] == {}, name
    assert peak_mb < rss_mb


def test_rebound_detect_cycle_takes_effect_after_the_parser_is_built(periodic_config,
                                                                    capsys, monkeypatch):
    """Handlers look the detector up per call, so a parser built earlier does not pin it."""
    path, _ = periodic_config
    assert main(["detect-period", "--config", path]) == 0
    assert json.loads(capsys.readouterr().out)["period"] == 60
    monkeypatch.setattr(cli_module, "detect_cycle", lambda spec: Periodic(2, 7))
    assert main(["detect-period", "--config", path]) == 0
    assert json.loads(capsys.readouterr().out) == {"status": "periodic", "n0": 2, "period": 7}


def test_missing_config_exits_1(capsys):
    assert main(["simulate", "--config", "/nonexistent/x.json", "-n", "3"]) == 1
    assert capsys.readouterr().err != ""


def test_env_var_overrides_bit_cap(growing_config, capsys, monkeypatch):
    """A streamed CSV export prints the header and every row before the value over the cap."""
    path, spec = growing_config
    pairs = []
    with contextlib.suppress(BitLengthExceededError):
        pairs.extend(naive_pairs(spec, 64))
    expected = io.StringIO()
    csv_writer_export(spec, len(pairs), "exact", expected)
    monkeypatch.setenv("PERISYS_MAX_BITS", "64")
    assert main(["simulate", "--config", path, "-n", "3000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == expected.getvalue()
    assert len(captured.out.splitlines()) == len(pairs) + 1 > 2
    assert "(cap 64)" in captured.err and len(captured.err.splitlines()) == 1
    monkeypatch.delenv("PERISYS_MAX_BITS")
    assert main(["simulate", "--config", path, "-n", "3000", "--backend", "log",
                 "--out", "/dev/null"]) == 0


@pytest.mark.parametrize("command", [
    ["detect-period"],
    ["verify"],
    ["simulate", "-n", "20"],
    ["simulate", "-n", "20", "--format", "json"],
], ids=["detect-period", "verify", "simulate-csv", "simulate-json"])
def test_malformed_cap_fails_on_an_unbounded_spec(command, growing_config, capsys, monkeypatch):
    """The cap is resolved even where the answer needs no exact step, and before any output."""
    path, _ = growing_config
    monkeypatch.setenv("PERISYS_MAX_BITS", "bogus")
    assert main(command + ["--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "PERISYS_MAX_BITS must be an integer" in captured.err
    assert len(captured.err.splitlines()) == 1


def test_unbounded_spec_never_reaches_a_small_cap(growing_config, capsys, monkeypatch):
    path, _ = growing_config
    monkeypatch.setenv("PERISYS_MAX_BITS", "64")
    assert main(["detect-period", "--config", path]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "no-cycle"


@pytest.mark.parametrize("command", [
    ["detect-period", "--config", "CONFIG"],
    ["verify", "--config", "CONFIG"],
    ["sweep", "3", "3"],
])
def test_horizon_flag_is_gone(command, growing_config, capsys):
    path, _ = growing_config
    argv = [path if arg == "CONFIG" else arg for arg in command]
    with pytest.raises(SystemExit) as exited:
        main(argv + ["--horizon", "500"])
    assert exited.value.code == 2
    assert "--horizon" in capsys.readouterr().err


def test_signedlog_long_run_witness_becomes_monotone(growing_config, capsys):
    # stride-12 log magnitudes grow (or decay) cleanly once well past the start
    path, _ = growing_config
    assert main(["simulate", "--config", path, "-n", "10000",
                 "--backend", "log"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    logs = [float(row.split(",")[4]) for row in rows if int(row.split(",")[0]) % 12 == 0]
    tail = logs[-100:]
    climbs = {second > first for first, second in zip(tail, tail[1:])}
    assert len(climbs) == 1


# Package functions that no command runs, each with the reason it stays in src/.
NOT_RUN_BY_COMMANDS = {
    "model.validate": "bound by perfbench/run.py SETUP_CODE and by tracing.COARSE",
    "model.ValidationReport.ok": "bound by perfbench/run.py SETUP_CODE",
    "simulator.trajectory_to_obj": "bound by perfbench tracing.COARSE",
    "simulator.Trajectory.y": "library accessor",
}


def package_functions():
    """Code object of each module-level function and method under src/perisys, by name."""
    found = {}
    for info in pkgutil.iter_modules(perisys.__path__):
        module = importlib.import_module(f"perisys.{info.name}")
        for name, value in vars(module).items():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            members = [(name, value)]
            if isinstance(value, type):
                members = [(f"{name}.{attr}", member) for attr, member in vars(value).items()]
            for qualname, member in members:
                # a property runs its getter; a classmethod or staticmethod its function
                member = getattr(member, "fget", None) or getattr(member, "__func__", member)
                code = getattr(member, "__code__", None)
                # dataclass-generated methods are compiled from strings, not from the module
                if code is not None and code.co_filename == module.__file__:
                    found[f"{info.name}.{qualname}"] = code
    return found


def test_every_package_function_runs_from_a_command(periodic_config, growing_config,
                                                    tmp_path, capsys, monkeypatch):
    """Code that only tests run belongs in tests/, not in the package.

    The exact kernel calls ``check_bits``, and ``component_bits`` under it,
    only for a value over the bit cap, so one more command runs the growing
    spec under a 64-bit cap and must exit 1.  An exact export replays its
    rows only past the block period P, 60 for the periodic spec, so that
    spec is also exported through n = 130.
    """
    out = str(tmp_path / "out")
    commands = [["classify", "-p", "6", "-q", "10"], ["classify", "-p", "2", "-q", "3", "--json"],
                ["sweep", "4", "4", "--trials", "2"],
                ["sweep", "4", "4", "--trials", "2", "--format", "json", "--out", out]]
    for path, _ in (periodic_config, growing_config):
        for backend, fmt in itertools.product(("exact", "log"), ("csv", "json")):
            simulate_argv = ["simulate", "--config", path, "-n", "40",
                             "--backend", backend, "--format", fmt]
            commands += [simulate_argv, simulate_argv + ["--out", out]]
        commands += [["detect-period", "--config", path], ["verify", "--config", path],
                     ["verify", "--config", path, "-n", "5"]]
    commands.append(["simulate", "--config", periodic_config[0], "-n", "130"])

    executed = set()
    cli_module._parser.cache_clear()  # a fresh process builds its parser on the first call

    def record_call(frame, event, arg):
        executed.add(frame.f_code)  # returns None: no line events inside the frame

    capped = ["simulate", "--config", growing_config[0], "-n", "2000"]

    previous = sys.gettrace()
    sys.settrace(record_call)
    try:
        codes = [main(argv) for argv in commands]
        monkeypatch.setenv("PERISYS_MAX_BITS", "64")
        capped_code = main(capped)
    finally:
        sys.settrace(previous)
    assert "(cap 64)" in capsys.readouterr().err
    assert codes == [0] * len(commands)
    assert capped_code == 1
    not_run = {name for name, code in package_functions().items() if code not in executed}
    assert sorted(not_run) == sorted(NOT_RUN_BY_COMMANDS)
