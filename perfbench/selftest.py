#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs perisys on small inputs, confirms that each workload's checker
accepts the genuine output, then corrupts it (a wrong period, one altered
CSV literal, a report with a "fail" entry, ...) and confirms that the
checker rejects every corrupted copy.  Exits 0 when all cases behave.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import os
import random
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from perisys.cli import main as perisys_main  # noqa: E402


def perisys(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = perisys_main(list(argv))
    if code != 0:
        raise RuntimeError(f"perisys {' '.join(argv)} exited {code}")
    return out.getvalue()


class Cases:
    def __init__(self):
        self.failures = 0
        self.count = 0

    def expect(self, name: str, problems: list[str], accepted: bool) -> None:
        self.count += 1
        ok = (not problems) == accepted
        verdict = "accepted" if not problems else f"rejected ({problems[0]})"
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}")
        self.failures += not ok


def sweep_cases(cases: Cases) -> None:
    p, q_max, trials = 4, 9, 2
    rows = json.loads(perisys("sweep", str(p), str(q_max), "--trials", str(trials),
                              "--p-min", str(p), "--seed", "3", "--format", "json"))
    cases.expect("sweep genuine", checks.check_sweep(rows, p, q_max, trials)[0], True)

    periodic = next(row for row in rows if row["outcomes"][0]["status"] == "periodic")
    wrong_period = copy.deepcopy(rows)
    row = wrong_period[rows.index(periodic)]
    row["outcomes"][0]["period"] = 2 * row["outcomes"][0]["period"] * (p + row["q"]) + 1
    cases.expect("sweep wrong period", checks.check_sweep(wrong_period, p, q_max, trials)[0],
                 False)

    wrong_regime = copy.deepcopy(rows)
    wrong_regime[0]["classification"]["regime"] = "EventuallyPeriodic" \
        if checks.unbounded(p, p + 1) else "GenericallyUnbounded"
    cases.expect("sweep wrong regime", checks.check_sweep(wrong_regime, p, q_max, trials)[0],
                 False)

    inconsistent = copy.deepcopy(rows)
    inconsistent[-1]["verdict"] = "INCONSISTENT"
    cases.expect("sweep INCONSISTENT row",
                 checks.check_sweep(inconsistent, p, q_max, trials)[0], False)


def verify_cases(cases: Cases, workdir: str) -> None:
    rng = random.Random(5)
    n = 400
    for name, a, b in (("periodic", 1, 1), ("drift-double", 2, 1)):
        spec = workloads.signed_spec(rng, 6, 10, a, b)
        path = workloads.write_spec(workdir, f"{name}.json", spec)
        report = json.loads(perisys("verify", "--config", path, "-n", str(n)))
        cases.expect(f"verify {name} genuine", checks.check_report(report, spec, n)[0], True)

        failing = copy.deepcopy(report)
        failing["checks"]["product_invariant"] = "fail"
        cases.expect(f"verify {name} with a fail entry",
                     checks.check_report(failing, spec, n)[0], False)

        if report["cycle"]["status"] == "periodic":
            for wrong in (report["cycle"]["period"] - 1, 2 * report["cycle"]["period"]):
                bad = copy.deepcopy(report)
                bad["cycle"]["period"] = wrong
                cases.expect(f"verify {name} period {wrong}",
                             checks.check_report(bad, spec, n)[0], False)
        else:
            bad = dict(report, cycle={"status": "periodic", "n0": 0, "period": 60})
            cases.expect(f"verify {name} claiming a cycle",
                         checks.check_report(bad, spec, n)[0], False)


def _rewrite(path: str, edit) -> None:
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    edit(rows)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle).writerows(rows)


def export_cases(cases: Cases, workdir: str) -> None:
    rng = random.Random(7)
    n = 60
    spec = workloads.positive_spec(rng, 2, 3, 1, 16)
    path = workloads.write_spec(workdir, "export.json", spec)
    out = os.path.join(workdir, "export.out")
    expect = checks.ExactExpectation(spec, n)

    for fmt in ("csv", "json"):
        perisys("simulate", "--config", path, "-n", str(n), "--format", fmt, "--out", out)
        cases.expect(f"exact {fmt} genuine", checks.check_export(out, fmt, spec, n, expect), True)

    perisys("simulate", "--config", path, "-n", str(n), "--out", out)

    def alter_literal(rows):
        num, _, den = rows[40][1].partition("/")
        rows[40][1] = f"{int(num) + 1}/{den}" if den else str(int(num) + 1)
    _rewrite(out, alter_literal)
    cases.expect("exact csv one altered literal",
                 checks.check_export(out, "csv", spec, n, expect), False)

    perisys("simulate", "--config", path, "-n", str(n), "--out", out)
    _rewrite(out, lambda rows: rows.pop())
    cases.expect("exact csv one row short", checks.check_export(out, "csv", spec, n, expect),
                 False)

    perisys("simulate", "--config", path, "-n", str(n), "--format", "json", "--out", out)
    with open(out, encoding="utf-8") as handle:
        doc = json.load(handle)
    doc["rows"][10]["y"] = doc["rows"][11]["y"]
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    cases.expect("exact json one swapped literal",
                 checks.check_export(out, "json", spec, n, expect), False)

    for fmt in ("csv", "json"):
        perisys("simulate", "--config", path, "-n", str(n), "--backend", "log",
                "--format", fmt, "--out", out)
        cases.expect(f"log {fmt} genuine", checks.check_export(out, fmt, spec, n, None), True)

    perisys("simulate", "--config", path, "-n", str(n), "--backend", "log", "--out", out)

    def nudge_log(rows):
        rows[30][4] = repr(float(rows[30][4]) * (1 + 1e-9))
    _rewrite(out, nudge_log)
    cases.expect("log csv one log value off by 1e-9",
                 checks.check_export(out, "csv", spec, n, None), False)


def main() -> int:
    workdir = os.path.join(HERE, ".work", f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    cases = Cases()
    try:
        sweep_cases(cases)
        verify_cases(cases, workdir)
        export_cases(cases, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            os.rmdir(os.path.dirname(workdir))
    print(f"selftest: {cases.count} cases, {cases.failures} wrong")
    return 1 if cases.failures else 0


if __name__ == "__main__":
    sys.exit(main())
