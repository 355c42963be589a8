#!/usr/bin/env python3
"""perisys benchmark: drive the CLI entry point in-process, one operation at a time.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from the root of a perisys checkout; perisys is imported from
./src.  One process and one thread issue `perisys.cli.main` calls in a
closed loop: the next operation starts when the previous one has returned
and its output has been checked.  A run repeats whole rounds of its
workload's operations until --seconds have passed.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
(each operation then runs once untraced and once traced, which gives the
tracing overhead).  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# set-up is sampled before the first round and again after every round,
# so that the samples span the run rather than one moment of it
SETUP_SAMPLES_FIRST = 3
SETUP_SAMPLES_PER_ROUND = 2
SETUP_CODE = """\
import sys
import perisys.cli
from perisys.model import load_spec, validate
for path in sys.argv[1:]:
    if not validate(load_spec(path), "general").ok:
        sys.exit(1)
"""
# the message Python gives when an exact value passes 4300 decimal digits
KNOWN_FAULT = "Exceeds the limit (4300 digits) for integer string conversion"
P90_MIN_OPS = 100


def environment() -> dict:
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                                    capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    package = os.path.join(SRC, "perisys")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return {
        "python": platform.python_version(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def measure_setup(spec_files: list[str], samples: int) -> list[float]:
    """Wall times of fresh interpreters importing perisys and loading the spec files."""
    env = dict(os.environ, PYTHONPATH=SRC)
    command = [sys.executable, "-c", SETUP_CODE, *spec_files]
    times = []
    for _ in range(samples):
        started = time.perf_counter()
        subprocess.run(command, env=env, check=True, capture_output=True)
        times.append(time.perf_counter() - started)
    return times


class Outcome:
    """What one invocation did: exit code, outputs, time and failure details."""

    def __init__(self, op, seconds, code, stdout, stderr):
        self.op = op
        self.seconds = seconds
        self.code = code
        self.stdout = stdout
        self.stderr = stderr
        self.partial_out = bool(op.out) and code != 0 and os.path.exists(op.out)

    @property
    def first_stderr_line(self) -> str:
        lines = self.stderr.strip().splitlines()
        return lines[0] if lines else ""

    @property
    def known_fault(self) -> bool:
        return self.op.expect_fault and self.code == 1 and KNOWN_FAULT in self.first_stderr_line


def invoke(op, tracer=None, op_id=0) -> Outcome:
    """Run one CLI invocation in-process; no output file of an earlier one survives."""
    if op.out and os.path.exists(op.out):
        os.remove(op.out)
    gc.collect()  # start from a collected heap, as a fresh CLI process would
    stdout, stderr = io.StringIO(), io.StringIO()
    cli = sys.modules["perisys.cli"]
    if tracer is not None:
        tracer.install(op_id)
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(op.argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is recorded as a failed operation
        code = "exception"
        stderr.write(traceback.format_exc().splitlines()[-1] + "\n")
    finally:
        seconds = time.perf_counter() - started
        if tracer is not None:
            tracer.uninstall()
    return Outcome(op, seconds, code, stdout.getvalue(), stderr.getvalue())


def check(outcome: Outcome) -> tuple[list[str], dict]:
    """Problems in a successful invocation's output, and the work it did."""
    op = outcome.op
    work = {"specs": op.specs, "exact_steps": 0, "log_steps": 0, "out_bytes": 0,
            "bytes": len(outcome.stdout)}
    try:
        if op.kind == "sweep":
            problems, work["exact_steps"] = checks.check_sweep(
                json.loads(outcome.stdout), op.p, workloads.SWEEP_Q_MAX, workloads.SWEEP_TRIALS)
        elif op.kind == "verify":
            problems, work["exact_steps"] = checks.check_report(
                json.loads(outcome.stdout), op.spec, op.n)
        else:
            if not os.path.exists(op.out):
                return ["no output file"], work
            work["out_bytes"] = os.path.getsize(op.out)
            work["bytes"] += work["out_bytes"]
            if op.exact and op.expect is None:
                op.expect = checks.ExactExpectation(op.spec, op.n)
            problems = checks.check_export(op.out, op.fmt, op.spec, op.n,
                                           op.expect if op.exact else None)
            work["exact_steps" if op.exact else "log_steps"] = op.n
    except json.JSONDecodeError as exc:
        problems = [f"output is not JSON ({exc})"]
    return problems, work


class Run:
    """Accounting for one benchmark run.

    Every round repeats the same operations with the same outputs, so each
    completed operation's work is recorded once, with its fastest
    repetition as its time: on a shared machine the slower repetitions
    measure the neighbours more than the program.
    """

    def __init__(self):
        self.attempted = 0
        self.failures: dict[tuple, int] = {}  # (label, exit, stderr, partial_out) -> count
        self.unexpected: list[str] = []
        self.problems: list[str] = []
        self.latencies: list[float] = []  # every completed repetition
        self.best: dict[int, float] = {}  # operation index -> fastest repetition
        self.work: dict[int, dict] = {}  # operation index -> work of one repetition

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def record(self, index: int, outcome: Outcome) -> None:
        self.attempted += 1
        op = outcome.op
        if outcome.code != 0:
            key = (op.label, outcome.code, outcome.first_stderr_line, outcome.partial_out)
            self.failures[key] = self.failures.get(key, 0) + 1
            if not outcome.known_fault:
                self.unexpected.append(f"{op.label}: exit {outcome.code}: "
                                       f"{outcome.first_stderr_line}")
        else:
            problems, work = check(outcome)
            self.problems += [f"{op.label}: {problem}" for problem in problems]
            self.latencies.append(outcome.seconds)
            self.best[index] = min(outcome.seconds, self.best.get(index, outcome.seconds))
            self.work[index] = work
        if op.out and os.path.exists(op.out):
            os.remove(op.out)

    @property
    def correct(self) -> bool:
        return not self.problems and not self.unexpected and bool(self.best)

    def _rate(self, key: str) -> float:
        done = [i for i, work in self.work.items() if work[key]]
        return sum(self.work[i][key] for i in done) / sum(self.best[i] for i in done)

    def end_to_end(self, setup: list[float]) -> dict:
        return {
            "setup_s": (statistics.median(setup), "s"),
            "specs_per_s": (self._rate("specs"), "specs/s"),
            "exact_steps_per_s": (self._rate("exact_steps"), "steps/s"),
            "output_mb_per_s": (self._rate("bytes") / 1e6, "MB/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    def extra(self) -> dict:
        """Figures that are printed but not part of the JSON result.

        op_p50_s rests on the one or two operations in the middle of a
        round, so it spreads from run to run more than the rates, which
        sum over every operation.
        """
        extra = {"op_p50_s": (statistics.median(self.best.values()), "s")}
        if len(self.latencies) >= P90_MIN_OPS:
            extra["op_p90_s (all repetitions)"] = (
                statistics.quantiles(self.latencies, n=10)[-1], "s")
        if any(work["log_steps"] for work in self.work.values()):
            extra["log_steps_per_s"] = (self._rate("log_steps"), "steps/s")
        return extra


EXACT_STEP, LOG_STEP = "simulator.iter_pairs[exact]", "simulator.iter_pairs[signedlog]"
# Layer figures, each the self time of the spans listed ("module." means
# every span of that module).  The summary prints them in seconds as
# "<name>_s"; the JSON result gives them as "<name>_pct", a share of the
# traced invocation time, because a layer a workload never enters reads 0.
LAYERS = {
    "cli.self": ("cli.main",),
    "model.self": ("model.",),
    "model.load_spec": ("model.load_spec",),
    "numerics.self": ("numerics.",),
    "numerics.format": ("numerics.format_rational",),
    "numerics.to_signed_log": ("numerics.to_signed_log",),
    "simulator.self": ("simulator.",),
    "simulator.exact_step": (EXACT_STEP,),
    "simulator.log_step": (LOG_STEP,),
    "simulator.checks": ("simulator.product_invariant_check", "simulator.x_relation_check"),
    "simulator.export": ("simulator.write_trajectory_csv", "simulator.trajectory_to_obj"),
    "cycle.detect_self": ("cycle.detect_cycle",),
    "closedform.self": ("closedform.",),
    "closedform.checks": ("closedform.second_difference_check", "closedform.block_ratio_check"),
    "closedform.growth_slope": ("closedform.growth_slope",),
    "closedform.drift": ("closedform.drift",),
    "spectral.classify": ("spectral.classify",),
}


def layer_metrics(tracer, run: Run, round_ops: int) -> dict:
    """Per-layer figures of a traced run: self-time shares, per-step cost and counts."""
    wall = tracer.total_ns("cli.main")
    metrics = {f"{name}_pct": (100.0 * tracer.self_ns(*spans) / wall, "%")
               for name, spans in LAYERS.items()}
    metrics.update({
        "simulator.exact_step_us": (tracer.total_ns(EXACT_STEP) / 1e3 / tracer.count(EXACT_STEP),
                                    "us"),
        "simulator.exact_steps": (tracer.count(EXACT_STEP) / run.attempted, "steps/op"),
        "cycle.steps_scanned": (tracer.steps_under("cycle.detect_cycle", EXACT_STEP)
                                / run.attempted, "steps/op"),
        "simulator.export_bytes": (
            sum(work["out_bytes"] for work in run.work.values()) / round_ops, "B/op"),
        "numerics.max_component_bits": (tracer.max_component_bits, "bit"),
    })
    return metrics


def layer_report(tracer, run: Run) -> list[str]:
    """The layer figures in seconds, the step counts and the self time of every span."""
    t = tracer
    lines = [f"  {name + '_s':28s} {t.self_ns(*spans) / 1e9:10.4f} s"
             for name, spans in sorted(LAYERS.items(), key=lambda item: -t.self_ns(*item[1]))]
    scanned = t.steps_under("cycle.detect_cycle", EXACT_STEP)
    lines.append(f"  {'cycle.steps_scanned':28s} {scanned:10d}")
    if scanned:
        lines.append(f"  {'cycle.self_ns_per_step':28s} "
                     f"{t.self_ns('cycle.detect_cycle') / scanned:10.1f} ns")
    for name, label in ((EXACT_STEP, "exact"), (LOG_STEP, "log")):
        if t.count(name):
            lines.append(f"  {'simulator.' + label + '_steps':28s} {t.count(name):10d}")
            lines.append(f"  {'simulator.' + label + '_step_us':28s} "
                         f"{t.total_ns(name) / 1e3 / t.count(name):10.3f} us")
    lines.append(f"  {'simulator.export_bytes':28s} "
                 f"{sum(work['out_bytes'] for work in run.work.values()):10d} per round")
    lines.append(f"  {'numerics.max_component_bits':28s} {t.max_component_bits:10d}")
    lines.append("  self time by span (calls, total s, self s):")
    for name, (count, total, self_ns) in sorted(t.totals.items(), key=lambda item: -item[1][2]):
        lines.append(f"    {name:36s} {count:9d} {total / 1e9:9.4f} {self_ns / 1e9:9.4f}")
    return lines


def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "perisys", "cli.py")):
        print(f"perfbench: no perisys sources in {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import perisys.cli  # noqa: F401  (the entry point driven below)

    workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        spec_files = sorted(os.path.join(workdir, name) for name in os.listdir(workdir))
        measure_setup(spec_files, 1)  # the first start also writes bytecode caches
        setup = measure_setup(spec_files, SETUP_SAMPLES_FIRST)
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
        run = Run()
        overhead = [0.0, 0.0]  # untraced, traced seconds of the same operations
        rounds = 0
        started = time.perf_counter()
        while True:
            for index, op in enumerate(ops):
                if tracer is not None:
                    plain = invoke(op)
                    outcome = invoke(op, tracer, run.attempted + 1)
                    if plain.code != outcome.code:
                        run.unexpected.append(f"{op.label}: exit {plain.code} untraced, "
                                              f"{outcome.code} traced")
                    elif outcome.code == 0:
                        overhead[0] += plain.seconds
                        overhead[1] += outcome.seconds
                else:
                    outcome = invoke(op)
                run.record(index, outcome)
            rounds += 1
            setup += measure_setup(spec_files, SETUP_SAMPLES_PER_ROUND)
            if time.perf_counter() - started >= args.seconds:
                break
        elapsed = time.perf_counter() - started
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            os.rmdir(os.path.dirname(workdir))

    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds of {len(ops)} "
          f"operations in {elapsed:.1f} s; attempted {run.attempted}, failed {run.failed}, "
          f"correct {str(run.correct).lower()}")
    for (label, code, line, partial), count in run.failures.items():
        print(f"  failed x{count}: {label}: exit {code}, partial --out file left: "
              f"{'yes' if partial else 'no'} (removed), stderr: {line}")
    for problem in run.problems[:20] + run.unexpected[:20]:
        print(f"  WRONG: {problem}")
    metrics = {}
    if run.best:
        if tracer is None:
            metrics = run.end_to_end(setup)
            for name, (value, unit) in list(metrics.items()) + list(run.extra().items()):
                print(f"  {name:20s} {value:14.6g} {unit}")
        else:
            metrics = layer_metrics(tracer, run, len(ops))
            untraced, traced = overhead
            print(f"  tracing overhead: {100 * (traced / untraced - 1):.1f}% "
                  f"({traced:.2f} s traced vs {untraced:.2f} s untraced, same operations)")
            print("\n".join(layer_report(tracer, run)))
            for name, (value, unit) in metrics.items():
                print(f"  {name:30s} {value:14.6g} {unit}")
            trace_dir = os.path.join(HERE, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            tracer.dump(os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.jsonl"))
    print("environment " + json.dumps(environment()))
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    status = 0
    for name in workloads.WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        result = subprocess.run(command, cwd=ROOT)
        status = status or result.returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
