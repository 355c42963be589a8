"""Command-line surface: classify, simulate, detect-period, verify, sweep.

Every command is deterministic given its flags (sweep additionally takes a
seed).  Exit codes: 0 success / all checks pass, 1 bad spec, failed
checks or a closed stdout, 2 usage errors.  The environment variable
PERISYS_MAX_BITS sets the cap on exact-value bit length.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import random
import sys
from dataclasses import dataclass

from .closedform import _block_ratio, block_ratio_check, drift, growth_slope
from .cycle import CycleResult, Periodic, detect_cycle
from .errors import PerisysError, TooFewPointsError
from .model import SystemSpec, load_spec, random_positive_spec, spec_to_obj
from .simulator import (
    BACKEND_EXACT,
    BACKEND_SIGNEDLOG,
    product_invariant_check,
    simulate,
    write_trajectory_csv,
    write_trajectory_json,
    x_relation_check,
)
from .spectral import Classification, Regime, classify

VERDICT_CONSISTENT = "CONSISTENT"
VERDICT_DEGENERATE = "CONSISTENT-DEGENERATE"
VERDICT_INCONSISTENT = "INCONSISTENT"

_BACKEND_ALIASES = {"exact": BACKEND_EXACT, "log": BACKEND_SIGNEDLOG}


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def classification_line(result: Classification) -> str:
    if result.regime is Regime.EVENTUALLY_PERIODIC:
        return (
            f"{result.regime.value} period={result.predicted_period} "
            f"reason={result.reason.value}"
        )
    suffix = " (lcm)" if result.reason.value == "even-quotient" else ""
    return (
        f"{result.regime.value} witness={result.witness_modulus}{suffix} "
        f"reason={result.reason.value}"
    )


def agreement(classification: Classification, spec: SystemSpec, result: CycleResult) -> str:
    """Classifier/detector agreement: "pass", "fail" or "pass-degenerate".

    A detector-found cycle inside a generically unbounded regime counts as
    "pass-degenerate" (special initial data, not a contradiction).
    Agreement accounts for c = a/b: the classifier speaks about the |c| = 1
    magnitude structure, so with drift (|c| != 1) it expects no exact
    cycle.  In a periodic regime with |c| = 1 generic data has the exact
    period E = predicted_period * (1 if c^(q/d) = 1 else 2), where c^(q/d),
    d = gcd(p, 2q), is the block ratio (:func:`closedform._block_ratio`,
    which ``drift`` reports): "pass" iff the period
    is E, "pass-degenerate" iff it is a proper divisor of E (special
    data), and "fail" otherwise.  E comes from the spec alone, never from
    the kernel's block multipliers, so the check stays independent of it.
    """
    periodic = isinstance(result, Periodic)
    if abs(spec.c) != 1:
        # drift scales magnitudes by |c|^(1/2p) per step, so an exact cycle
        # is impossible for any delays; the block-ratio law is the periodic
        # structure that remains
        return "fail" if periodic else "pass"
    if classification.regime is Regime.EVENTUALLY_PERIODIC:
        # c^(q/d) = -1 flips x over each block, doubling the joint period
        expected = classification.predicted_period * (1 if _block_ratio(spec) == 1 else 2)
        if periodic and result.period == expected:
            return "pass"
        return "pass-degenerate" if periodic and expected % result.period == 0 else "fail"
    return "pass-degenerate" if periodic else "pass"


def build_run_report(spec: SystemSpec, n: int | None = None) -> dict:
    """Bundle every applicable exact check plus classifier/detector agreement.

    Check values are "pass" / "fail", and "pass-degenerate" for agreement
    (see :func:`agreement`).  Every law holds in every regime, so a law
    is skipped only when the trajectory is too short for it; it is then
    listed under "skipped" with the law's own "needs n >= N" reason.
    """
    classification = classify(spec.p, spec.q)
    stride = classification.predicted_period or classification.witness_modulus
    if n is None:
        n = max(2 * math.lcm(spec.p, 2 * spec.q) + 2 * spec.q, 3 * stride + spec.q)
    traj = simulate(spec, n)

    checks: dict[str, str] = {}
    skipped: dict[str, str] = {}
    # looked up per call, so a rebound module attribute takes effect
    laws = (("product_invariant", product_invariant_check), ("x_relation", x_relation_check),
            ("block_ratio", block_ratio_check))
    for name, law in laws:
        try:
            checks[name] = "pass" if law(traj) else "fail"
        except TooFewPointsError as exc:
            skipped[name] = str(exc)

    cycle_result = detect_cycle(spec)
    checks["classifier_detector_agreement"] = agreement(classification, spec, cycle_result)

    try:
        slopes = [(stride, 0, growth_slope(traj, stride, 0))]
    except TooFewPointsError:
        slopes = []

    return {
        "spec": spec_to_obj(spec),
        "n": n,
        "classification": classification.to_obj(),
        "cycle": cycle_result.to_obj(),
        "checks": checks,
        "skipped": skipped,
        "drift": drift(spec).to_obj(),
        "slopes": slopes,
    }


@dataclass(frozen=True)
class SweepRow:
    p: int
    q: int
    classification: Classification
    outcomes: tuple[CycleResult, ...]
    verdict: str


def sweep_grid(p_max: int, q_max: int, trials: int, seed: int = 0,
               p_min: int = 1) -> list[SweepRow]:
    """Classify every 1 <= p < q <= bounds and confront `trials` random specs each.

    Each trial spec (a = b = 1, positive initial data) gets its own PRNG
    seeded from (seed, p, q, trial), so rows are reproducible regardless of
    execution order.  A row is INCONSISTENT if any trial's agreement fails,
    else CONSISTENT-DEGENERATE if any is "pass-degenerate".
    """
    rows = []
    for p in range(p_min, p_max + 1):
        for q in range(p + 1, q_max + 1):
            classification = classify(p, q)
            outcomes, agreements = [], set()
            for trial in range(trials):
                rng = random.Random(f"{seed}:{p}:{q}:{trial}")
                spec = random_positive_spec(rng, p, q)
                result = detect_cycle(spec)
                outcomes.append(result)
                agreements.add(agreement(classification, spec, result))
            rows.append(SweepRow(
                p=p, q=q,
                classification=classification,
                outcomes=tuple(outcomes),
                verdict=(VERDICT_INCONSISTENT if "fail" in agreements
                         else VERDICT_DEGENERATE if "pass-degenerate" in agreements
                         else VERDICT_CONSISTENT),
            ))
    return rows


def _sweep_row_line(row: SweepRow) -> str:
    cls = row.classification
    modulus = cls.predicted_period if cls.predicted_period is not None else cls.witness_modulus
    outcome_text = ";".join(
        str(res.period) if isinstance(res, Periodic) else "none"
        for res in row.outcomes
    )
    return f"{row.p},{row.q},{cls.regime.value},{modulus},{row.verdict},{outcome_text}"


# One sweep row, and one outcome of it, at the indent of
# json.dump(rows, indent=2), each beginning with the newline before it, so
# that "," joins them.  Strings are enum values and verdicts that need no
# escaping; ints render as json renders them, and None as null.
_SWEEP_JSON_ROW = """
  {{
    "p": {},
    "q": {},
    "classification": {{
      "regime": "{}",
      "reason": "{}",
      "predicted_period": {},
      "witness_modulus": {}
    }},
    "outcomes": [{}
    ],
    "verdict": "{}"
  }}"""
_PERIODIC_JSON = """
      {{
        "status": "periodic",
        "n0": {},
        "period": {}
      }}"""
_NO_CYCLE_JSON = """
      {{
        "status": "no-cycle",
        "horizon": {}
      }}"""


def _json_int(value: int | None):
    return "null" if value is None else value


def _sweep_row_json(row: SweepRow) -> str:
    """``row`` as ``json.dump(rows, stream, indent=2)`` writes it, without the "," after it."""
    cls = row.classification
    outcomes = ",".join(
        _PERIODIC_JSON.format(res.preperiod, res.period) if isinstance(res, Periodic)
        else _NO_CYCLE_JSON.format(res.horizon)
        for res in row.outcomes)
    return _SWEEP_JSON_ROW.format(row.p, row.q, cls.regime.value, cls.reason.value,
                                  _json_int(cls.predicted_period),
                                  _json_int(cls.witness_modulus), outcomes, row.verdict)


@contextlib.contextmanager
def _open_out(path):
    """Stdout, or the --out file; a regular file is removed if the body raises.

    Opening happens outside the cleanup, so a file that could not be opened
    is left alone; /dev/null and other non-regular paths are never removed.
    """
    if path is None:
        yield sys.stdout
        return
    stream = open(path, "w", encoding="utf-8", newline="")
    try:
        with stream:
            yield stream
    except BaseException:
        if os.path.isfile(path):
            os.remove(path)
        raise


def cmd_classify(args) -> int:
    result = classify(args.p, args.q)
    if args.json:
        print(json.dumps(result.to_obj()))
    else:
        print(classification_line(result))
    return 0


def cmd_simulate(args) -> int:
    spec = load_spec(args.config)
    write = write_trajectory_csv if args.format == "csv" else write_trajectory_json
    with _open_out(args.out) as stream:
        write(spec, args.n, _BACKEND_ALIASES[args.backend], stream)
    return 0


def cmd_detect_period(args) -> int:
    spec = load_spec(args.config)
    result = detect_cycle(spec)
    print(json.dumps(result.to_obj()))
    return 0


def cmd_verify(args) -> int:
    spec = load_spec(args.config)
    report = build_run_report(spec, args.n)
    print(json.dumps(report, indent=2))
    failing = sorted(name for name, value in report["checks"].items() if value == "fail")
    if failing:
        print(f"failed checks: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


def cmd_sweep(args) -> int:
    rows = sweep_grid(args.p_max, args.q_max, args.trials, seed=args.seed, p_min=args.p_min)
    with _open_out(args.out) as stream:
        if args.format == "json":
            text = ",".join(_sweep_row_json(row) for row in rows)
            stream.write(f"[{text}\n]\n" if rows else "[]\n")
        else:
            stream.write("p,q,regime,modulus,verdict,outcomes\n")
            for row in rows:
                stream.write(_sweep_row_line(row) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perisys",
        description="Exact simulation and symbolic periodicity analysis of the "
                    "coupled rational recurrence x_n = a/y_{n-p}, "
                    "y_n = b y_{n-p}/(x_{n-q} y_{n-q}).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cls = sub.add_parser("classify", help="predict regime and period from p, q alone")
    cls.add_argument("-p", type=_positive_int, required=True)
    cls.add_argument("-q", type=_positive_int, required=True)
    cls.add_argument("--json", action="store_true", help="emit JSON instead of one line")
    cls.set_defaults(handler=cmd_classify)

    sim = sub.add_parser("simulate", help="export a trajectory")
    sim.add_argument("--config", required=True, help="spec file (JSON)")
    sim.add_argument("-n", type=_positive_int, required=True, help="steps to generate")
    sim.add_argument("--backend", choices=sorted(_BACKEND_ALIASES), default="exact")
    sim.add_argument("--format", choices=("csv", "json"), default="csv")
    sim.add_argument("--out", help="output path (default: stdout)")
    sim.set_defaults(handler=cmd_simulate)

    det = sub.add_parser("detect-period", help="find minimal preperiod and period")
    det.add_argument("--config", required=True)
    det.set_defaults(handler=cmd_detect_period)

    ver = sub.add_parser("verify", help="run all exact checks and report")
    ver.add_argument("--config", required=True)
    ver.add_argument("-n", type=_positive_int, default=None)
    ver.set_defaults(handler=cmd_verify)

    swp = sub.add_parser("sweep", help="classifier-vs-detector grid over p < q")
    swp.add_argument("p_max", type=_positive_int)
    swp.add_argument("q_max", type=_positive_int)
    swp.add_argument("--trials", type=_positive_int, default=3,
                     help="random specs per (p, q); default 3")
    swp.add_argument("--p-min", type=_positive_int, default=1)
    swp.add_argument("--seed", type=int, default=0)
    swp.add_argument("--format", choices=("csv", "json"), default="csv")
    swp.add_argument("--out", help="output path (default: stdout)")
    swp.set_defaults(handler=cmd_sweep)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`build_parser`, built on the first :func:`main` call of a process.

    Parsing leaves a parser unchanged, so one serves every later call.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early, so the output is incomplete: exit 1,
        # quietly.  fd 1 goes to devnull so the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (PerisysError, ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
