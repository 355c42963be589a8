"""Output checks for the benchmark workloads.

Every check either recomputes what it compares against with the few lines
of exact arithmetic in this file, or tests a property the method must
have (regime rule, period bound, block ratio, log-space recurrence).  None
of them compares against a stored copy of an earlier run's output.

Each checker returns a list of problems; an empty list means the output
is correct.  Checkers never raise on malformed output: a parse error is a
problem like any other.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import deque
from fractions import Fraction

CSV_HEADER = ["n", "x", "y", "sign_x", "log_abs_x", "sign_y", "log_abs_y"]
PASSING = ("pass", "pass-degenerate")
EXACT_LOG_RTOL = 1e-9
# Python refuses int<->str conversions past this many digits by default;
# the helpers below split longer numbers so the checks never hit the limit.
_CHUNK_DIGITS = 4000
_CHUNK = 10 ** _CHUNK_DIGITS


def v2(n: int) -> int:
    """Exponent of 2 in a positive integer."""
    return (n & -n).bit_length() - 1


def unbounded(p: int, q: int) -> bool:
    """Generic solutions are unbounded iff v2(p) > v2(q) (a repeated root)."""
    return v2(p) > v2(q)


def decimal(n: int) -> str:
    """Decimal text of an integer of any size."""
    if n < 0:
        return "-" + decimal(-n)
    if n < _CHUNK:
        return str(n)
    high, low = divmod(n, _CHUNK)
    return decimal(high) + str(low).zfill(_CHUNK_DIGITS)


def literal(value: Fraction) -> str:
    """The rational literal "num/den" (or "num" for integers) of any size."""
    if value.denominator == 1:
        return decimal(value.numerator)
    return f"{decimal(value.numerator)}/{decimal(value.denominator)}"


def log_abs(value: Fraction) -> float:
    """Natural log of |value|; math.log accepts integers of any size."""
    return math.log(abs(value.numerator)) - math.log(value.denominator)


def component_bits(value: Fraction) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def spec_values(spec: dict) -> tuple[Fraction, Fraction, list, list]:
    """a, b and the initial x and y values of a spec document, as Fractions."""
    return (Fraction(spec["a"]), Fraction(spec["b"]),
            [Fraction(v) for v in spec["x_init"]], [Fraction(v) for v in spec["y_init"]])


def pairs(spec: dict):
    """Yield (n, x_n, y_n) for n = 1, 2, ... straight from the defining recurrence

        x_n = a / y_{n-p},   y_n = b y_{n-p} / (x_{n-q} y_{n-q})

    with the q initial pairs at indices -q+1 .. 0.
    """
    p, q = spec["p"], spec["q"]
    a, b, xs, ys = spec_values(spec)
    xs, ys = deque(xs, maxlen=q), deque(ys, maxlen=q)  # hold indices n-q .. n-1
    n = 0
    while True:
        n += 1
        y_p = ys[q - p]
        x = a / y_p
        y = b * y_p / (xs[0] * ys[0])
        xs.append(x)
        ys.append(y)
        yield n, x, y


def trajectory(spec: dict, n_max: int) -> tuple[list, list]:
    """x and y at indices -q+1 .. n_max; index k sits at position k + q - 1."""
    _, _, xs, ys = spec_values(spec)
    for n, x, y in pairs(spec):
        if n > n_max:
            break
        xs.append(x)
        ys.append(y)
    return xs, ys


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n) if n % d == 0]


# --------------------------------------------------------------------- sweep

def check_sweep(rows, p: int, q_max: int, trials: int) -> tuple[list[str], int]:
    """Problems in one `sweep --format json` p-slice, and the exact steps it scanned.

    A detector run stops at step n0 + period when it finds a cycle and at
    its horizon otherwise, so the scanned steps follow from the outcomes.
    """
    problems: list[str] = []
    steps = 0
    if not isinstance(rows, list) or len(rows) != q_max - p:
        return [f"expected {q_max - p} rows for p={p}"], 0
    for q, row in zip(range(p + 1, q_max + 1), rows):
        where = f"row ({p}, {q})"
        try:
            if (row["p"], row["q"]) != (p, q):
                problems.append(f"{where}: reported as ({row['p']}, {row['q']})")
                continue
            expected = "GenericallyUnbounded" if unbounded(p, q) else "EventuallyPeriodic"
            if row["classification"]["regime"] != expected:
                problems.append(f"{where}: regime {row['classification']['regime']}, "
                                f"expected {expected}")
            if row["verdict"] == "INCONSISTENT":
                problems.append(f"{where}: INCONSISTENT")
            if len(row["outcomes"]) != trials:
                problems.append(f"{where}: {len(row['outcomes'])} outcomes, expected {trials}")
            m = math.lcm(p, 2 * q)
            for outcome in row["outcomes"]:
                if outcome["status"] == "periodic":
                    steps += outcome["n0"] + outcome["period"]
                    if outcome["period"] < 1 or m % outcome["period"] != 0:
                        problems.append(f"{where}: period {outcome['period']} does not "
                                        f"divide lcm(p, 2q) = {m}")
                elif outcome["status"] == "no-cycle":
                    steps += outcome["horizon"]
                    if expected == "EventuallyPeriodic":
                        problems.append(f"{where}: no cycle in a periodic regime")
                else:
                    problems.append(f"{where}: unknown outcome {outcome!r}")
        except (KeyError, TypeError) as exc:
            problems.append(f"{where}: malformed ({exc!r})")
    return problems, steps


# -------------------------------------------------------------------- verify

def check_report(report, spec: dict, n: int) -> tuple[list[str], int]:
    """Problems in one `verify` report, and the exact steps it generated.

    The reported cycle is replayed on this file's own recurrence: pairs
    repeat with the reported period from n0 on, and with no proper divisor
    of it.  The block law x_{n+m} = c^(q/g) x_n is confirmed on the same
    values; for |c| != 1 it also rules out any cycle.
    """
    problems: list[str] = []
    try:
        p, q = spec["p"], spec["q"]
        if report["spec"] != spec:
            problems.append("spec echo differs from the input spec")
        if report["n"] != n:
            problems.append(f"report n={report['n']}, expected {n}")
        failing = {name: value for name, value in report["checks"].items()
                   if value not in PASSING}
        if failing:
            problems.append(f"checks not passing: {failing}")
        expected = "GenericallyUnbounded" if unbounded(p, q) else "EventuallyPeriodic"
        if report["classification"]["regime"] != expected:
            problems.append(f"regime {report['classification']['regime']}, expected {expected}")
        cycle = report["cycle"]
        m = math.lcm(p, 2 * q)
        g = math.gcd(p, q)
        c = Fraction(spec["a"]) / Fraction(spec["b"])
        if cycle["status"] == "periodic":
            n0, period = cycle["n0"], cycle["period"]
            detector_steps = n0 + period
            xs, ys = trajectory(spec, max(n0 + 2 * period, 3 * m))
            at = q - 1  # position of index 0

            def repeats(shift: int) -> bool:
                return all(xs[at + k] == xs[at + k + shift] and ys[at + k] == ys[at + k + shift]
                           for k in range(n0, n0 + period))

            if period < 1 or not repeats(period):
                problems.append(f"pairs do not repeat with period {period} from n0={n0}")
            elif any(repeats(d) for d in divisors(period)):
                problems.append(f"period {period} is not minimal")
        elif cycle["status"] == "no-cycle":
            detector_steps = cycle["horizon"]
            xs, ys = trajectory(spec, 3 * m)
            at = q - 1
            if abs(c) == 1 and expected == "EventuallyPeriodic":
                problems.append("no cycle reported for |c| = 1 in a periodic regime")
        else:
            return problems + [f"unknown cycle status {cycle!r}"], 0
        if (p // g) % 2 == 1:
            ratio = c ** (q // g)
            if not all(xs[at + k + m] == ratio * xs[at + k] for k in range(1, 2 * m + 1)):
                problems.append(f"x_(n+{m}) != c^(q/g) x_n on the replayed trajectory")
    except (KeyError, TypeError, ValueError) as exc:
        return problems + [f"malformed report ({exc!r})"], 0
    return problems, n + detector_steps


# -------------------------------------------------------------------- export

class ExactExpectation:
    """What an exact export of ``spec`` through ``n`` must contain.

    Holds a digest of the expected literal columns and the expected signs
    and logs, computed once from this file's recurrence, so that checking
    a repeated export costs a parse and a hash rather than a recomputation.
    """

    def __init__(self, spec: dict, n: int):
        digest = hashlib.sha256()
        self.n = n
        self.signs_logs: list[tuple[int, float, int, float]] = []
        for k, x, y in pairs(spec):
            if k > n:
                break
            digest.update(f"{literal(x)},{literal(y)}\n".encode())
            self.signs_logs.append((1 if x > 0 else -1, log_abs(x), 1 if y > 0 else -1, log_abs(y)))
        self.digest = digest.hexdigest()


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * max(1.0, abs(want))


def _check_exact_rows(rows, expect: ExactExpectation) -> list[str]:
    digest = hashlib.sha256()
    problems: list[str] = []
    count = 0
    for count, row in enumerate(rows, start=1):
        n, x, y, sx, lx, sy, ly = row
        digest.update(f"{x},{y}\n".encode())
        if count > expect.n:
            continue
        want = expect.signs_logs[count - 1]
        if int(n) != count:
            problems.append(f"row {count}: index {n}")
        if (int(sx), int(sy)) != (want[0], want[2]):
            problems.append(f"row {count}: signs ({sx}, {sy}), expected ({want[0]}, {want[2]})")
        if not (_close(float(lx), want[1], EXACT_LOG_RTOL)
                and _close(float(ly), want[3], EXACT_LOG_RTOL)):
            problems.append(f"row {count}: logs ({lx}, {ly}) differ from the exact logs")
        if len(problems) > 5:
            break
    if count != expect.n:
        problems.append(f"{count} rows, expected {expect.n}")
    elif digest.hexdigest() != expect.digest:
        problems.append("exact literals differ from the recurrence")
    return problems


def _check_log_rows(rows, spec: dict, n_expected: int) -> list[str]:
    """Rows of a log-backend export must follow the log-space recurrence

        sign(x_n) = sign(a) sign(y_{n-p}),  L(x_n) = L(a) - L(y_{n-p})
        sign(y_n) = sign(b) sign(y_{n-p}) sign(x_{n-q}) sign(y_{n-q}),
        L(y_n) = L(b) + L(y_{n-p}) - L(x_{n-q}) - L(y_{n-q})

    step by step, each step computed from the previous rows of the same
    output, to within float rounding of the terms involved.
    """
    p, q = spec["p"], spec["q"]
    a, b, x_init, y_init = spec_values(spec)
    sa, la = (1 if a > 0 else -1), log_abs(a)
    sb, lb = (1 if b > 0 else -1), log_abs(b)
    xs = deque((((1 if v > 0 else -1), log_abs(v)) for v in x_init), maxlen=q)
    ys = deque((((1 if v > 0 else -1), log_abs(v)) for v in y_init), maxlen=q)
    problems: list[str] = []
    count = 0
    for count, row in enumerate(rows, start=1):
        n, x, y, sx, lx, sy, ly = row
        sx, sy, lx, ly = int(sx), int(sy), float(lx), float(ly)
        (syp, lyp), (sxq, lxq), (syq, lyq) = ys[q - p], xs[0], ys[0]
        want_x = (sa * syp, la - lyp)
        want_y = (sb * syp * sxq * syq, lb + lyp - lxq - lyq)
        tol_x = 4e-16 * (abs(la) + abs(lyp) + 1.0)
        tol_y = 8e-16 * (abs(lb) + abs(lyp) + abs(lxq) + abs(lyq) + 1.0)
        if int(n) != count or x != "" or y != "":
            problems.append(f"row {count}: index {n} or non-empty exact columns")
        if sx != want_x[0] or sy != want_y[0]:
            problems.append(f"row {count}: signs ({sx}, {sy}), expected ({want_x[0]}, {want_y[0]})")
        if abs(lx - want_x[1]) > tol_x or abs(ly - want_y[1]) > tol_y:
            problems.append(f"row {count}: logs break the log-space recurrence")
        if len(problems) > 5:
            break
        xs.append((sx, lx))
        ys.append((sy, ly))
    if count != n_expected and len(problems) <= 5:
        problems.append(f"{count} rows, expected {n_expected}")
    return problems


def _csv_rows(handle):
    reader = csv.reader(handle)
    if next(reader, None) != CSV_HEADER:
        raise ValueError("missing or wrong CSV header")
    for row in reader:
        if len(row) != len(CSV_HEADER):
            raise ValueError(f"CSV row with {len(row)} fields")
        yield row


def check_export(path: str, fmt: str, spec: dict, n: int,
                 expect: ExactExpectation | None) -> list[str]:
    """Problems in one `simulate --out` file.

    ``expect`` is given for exact exports and None for log-backend ones.
    """
    problems: list[str] = []
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            if fmt == "csv":
                rows = _csv_rows(handle)
            else:
                doc = json.load(handle)
                if doc["spec"] != spec or doc["n"] != n:
                    problems.append("spec echo or n differs from the input")
                if doc["backend"] != ("exact" if expect else "signedlog"):
                    problems.append(f"backend {doc['backend']!r}")
                rows = ([rec[key] for key in CSV_HEADER] for rec in doc["rows"])
            if expect is not None:
                problems += _check_exact_rows(rows, expect)
            else:
                problems += _check_log_rows(rows, spec, n)
            return problems
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable export ({exc!r})"]
