"""Recorded mutants of ``src/perisys``, each of which the tier-1 tests must kill.

Each entry names a mutant, the file it changes, the exact text it
replaces, the text it puts in its place, and the tests expected to kill
it, as test files or, where a file's hypothesis tests would take long to
shrink their counterexample first, as pytest node ids.  Run from
anywhere, with pytest installed:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

The runner first checks that the listed tests pass on an unchanged copy.
Then, for each mutant, it copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory, applies the one replacement
and runs ``pytest -x`` on the mutant's tests there.  A mutant is killed
when pytest exits 1 or 2: a test fails, or collecting the tests does (a
module-level call into the mutated code can raise).  A mutant fails the
run when its old text does not occur exactly once, so a change that
moves the code must restate its mutants here, and when the mutated file
does not compile, so that no syntax error passes for a kill.  The exit
code is 1 if any mutant survived or could not be applied, else 0.
Standard library only.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    killers: tuple[str, ...]  # test files or node ids, relative to the repository root


SIMULATOR, CYCLE = "src/perisys/simulator.py", "src/perisys/cycle.py"
CLOSEDFORM, MODEL, CLI = "src/perisys/closedform.py", "src/perisys/model.py", "src/perisys/cli.py"
TEST_SIMULATOR, TEST_CYCLE = "tests/test_simulator.py", "tests/test_cycle.py"
TEST_CLI = "tests/test_cli.py"
TEST_REPEATS = ("tests/test_exact_checks.py::"
                "test_checks_on_long_periodic_trajectories_match_the_oracles")
TEST_CAP = "tests/test_simulator.py::test_cap_straddling_the_widest_stored_value"
TEST_SMALL_CAP = ("tests/test_simulator.py::"
                  "test_small_cap_raises_the_literal_recurrences_first_error")
TEST_GROWTH = "tests/test_closedform.py::test_growth_slope_matches_the_regression_oracle"
TEST_BLOCK_LAW = "tests/test_simulator.py::test_rows_past_the_block_follow_the_block_law"
TEST_SETTLING = "tests/test_simulator.py::test_a_chain_settles_only_on_a_gcd_of_1"
TEST_MULTIPLIER = "tests/test_exact_checks.py::test_corrupted_multiplier_fails_a_law"
TEST_REGIMES = "tests/test_closedform.py::test_block_law_holds_in_both_regimes"
TEST_DRAWS = "tests/test_cycle.py::test_period_search_draws_a_short_prefix"
TEST_PINNED = "tests/test_exact_checks.py::test_pinned_corruption_fails_check_and_oracle"
TEST_SHIFT = "tests/test_exact_checks.py::test_a_block_ratio_of_period_2q_but_not_d_fails"
TEST_X_CAP = ("tests/test_simulator.py::"
              "test_csv_export_streams_the_rows_before_an_x_over_the_cap_past_the_block")
TEST_DRAW = "tests/test_model.py::test_random_positive_spec_draws_as_randint_does"
TEST_SWEEP_JSON = "tests/test_cli.py::test_sweep_json_is_json_dump_of_the_row_objects"

MUTANTS = (
    # the detector answers period 1, which properly divides every E, so
    # agreement reads degenerate where generic data must read pass
    Mutant("period-1 detector", CYCLE,
           "    period = next(t for t in range(1, size + 1)",
           "    period = 1 or next(t for t in range(1, size + 1)",
           (TEST_CYCLE, TEST_CLI)),
    # the detector answers twice the minimal period, 2E on generic data
    Mutant("period-2E detector", CYCLE,
           "if size % t == 0 and is_period(t))",
           "if size % t == 0 and is_period(t)) * 2",
           (TEST_CYCLE, TEST_CLI)),
    # a divisor t is a period whenever the p values y_{t+1-p} .. y_t repeat
    # the initial ones, whatever K does under a shift by t
    Mutant("rotation test skipped", CYCLE,
           "        if coefficients[shift:] + coefficients[:shift] != coefficients:\n"
           "            return False\n",
           "",
           (TEST_CYCLE,)),
    # t = M with P = 2M passes undrawn, although some R_r = -1 makes
    # y_{n+M} = -y_n
    Mutant("M | t taken as a period", CYCLE,
           "        if t % block == 0:\n            return False",
           "        if t % block == 0:\n            return True",
           (TEST_DRAWS,)),
    # the backward window divides y_{j+p} by K_{j+p+1}, so the pairs T
    # later that the preperiod compares are wrong wherever K varies
    Mutant("backward step reads K_{j+p+1}", CYCLE,
           "coefficients[(j + p - 1) % (2 * q)]",
           "coefficients[(j + p) % (2 * q)]",
           (TEST_CYCLE,)),
    # the detector replays the whole block before its search, so a cap that
    # only a pair past the search's draws passes fails a spec that answers
    Mutant("detector replays its block under the cap", CYCLE,
           "    later = draws()\n",
           "    list(itertools.islice(iter_pairs(spec), size))\n    later = draws()\n",
           ("tests/test_cycle.py::test_cap_meets_only_the_drawn_prefix",)),
    # K and R keep a negative denominator: not the canonical pair
    Mutant("_reduced without its sign move", SIMULATOR,
           "    if den < 0:\n        g = -g\n",
           "",
           (TEST_SIMULATOR,)),
    # the comparison engine reads w from v's columns, so the product
    # invariant (v = y, w = 1/x) no longer reads x
    Mutant("engine reads only v's columns", SIMULATOR,
           "itertools.islice(w_nums, first - lag, None), itertools.islice(w_dens, first - lag, None),",
           "itertools.islice(v_nums, first - lag, None), itertools.islice(v_dens, first - lag, None),",
           (TEST_REPEATS,)),
    # the engine stops one offset before the last stored one, so the last
    # value, index n_max, is never compared as v
    Mutant("engine stops one offset short", SIMULATOR,
           "itertools.islice(v_nums, first, None), itertools.islice(v_dens, first, None),",
           "itertools.islice(v_nums, first, len(v_nums) - 1), itertools.islice(v_dens, first, None),",
           (TEST_REPEATS,)),
    # the kernel makes x_{n_max} one step coefficient K too large past M, so
    # the values that the laws compare are no longer all the kernel's
    Mutant("kernel value past M off by one K", SIMULATOR,
           "    deque(_exact_steps(spec, cap, step_coefficients(spec), n_max, *columns), maxlen=0)\n",
           "    coefficients = step_coefficients(spec)\n"
           "    deque(_exact_steps(spec, cap, coefficients, n_max, *columns), maxlen=0)\n"
           "    if n_max > math.lcm(spec.p, 2 * spec.q):\n"
           "        columns[0][-1] *= coefficients[(n_max - 1) % (2 * spec.q)].numerator\n"
           "        columns[1][-1] *= coefficients[(n_max - 1) % (2 * spec.q)].denominator\n",
           (TEST_REPEATS,)),
    # the shifted-product laws compare the first q values past the head
    # with the head itself instead of with the law's constant over it
    Mutant("shifted product without its const/W half", SIMULATOR,
           "[(c_num * h_den, c_den * h_num) for h_num, h_den in head] + head",
           "head + head",
           ("tests/test_exact_checks.py::test_corrupted_y_fails_product_invariant",)),
    # the kernel tests only x_n against the cap, so a y_n over it is
    # stored or yielded, and the error comes p steps later, from x_{n+p}
    Mutant("kernel skips its y cap test", SIMULATOR,
           "        if y_num.bit_length() > cap or y_den.bit_length() > cap:\n"
           "            check_bits(Rational(y_num, y_den), cap)\n"
           "        append_x_num(x_num)\n",
           "        append_x_num(x_num)\n",
           ("tests/test_simulator.py::test_bit_length_cap_enforced", TEST_SMALL_CAP)),
    # an exact export past the block period renumbers its replayed rows from P + 2
    Mutant("replay renumbered from P + 2", SIMULATOR,
           "zip(range(len(stored) + 1, n_steps + 1)",
           "zip(range(len(stored) + 2, n_steps + 2)",
           (TEST_SIMULATOR,)),
    # the renderer reuses m's text when only the divisor is 1, whatever the factor
    Mutant("renderer reuses a text when only the divisor is 1", SIMULATOR,
           "    if divisor == 1 and factor == 1:\n        return rendered",
           "    if divisor == 1:\n        return rendered",
           (TEST_SIMULATOR,)),
    # an export past M multiplies y_{n-M} by the multiplier of class n + 1
    Mutant("export's block law reads R of class n + 1", SIMULATOR,
           "chains = [[*multipliers[(j + 1) % d], True, True] for j in range(block)]",
           "chains = [[*multipliers[(j + 2) % d], True, True] for j in range(block)]",
           (TEST_BLOCK_LAW,)),
    # a chain of the export's block law takes no further gcd after its
    # first, whatever that gcd was
    Mutant("chain settled after a gcd other than 1", SIMULATOR,
           "chain[2], chain[3] = g1 != 1, g2 != 1",
           "chain[2], chain[3] = False, False",
           (TEST_SETTLING,)),
    # past M the export tests only y_n against the cap, so an x_n over it
    # is written, and the error comes later, if at all
    Mutant("block rows skip the x cap test", SIMULATOR,
           "        if x_num.bit_length() > cap or x_den.bit_length() > cap:\n"
           "            check_bits(Rational(x_num, x_den), cap)\n"
           "        # y_n = y_{n-M} R\n",
           "        # y_n = y_{n-M} R\n",
           (TEST_X_CAP,)),
    # x_n past M is 1/y_{n-p} times a with no cross gcd, so not reduced
    Mutant("block-law x skips a's reduction", SIMULATOR,
           "g1, g2 = _gcd(den, a_den), _gcd(num, a_num)\n        x_num, x_num_rendered",
           "g1, g2 = 1, 1\n        x_num, x_num_rendered",
           (TEST_BLOCK_LAW, TEST_SETTLING)),
    # the growth ratio reads its denominator one index late, x_{t+1} for x_t
    Mutant("growth ratio one index off", CLOSEDFORM,
           "traj.x(t + m) / traj.x(t)",
           "traj.x(t + m) / traj.x(t + 1)",
           (TEST_GROWTH,)),
    # the block law and drift take the one ratio c^(q/d) for every spec,
    # which clean data fails wherever d does not divide q
    Mutant("d | q constant for every spec", CLOSEDFORM,
           "    return spec.c ** (spec.q // d) if spec.q % d == 0 else None",
           "    return spec.c ** (spec.q // d)",
           (TEST_REGIMES,)),
    # the d | q reference is read from the trajectory, x_{M+1} / x_1, and
    # never checked against c^(q/d), so a block scaled by a wrong R passes
    # wherever d = 1
    Mutant("block law without its constant", CLOSEDFORM,
           "[ratio.as_integer_ratio()]",
           "[(traj.x(m + 1) / traj.x(1)).as_integer_ratio()]",
           (TEST_MULTIPLIER,)),
    # the law starts at x_{M+2}, its head one class late, so x_{M+1} is
    # never compared with x_1
    Mutant("block law one class late", CLOSEDFORM,
           "x, first = (traj.x_nums, traj.x_dens), spec.q + m  #",
           "x, first = (traj.x_nums, traj.x_dens), spec.q + m + 1  #",
           (TEST_PINNED,)),
    # the law's floor is one index low, so a trajectory that ends just
    # before the first comparison passes it vacuously instead of being refused
    Mutant("block law floor one comparison short", CLOSEDFORM,
           "    floor = m + 1 if ratio is not None else m + d // 2 + 1",
           "    floor = m if ratio is not None else m + d // 2",
           ("tests/test_closedform.py::test_block_ratio_needs_enough_steps",)),
    # the d-not-dividing-q law shifts by q, not d/2: W_n W_{n-q} = c^(2q/d)
    # holds for every W of period 2q, so W need not repeat with period d
    Mutant("shift q for d/2", CLOSEDFORM,
           "m, first, d // 2, spec.c",
           "m, first, spec.q, spec.c",
           (TEST_SHIFT,)),
    # the first component drawn becomes the denominator, so every value is
    # the reciprocal of randint's
    Mutant("denominator drawn before numerator", MODEL,
           "drawn.append(values[num << 4 | den])",
           "drawn.append(values[den << 4 | num])",
           (TEST_DRAW,)),
    # four bits never need a second draw, so the spec and the generator's
    # state both leave randint's
    Mutant("getrandbits(4) draw", MODEL,
           "values, bits = _positive_values(), rng.getrandbits",
           "values, bits = _positive_values(), lambda k: rng.getrandbits(k - 1)",
           (TEST_DRAW,)),
    # a classification's missing period or modulus is written as None,
    # which is not JSON
    Mutant("template renders None for null", CLI,
           '    return "null" if value is None else value',
           "    return value",
           (TEST_SWEEP_JSON,)),
)


def _pytest(tree: str, files) -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *files], cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def _copy(tree: str) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, os.path.join(tree, part), ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", tree)


def run(mutant: Mutant | None, files) -> str | None:
    """Why ``mutant`` was not killed, or ``None`` if it was; no mutant means the unchanged copy."""
    with tempfile.TemporaryDirectory(prefix="perisys-mutant-") as tree:
        _copy(tree)
        if mutant is None:
            code = _pytest(tree, files)
            return None if code == 0 else f"the unchanged copy fails its tests (pytest exit {code})"
        target = pathlib.Path(tree, mutant.path)
        text = target.read_text(encoding="utf-8")
        found = text.count(mutant.old)
        if found != 1:
            return f"its old text occurs {found} times in {mutant.path}"
        text = text.replace(mutant.old, mutant.new)
        try:
            compile(text, mutant.path, "exec")
        except SyntaxError as exc:
            return f"the mutated file does not compile: {exc}"
        target.write_text(text, encoding="utf-8")
        code = _pytest(tree, files)
        return None if code in (1, 2) else f"it survived (pytest exit {code})"


def main(names) -> int:
    unknown = set(names) - {mutant.name for mutant in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [mutant for mutant in MUTANTS if not names or mutant.name in names]
    files = sorted({file for mutant in chosen for file in mutant.killers})
    failures = 0
    for mutant in [None, *chosen]:
        start = time.perf_counter()
        problem = run(mutant, files if mutant is None else mutant.killers)
        failures += problem is not None
        label = "unchanged copy" if mutant is None else mutant.name
        print(f"{'FAIL' if problem else 'ok':4s} {time.perf_counter() - start:6.1f} s  {label}"
              + (f": {problem}" if problem else ""), flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
