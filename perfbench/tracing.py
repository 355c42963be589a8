"""Spans around calls into perisys's modules, recorded from outside the package.

Tracing rebinds the public functions listed below in every perisys module
namespace that holds them, so calls between modules go through a wrapper;
uninstalling restores the originals.  Nothing under src/ changes.

Coarse calls each leave one span (id, name, start, end, parent id,
operation id).  Per-step calls (each next() of the pair iterator, literal
formatting, signed-log conversion) leave one aggregated span per
operation, parent and name, with a call count, so a run of millions of
steps stays small.  All spans stay in memory until the run ends.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time

MODULES = ("cli", "model", "numerics", "simulator", "cycle", "closedform", "spectral")

COARSE = {
    "cli": ("main",),
    "model": ("load_spec", "validate", "random_positive_spec", "spec_to_obj"),
    "simulator": ("simulate", "product_invariant_check", "x_relation_check",
                  "write_trajectory_csv", "trajectory_to_obj"),
    "cycle": ("detect_cycle",),
    "closedform": ("second_difference_check", "block_ratio_check", "growth_slope", "drift"),
    "spectral": ("classify",),
}
PER_STEP = {"numerics": ("format_rational", "to_signed_log", "parse_rational")}
PAIR_ITERATOR = ("simulator", "iter_pairs")


def _modules():
    return [sys.modules["perisys"]] + [sys.modules[f"perisys.{name}"] for name in MODULES]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent_id, op_id)
        self.steps: dict[tuple, list] = {}  # (op_id, parent_id, name) -> [count, ns, first, last]
        self.totals: dict[str, list] = {}  # name -> [count, total_ns, self_ns]
        self.max_component_bits = 0
        self.op_id = 0
        # [name, start_ns, child_ns, span_id or None, id of the innermost coarse span]
        self._stack: list[list] = []
        self._next_id = 1
        self._bindings: list[tuple] = []  # (module, attribute, original, wrapper)
        self._build_wrappers()

    # ---------------------------------------------------------------- spans
    def _enter(self, name: str, per_step: bool) -> None:
        context = self._stack[-1][4] if self._stack else None
        span_id = None
        if not per_step:
            span_id = context = self._next_id
            self._next_id += 1
        self._stack.append([name, time.perf_counter_ns(), 0, span_id, context])

    def _exit(self) -> None:
        end = time.perf_counter_ns()
        name, start, child_ns, span_id, _ = self._stack.pop()
        duration = end - start
        parent_id = None
        if self._stack:
            self._stack[-1][2] += duration
            parent_id = self._stack[-1][4]
        total = self.totals.setdefault(name, [0, 0, 0])
        total[0] += 1
        total[1] += duration
        total[2] += duration - child_ns
        if span_id is not None:
            self.spans.append((span_id, name, start, end, parent_id, self.op_id))
        else:
            key = (self.op_id, parent_id, name)
            agg = self.steps.get(key)
            if agg is None:
                self.steps[key] = [1, duration, start, end]
            else:
                agg[0] += 1
                agg[1] += duration
                agg[3] = end

    def _span(self, func, name: str, per_step: bool):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            self._enter(name, per_step)
            try:
                return func(*args, **kwargs)
            finally:
                self._exit()
        return wrapper

    def _steps(self, gen, name: str):
        try:
            while True:
                self._enter(name, True)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._exit()
                yield item
        finally:
            gen.close()

    # ------------------------------------------------------------- bindings
    def _build_wrappers(self) -> None:
        wrappers = {}
        for module, names in list(COARSE.items()) + list(PER_STEP.items()):
            home = sys.modules[f"perisys.{module}"]
            for name in names:
                original = getattr(home, name)
                wrappers[original] = self._span(original, f"{module}.{name}", module in PER_STEP)

        home = sys.modules[f"perisys.{PAIR_ITERATOR[0]}"]
        iter_pairs = getattr(home, PAIR_ITERATOR[1])

        @functools.wraps(iter_pairs)
        def traced_iter_pairs(spec, backend=home.BACKEND_EXACT, *args, **kwargs):
            gen = iter_pairs(spec, backend, *args, **kwargs)
            return self._steps(gen, f"simulator.iter_pairs[{backend}]")
        wrappers[iter_pairs] = traced_iter_pairs

        numerics = sys.modules["perisys.numerics"]
        component_bits = numerics.component_bits

        @functools.wraps(component_bits)
        def counting_component_bits(value):
            bits = component_bits(value)
            if bits > self.max_component_bits:
                self.max_component_bits = bits
            return bits
        wrappers[component_bits] = counting_component_bits

        for module in _modules():
            for attribute, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    self._bindings.append((module, attribute, value, wrappers[value]))

    def install(self, op_id: int) -> None:
        self.op_id = op_id
        for module, attribute, _, wrapper in self._bindings:
            setattr(module, attribute, wrapper)

    def uninstall(self) -> None:
        for module, attribute, original, _ in self._bindings:
            setattr(module, attribute, original)

    # -------------------------------------------------------------- summary
    def steps_under(self, parent_name: str, step_name: str) -> int:
        """Calls of ``step_name`` made directly inside spans named ``parent_name``."""
        names = {span[0]: span[1] for span in self.spans}
        return sum(agg[0] for (_, parent, name), agg in self.steps.items()
                   if name == step_name and names.get(parent) == parent_name)

    def self_ns(self, *names: str) -> int:
        """Summed self time of the named spans; "module." names every span of a module."""
        return sum(total[2] for name, total in self.totals.items()
                   if any(name == n or (n.endswith(".") and name.startswith(n)) for n in names))

    def total_ns(self, *names: str) -> int:
        return sum(self.totals.get(name, (0, 0, 0))[1] for name in names)

    def count(self, name: str) -> int:
        return self.totals.get(name, (0, 0, 0))[0]

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(("id", "name", "start_ns", "end_ns",
                                                  "parent", "op"), span))) + "\n")
            for (op_id, parent, name), (count, ns, first, last) in self.steps.items():
                handle.write(json.dumps({"name": name, "op": op_id, "parent": parent,
                                         "calls": count, "ns": ns, "first_ns": first,
                                         "last_ns": last}) + "\n")
