"""Per-layer spans and counters, recorded from outside the library.

``Tracer.install()`` replaces each traced function of ``ihscone`` by a
wrapper under every name a caller looks it up by (``ihscone.cli.analyze``,
``ihscone.engine.analyze``, ``ihscone.weyl.fm_satisfiable`` and so on), and
``uninstall()`` puts the originals back. Spans nest through one stack: a
span's self time is its duration minus the time of its child spans, and a
span's total time counts only its outermost occurrence, so a name that
calls itself (Smith form inside ``discriminant_group``) is not counted twice.
Spans are aggregated per name in memory as they close.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from time import perf_counter


@dataclass
class SpanStats:
    calls: int = 0
    outer_calls: int = 0
    total: float = 0.0  # outermost occurrences only
    self: float = 0.0


def _x_digits(solution):
    # decimal digits from the bit length: converting to str is what fails
    # above 4300 digits, and costs more than the measurement should
    return int(solution.x.bit_length() * 0.30102999566398120) + 1


# (span name, defining module, function names); all share the span name.
SPANS = [
    ("cli.main", "cli", ["main"]),
    ("cli.parse_input", "cli", ["parse_input"]),
    ("cli.run", "cli", ["run_analyze", "run_enumerate", "run_reduce", "run_alpha",
                        "run_pell", "run_rank2", "run_plot_section"]),
    ("engine.analyze", "engine", ["analyze"]),
    ("engine.enumerate", "engine", ["enumerate_exceptional"]),
    ("engine.classify_rank2", "engine", ["classify_rank2"]),
    ("weyl.wall_test", "weyl", ["is_chamber_wall"]),
    ("weyl.reduce", "weyl", ["weyl_reduce"]),
    ("polyhedra.fm", "polyhedra", ["fm_satisfiable"]),
    ("polyhedra.dd", "polyhedra", ["dd_generators"]),
    ("lattice.signature", "lattice", ["signature"]),
    ("lattice.snf", "lattice", ["smith_normal_form", "discriminant_group"]),
    ("pell.solve", "pell", ["fundamental_solution", "second_solution", "solution_with_residue"]),
    ("alphas.alpha", "alphas", ["build_context", "alpha_case_a", "alpha_case_b", "alpha_effective"]),
    ("svg.render", "svg", ["render_section"]),
]
# counted only: timing each call would cost more than the call
COUNTERS = [
    ("lattice.pairing", "lattice", "pairing"),
    ("lattice.divisibility", "lattice", "divisibility"),
]


class Tracer:
    def __init__(self):
        self.stats: dict[str, SpanStats] = {name: SpanStats() for name, _, _ in SPANS}
        self.counts: dict[str, float] = {name: 0 for name, _, _ in COUNTERS}
        self.counts.update({"engine.classes": 0, "weyl.wall_hits": 0, "weyl.reduce_steps": 0,
                            "polyhedra.dd_rays": 0, "pell.x_digits": 0})
        self._stack: list[list[float]] = []  # [child seconds] of each open span
        self._depth: dict[str, int] = {name: 0 for name, _, _ in SPANS}
        self._patches: list[tuple[object, str, object]] = []
        self._on_result = {
            "engine.enumerate": lambda r: self._add("engine.classes", len(r)),
            "weyl.wall_test": lambda r: self._add("weyl.wall_hits", int(bool(r))),
            "weyl.reduce": lambda r: self._add("weyl.reduce_steps", r.steps),
            "polyhedra.dd": lambda r: self._add("polyhedra.dd_rays", len(r[1])),
            "pell.solve": self._pell_result,
        }

    def _add(self, key, amount):
        self.counts[key] += amount

    def _pell_result(self, solution):
        self.counts["pell.x_digits"] = max(self.counts["pell.x_digits"], _x_digits(solution))

    def _span(self, name, fn):
        stats, stack, depth = self.stats[name], self._stack, self._depth
        on_result = self._on_result.get(name)

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                depth[name] -= 1
                stats.calls += 1
                stats.self += duration - frame[0]
                if depth[name] == 0:
                    stats.outer_calls += 1
                    stats.total += duration
                if stack:
                    stack[-1][0] += duration
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch_everywhere(self, module_name, attr, make):
        original = getattr(sys.modules[f"ihscone.{module_name}"], attr)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "ihscone" or mod_name.startswith("ihscone.")) and getattr(mod, attr, None) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def install(self):
        for name, module_name, attrs in SPANS:
            for attr in attrs:
                self._patch_everywhere(module_name, attr, lambda fn, name=name: self._span(name, fn))
        for name, module_name, attr in COUNTERS:
            self._patch_everywhere(module_name, attr, lambda fn, name=name: self._counter(name, fn))

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metric name -> (value, unit) for one traced pass."""
        s, c = self.stats, self.counts
        enum_s = s["engine.enumerate"].total
        wall_tests = s["weyl.wall_test"].calls
        return {
            "cli.parse_s": (s["cli.parse_input"].total, "s"),
            "cli.self_s": (s["cli.main"].self, "s"),
            "engine.enumerate_s": (enum_s, "s"),
            "engine.enumerate_calls": (s["engine.enumerate"].calls, "count"),
            "engine.classes": (c["engine.classes"], "count"),
            "engine.classes_per_s": (c["engine.classes"] / enum_s if enum_s else 0.0, "1/s"),
            "engine.analyze_self_s": (s["engine.analyze"].self, "s"),
            "engine.rank2_self_s": (s["engine.classify_rank2"].self, "s"),
            "weyl.wall_test_s": (s["weyl.wall_test"].total, "s"),
            "weyl.wall_tests": (wall_tests, "count"),
            "weyl.wall_hit_ratio": (c["weyl.wall_hits"] / wall_tests if wall_tests else 0.0, "ratio"),
            "weyl.reduce_s": (s["weyl.reduce"].total, "s"),
            "weyl.reduce_steps": (c["weyl.reduce_steps"], "count"),
            "polyhedra.fm_s": (s["polyhedra.fm"].total, "s"),
            "polyhedra.fm_calls": (s["polyhedra.fm"].calls, "count"),
            "polyhedra.dd_s": (s["polyhedra.dd"].total, "s"),
            "polyhedra.dd_calls": (s["polyhedra.dd"].calls, "count"),
            "polyhedra.dd_rays": (c["polyhedra.dd_rays"], "count"),
            "lattice.signature_s": (s["lattice.signature"].total, "s"),
            "lattice.snf_s": (s["lattice.snf"].total, "s"),
            "lattice.pairing_calls": (c["lattice.pairing"], "count"),
            "lattice.divisibility_calls": (c["lattice.divisibility"], "count"),
            "pell.solve_s": (s["pell.solve"].total, "s"),
            "pell.solves": (s["pell.solve"].outer_calls, "count"),
            "pell.x_digits": (c["pell.x_digits"], "digits"),
            "alphas.alpha_s": (s["alphas.alpha"].self, "s"),
            "alphas.calls": (s["alphas.alpha"].calls, "count"),
            "svg.render_s": (s["svg.render"].total, "s"),
            "svg.renders": (s["svg.render"].calls, "count"),
        }
