"""In-memory spans around the package's layer functions, for the traced run.

The tracer replaces each function at the name its caller looks up (a module
global, or the CLI's command table) with a wrapper that records
(name, start, end, parent) and a few counters.  Nothing in the package is
edited; ``Tracer.uninstall`` puts the original objects back.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

# (module, attribute, span name).  cs_xi, bounds_box and max_constrained are
# imported by name into cli and simulate, so each importing module is patched.
PATCHES = [
    ("cli", "ingest_csv", "cli.ingest_csv"),
    ("cli", "read_intervals_csv", "cli.read_intervals_csv"),
    ("cli", "read_query_csv", "cli.read_query_csv"),
    ("cli", "cs_xi", "confset.cs_xi"),
    ("cli", "cs_combined", "confset.cs_combined"),
    ("cli", "bounds_box", "welfare.bounds_box"),
    ("cli", "max_constrained", "welfare.max_constrained"),
    ("cli", "mc_table1", "simulate.mc_table1"),
    ("confset", "cs_xi", "confset.cs_xi"),
    ("confset", "profile_stats", "confset.profile_stats"),
    ("confset", "xi", "xicor.xi"),
    ("confset", "fit_inverse_demand", "regress.fit_inverse_demand"),
    ("simulate", "cs_xi", "confset.cs_xi"),
    ("simulate", "draw_sample", "simulate.draw_sample"),
    ("simulate", "bounds_box", "welfare.bounds_box"),
    ("simulate", "max_constrained", "welfare.max_constrained"),
]
# main() dispatches through this table, not through the module globals.
COMMANDS = {"ci": "cli.cmd_ci", "welfare": "cli.cmd_welfare", "mc": "cli.cmd_mc"}

STEPS = ("mc", "ci", "welfare_intersect", "welfare_box_k10", "welfare_sum_k3", "welfare_sum_k50")

# Per-layer metrics: (span, stat, unit, better).  calls, s, self_s and the
# counters are per traced round; per_call_s and nodes_per_s are ratios.
LAYER_METRICS = [
    ("confset.profile_stats", "calls", "count", "lower"),
    ("confset.profile_stats", "s", "s", "lower"),
    ("confset.profile_stats", "nodes", "count", "lower"),
    ("confset.profile_stats", "nodes_per_s", "1/s", "higher"),
    ("confset", "tie_redo_nodes", "count", "lower"),
    ("xicor.xi", "calls", "count", "lower"),
    ("xicor.xi", "s", "s", "lower"),
    ("confset.cs_xi", "calls", "count", "lower"),
    ("confset.cs_xi", "s", "s", "lower"),
    ("confset.cs_combined", "calls", "count", "lower"),
    ("confset.cs_combined", "s", "s", "lower"),
    ("regress.fit_inverse_demand", "calls", "count", "lower"),
    ("regress.fit_inverse_demand", "s", "s", "lower"),
    ("welfare.max_constrained", "calls", "count", "lower"),
    ("welfare.max_constrained", "s", "s", "lower"),
    ("welfare.max_constrained", "per_call_s", "s", "lower"),
    ("welfare.max_constrained", "uncertified", "count", "lower"),
    ("welfare.bounds_box", "calls", "count", "lower"),
    ("welfare.bounds_box", "s", "s", "lower"),
    ("cli.read_query_csv", "s", "s", "lower"),
    ("cli.cmd_welfare", "self_s", "s", "lower"),
    ("cli.ingest_csv", "s", "s", "lower"),
    ("cli.read_intervals_csv", "s", "s", "lower"),
    ("cli.cmd_ci", "self_s", "s", "lower"),
    ("cli.cmd_mc", "self_s", "s", "lower"),
    ("simulate.draw_sample", "s", "s", "lower"),
    ("simulate.mc_table1", "self_s", "s", "lower"),
] + [(f"step.{step}", "s", "s", "lower") for step in STEPS]


def _nodes(args, kwargs) -> int:
    thetas = kwargs["thetas"] if "thetas" in kwargs else args[3]
    return len(thetas)


class Tracer:
    """Records spans and counters while installed; one instance per traced run."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or None]
        self.counts: dict = defaultdict(float)
        self._stack: list = []
        self._saved: list = []

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, stack[-1] if stack else None]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if name == "confset.profile_stats":
                counts["confset.profile_stats.nodes"] += _nodes(args, kwargs)
            elif name == "xicor.xi":
                counts["confset.tie_redo_nodes"] += 1
            elif name == "welfare.max_constrained":
                counts["welfare.max_constrained.uncertified"] += not result.min_certified
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark itself opens, around one CLI step."""
        record = [name, time.perf_counter(), None, None]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def install(self, modules: dict) -> None:
        for mod_name, attr, name in PATCHES:
            mod = modules[mod_name]
            original = getattr(mod, attr, None)
            if callable(original):
                self._saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(name, original))
        table = modules["cli"]._COMMANDS
        for command, name in COMMANDS.items():
            if command in table:
                self._saved.append((table, command, table[command]))
                table[command] = self.wrap(name, table[command])

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._saved.clear()

    def totals(self) -> dict:
        """name -> {calls, s, self_s} over all recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child[i]
        return out

    def layer_metrics(self, rounds: int) -> dict:
        """Every LAYER_METRICS entry for a trace of ``rounds`` rounds."""
        totals = self.totals()
        metrics = {}
        for span, stat, unit, _ in LAYER_METRICS:
            key = f"{span}.{stat}"
            row = totals.get(span, {"calls": 0, "s": 0.0, "self_s": 0.0})
            if stat == "per_call_s":
                value = row["s"] / row["calls"] if row["calls"] else 0.0
            elif stat == "nodes_per_s":
                value = self.counts[f"{span}.nodes"] / row["s"] if row["s"] else 0.0
            elif stat in row:
                value = row[stat] / rounds
            else:
                value = self.counts.get(key, 0.0) / rounds
            metrics[key] = {"value": value, "unit": unit}
        return metrics

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
