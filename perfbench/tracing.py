"""Span tracing from outside the toolkit, and the per-layer metrics built on it.

``Tracer.installed`` replaces public functions of the toolkit's modules
(and two ``Game`` methods) with span recorders, and puts the originals
back on exit.  Calls that go through module globals, such as
``price_of_stability -> pure_nash`` or ``has_fip -> improvement_graph``,
resolve to the recorders too.  A span is ``[name, start, end, parent
index, op key]``; spans stay in memory until the benchmark writes them
out.  A layer's self time is its spans' durations minus the time their
direct child spans take.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

CLI_COMMANDS = ("generate", "level", "analyze", "sweep", "dynamics")
ANALYSIS_FUNCTIONS = (
    "pure_nash", "social_optima", "stable_social_optima", "social_optimum_value",
    "selfishness_level", "price_of_stability", "price_of_anarchy", "is_nash",
    "upper_contour", "is_alpha_selfish", "selfishness_function",
)
GRAPH_WALKS = ("has_fip", "is_weakly_acyclic", "ordinal_potential_certificate")

# Per-layer metrics: (name, unit).  All of them are better when lower.
PER_LAYER = (
    [(f"cli.{c}.total_s", "s") for c in CLI_COMMANDS]
    + [("cli.self_s", "s"),
       ("gamedoc.parse.self_s", "s"), ("gamedoc.parse.bytes", "bytes"),
       ("gamedoc.render.self_s", "s"), ("gamedoc.render.bytes", "bytes"),
       ("gamedoc.report.self_s", "s"),
       ("core.game_init.calls", "count"), ("core.game_init.self_s", "s"),
       ("core.game_init.cells", "count"),
       ("core.negated.calls", "count"), ("core.negated.self_s", "s"),
       ("families.generate.self_s", "s"), ("families.generate.cells", "count"),
       ("families.symmetric_form.payoff_calls", "count")]
    + [(f"analysis.{k}.{m}", u) for k in ANALYSIS_FUNCTIONS
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("analysis.pure_nash.calls_per_game", "ratio"),
       ("analysis.social_optima.calls_per_game", "ratio"),
       ("analysis.symmetric_selfishness_level.self_s", "s"),
       ("analysis.symmetric_selfishness_level.orbits", "count"),
       ("transforms.altruistic.calls", "count"), ("transforms.altruistic.self_s", "s"),
       ("transforms.altruistic.cells", "count"),
       ("dynamics.improvement_graph.calls", "count"),
       ("dynamics.improvement_graph.self_s", "s"),
       ("dynamics.improvement_graph.per_report", "ratio"),
       ("dynamics.edges", "count"), ("dynamics.graph_walk.self_s", "s"),
       ("closedform.closed_form_level.calls", "count"),
       ("closedform.closed_form_level.self_s", "s"),
       ("closedform.max_discrepancy.self_s", "s"),
       ("py.gc.collections", "count"), ("py.gc.pause_s", "s"),
       ("proc.cpu_s", "s"), ("host.calib_s", "s"), ("trace.overhead_s", "s")]
)

# Metrics that count work; they must repeat exactly from rep to rep.
EXACT_SUFFIXES = (".calls", ".cells", ".orbits", ".edges", ".bytes", ".per_report",
                  ".calls_per_game", ".payoff_calls")


def is_exact(name: str) -> bool:
    return name.endswith(EXACT_SUFFIXES)


class Tracer:
    """Records spans and work counts while installed."""

    def __init__(self, lib):
        self.lib = lib
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = None
        self.kept: list[list[list]] = []
        self._stack: list[int] = []

    def reset(self) -> None:
        """Start a new rep; the spans recorded so far stay in ``kept``."""
        self.spans, self.counts, self._stack = [], Counter(), []
        self.kept.append(self.spans)

    def _wrap(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def recorder(*args, **kwargs):
            record = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.op]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer._stack.pop()
            if count is not None:
                count(tracer.counts, args, result)
            return result

        return recorder

    def _counting_form(self, symmetric_form):
        tracer = self

        @functools.wraps(symmetric_form)
        def counted(spec):
            form = symmetric_form(spec)
            payoff = form.payoff

            def counted_payoff(j, rest):
                tracer.counts["families.symmetric_form.payoff_calls"] += 1
                return payoff(j, rest)

            return dataclasses.replace(form, payoff=counted_payoff)

        return counted

    def _patches(self):
        """(owner, attribute, replacement) for every recorded entry point."""
        lib = self.lib

        def add(key):
            return lambda counts, args, result: counts.__setitem__(key, counts[key] + 1)

        def arg_bytes(counts, args, result):
            counts["gamedoc.parse.bytes"] += len(args[0])

        def result_bytes(counts, args, result):
            counts["gamedoc.render.bytes"] += len(result)

        def report_bytes(counts, args, result):
            # The digits of a timing vary from call to call; they are not work.
            timings = args[1] if len(args) > 1 and args[1] else {}
            counts["gamedoc.render.bytes"] += len(result) - sum(
                len(json.dumps(value)) for value in timings.values())

        def init_cells(counts, args, result):
            counts["core.game_init.cells"] += len(args[0].payoffs)

        def generated_cells(counts, args, result):
            counts["families.generate.cells"] += result.cell_count

        def altruistic_cells(counts, args, result):
            counts["transforms.altruistic.cells"] += args[0].cell_count

        def edges(counts, args, result):
            counts["dynamics.edges"] += result.edge_count

        def orbits(counts, args, result):
            n, m = args[0], args[1]
            counts["analysis.symmetric_selfishness_level.orbits"] += math.comb(n + m - 1, n)

        game = lib.core.Game
        table = [
            (lib.cli, "main", "cli.main", None),
            *((lib.cli, f"cmd_{c}", f"cli.{c}", None) for c in CLI_COMMANDS),
            (lib.gamedoc, "parse_game_document", "gamedoc.parse", arg_bytes),
            (lib.gamedoc, "render_game_document", "gamedoc.render", result_bytes),
            (lib.gamedoc, "render_report", "gamedoc.render", report_bytes),
            (lib.gamedoc, "analyze_report", "gamedoc.report", None),
            (lib.gamedoc, "dynamics_report", "gamedoc.report", add("dynamics_reports")),
            (lib.gamedoc, "sweep_report", "gamedoc.report", None),
            (game, "__post_init__", "core.game_init", init_cells),
            (game, "negated", "core.negated", None),
            (lib.families, "generate", "families.generate", generated_cells),
            *((lib.analysis, k, f"analysis.{k}", None) for k in ANALYSIS_FUNCTIONS),
            (lib.analysis, "symmetric_selfishness_level",
             "analysis.symmetric_selfishness_level", orbits),
            (lib.transforms, "altruistic", "transforms.altruistic", altruistic_cells),
            (lib.dynamics, "improvement_graph", "dynamics.improvement_graph", edges),
            *((lib.dynamics, k, "dynamics.graph_walk", None) for k in GRAPH_WALKS),
            (lib.closedform, "closed_form_level", "closedform.closed_form_level", None),
            (lib.closedform, "max_discrepancy", "closedform.max_discrepancy", None),
        ]
        patches = [(owner, attr, self._wrap(name, getattr(owner, attr), count))
                   for owner, attr, name, count in table]
        patches.append((lib.families, "symmetric_form",
                        self._counting_form(lib.families.symmetric_form)))
        return patches

    @contextmanager
    def installed(self):
        patches = self._patches()
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, replacement in patches:
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    def layer_metrics(self, games_per_rep: int) -> dict[str, float]:
        """Per-layer metrics of the spans and counts recorded since ``reset``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1

        def ratio(numerator, base):
            return numerator / base if base else 0.0

        counts = self.counts
        m: dict[str, float] = {f"cli.{c}.total_s": total[f"cli.{c}"] for c in CLI_COMMANDS}
        m["cli.self_s"] = own["cli.main"] + sum(own[f"cli.{c}"] for c in CLI_COMMANDS)
        for layer in ("gamedoc.parse", "gamedoc.render", "gamedoc.report", "core.game_init",
                      "core.negated", "families.generate", "transforms.altruistic",
                      "dynamics.improvement_graph", "dynamics.graph_walk",
                      "closedform.closed_form_level", "closedform.max_discrepancy",
                      "analysis.symmetric_selfishness_level",
                      *(f"analysis.{k}" for k in ANALYSIS_FUNCTIONS)):
            m[f"{layer}.self_s"] = own[layer]
            m[f"{layer}.calls"] = calls[layer]
        for key in ("gamedoc.parse.bytes", "gamedoc.render.bytes", "core.game_init.cells",
                    "families.generate.cells", "families.symmetric_form.payoff_calls",
                    "analysis.symmetric_selfishness_level.orbits",
                    "transforms.altruistic.cells", "dynamics.edges"):
            m[key] = counts[key]
        for k in ("pure_nash", "social_optima"):
            m[f"analysis.{k}.calls_per_game"] = ratio(calls[f"analysis.{k}"], games_per_rep)
        m["dynamics.improvement_graph.per_report"] = ratio(
            calls["dynamics.improvement_graph"], counts["dynamics_reports"])
        return m
