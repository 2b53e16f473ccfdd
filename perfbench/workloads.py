"""The benchmark's four workloads: seeded inputs, timed ops and exactness gates.

One repetition ("rep") of a workload runs its ops in order.  An op is one
call into the toolkit's public surface.  Its raw result may feed later
ops of the same rep; its *view*, computed outside the timed region, is
what the exactness gate and the rep-to-rep comparison look at.

The toolkit is handed only generated specs and documents.  The dense and
compact workloads run fixed family instances, so the seed does not change
their inputs.  Where inputs are drawn (the congestion game, the corpus),
shapes are fixed and the seed draws values, so that the amount of work per
rep does not depend on the seed.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

FULL, TOY = "full", "toy"
SCALES = (FULL, TOY)


@dataclass(frozen=True)
class Op:
    """One timed call; ``run`` gets the raw results of the rep's earlier ops."""

    key: str
    run: Callable[[dict], Any]
    view: Callable[[Any], Any] = lambda raw: raw


@dataclass
class Workload:
    """The ops of one rep, plus the gate that checks their views.

    ``gate(views, reference)`` returns ``{op key: failure message}``;
    ``reference`` holds the frozen answers it checks against.
    """

    name: str
    ops: list[Op]
    gate: Callable[[dict, dict], dict]
    reference: dict
    games_per_rep: int
    sizes: Callable[[dict], dict]

    def check(self, views: dict) -> dict:
        return self.gate(views, self.reference)


# ---------------------------------------------------------------------------
# driving the CLI in-process
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CliRun:
    code: int
    stdout: str
    stderr: str


def run_cli(cli, argv: list[str], stdin_text: str = "") -> CliRun:
    """``cli.main(argv)`` with stdin, stdout and stderr swapped for memory."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), out, err
    try:
        code = cli.main(argv)
    except SystemExit as exit_:  # argparse rejects bad arguments this way
        code = exit_.code if isinstance(exit_.code, int) else 2
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return CliRun(code, out.getvalue(), err.getvalue())


def cli_stdout(run: CliRun) -> str:
    if run.code != 0:
        raise RuntimeError(f"exit code {run.code}: {run.stderr.strip()}")
    return run.stdout


def report_body(run: CliRun) -> dict:
    """The comparable part of a CLI report; ``timings`` is never compared."""
    return json.loads(cli_stdout(run))["report"]


# ---------------------------------------------------------------------------
# game documents written by the benchmark itself
# ---------------------------------------------------------------------------

def _json_value(q: Fraction):
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def document_text(orientation: str, labels, cells) -> str:
    """Dense game document for ``cells`` in lexicographic order (player 1 slowest)."""
    counts = [len(per_player) for per_player in labels]
    remaining = iter(cells)

    def nest(depth: int):
        if depth == len(counts):
            return [_json_value(v) for v in next(remaining)]
        return [nest(depth + 1) for _ in range(counts[depth])]

    return json.dumps({
        "orientation": orientation,
        "players": [{"name": f"p{i + 1}", "strategies": list(per_player)}
                    for i, per_player in enumerate(labels)],
        "payoffs": nest(0),
    })


def _label_lists(game, profiles) -> list[list[str]]:
    return [list(game.labels_for(s)) for s in profiles]


# ---------------------------------------------------------------------------
# dense_pipeline
# ---------------------------------------------------------------------------

# (family, CLI parameters, spec constructor, frozen level)
DENSE_GAMES = {
    FULL: (
        ("public_goods", ("n=8", "b=1", "c=2", "k=2"),
         lambda f: f.PublicGoodsGrid(n=8, b=1, c=2, grid_steps=2), Fraction(3, 4)),
        ("travelers", (), lambda f: f.TravelersDilemma(), Fraction(1, 2)),
    ),
    TOY: (
        ("public_goods", ("n=3", "b=1", "c=2", "k=2"),
         lambda f: f.PublicGoodsGrid(n=3, b=1, c=2, grid_steps=2), Fraction(1, 3)),
        ("pd_n", ("n=3",), lambda f: f.PrisonersDilemmaN(3), Fraction(1, 3)),
    ),
}


def _dense_ops(cli, family: str, params) -> list[Op]:
    argv = ["generate", family] + (["--param", *params] if params else [])

    def doc(state):
        return cli_stdout(state[f"{family}/generate"])

    def sweep(state):
        level = cli_stdout(state[f"{family}/level"]).strip()
        return run_cli(cli, ["sweep", "--alphas", f"0,{level},1"], doc(state))

    return [
        Op(f"{family}/generate", lambda state: run_cli(cli, argv), cli_stdout),
        Op(f"{family}/level", lambda state: run_cli(cli, ["level"], doc(state)),
           lambda raw: cli_stdout(raw).strip()),
        Op(f"{family}/analyze", lambda state: run_cli(cli, ["analyze"], doc(state)),
           report_body),
        Op(f"{family}/sweep", sweep, report_body),
    ]


def dense_pipeline(lib, seed: int, scale: str) -> Workload:
    games = DENSE_GAMES[scale]
    specs = {family: build(lib.families) for family, _, build, _ in games}

    def gate(views, reference):
        failures = {}
        for family, spec in specs.items():
            expected = reference[family]
            key = f"{family}/generate"
            if key in views and lib.gamedoc.parse_game(views[key]) != lib.families.generate(spec):
                failures[key] = "re-parsed document differs from the generated game"
            key = f"{family}/level"
            closed = lib.closedform.closed_form_level(spec)
            if key in views and Fraction(views[key]) != expected:
                failures[key] = f"level {views[key]} != {expected}"
            elif key in views and closed.value != expected:
                failures[key] = f"closed-form level {closed.value} != {expected}"
            key = f"{family}/analyze"
            if key in views:
                level = views[key]["selfishness_level"]
                if level["kind"] != "finite" or Fraction(level["value"]) != expected:
                    failures[key] = f"analyze level {level} != {expected}"
            key = f"{family}/sweep"
            if key in views:
                rows = views[key]["selfishness_function"]
                alphas = [Fraction(row["alpha"]) for row in rows]
                at_level = [row["price_of_stability"] for row in rows
                            if Fraction(row["alpha"]) == expected]
                if alphas != [0, expected, 1] or at_level != ["1"]:
                    failures[key] = f"price of stability at alpha={expected} is {at_level}"
        return failures

    def sizes(views):
        out = {}
        for family in specs:
            doc = views.get(f"{family}/generate", "")
            players = json.loads(doc)["players"] if doc else []
            out[family] = {"cells": math.prod(len(p["strategies"]) for p in players),
                           "json_bytes": len(doc)}
        return out

    ops = [op for family, params, _, _ in games for op in _dense_ops(lib.cli, family, params)]
    reference = {family: level for family, _, _, level in games}
    return Workload("dense_pipeline", ops, gate, reference, len(games), sizes)


# ---------------------------------------------------------------------------
# cost_dynamics
# ---------------------------------------------------------------------------

# Affine delays a*x + b of the facilities; the seed permutes them over the
# facility names, so every seed gives an isomorphic game and the same work.
DELAYS = ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(3)), (Fraction(3, 2), Fraction(2)),
          (Fraction(5, 2), Fraction(0)), (Fraction(1, 3), Fraction(5)), (Fraction(2), Fraction(4)))
# (players, facilities, is_nash queries, upper_contour queries)
CONGESTION = {FULL: (5, 6, 18, 18), TOY: (3, 3, 4, 4)}


def _congestion_cells(delays, players: int):
    for profile in itertools.product(range(len(delays)), repeat=players):
        load = [0] * len(delays)
        for e in profile:
            load[e] += 1
        yield tuple(delays[e][0] * load[e] + delays[e][1] for e in profile)


def cost_dynamics(lib, seed: int, scale: str) -> Workload:
    players, facilities, nash_queries, contour_queries = CONGESTION[scale]
    rng = random.Random(seed)
    delays = list(DELAYS[:facilities])
    rng.shuffle(delays)
    names = tuple(f"e{i + 1}" for i in range(facilities))
    spec = lib.families.Congestion(
        facilities=tuple((name, a, b) for name, (a, b) in zip(names, delays)),
        strategies=(tuple((name,) for name in names),) * players,
    )
    labels = (names,) * players
    doc = document_text("cost", labels, _congestion_cells(delays, players))
    queries = [("is_nash", tuple(rng.randrange(facilities) for _ in range(players)), None)
               for _ in range(nash_queries)]
    queries += [("upper_contour", tuple(rng.randrange(facilities) for _ in range(players)),
                 rng.randrange(players)) for _ in range(contour_queries)]
    rng.shuffle(queries)

    analysis = lib.analysis
    ops = [
        Op("analyze", lambda state: run_cli(lib.cli, ["analyze"], doc), report_body),
        Op("dynamics", lambda state: run_cli(lib.cli, ["dynamics"], doc), report_body),
        Op("closed_form", lambda state: lib.closedform.closed_form_level(spec),
           lambda raw: (raw.kind.value, raw.value)),
        Op("parse", lambda state: lib.gamedoc.parse_game(doc)),
    ]
    for j, (kind, profile, player) in enumerate(queries):
        if kind == "is_nash":
            ops.append(Op(f"is_nash/{j}",
                          lambda state, s=profile: analysis.is_nash(state["parse"], s)))
        else:
            ops.append(Op(f"upper_contour/{j}",
                          lambda state, s=profile, i=player:
                          analysis.upper_contour(state["parse"], s, i),
                          lambda raw: sorted(raw.strategies)))

    # The gate rebuilds its reference game: held through the timed reps, its
    # objects would lengthen every garbage collection of the toolkit.
    def gate(views, reference):
        game = lib.core.Game(lib.core.Orientation.COST_MIN, labels,
                             list(_congestion_cells(delays, players)))
        graph = lib.dynamics.improvement_graph(game)
        sinks = graph.sinks()
        failures = {}
        if "parse" in views and views["parse"] != game:
            failures["parse"] = "parsed game differs from the generated cells"
        bound = views.get("closed_form")
        if bound is not None and bound[0] != "upper_bound":
            failures["closed_form"] = f"closed form is {bound[0]}, not an upper bound"
        if "analyze" in views:
            body = views["analyze"]
            level = body["selfishness_level"]
            if body["pure_nash"] != _label_lists(game, sinks):
                failures["analyze"] = "Nash set differs from the improvement-graph sinks"
            elif level["kind"] == "infinite":
                failures["analyze"] = "infinite level for a congestion game"
            elif bound is not None and Fraction(level["value"]) > bound[1]:
                failures["analyze"] = f"level {level['value']} above the bound {bound[1]}"
        if "dynamics" in views:
            flags = {k: views["dynamics"][k] for k in reference}
            if flags != reference:
                failures["dynamics"] = f"dynamics flags {flags}"
        sink_set = set(sinks)
        for j, (kind, profile, player) in enumerate(queries):
            key = f"{kind}/{j}"
            if key not in views:
                continue
            if kind == "is_nash":
                expected = profile in sink_set
            else:  # every successor differs from the profile in one player's strategy
                expected = sorted(t[player] for t in graph.successors[profile]
                                  if t[player] != profile[player])
            if views[key] != expected:
                failures[key] = f"{kind} at {profile} gave {views[key]}, expected {expected}"
        return failures

    reference = {"finite_improvement_property": True, "weakly_acyclic": True,
                 "ordinal_potential_certificate": True}
    return Workload("cost_dynamics", ops, gate, reference, 1,
                    lambda views: {"cells": facilities ** players, "json_bytes": len(doc),
                                   "queries": len(queries)})


# ---------------------------------------------------------------------------
# small_corpus
# ---------------------------------------------------------------------------

CORPUS_GAMES = {FULL: 600, TOY: 24}
# Shapes come from this fixed seed, so that the work per rep does not depend
# on --seed; --seed draws the payoffs and which half are cost games.
SHAPE_SEED = "small_corpus-shapes"
SHARES = (Fraction(1, 2), Fraction(1), Fraction(3))


def _specimens(f) -> list:
    tight = f.TightFamily
    return [
        f.PrisonersDilemmaN(2), f.PrisonersDilemmaN(3),
        f.GeneralizedPD(alpha=Fraction(2, 3), beta=Fraction(3, 2)),
        f.MatchingPennies(), f.BattleOfSexes(), f.BadNash3x3(), f.NoNash2x2(),
        f.WeaklyAcyclic3x3(), f.FLevelGame(n=3, f_value=Fraction(5, 2)),
        f.tight_instance(tight.COST_SHARING_SINGLETON, c_max=5, c_min=2),
        f.tight_instance(tight.COST_SHARING_INTEGER, L=2, c_max=3),
        f.tight_instance(tight.CONGESTION_SINGLETON, delta=Fraction(1, 2), a=1),
        f.tight_instance(tight.CONGESTION_INTEGER, L=2, d_max=2, d_min=1),
        f.cost_sharing_gap_instance(c_max=4, c_min=1, gap=1),
    ]


def _random_corpus(lib, seed: int, count: int):
    """(document, game) pairs: fixed shapes, seeded payoffs, half cost games."""
    shapes_rng = random.Random(SHAPE_SEED)
    shapes = [tuple(shapes_rng.randint(1, 4) for _ in range(shapes_rng.randint(2, 4)))
              for _ in range(count)]
    rng = random.Random(seed)
    orientations = ["cost"] * (count // 2) + ["payoff"] * (count - count // 2)
    rng.shuffle(orientations)
    for counts, orientation in zip(shapes, orientations):
        labels = tuple(tuple(f"s{j}" for j in range(m)) for m in counts)
        cells = [tuple(Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3))) for _ in counts)
                 for _ in range(math.prod(counts))]
        game = lib.core.Game(lib.core.Orientation(orientation), labels, cells)
        yield document_text(orientation, labels, cells), game


def _corpus_op(lib, text: str):
    def run(state):
        doc = lib.gamedoc.parse_game_document(text)
        game = doc.game
        body = lib.gamedoc.analyze_report(doc)
        level = body["selfishness_level"]
        selfish = (None if level["kind"] == "infinite"
                   else lib.analysis.is_alpha_selfish(game, Fraction(level["value"])))
        table = lib.analysis.selfishness_function(game, SHARES)
        return (game, body, selfish, table,
                lib.dynamics.has_fip(game), lib.dynamics.is_weakly_acyclic(game))
    return run


def _check_game(game, view, reference) -> str | None:
    parsed, body, selfish, table, fip, weakly = view
    if parsed != game:
        return "parsed game differs from the generated one"
    for field, oracle in (("pure_nash", "nash"), ("social_optima", "optima"),
                          ("stable_social_optima", "stable")):
        if body[field] != _label_lists(game, reference[oracle](game)):
            return f"{field} differs from the oracle"
    if (fip and not weakly) or (weakly and not body["pure_nash"]):
        return f"inconsistent dynamics: fip={fip}, weakly acyclic={weakly}"
    level = reference["level"](game)
    reported = body["selfishness_level"]
    if level is None:
        if reported["kind"] != "infinite":
            return f"level {reported} but the oracle finds none"
        return None
    if reported["kind"] == "infinite" or Fraction(reported["value"]) != level:
        return f"level {reported} != oracle {level}"
    if selfish is not True:
        return f"not alpha-selfish at its level {level}"
    positive = Fraction(body["social_optimum_value"]) > 0
    for alpha, pos in table:
        if alpha >= level and pos != (1 if positive else None):
            return f"price of stability {pos} at alpha={alpha} >= level {level}"
    return None


def _corpus(lib, seed: int, scale: str) -> list:
    """(document, game) pairs: the seeded random games, then the specimens."""
    pairs = list(_random_corpus(lib, seed, CORPUS_GAMES[scale]))
    for spec in _specimens(lib.families):
        game = lib.families.generate(spec)
        pairs.append((lib.gamedoc.render_game_document(
            lib.gamedoc.GameDocument.from_game(game)), game))
    return pairs


def small_corpus(lib, seed: int, scale: str) -> Workload:
    pairs = _corpus(lib, seed, scale)
    ops = [Op(f"game/{i}", _corpus_op(lib, text)) for i, (text, _) in enumerate(pairs)]
    sizes = {"games": len(pairs), "cells": sum(g.cell_count for _, g in pairs),
             "json_bytes": sum(len(t) for t, _ in pairs)}
    del pairs  # the gate rebuilds the games, so that the timed reps do not hold them

    def gate(views, reference):
        failures = {}
        for i, (_, game) in enumerate(_corpus(lib, seed, scale)):
            key = f"game/{i}"
            if key in views:
                message = _check_game(game, views[key], reference)
                if message is not None:
                    failures[key] = message
        return failures

    oracles = lib.oracles
    reference = {"nash": oracles.naive_pure_nash, "optima": oracles.naive_social_optima,
                 "stable": oracles.naive_stable_social_optima,
                 "level": oracles.naive_level_by_alpha_search}
    return Workload("small_corpus", ops, gate, reference, sizes["games"], lambda views: sizes)


# ---------------------------------------------------------------------------
# compact_symmetric
# ---------------------------------------------------------------------------

# (name, spec constructor, frozen level)
COMPACT_GAMES = {
    FULL: (
        ("public_goods", lambda f: f.PublicGoodsGrid(n=16, b=1, c=3, grid_steps=5), "13/32"),
        ("travelers", lambda f: f.TravelersDilemma(), "1/2"),
        ("pd_n", lambda f: f.PrisonersDilemmaN(400), "1/797"),
    ),
    TOY: (
        ("public_goods", lambda f: f.PublicGoodsGrid(n=6, b=1, c=3, grid_steps=2), "1/4"),
        ("pd_n", lambda f: f.PrisonersDilemmaN(5), "1/7"),
    ),
}


def compact_symmetric(lib, seed: int, scale: str) -> Workload:
    games = COMPACT_GAMES[scale]
    specs = {name: build(lib.families) for name, build, _ in games}

    def level(spec):
        form = lib.families.symmetric_form(spec)
        return lib.analysis.symmetric_selfishness_level(
            form.player_count, len(form.strategy_labels), form.payoff)

    ops = [Op(name, lambda state, spec=spec: level(spec), lambda raw: raw.render())
           for name, spec in specs.items()]

    def gate(views, reference):
        return {name: f"level {views[name]} != {reference[name]}"
                for name in specs if name in views and views[name] != reference[name]}

    def sizes(views):
        out = {}
        for name, spec in specs.items():
            form = lib.families.symmetric_form(spec)
            n, m = form.player_count, len(form.strategy_labels)
            out[name] = {"players": n, "strategies": m, "orbits": math.comb(n + m - 1, n)}
        return out

    reference = {name: expected for name, _, expected in games}
    return Workload("compact_symmetric", ops, gate, reference, 0, sizes)


WORKLOADS: dict[str, Callable[..., Workload]] = {
    "dense_pipeline": dense_pipeline,
    "cost_dynamics": cost_dynamics,
    "small_corpus": small_corpus,
    "compact_symmetric": compact_symmetric,
}
