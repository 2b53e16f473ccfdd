"""Game documents and analysis reports as JSON text.

A game document carries the orientation, per-player names and strategy
labels, and the payoff tensor, either dense (nested arrays, outermost
index = player 1's strategy, innermost entry = one value per player) or
sparse (a list of {profile, values} records covering every joint
strategy exactly once).  Rationals are written as integers or "p/q"
strings; floats are rejected.

Reports echo the parsed game, so re-parsing a report's game section
reproduces the game exactly.  Timings live outside the comparable
report body.

Documents and reports are written in the layout of ``json.dumps(obj,
indent=2)`` plus a newline, byte for byte.  The payoff tensor's text is
written by hand from the game's flat integer store, since the indenting
encoder is pure Python: each distinct value is encoded once, and the
separators between values and between cells are precomputed per depth.
The rest of the object goes through ``json.dumps`` with a placeholder
where the tensor belongs, and the parts are joined once.  A report's
analysis part (``analyze_body`` and its siblings) carries no game: the
CLI hands it to ``render_report`` with the document, so the echoed
tensor is never built as nested lists.  ``analyze_report`` and its
siblings add the nested ``game`` for library callers.  The dense tensor
is read back one depth at a time, in ``Game.from_dense``.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from . import analysis, dynamics, families
from .core import Game, Profile, _orientation, format_rational
from .errors import (
    DocumentSyntaxError,
    DuplicateProfile,
    GameDocumentError,
    MissingProfile,
)


@dataclass(frozen=True)
class GameDocument:
    """A validated game plus its document-level player names."""

    game: Game
    player_names: tuple[str, ...]

    def __post_init__(self):
        names = tuple(self.player_names)
        object.__setattr__(self, "player_names", names)
        if len(names) != self.game.player_count:
            raise GameDocumentError(
                f"{len(names)} player names for {self.game.player_count} players"
            )
        if len(set(names)) != len(names):
            raise GameDocumentError("duplicate player names")

    @classmethod
    def from_game(cls, game: Game, player_names=None) -> "GameDocument":
        if player_names is None:
            player_names = tuple(f"p{i + 1}" for i in range(game.player_count))
        return cls(game, tuple(player_names))


def _reject_float(text: str):
    raise GameDocumentError(
        f"floating-point value {text!r} rejected; use an integer or a 'p/q' string"
    )


_DECODER = json.JSONDecoder(parse_float=_reject_float)


def _load_json(text: str):
    try:
        if not isinstance(text, str) or text.startswith("\ufeff"):
            # json.loads decodes bytes and names a leading byte-order mark.
            return json.loads(text, parse_float=_reject_float)
        return _DECODER.decode(text)
    except json.JSONDecodeError as e:
        raise DocumentSyntaxError(e.msg, e.lineno, e.colno) from None
    except RecursionError:
        raise DocumentSyntaxError("document nested too deeply to read") from None


def _parse_players(obj) -> tuple[tuple[str, ...], tuple[tuple[str, ...], ...]]:
    players = obj.get("players")
    if not isinstance(players, list) or not players:
        raise GameDocumentError("document needs a non-empty 'players' list")
    names = []
    labels = []
    for entry in players:
        if not isinstance(entry, dict):
            raise GameDocumentError(f"player entry must be an object, got {entry!r}")
        name = entry.get("name")
        strategies = entry.get("strategies")
        if not isinstance(name, str) or not name:
            raise GameDocumentError(f"player needs a non-empty 'name', got {name!r}")
        if (not isinstance(strategies, list) or not strategies
                or not all(isinstance(s, str) for s in strategies)):
            raise GameDocumentError(
                f"player {name!r} needs a non-empty list of strategy labels"
            )
        names.append(name)
        labels.append(tuple(strategies))
    return tuple(names), tuple(labels)


def _parse_sparse(entries, orientation, labels) -> Game:
    label_maps = [
        {label: i for i, label in enumerate(per_player)} for per_player in labels
    ]
    n = len(labels)
    cells: dict[int, list] = {}
    for entry in entries:
        if not isinstance(entry, dict) or "profile" not in entry or "values" not in entry:
            raise GameDocumentError(
                f"sparse payoff entry needs 'profile' and 'values', got {entry!r}"
            )
        raw_profile = entry["profile"]
        if not isinstance(raw_profile, list) or len(raw_profile) != n:
            raise GameDocumentError(f"profile {raw_profile!r} must list {n} labels")
        cell = 0
        for i, label in enumerate(raw_profile):
            # Labels are strings; an unhashable label cannot be looked up.
            if not isinstance(label, str) or label not in label_maps[i]:
                raise GameDocumentError(
                    f"player {i + 1} has no strategy labelled {label!r}"
                )
            cell = cell * len(labels[i]) + label_maps[i][label]
        if cell in cells:
            raise DuplicateProfile(f"profile {raw_profile!r} appears twice")
        values = entry["values"]
        if not isinstance(values, list) or len(values) != n:
            raise GameDocumentError(
                f"profile {raw_profile!r} needs exactly {n} values"
            )
        cells[cell] = values
    if len(cells) < math.prod(map(len, labels)):  # some cell is empty: name the first
        for cell, profile in enumerate(itertools.product(*labels)):
            if cell not in cells:
                raise MissingProfile(f"no payoffs for profile {list(profile)}")
    return Game(orientation, labels, map(cells.__getitem__, range(len(cells))))


def parse_game_document(text: str, cap: int | None = None) -> GameDocument:
    """Parse and validate a game document; errors carry position or context.

    With a ``cap``, a document declaring more than ``cap`` joint strategies
    raises ExplosionGuard before its payoff tensor is read.
    """
    obj = _load_json(text)
    if not isinstance(obj, dict):
        raise GameDocumentError("document root must be an object")
    orientation = _orientation(obj.get("orientation"), GameDocumentError)
    names, labels = _parse_players(obj)
    if cap is not None:
        families.check_cap([len(per_player) for per_player in labels], cap)
    payoffs = obj.get("payoffs")
    if payoffs is None:
        raise GameDocumentError("document needs a 'payoffs' field")
    if isinstance(payoffs, list) and payoffs and all(isinstance(e, dict) for e in payoffs):
        game = _parse_sparse(payoffs, orientation, labels)
    else:
        game = Game.from_dense(orientation, labels, payoffs)
    return GameDocument(game, names)


def parse_game(text: str) -> Game:
    """Parse a game document, returning just the validated game."""
    return parse_game_document(text).game


def _payoff_values(game: Game, encode=None) -> list:
    """The payoff values, cell by cell, as ints and "p/q" strings passed
    through ``encode`` if given; each distinct stored int is done once."""
    d = game.denominator
    value = {}
    for v in set(itertools.chain.from_iterable(game.columns)):
        g = math.gcd(v, d)
        x = v // g if g == d else f"{v // g}/{d // g}"
        value[v] = x if encode is None else encode(x)
    return list(itertools.chain.from_iterable(
        zip(*(map(value.__getitem__, column) for column in game.columns))))


def _dense_payoffs(game: Game) -> list:
    """The payoff tensor as nested lists of ints and "p/q" strings: the
    flat values grouped by list slicing, innermost first."""
    nodes = _payoff_values(game)
    for m in (game.player_count, *reversed(game.strategy_counts[1:])):
        nodes = [nodes[k:k + m] for k in range(0, len(nodes), m)]
    return nodes


def _document_head(doc: GameDocument) -> dict:
    return {
        "orientation": doc.game.orientation.value,
        "players": [
            {"name": name, "strategies": list(per_player)}
            for name, per_player in zip(doc.player_names, doc.game.strategy_labels)
        ],
    }


def document_to_obj(doc: GameDocument) -> dict:
    return {**_document_head(doc), "payoffs": _dense_payoffs(doc.game)}


def _tensor_parts(texts: list[str], counts: list[int], level: int) -> list[str]:
    """The indented JSON text of a payoff tensor with ``counts`` strategies
    per player, whose key sits at nesting ``level``, as parts to join.

    The parts alternate the values' JSON ``texts``, cell by cell, and
    separators: within a cell, a comma and the innermost indent; between
    two cells, the one text that closes the lists below the outermost
    axis that changes, writes the comma and opens them again.
    """
    n = len(counts)

    def opening(depth):  # a list at ``depth`` (the leaf vector is depth n)
        return "[\n" + "  " * (level + depth + 1)

    def closing(depth):
        return "\n" + "  " * (level + depth) + "]"

    # between[k]: between two cells whose outermost changing axis is k
    between = ["".join(map(closing, range(n, k, -1))) + ",\n" + "  " * (level + k + 1)
               + "".join(map(opening, range(k + 1, n + 1))) for k in range(n)]
    seps: list[str] = []
    for k in reversed(range(n)):  # the separators inside one block of axes k..n-1
        seps = (seps + [between[k]]) * (counts[k] - 1) + seps
    parts = [",\n" + "  " * (level + n + 1)] * (2 * len(texts) - 1)
    parts[::2] = texts
    parts[2 * n - 1::2 * n] = seps
    parts.insert(0, "".join(map(opening, range(n + 1))))
    parts.append("".join(map(closing, range(n, -1, -1))))
    return parts


def _document_parts(doc: GameDocument, level: int) -> list[str]:
    """The indented JSON text of ``document_to_obj(doc)`` at nesting
    ``level``, as parts to join, written from the game's flat store.

    All but the payoff tensor goes through ``json.dumps``; ``payoffs``
    is the object's last key, so the tensor's text takes the place of a
    placeholder at the very end.
    """
    pad = "\n" + "  " * level
    head = json.dumps({**_document_head(doc), "payoffs": 0}, indent=2).replace("\n", pad)
    texts = _payoff_values(doc.game, json.dumps)
    parts = _tensor_parts(texts, doc.game.strategy_counts, level + 1)
    parts.insert(0, head[:-len(pad) - 2])
    parts.append(pad + "}")
    return parts


def render_game_document(doc: GameDocument) -> str:
    """Canonical dense JSON text; parsing it back reproduces the game.

    The text is ``json.dumps(document_to_obj(doc), indent=2)`` plus a
    newline, written in one join from the game's flat store.
    """
    parts = _document_parts(doc, 0)
    parts.append("\n")
    return "".join(parts)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _labels(game: Game, profile: Profile) -> list[str]:
    return list(game.labels_for(profile))


def _optional_rational(value: Fraction | None):
    return None if value is None else format_rational(value)


def _deviation_obj(doc: GameDocument, record: analysis.DeviationRecord) -> dict:
    game = doc.game
    return {
        "player": doc.player_names[record.player],
        "profile": _labels(game, record.profile),
        "to": game.strategy_labels[record.player][record.to_strategy],
        "payoff_gain": format_rational(record.payoff_gain),
        "welfare_drop": format_rational(record.welfare_drop),
        "appeal_factor": format_rational(record.appeal_factor),
    }


def level_obj(doc: GameDocument, result: analysis.LevelResult) -> dict:
    obj: dict = {"kind": result.kind.value}
    if result.kind is analysis.LevelKind.INFINITE:
        obj["reason"] = result.infinite_reason.value
        return obj
    obj["value"] = "0" if result.kind is analysis.LevelKind.ZERO else format_rational(result.value)
    obj["optimum"] = _labels(doc.game, result.witness_optimum)
    if result.witness_deviation is not None:
        obj["deviation"] = _deviation_obj(doc, result.witness_deviation)
    return obj


def analyze_body(doc: GameDocument) -> dict:
    """The analysis part of ``analyze_report``: equilibria, optima,
    level, prices."""
    game = doc.game
    return {
        "pure_nash": [_labels(game, s) for s in analysis.pure_nash(game)],
        "social_optima": [_labels(game, s) for s in analysis.social_optima(game)],
        "stable_social_optima": [
            _labels(game, s) for s in analysis.stable_social_optima(game)
        ],
        "social_optimum_value": format_rational(analysis.social_optimum_value(game)),
        "selfishness_level": level_obj(doc, analysis.selfishness_level(game)),
        "price_of_stability": _optional_rational(analysis.price_of_stability(game)),
        "price_of_anarchy": _optional_rational(analysis.price_of_anarchy(game)),
    }


def dynamics_body(doc: GameDocument, cap: int) -> dict:
    """The analysis part of ``dynamics_report``: the improvement-path flags."""
    # A potential certificate exists exactly when the game has FIP.
    fip = dynamics.has_fip(doc.game, cap)
    return {
        "finite_improvement_property": fip,
        "weakly_acyclic": dynamics.is_weakly_acyclic(doc.game, cap),
        "ordinal_potential_certificate": fip,
    }


def sweep_body(doc: GameDocument, alphas) -> dict:
    """The analysis part of ``sweep_report``: the selfishness function."""
    table = analysis.selfishness_function(doc.game, alphas)
    return {
        "selfishness_function": [
            {"alpha": format_rational(alpha), "price_of_stability": _optional_rational(pos)}
            for alpha, pos in table
        ],
    }


def analyze_report(doc: GameDocument) -> dict:
    """Full analysis report: the echoed game, then ``analyze_body``."""
    return {"game": document_to_obj(doc), **analyze_body(doc)}


def dynamics_report(doc: GameDocument, cap: int) -> dict:
    return {"game": document_to_obj(doc), **dynamics_body(doc, cap)}


def sweep_report(doc: GameDocument, alphas) -> dict:
    return {"game": document_to_obj(doc), **sweep_body(doc, alphas)}


def render_report(body: dict, timings: dict | None = None,
                  doc: GameDocument | None = None) -> str:
    """Wrap a deterministic report body with segregated timings.

    Without ``doc`` the text is ``json.dumps({"report": body, "timings":
    timings}, indent=2)`` plus a newline.  With ``doc``, the report is
    ``{"game": document_to_obj(doc), **body}`` for a game-less ``body``,
    and the game is written first, by ``_document_parts`` from the
    game's flat store, in place of a placeholder at the start of the rest.
    """
    timings = timings or {}
    if doc is None:
        return json.dumps({"report": body, "timings": timings}, indent=2) + "\n"
    rest = json.dumps({"report": {"game": 0, **body}, "timings": timings}, indent=2)
    prefix = '{\n  "report": {\n    "game": '
    parts = _document_parts(doc, 2)
    parts.insert(0, prefix)
    parts += (rest[len(prefix) + 1:], "\n")
    return "".join(parts)
