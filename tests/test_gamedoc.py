"""Game-document parsing, rendering, and report structure."""

import io
import itertools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from selfishlevel import (
    Game,
    Orientation,
    PublicGoodsGrid,
    cli,
    core,
    gamedoc,
    generate,
    parse_game,
    parse_game_document,
    render_game_document,
    render_report,
)
from selfishlevel.errors import (
    DimensionMismatch,
    DocumentSyntaxError,
    DuplicateProfile,
    ExplosionGuard,
    GameDocumentError,
    GameError,
    MissingProfile,
    ZeroDenominator,
)
from selfishlevel.gamedoc import (
    GameDocument,
    analyze_body,
    analyze_report,
    document_to_obj,
    dynamics_body,
    dynamics_report,
    sweep_body,
    sweep_report,
)

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text()


class TestParsing:
    def test_dense_prisoners_dilemma(self, pd):
        game = parse_game(fixture_text("prisoners_dilemma.json"))
        assert game == pd

    def test_sparse_battle_of_sexes(self, battle_of_sexes):
        game = parse_game(fixture_text("battle_of_sexes_sparse.json"))
        assert game == battle_of_sexes

    def test_rational_strings(self):
        game = parse_game(fixture_text("generalized_dilemma_rational.json"))
        assert game.payoff((0, 1), 1) == Fraction(5, 3)

    def test_cost_orientation(self):
        game = parse_game(fixture_text("cost_sharing_tight.json"))
        assert game.orientation is Orientation.COST_MIN

    def test_missing_profile(self):
        obj = json.loads(fixture_text("battle_of_sexes_sparse.json"))
        obj["payoffs"] = obj["payoffs"][:-1]
        with pytest.raises(MissingProfile) as raised:
            parse_game(json.dumps(obj))
        assert str(raised.value) == "no payoffs for profile ['B', 'B']"

    @pytest.mark.parametrize("kept,missing", [
        (slice(1, None), "['F', 'F']"),
        (slice(2, None), "['F', 'F']"),  # the first of several, in lexicographic order
        (slice(None, None, 3), "['F', 'B']"),
    ])
    def test_missing_profile_names_the_first_empty_cell(self, kept, missing):
        obj = json.loads(fixture_text("battle_of_sexes_sparse.json"))
        obj["payoffs"] = obj["payoffs"][kept][::-1]
        with pytest.raises(MissingProfile) as raised:
            parse_game(json.dumps(obj))
        assert str(raised.value) == f"no payoffs for profile {missing}"

    def test_missing_profile_of_three_players(self):
        labels = [["a", "b"], ["x", "y", "z"], ["p", "q"]]
        entries = [{"profile": [i, j, k], "values": [1, 2, 3]}
                   for i, j, k in itertools.product(*labels) if (i, j, k) != ("b", "y", "p")]
        document = {"orientation": "cost", "payoffs": entries,
                    "players": [{"name": f"p{n}", "strategies": s} for n, s in enumerate(labels)]}
        with pytest.raises(MissingProfile) as raised:
            parse_game(json.dumps(document))
        assert str(raised.value) == "no payoffs for profile ['b', 'y', 'p']"
        entries.append({"profile": ["b", "y", "p"], "values": [1, 2, 3]})
        game = parse_game(json.dumps(document))
        assert game.payoffs == ((1, 2, 3),) * 12

    def test_duplicate_profile(self):
        obj = json.loads(fixture_text("battle_of_sexes_sparse.json"))
        obj["payoffs"].append(obj["payoffs"][1])
        with pytest.raises(DuplicateProfile) as raised:
            parse_game(json.dumps(obj))
        assert str(raised.value) == "profile ['F', 'B'] appears twice"

    def test_zero_denominator(self):
        obj = json.loads(fixture_text("generalized_dilemma_rational.json"))
        obj["payoffs"][0][0][0] = "1/0"
        with pytest.raises(ZeroDenominator):
            parse_game(json.dumps(obj))

    def test_floats_rejected(self):
        obj = json.loads(fixture_text("prisoners_dilemma.json"))
        obj["payoffs"][0][0][0] = 2.5
        with pytest.raises(GameDocumentError):
            parse_game(json.dumps(obj))

    def test_leading_byte_order_mark_is_named(self, capsys, monkeypatch):
        text = "\ufeff" + fixture_text("prisoners_dilemma.json")
        message = "Unexpected UTF-8 BOM (decode using utf-8-sig) (line 1, column 1)"
        with pytest.raises(DocumentSyntaxError, match=r"^Unexpected UTF-8 BOM") as info:
            parse_game(text)
        assert str(info.value) == message
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert cli.main(["level"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_syntax_error_carries_position(self):
        with pytest.raises(DocumentSyntaxError) as info:
            parse_game('{"orientation": "payoff",\n  broken')
        assert info.value.line == 2

    def test_bad_orientation(self):
        obj = json.loads(fixture_text("prisoners_dilemma.json"))
        obj["orientation"] = "utility"
        with pytest.raises(GameDocumentError):
            parse_game(json.dumps(obj))

    def test_cap_checked_before_payoffs(self):
        obj = json.loads(fixture_text("prisoners_dilemma.json"))
        obj["payoffs"] = "never read"
        with pytest.raises(ExplosionGuard):
            parse_game_document(json.dumps(obj), cap=3)
        with pytest.raises(DimensionMismatch):
            parse_game_document(json.dumps(obj), cap=4)


# A raw payoff value and what it reads as: a Fraction, or (error type, message).
RAW_VALUES = [
    (True, (GameError, "not a rational value: True")),
    (None, (GameError, "not a rational value: None")),
    ([1], (GameError, "not a rational value: [1]")),
    ({}, (GameError, "not a rational value: {}")),
    ("1.5", (GameError, "not an exact rational literal: '1.5'")),
    ("1e3", (GameError, "not an exact rational literal: '1e3'")),
    ("1/0", (ZeroDenominator, "zero denominator in '1/0'")),
    ("abc", (GameError, "not a rational literal: 'abc'")),
    (" 3/4 ", Fraction(3, 4)),
    ("3 /4", (GameError, "not a rational literal: '3 /4'")),
    ("+3/4", Fraction(3, 4)),
    ("1_000", Fraction(1000)),
    ("\u0663", Fraction(3)),
    ("3/-4", (GameError, "not a rational literal: '3/-4'")),
    (10**30, Fraction(10**30)),
    ("-0", Fraction(0)),
]
LABELS = (("x", "y"), ("u",))


def _dense_text(raw) -> str:
    return json.dumps({
        "orientation": "payoff",
        "players": [{"name": "a", "strategies": ["x", "y"]}, {"name": "b", "strategies": ["u"]}],
        "payoffs": [[[raw, 1]], [[2, "1/3"]]],
    })


def _sparse_text(raw) -> str:
    return json.dumps({
        "orientation": "payoff",
        "players": [{"name": "a", "strategies": ["x", "y"]}, {"name": "b", "strategies": ["u"]}],
        "payoffs": [{"profile": ["x", "u"], "values": [raw, 1]},
                    {"profile": ["y", "u"], "values": [2, "1/3"]}],
    })


@pytest.mark.parametrize("build", [
    lambda raw: parse_game(_dense_text(raw)),
    lambda raw: parse_game(_sparse_text(raw)),
    lambda raw: Game(Orientation.PAYOFF_MAX, LABELS, ((raw, 1), (2, "1/3"))),
], ids=["dense", "sparse", "Game"])
@pytest.mark.parametrize("raw,expected", RAW_VALUES, ids=[repr(raw) for raw, _ in RAW_VALUES])
def test_raw_payoff_values(build, raw, expected):
    if isinstance(expected, Fraction):
        game = build(raw)
        assert game.payoff((0, 0), 0) == expected
        assert game.payoffs == ((expected, 1), (2, Fraction(1, 3)))
        return
    kind, message = expected
    with pytest.raises(GameError) as info:
        build(raw)
    assert type(info.value) is kind
    assert str(info.value) == message


def test_each_distinct_literal_is_parsed_once(monkeypatch):
    game = generate(PublicGoodsGrid(n=8, b=1, c=2, grid_steps=2))
    text = render_game_document(GameDocument.from_game(game))
    nested = json.loads(text)["payoffs"]
    for _ in range(game.player_count):
        nested = [entry for node in nested for entry in node]
    literals = {(type(v), v) for v in nested}
    assert len(nested) == 6561 * 8 and len(literals) == 21
    calls = []
    real = core.parse_rational
    monkeypatch.setattr(core, "parse_rational", lambda raw: calls.append(raw) or real(raw))
    assert parse_game(text) == game
    assert len(calls) <= len(literals)


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.iterdir()))
def test_round_trip_is_lossless(name):
    doc = parse_game_document(fixture_text(name))
    rendered = render_game_document(doc)
    again = parse_game_document(rendered)
    assert again.game == doc.game
    assert again.player_names == doc.player_names
    assert render_game_document(again) == rendered


class TestReports:
    def test_structure_and_rationals(self, pd):
        doc = GameDocument.from_game(pd)
        body = analyze_report(doc)
        assert body["pure_nash"] == [["D", "D"]]
        assert body["social_optima"] == [["C", "C"]]
        assert body["selfishness_level"]["value"] == "1"
        assert body["selfishness_level"]["deviation"]["appeal_factor"] == "1"
        assert body["price_of_stability"] == "2"

    def test_game_section_reparses_exactly(self, pd):
        doc = GameDocument.from_game(pd)
        body = analyze_report(doc)
        reparsed = parse_game(json.dumps(body["game"]))
        assert reparsed == pd

    def test_timings_segregated(self, pd):
        doc = GameDocument.from_game(pd)
        text = render_report(analyze_report(doc), {"analyze_seconds": 0.25})
        obj = json.loads(text)
        assert set(obj) == {"report", "timings"}
        assert "seconds" not in json.dumps(obj["report"])

    def test_infinite_level_report(self, matching_pennies):
        doc = GameDocument.from_game(matching_pennies)
        body = analyze_report(doc)
        assert body["selfishness_level"] == {
            "kind": "infinite",
            "reason": "no_stable_social_optimum",
        }
        assert body["price_of_stability"] is None

    def test_document_object_is_json_safe(self, pd):
        doc = GameDocument.from_game(pd)
        json.dumps(document_to_obj(doc))

    def test_reports_are_the_game_then_the_body(self, pd):
        doc = GameDocument.from_game(pd)
        alphas = [Fraction(0), Fraction(1, 2)]
        for report, body in [(analyze_report(doc), analyze_body(doc)),
                             (dynamics_report(doc, 100), dynamics_body(doc, 100)),
                             (sweep_report(doc, alphas), sweep_body(doc, alphas))]:
            assert list(report) == ["game", *body]
            assert report == {"game": document_to_obj(doc), **body}


# Names and labels that a hand-written layout could get wrong.
HOSTILE = ['"', "\\", "caf\u00e9", "\u2603", "\x00\n\t", "payoffs", '"payoffs": [', "]",
           ",", "[\n  ", "}", "p1"]
VALUES = [0, -1, 7, Fraction(-2, 3), Fraction(5, 7), 10**30, Fraction(-(10**30), 3)]


def _reference(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _hostile_document(rng: random.Random) -> GameDocument:
    counts = [rng.randint(1, 5) for _ in range(rng.randint(2, 4))]
    labels = [[f"{rng.choice(HOSTILE)}{j}" for j in range(m)] for m in counts]
    names = [f"{rng.choice(HOSTILE)}{i}" for i in range(len(counts))]
    pool = rng.sample(VALUES, 3)
    cells = [tuple(rng.choice(pool) for _ in counts) for _ in range(math.prod(counts))]
    orientation = rng.choice(list(Orientation))
    return GameDocument(Game(orientation, labels, cells), names)


def test_document_rendering_builds_no_nested_tensor(monkeypatch):
    doc = GameDocument.from_game(generate(PublicGoodsGrid(n=3, b=1, c=Fraction(3, 2),
                                                           grid_steps=3)))
    expected = _reference(document_to_obj(doc))

    def nested(game):
        raise AssertionError("render_game_document nested the payoff tensor")

    monkeypatch.setattr(gamedoc, "_dense_payoffs", nested)
    assert render_game_document(doc) == expected


def test_rendering_equals_the_reference_encoder(matching_pennies):
    rng = random.Random(8)
    docs = [_hostile_document(rng) for _ in range(60)]
    docs.append(GameDocument(matching_pennies, ['"payoffs"', "\\u0000"]))
    kinds = set()
    for doc in docs:
        assert render_game_document(doc) == _reference(document_to_obj(doc))
        analyze = analyze_report(doc)
        kinds.add(analyze["selfishness_level"]["kind"])
        bodies = [analyze, dynamics_report(doc, 10**7),
                  sweep_report(doc, [Fraction(0), Fraction(1, 2), Fraction(3)])]
        for body in bodies:
            timings = {"analyze_seconds": rng.random() / 7}
            assert render_report(body, timings) == _reference({"report": body, "timings": timings})
            assert render_report(body) == _reference({"report": body, "timings": {}})
            del body["game"]
            assert render_report(body, timings, doc) == _reference(
                {"report": {"game": document_to_obj(doc), **body}, "timings": timings})
            assert render_report(body, None, doc) == _reference(
                {"report": {"game": document_to_obj(doc), **body}, "timings": {}})
    assert kinds == {"zero", "finite", "infinite"}
    closed = {"family": "pd_n", "result": {"kind": "finite", "value": "1/3", "tight": True}}
    assert render_report(closed, {"t": 0.5}) == _reference({"report": closed, "timings": {"t": 0.5}})


def _run_cli(monkeypatch, capsys, argv, text):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    return out


SWEEP = "0,1/2,3"
CAP = 10**7


def _library_reports(doc: GameDocument) -> dict[str, tuple[dict, list[str]]]:
    """Each CLI report command's library report and timing keys."""
    alphas = [Fraction(a) for a in SWEEP.split(",")]
    return {
        "analyze": (analyze_report(doc), ["analyze_seconds"]),
        "dynamics": (dynamics_report(doc, CAP), ["dynamics_seconds"]),
        "sweep": (sweep_report(doc, alphas), []),
    }


def _argv(command: str) -> list[str]:
    extra = {"sweep": ["--alphas", SWEEP]}.get(command, [])
    return [command, *extra, "--cap", str(CAP)]


def test_cli_reports_equal_the_library_reports(monkeypatch, capsys):
    rng = random.Random(13)
    docs = [_hostile_document(rng) for _ in range(16)]
    assert {doc.game.orientation for doc in docs} == set(Orientation)
    for doc in docs:
        text = render_game_document(doc)
        for command, (body, timing_keys) in _library_reports(doc).items():
            out = _run_cli(monkeypatch, capsys, _argv(command), text)
            timings = json.loads(out)["timings"]
            assert list(timings) == timing_keys
            assert out == _reference({"report": body, "timings": timings})


def test_cli_reports_build_no_nested_tensor(monkeypatch, capsys):
    doc = GameDocument.from_game(generate(PublicGoodsGrid(n=3, b=1, c=Fraction(3, 2),
                                                           grid_steps=3)))
    text = render_game_document(doc)
    expected = {command: body for command, (body, _) in _library_reports(doc).items()}

    def nested(game):
        raise AssertionError("a CLI report nested the payoff tensor")

    monkeypatch.setattr(gamedoc, "_dense_payoffs", nested)
    for command, body in expected.items():
        out = _run_cli(monkeypatch, capsys, _argv(command), text)
        assert out == _reference({"report": body, "timings": json.loads(out)["timings"]})
