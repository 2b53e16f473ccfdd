"""Game-document parsing, rendering, and report structure."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from selfishlevel import (
    Orientation,
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
    MissingProfile,
    ZeroDenominator,
)
from selfishlevel.gamedoc import GameDocument, analyze_report, document_to_obj

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
        with pytest.raises(MissingProfile):
            parse_game(json.dumps(obj))

    def test_duplicate_profile(self):
        obj = json.loads(fixture_text("battle_of_sexes_sparse.json"))
        obj["payoffs"].append(obj["payoffs"][0])
        with pytest.raises(DuplicateProfile):
            parse_game(json.dumps(obj))

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
