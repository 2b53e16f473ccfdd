"""Game model: construction, validation, lookups, enumeration."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from selfishlevel import (
    Game,
    Orientation,
    PrisonersDilemmaN,
    TightFamily,
    altruistic,
    format_rational,
    generate,
    parse_rational,
    scale,
    tight_instance,
)
from selfishlevel.errors import (
    DimensionMismatch,
    DuplicateLabel,
    EmptyStrategySet,
    GameError,
    IndexOutOfRange,
    PlayerCountTooSmall,
    ZeroDenominator,
)

from conftest import two_player
from oracles import random_game


class TestValidation:
    def test_well_formed_prisoners_dilemma(self, pd):
        pd.validate()
        assert pd.player_count == 2
        assert pd.strategy_counts == (2, 2)

    def test_cell_with_three_values_in_two_player_game(self):
        with pytest.raises(DimensionMismatch):
            two_player([[(2, 2, 0), (0, 3)], [(3, 0), (1, 1)]])

    def test_single_player_rejected(self):
        with pytest.raises(PlayerCountTooSmall):
            Game(Orientation.PAYOFF_MAX, (("a", "b"),), ((1,), (2,)))

    def test_empty_strategy_set_rejected(self):
        with pytest.raises(EmptyStrategySet):
            Game(Orientation.PAYOFF_MAX, (("a",), ()), ())

    def test_duplicate_labels_rejected(self):
        with pytest.raises(DuplicateLabel):
            two_player([[(1, 1), (0, 0)], [(0, 0), (1, 1)]],
                       labels=(("x", "x"), ("a", "b")))

    def test_wrong_cell_count_rejected(self):
        with pytest.raises(DimensionMismatch):
            Game(Orientation.PAYOFF_MAX, (("a", "b"), ("a", "b")),
                 ((1, 1), (2, 2), (3, 3)))

    def test_float_payoffs_rejected(self):
        with pytest.raises(GameError):
            two_player([[(1.5, 1), (0, 0)], [(0, 0), (1, 1)]])


class TestPayoffLookup:
    def test_pd_table_entries(self, pd):
        assert pd.payoff((0, 0), 0) == 2
        assert pd.payoff((0, 0), 1) == 2
        assert pd.payoff((1, 0), 0) == 3
        assert pd.payoff((0, 1), 0) == 0

    def test_matching_pennies_entry(self, matching_pennies):
        assert matching_pennies.payoff((0, 1), 1) == 1

    def test_out_of_range(self, pd):
        with pytest.raises(IndexOutOfRange):
            pd.payoff((0, 2), 0)
        with pytest.raises(IndexOutOfRange):
            pd.payoff((0, 0), 2)

    def test_labels_round_trip(self, pd):
        assert pd.labels_for((1, 0)) == ("D", "C")
        assert pd.profile_from_labels(("D", "C")) == (1, 0)
        with pytest.raises(IndexOutOfRange):
            pd.profile_from_labels(("D", "X"))


class TestSocialValue:
    def test_pd_cooperate(self, pd):
        assert pd.social_value((0, 0)) == 4

    def test_matching_pennies_all_zero(self, matching_pennies):
        for s in matching_pennies.joint_strategies():
            assert matching_pennies.social_value(s) == 0

    def test_singleton_cost_sharing_optimum_cost(self):
        game = generate(tight_instance(TightFamily.COST_SHARING_SINGLETON,
                                       c_max=10, c_min=1))
        both_shared = game.profile_from_labels(("e1", "e1"))
        assert game.social_value(both_shared) == 10

    def test_social_value_is_payoff_sum(self):
        rng = random.Random(7)
        for _ in range(25):
            game = random_game(rng)
            for s in game.joint_strategies():
                total = sum(game.payoff(s, i) for i in range(game.player_count))
                assert game.social_value(s) == total


class TestJointStrategies:
    def test_two_by_two_order(self, pd):
        assert list(pd.joint_strategies()) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_travelers_count(self, travelers):
        assert travelers.cell_count == 99 * 99
        profiles = list(travelers.joint_strategies())
        assert len(profiles) == 9801
        assert len(set(profiles)) == 9801

    def test_three_player_pd(self):
        game = generate(PrisonersDilemmaN(3))
        assert len(list(game.joint_strategies())) == 8


class TestRationals:
    @given(st.fractions())
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q

    def test_string_forms(self):
        assert parse_rational("1/3") == Fraction(1, 3)
        assert parse_rational("-7") == Fraction(-7)
        assert parse_rational(4) == Fraction(4)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            parse_rational("1/0")

    def test_floats_rejected(self):
        with pytest.raises(GameError):
            parse_rational(0.5)
        with pytest.raises(GameError):
            parse_rational("0.5")


def test_negation_round_trip(pd):
    flipped = pd.negated()
    assert flipped.orientation is Orientation.COST_MIN
    assert flipped.negated() == pd
    assert flipped.payoff((0, 0), 0) == -2


class TestStore:
    LABELS = (("a", "b"), ("c",))

    @pytest.mark.parametrize("halves,wholes", [
        (("2/4", "-6/4"), ("4/2", "0/5")),
        ((Fraction(1, 2), Fraction(-3, 2)), (Fraction(2), Fraction(0))),
        (("1/2", " -3/2 "), (2, 0)),
    ])
    def test_written_forms_give_one_store(self, halves, wholes):
        game = Game(Orientation.PAYOFF_MAX, self.LABELS,
                    ((halves[0], wholes[0]), (halves[1], wholes[1])))
        assert game.denominator == 2
        assert game.columns == ((1, -3), (4, 0))
        reference = Game(Orientation.PAYOFF_MAX, self.LABELS,
                         ((Fraction(1, 2), 2), (Fraction(-3, 2), 0)))
        assert game == reference and hash(game) == hash(reference)
        assert game.payoffs == ((Fraction(1, 2), 2), (Fraction(-3, 2), 0))
        assert all(type(v) is Fraction for cell in game.payoffs for v in cell)

    def test_integer_table_has_denominator_one(self):
        game = Game(Orientation.COST_MIN, self.LABELS, (("4/2", 3), (Fraction(-8, 4), "0")))
        assert (game.denominator, game.columns) == (1, ((2, -2), (3, 0)))

    def test_derived_games_reduce_to_the_canonical_store(self, pd):
        assert pd.negated().negated() == pd
        assert hash(pd.negated().negated()) == hash(pd)
        rescaled = scale(scale(pd, Fraction(3, 2)), Fraction(2, 3))
        assert rescaled == pd and rescaled.denominator == 1
        shared = altruistic(pd, Fraction(1, 3))
        direct = Game(pd.orientation, pd.strategy_labels,
                      [tuple(v + Fraction(1, 3) * sum(vec) for v in vec) for vec in pd.payoffs])
        assert shared == direct and shared.denominator == 3

    @pytest.mark.parametrize("orientation", list(Orientation))
    def test_equality_is_equality_of_exact_tables(self, orientation):
        # Small shapes and few values, so that equal tables are common.
        rng = random.Random(17)
        games = []
        for _ in range(500):
            counts = rng.choice(((1, 1), (1, 2), (2, 1)))
            labels = tuple(tuple(f"s{j}" for j in range(m)) for m in counts)
            cells = [tuple(rng.choice((0, Fraction(1, 2), Fraction(-1, 3))) for _ in counts)
                     for _ in range(counts[0] * counts[1])]
            games.append(Game(orientation, labels, [
                tuple(rng.choice((q, f"{2 * q.numerator}/{2 * q.denominator}")) for q in cell)
                for cell in cells]))
        equal_pairs = 0
        for k, game in enumerate(games):
            for other in games[max(0, k - 10):k]:
                same = (other.strategy_labels, other.payoffs) == (game.strategy_labels, game.payoffs)
                assert (other == game) is same
                if same:
                    equal_pairs += 1
                    assert hash(other) == hash(game)
        assert equal_pairs > 30

