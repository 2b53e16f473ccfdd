"""Game model: construction, validation, lookups, enumeration."""

import math
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
    is_alpha_selfish,
    parse_rational,
    price_of_anarchy,
    price_of_stability,
    pure_nash,
    scale,
    selfishness_level,
    social_optima,
    stable_social_optima,
    tight_instance,
)
from selfishlevel import gamedoc
from selfishlevel.core import _scaled
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
from oracles import naive_pure_nash, random_game, random_game_corpus


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

    @pytest.mark.parametrize("cells", [((1, True), (0, 0)), ((1.0, 1), (0, 0)),
                                       (("1", 1), (0, 1.0))])
    def test_equal_values_of_other_types_are_parsed(self, cells):
        with pytest.raises(GameError, match="not a rational value: True|floating-point"):
            Game(Orientation.PAYOFF_MAX, self.LABELS, cells)

    @pytest.mark.parametrize("cells,message", [
        (((Fraction(1, 2), 0.5), (Fraction(1, 2), [1])), "floating-point value 0.5 rejected"),
        (((Fraction(1, 2), [1]), (0.5, Fraction(1, 2))), r"not a rational value: \[1\]"),
        (((Fraction(1, 2), "1/0"), (True, 1)), "zero denominator in '1/0'"),
    ])
    def test_first_bad_value_among_fractions_raises(self, cells, message):
        with pytest.raises(GameError, match=message):
            Game(Orientation.PAYOFF_MAX, self.LABELS, cells)

    def test_distinct_equal_fractions_give_one_store(self):
        half = Fraction(1, 2)
        shared = Game(Orientation.PAYOFF_MAX, self.LABELS, ((half, half), (half, 2)))
        distinct = Game(Orientation.PAYOFF_MAX, self.LABELS,
                        ((Fraction(1, 2), Fraction(2, 4)), (Fraction(-1, -2), Fraction(2))))
        assert (distinct.denominator, distinct.columns) == (2, ((1, 1), (1, 4)))
        assert distinct == shared and hash(distinct) == hash(shared)

    def test_fractions_scale_as_their_string_forms(self):
        half, third = Fraction(1, 2), Fraction(-1, 3)
        values = [half, third, half, Fraction(2, 4), Fraction(5), third, Fraction(0), half]
        assert _scaled(values) == (6, [3, -2, 3, 3, 30, -2, 0, 3])
        assert _scaled(values) == _scaled([str(v) for v in values])

    @pytest.mark.parametrize("values,message", [
        ([Fraction(1, 2), "1/0", 0.5, "x"], "zero denominator in '1/0'"),
        ([Fraction(1, 2), 0.5, "1/0", [1]], "floating-point value 0.5 rejected"),
        ([Fraction(1, 2), 2, "x", True], "not a rational literal: 'x'"),
        (["1/2", 2, True, 0.5], "not a rational value: True"),
        (["1/2", 2, "1/2", [1], 0.5], r"not a rational value: \[1\]"),
    ])
    def test_first_bad_value_in_a_mixed_sequence_raises(self, values, message):
        with pytest.raises(GameError, match=message):
            _scaled(values)

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



L23 = (("a", "b"), ("x", "y", "z"))
L222 = (("a", "b"),) * 3
V2, V3 = [1, 2], [1, 2, 3]

# A nested table and the error it raises: the first fault in depth-first
# order, whatever the depth, and value and label faults only after the shape.
MALFORMED = [
    ("player 1 count", L23, [[V2] * 3], DimensionMismatch,
     "expected 2 entries for player 1, got 1"),
    ("player 2 count", L23, [[V2] * 3, [V2] * 2], DimensionMismatch,
     "expected 3 entries for player 2, got 2"),
    ("vector length", L23, [[V2] * 3, [V2, V3, V2]], DimensionMismatch,
     "expected a vector of 2 payoffs, got [1, 2, 3]"),
    ("empty vector", L23, [[V2] * 3, [V2, V2, []]], DimensionMismatch,
     "expected a vector of 2 payoffs, got []"),
    ("string root", L23, "oops", DimensionMismatch,
     "expected 2 entries for player 1, got 'oops'"),
    ("dict node", L23, [[V2] * 3, {"x": V2}], DimensionMismatch,
     "expected 3 entries for player 2, got {'x': [1, 2]}"),
    ("int node", L23, [[V2] * 3, 5], DimensionMismatch,
     "expected 3 entries for player 2, got 5"),
    ("scalar leaf", L23, [[V2, 7, V2], [V2] * 3], DimensionMismatch,
     "expected a vector of 2 payoffs, got 7"),
    ("string leaf", L23, [[V2] * 3, [V2, V2, "12"]], DimensionMismatch,
     "expected a vector of 2 payoffs, got '12'"),
    ("tuple fault", L23, ((V2, V2), [V2] * 3), DimensionMismatch,
     "expected 3 entries for player 2, got 2"),
    ("deeper fault first", L23, [[V2, V2, [1]], "bad"], DimensionMismatch,
     "expected a vector of 2 payoffs, got [1]"),
    ("deeper fault first, 3 players", L222,
     [[[V3, V3], [V3, [1, 2]]], [[V3, V3], [V3]]], DimensionMismatch,
     "expected a vector of 3 payoffs, got [1, 2]"),
    ("shallower fault first, 3 players", L222,
     [[[V3, V3], [V3]], [[V3, V3], [V3, [1, 2]]]], DimensionMismatch,
     "expected 2 entries for player 3, got 1"),
    ("float value", L23, [[V2] * 3, [V2, [1, 0.5], V2]], GameError,
     "floating-point value 0.5 rejected; write it as an integer or a 'p/q' string"),
    ("value fault before label fault", (("a", "a"), ("x", "y", "z")),
     [[V2] * 3, [V2, ["1/0", 1], V2]], ZeroDenominator, "zero denominator in '1/0'"),
    ("label fault", (("a", "a"), ("x", "y", "z")), [[V2] * 3] * 2, DuplicateLabel,
     "player 1 has duplicate strategy labels"),
    ("empty strategy set", (("a",), ()), [[]], EmptyStrategySet,
     "player 2 has no strategies"),
    ("one player", (("a", "b"),), [[1], [2]], PlayerCountTooSmall,
     "a strategic game needs more than one player, got 1"),
    ("no players", (), [], PlayerCountTooSmall,
     "a strategic game needs more than one player, got 0"),
]


class TestFromDense:
    @pytest.mark.parametrize("labels,nested,kind,message",
                             [case[1:] for case in MALFORMED],
                             ids=[case[0] for case in MALFORMED])
    def test_malformed_table(self, labels, nested, kind, message):
        with pytest.raises(GameError) as info:
            Game.from_dense(Orientation.PAYOFF_MAX, labels, nested)
        assert type(info.value) is kind
        assert str(info.value) == message

    def test_tuples_read_as_lists(self):
        nested = [[[1, "1/2"], [3, 4], [-5, 6]], [[7, 8], [9, 10], [11, 12]]]
        as_tuples = tuple(tuple(tuple(cell) for cell in row) for row in nested)
        game = Game.from_dense(Orientation.COST_MIN, L23, as_tuples)
        assert game == Game.from_dense(Orientation.COST_MIN, L23, nested)
        assert game == Game(Orientation.COST_MIN, L23, [cell for row in nested for cell in row])
        assert (game.denominator, game.columns[0]) == (2, (2, 6, -10, 14, 18, 22))


@pytest.mark.parametrize("counts", [(2, 40), (40, 2), (3, 1, 30), (30, 1, 3)])
@pytest.mark.parametrize("orientation", list(Orientation))
def test_equilibria_on_long_axes(counts, orientation):
    # Few distinct values, so that an axis often has several maxima.
    rng = random.Random(str(counts))
    labels = tuple(tuple(f"s{j}" for j in range(m)) for m in counts)
    cells = [tuple(rng.randint(-3, 3) for _ in counts) for _ in range(math.prod(counts))]
    game = Game(orientation, labels, cells)
    kernel = game._kernel
    optimal = [kernel.profile(c) for c in kernel.optima]
    for alpha in (Fraction(0), Fraction(1, 3), Fraction(1), Fraction(5, 2)):
        nash = naive_pure_nash(altruistic(game, alpha))
        found = kernel.equilibria(alpha.numerator, alpha.denominator)
        assert [kernel.profile(c) for c in found] == nash
        assert is_alpha_selfish(game, alpha) == any(s in nash for s in optimal)


class TestOrientationCoercion:
    """Every constructor reads an orientation's string as the member, and
    rejects anything else with a GameError."""

    QUERIES = [pure_nash, social_optima, stable_social_optima, selfishness_level,
               price_of_stability, price_of_anarchy,
               lambda g: gamedoc.render_game_document(gamedoc.GameDocument.from_game(g))]

    @pytest.mark.parametrize("orientation", list(Orientation))
    def test_string_reads_as_the_member(self, orientation):
        for table in random_game_corpus(seed=1105, size=30):
            labels, cells = table.strategy_labels, table.payoffs
            member = Game(orientation, labels, cells)
            text = Game(orientation.value, labels, cells)
            assert text.orientation is orientation
            assert text == member and hash(text) == hash(member)
            for query in self.QUERIES:
                assert query(text) == query(member)

    def test_string_orientation_of_a_dense_table(self, pd):
        nested = [[list(pd.payoffs[0]), list(pd.payoffs[1])],
                  [list(pd.payoffs[2]), list(pd.payoffs[3])]]
        game = Game.from_dense("payoff", pd.strategy_labels, nested)
        assert game.orientation is Orientation.PAYOFF_MAX
        assert pure_nash(game) == pure_nash(pd) == [(1, 1)]

    @pytest.mark.parametrize("orientation", ["bogus", None, "PAYOFF_MAX", 1])
    def test_anything_else_is_rejected(self, pd, orientation):
        message = f"orientation must be 'payoff' or 'cost', got {orientation!r}"
        with pytest.raises(GameError) as raised:
            Game(orientation, pd.strategy_labels, pd.payoffs)
        assert str(raised.value) == message
        with pytest.raises(GameError):
            Game.from_dense(orientation, (("a",), ("b",)), [[[1, 2]]])
