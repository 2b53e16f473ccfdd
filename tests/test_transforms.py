"""Altruistic transform algebra: shift/scale invariance, inverse,
composition, and the four-model equivalence."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from selfishlevel import (
    AltruismModel,
    AltruismParam,
    Game,
    Orientation,
    altruistic,
    altruistic_model,
    compose_check,
    convert_param,
    generate,
    inverse_altruistic,
    is_alpha_selfish,
    NoNash2x2,
    pure_nash,
    scale,
    selfishness_function,
    selfishness_level,
    shift,
    social_optima,
)
from selfishlevel.errors import GameError, NegativeAlpha, NonPositiveScale, ParamOutOfRange

from oracles import random_game, random_game_corpus

CORPUS = random_game_corpus(seed=31337, size=50)

ALPHAS = st.fractions(min_value=0, max_value=6, max_denominator=8)


def small_games():
    rng = random.Random(4242)
    return st.builds(lambda seed: random_game(random.Random(seed)),
                     st.integers(min_value=0, max_value=10_000))


class TestAltruistic:
    def test_pd_at_one_matches_known_table(self, pd):
        transformed = altruistic(pd, 1)
        assert transformed.payoffs == (
            (Fraction(6), Fraction(6)), (Fraction(3), Fraction(6)),
            (Fraction(6), Fraction(3)), (Fraction(3), Fraction(3)),
        )

    def test_no_nash_at_one_matches_known_table(self):
        transformed = altruistic(generate(NoNash2x2()), 1)
        assert transformed.payoffs == (
            (Fraction(6), Fraction(6)), (Fraction(4), Fraction(2)),
            (Fraction(6), Fraction(3)), (Fraction(3), Fraction(3)),
        )

    def test_zero_is_identity(self, pd):
        assert altruistic(pd, 0) == pd

    def test_negative_alpha_rejected(self, pd):
        with pytest.raises(NegativeAlpha):
            altruistic(pd, -1)

    @pytest.mark.parametrize("check", [
        lambda g, a: altruistic(g, a),
        lambda g, a: inverse_altruistic(g, a),
        lambda g, a: convert_param(a, AltruismModel.B, g.player_count),
        lambda g, a: compose_check(g, a, 1),
        lambda g, a: compose_check(g, 1, a),
        lambda g, a: is_alpha_selfish(g, a),
        lambda g, a: selfishness_function(g, [0, a]),
    ])
    def test_every_share_is_checked_alike(self, pd, check):
        with pytest.raises(NegativeAlpha, match=r"^altruism share must be >= 0, got -3/2$"):
            check(pd, "-3/2")
        with pytest.raises(GameError, match="exact rational"):
            check(pd, "0.5")

    def test_cost_orientation_adds_social_cost(self):
        game = Game(Orientation.COST_MIN, (("a", "b"), ("a", "b")),
                    ((1, 2), (3, 4), (5, 6), (7, 8)))
        transformed = altruistic(game, 1)
        assert transformed.payoff((0, 0), 0) == 1 + 3
        assert transformed.orientation is Orientation.COST_MIN

    def test_social_optima_preserved(self):
        for game in CORPUS[:20]:
            for alpha in (Fraction(1, 2), Fraction(3)):
                assert social_optima(altruistic(game, alpha)) == social_optima(game)


class TestShiftScale:
    def test_shift_pd_by_minus_two(self, pd):
        shifted = shift(pd, -2)
        assert shifted.payoffs == (
            (Fraction(0), Fraction(0)), (Fraction(-2), Fraction(1)),
            (Fraction(1), Fraction(-2)), (Fraction(-1), Fraction(-1)),
        )

    def test_scale_identity(self, pd):
        assert scale(pd, 1) == pd

    def test_scale_clears_denominators(self):
        game = Game(Orientation.PAYOFF_MAX, (("a", "b"), ("a", "b")),
                    ((Fraction(1, 6), Fraction(1, 3)), (Fraction(1, 2), 1),
                     (0, Fraction(5, 6)), (Fraction(2, 3), Fraction(1, 6))))
        scaled = scale(game, 6)
        assert all(v.denominator == 1 for vec in scaled.payoffs for v in vec)

    def test_nonpositive_scale_rejected(self, pd):
        with pytest.raises(NonPositiveScale):
            scale(pd, 0)
        with pytest.raises(NonPositiveScale):
            scale(pd, -2)

    def test_level_invariance(self):
        for game in CORPUS[:25]:
            base = selfishness_level(game)
            for variant in (shift(game, Fraction(7, 3)), shift(game, -4),
                            scale(game, Fraction(2, 5)), scale(game, 12)):
                other = selfishness_level(variant)
                assert other.kind is base.kind
                assert other.level() == base.level()


class TestInverse:
    def test_zero_is_identity(self, pd):
        assert inverse_altruistic(pd, 0) == pd

    def test_round_trip_from_inverse(self, pd):
        assert altruistic(inverse_altruistic(pd, 1), 1) == pd

    def test_round_trip_from_transform(self, pd):
        assert inverse_altruistic(altruistic(pd, 1), 1) == pd

    @settings(max_examples=40, deadline=None)
    @given(small_games(), ALPHAS)
    def test_round_trip_property(self, game, alpha):
        assert altruistic(inverse_altruistic(game, alpha), alpha) == game


class TestCompose:
    def test_pd_one_one(self, pd):
        assert compose_check(pd, 1, 1)

    def test_alpha_zero(self, pd):
        assert compose_check(pd, 0, Fraction(5, 7))

    @settings(max_examples=40, deadline=None)
    @given(small_games(), ALPHAS, ALPHAS)
    def test_always_true(self, game, alpha, beta):
        assert compose_check(game, alpha, beta)


class TestModelConversion:
    def test_model_b_two_players(self):
        assert convert_param(1, AltruismModel.B, n=2).value == Fraction(2, 3)

    def test_model_d(self):
        assert convert_param(1, AltruismModel.D).value == Fraction(1, 3)

    def test_model_c_zero(self):
        assert convert_param(0, AltruismModel.C).value == 0

    def test_model_b_needs_player_count(self):
        with pytest.raises(ParamOutOfRange):
            convert_param(1, AltruismModel.B)

    def test_param_ranges(self):
        with pytest.raises(ParamOutOfRange):
            AltruismParam(AltruismModel.B, Fraction(3, 2))
        with pytest.raises(ParamOutOfRange):
            AltruismParam(AltruismModel.A, Fraction(-1))
        # the model-D formula stays well-defined past the convertible range
        AltruismParam(AltruismModel.D, Fraction(3, 4))

    def test_conversion_lands_in_equivalence_range(self):
        for alpha in (0, Fraction(1, 2), 1, 100):
            assert 0 <= convert_param(alpha, AltruismModel.D).value <= Fraction(1, 2)
            assert 0 <= convert_param(alpha, AltruismModel.C).value <= 1
            assert 0 <= convert_param(alpha, AltruismModel.B, n=3).value <= 1


class TestModelEquivalence:
    def test_equilibria_and_optima_coincide(self):
        alphas = (Fraction(1, 2), Fraction(2))
        for game in CORPUS[:20]:
            for alpha in alphas:
                reference = altruistic(game, alpha)
                for model in (AltruismModel.B, AltruismModel.C, AltruismModel.D):
                    param = convert_param(alpha, model, n=game.player_count)
                    variant = altruistic_model(game, param)
                    assert pure_nash(variant) == pure_nash(reference)
                    assert social_optima(variant) == social_optima(reference)

    def test_cost_games_too(self):
        rng = random.Random(606)
        for _ in range(10):
            game = random_game(rng, orientation=Orientation.COST_MIN)
            reference = altruistic(game, Fraction(3, 4))
            for model in (AltruismModel.B, AltruismModel.C, AltruismModel.D):
                param = convert_param(Fraction(3, 4), model, n=game.player_count)
                variant = altruistic_model(game, param)
                assert pure_nash(variant) == pure_nash(reference)
                assert social_optima(variant) == social_optima(reference)

    def test_model_a_param_matches_plain_transform(self, pd):
        param = convert_param(Fraction(1, 2), AltruismModel.A)
        assert altruistic_model(pd, param) == altruistic(pd, Fraction(1, 2))

    def test_model_d_formula(self, pd):
        param = AltruismParam(AltruismModel.D, Fraction(1, 3))
        transformed = altruistic_model(pd, param)
        # (1-d)*p + d*(SW - p) at (C,C): (2/3)*2 + (1/3)*2 = 2
        assert transformed.payoff((0, 0), 0) == 2
        # at (D,C): (2/3)*3 + (1/3)*0 = 2
        assert transformed.payoff((1, 0), 0) == 2
