"""Equilibria, optima, appeal factors, the level, and its characterization."""

import collections
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from selfishlevel import (
    Game,
    LevelKind,
    Orientation,
    PrisonersDilemmaN,
    PublicGoodsGrid,
    altruistic,
    appeal_factor,
    generate,
    is_alpha_selfish,
    is_nash,
    price_of_anarchy,
    price_of_stability,
    pure_nash,
    selfishness_function,
    selfishness_level,
    social_optima,
    stabilizing_alpha,
    stable_social_optima,
    symmetric_selfishness_level,
    upper_contour,
)
from selfishlevel import GeneralizedPD, gamedoc, transforms
from selfishlevel.core import ZERO, _Kernel, _Orbits
from selfishlevel.errors import (
    EmptyStrategySet,
    ExplosionGuard,
    GameError,
    NegativeAlpha,
    NotImproving,
    NotStableOptimum,
    PlayerCountTooSmall,
)

from conftest import FAMILY_PARAMS, family_game
from oracles import (
    naive_is_alpha_selfish,
    naive_is_nash,
    naive_level_by_alpha_search,
    naive_level_candidates,
    naive_pure_nash,
    naive_social_optima,
    naive_stable_social_optima,
    random_game,
    random_game_corpus,
)

CORPUS = random_game_corpus(seed=2024, size=60)


# The tables of the first 30 corpus games, read as payoffs and as costs.
ORIENTED = [Game(orientation, game.strategy_labels, game.payoffs)
            for game in CORPUS[:30] for orientation in Orientation]


def coprime_corpus(seed: int, size: int) -> list[Game]:
    """Random tables, each in both orientations, whose values have
    denominators 5, 7, 11 and 13, so that a table's common denominator
    is large."""
    rng = random.Random(seed)
    games = []
    for _ in range(size):
        counts = [rng.randint(2, 3) for _ in range(rng.randint(2, 3))]
        labels = tuple(tuple(f"s{j}" for j in range(m)) for m in counts)
        cells = tuple(
            tuple(Fraction(rng.randint(-30, 30), rng.choice((5, 7, 11, 13)))
                  for _ in counts)
            for _ in itertools.product(*map(range, counts))
        )
        games += [Game(orientation, labels, cells) for orientation in Orientation]
    return games


COPRIME = coprime_corpus(seed=5711, size=20)

FIXTURES = Path(__file__).parent / "fixtures"


class TestPureNash:
    def test_pd(self, pd):
        assert pure_nash(pd) == [(1, 1)]

    def test_matching_pennies_has_none(self, matching_pennies):
        assert pure_nash(matching_pennies) == []

    def test_bad_nash_unique_poor_equilibrium(self, bad_nash):
        assert pure_nash(bad_nash) == [(2, 2)]

    def test_no_nash_game(self, no_nash):
        assert pure_nash(no_nash) == []

    def test_agrees_with_definition_oracle(self):
        for game in ORIENTED:
            assert pure_nash(game) == naive_pure_nash(game)

    def test_cost_orientation(self):
        game = random_game(random.Random(5), orientation=Orientation.COST_MIN)
        assert pure_nash(game) == naive_pure_nash(game)


class TestSocialOptima:
    def test_pd(self, pd):
        assert social_optima(pd) == [(0, 0)]

    def test_matching_pennies_all_profiles(self, matching_pennies):
        assert social_optima(matching_pennies) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_battle_of_sexes_both_coordinated(self, battle_of_sexes):
        assert social_optima(battle_of_sexes) == [(0, 0), (1, 1)]

    def test_agrees_with_definition_oracle(self):
        for game in ORIENTED:
            assert social_optima(game) == naive_social_optima(game)


class TestStableSocialOptima:
    def test_unique_optimum_is_vacuously_stable(self, pd):
        assert stable_social_optima(pd) == [(0, 0)]

    def test_matching_pennies_has_none(self, matching_pennies):
        assert stable_social_optima(matching_pennies) == []

    def test_battle_of_sexes_keeps_both(self, battle_of_sexes):
        assert stable_social_optima(battle_of_sexes) == [(0, 0), (1, 1)]

    def test_agrees_with_definition_oracle(self):
        for game in ORIENTED:
            assert stable_social_optima(game) == naive_stable_social_optima(game)


class TestUpperContour:
    def test_pd_cooperate(self, pd):
        assert upper_contour(pd, (0, 0), 0).strategies == {1}

    def test_battle_of_sexes_empty(self, battle_of_sexes):
        assert upper_contour(battle_of_sexes, (0, 0), 1).strategies == frozenset()

    def test_travelers_only_99_improves(self, travelers):
        top = travelers.profile_from_labels(("100", "100"))
        contour = upper_contour(travelers, top, 0)
        assert {travelers.strategy_labels[0][j] for j in contour.strategies} == {"99"}

    def test_membership_definition(self):
        for game in CORPUS[:10]:
            for s in game.joint_strategies():
                for i in range(game.player_count):
                    contour = upper_contour(game, s, i)
                    for alt in range(game.strategy_counts[i]):
                        t = s[:i] + (alt,) + s[i + 1:]
                        improves = game.payoff(t, i) > game.payoff(s, i)
                        assert (alt in contour.strategies) == improves


class TestAppealFactor:
    def test_pd_defection(self, pd):
        record = appeal_factor(pd, (0, 0), 0, 1)
        assert record.payoff_gain == 1
        assert record.welfare_drop == 1
        assert record.appeal_factor == 1

    def test_three_player_pd(self):
        game = generate(PrisonersDilemmaN(3))
        record = appeal_factor(game, (0, 0, 0), 1, 1)
        assert record.appeal_factor == Fraction(1, 3)

    def test_travelers_top_deviation(self, travelers):
        top = travelers.profile_from_labels(("100", "100"))
        to_99 = travelers.strategy_labels[0].index("99")
        record = appeal_factor(travelers, top, 0, to_99)
        assert record.appeal_factor == Fraction(1, 2)

    def test_not_improving(self, pd):
        with pytest.raises(NotImproving):
            appeal_factor(pd, (0, 0), 0, 0)

    def test_not_stable_optimum(self, pd):
        with pytest.raises(NotStableOptimum):
            appeal_factor(pd, (1, 1), 0, 0)

    def test_cost_game_reports_native_values(self):
        from selfishlevel import TightFamily, tight_instance
        game = generate(tight_instance(TightFamily.COST_SHARING_SINGLETON,
                                       c_max=10, c_min=1))
        optimum = game.profile_from_labels(("e1", "e1"))
        standalone = game.strategy_labels[1].index("e2")
        record = appeal_factor(game, optimum, 1, standalone)
        assert record.payoff_gain == 4       # cost 5 -> 1
        assert record.welfare_drop == 1      # social cost 10 -> 11
        assert record.appeal_factor == 4
        assert upper_contour(game, optimum, 1).strategies == {standalone}

    def test_welfare_drop_always_positive(self):
        for game in CORPUS[:30]:
            for s in stable_social_optima(game):
                for i in range(game.player_count):
                    for alt in upper_contour(game, s, i).strategies:
                        record = appeal_factor(game, s, i, alt)
                        assert record.welfare_drop > 0
                        assert record.payoff_gain > 0


class TestStabilizingAlpha:
    def test_pd(self, pd):
        assert stabilizing_alpha(pd, (0, 0)) == 1

    def test_battle_of_sexes_zero(self, battle_of_sexes):
        assert stabilizing_alpha(battle_of_sexes, (0, 0)) == 0

    def test_public_goods_grid(self):
        game = generate(PublicGoodsGrid(n=4, b=1, c=2, grid_steps=2))
        all_full = (2,) * 4
        assert stabilizing_alpha(game, all_full) == Fraction(1, 2)


class TestSelfishnessLevel:
    def test_pd_finite_one(self, pd):
        result = selfishness_level(pd)
        assert result.kind is LevelKind.FINITE
        assert result.value == 1
        assert result.witness_optimum == (0, 0)
        assert result.witness_deviation.appeal_factor == 1

    def test_matching_pennies_infinite(self, matching_pennies):
        result = selfishness_level(matching_pennies)
        assert result.is_infinite
        assert result.render() == "inf"

    def test_no_nash_still_finite(self, no_nash):
        result = selfishness_level(no_nash)
        assert result.kind is LevelKind.FINITE
        assert result.value == 1

    def test_battle_of_sexes_zero(self, battle_of_sexes):
        result = selfishness_level(battle_of_sexes)
        assert result.kind is LevelKind.ZERO
        assert result.render() == "0"
        assert result.level() == 0

    def test_bad_nash_infinite(self, bad_nash):
        assert selfishness_level(bad_nash).is_infinite

    def test_zero_iff_some_equilibrium_is_optimal(self):
        for game in CORPUS:
            result = selfishness_level(game)
            equilibria = set(pure_nash(game))
            optimal_equilibrium = bool(equilibria & set(social_optima(game)))
            assert (result.kind is LevelKind.ZERO) == optimal_equilibrium

    def test_infinite_iff_no_stable_optimum(self):
        for game in CORPUS:
            result = selfishness_level(game)
            assert result.is_infinite == (not stable_social_optima(game))

    def test_witness_tie_breaking_is_lexicographic(self):
        # two symmetric stable optima attain the same level; the witness
        # must be the lexicographically first one, and among equal-appeal
        # deviations the first (player, strategy) pair wins
        game = Game(
            Orientation.PAYOFF_MAX,
            (("a", "b", "c"), ("a", "b", "c")),
            (
                (4, 4), (0, 5), (0, 0),
                (5, 0), (1, 1), (5, 0),
                (0, 0), (0, 5), (4, 4),
            ),
        )
        result = selfishness_level(game)
        assert stable_social_optima(game) == [(0, 0), (2, 2)]
        assert result.level() == Fraction(1, 3)
        assert result.witness_optimum == (0, 0)
        assert (result.witness_deviation.player,
                result.witness_deviation.to_strategy) == (0, 1)

    def test_constant_sum_games_are_zero_or_infinite(self):
        # with constant total welfare the altruistic transform changes
        # nothing, so the level is 0 with an equilibrium and inf without
        rng = random.Random(8)
        zeros = infinites = 0
        for _ in range(30):
            m1, m2 = rng.randint(1, 3), rng.randint(1, 3)
            labels = (tuple(f"r{j}" for j in range(m1)),
                      tuple(f"c{j}" for j in range(m2)))
            cells = []
            for _ in range(m1 * m2):
                v = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
                cells.append((v, -v))
            game = Game(Orientation.PAYOFF_MAX, labels, tuple(cells))
            result = selfishness_level(game)
            if pure_nash(game):
                assert result.kind is LevelKind.ZERO
                zeros += 1
            else:
                assert result.is_infinite
                infinites += 1
        assert zeros and infinites


class TestIsAlphaSelfish:
    def test_pd_at_one(self, pd):
        assert is_alpha_selfish(pd, 1)

    def test_pd_below_one(self, pd):
        assert not is_alpha_selfish(pd, Fraction(1, 2))

    def test_zero_when_equilibrium_optimal(self, battle_of_sexes):
        assert is_alpha_selfish(battle_of_sexes, 0)

    def test_agrees_with_inline_oracle(self):
        for game in CORPUS[:25]:
            for alpha in (Fraction(0), Fraction(1, 3), Fraction(2)):
                assert is_alpha_selfish(game, alpha) == naive_is_alpha_selfish(game, alpha)

    def test_monotone_in_alpha(self):
        grid = [Fraction(0), Fraction(1, 4), Fraction(1), Fraction(3)]
        for game in CORPUS[:40]:
            flags = [is_alpha_selfish(game, a) for a in grid]
            for low, high in itertools.pairwise(flags):
                assert not (low and not high)


class TestCharacterization:
    """The level equals the least stabilizing share over stable optima."""

    def test_equilibrium_optima_are_stable(self):
        grid = [Fraction(0), Fraction(1, 3), Fraction(1), Fraction(3)]
        for game in CORPUS[:30]:
            optima = set(social_optima(game))
            stable = set(stable_social_optima(game))
            for alpha in grid:
                for ne in pure_nash(altruistic(game, alpha)):
                    if ne in optima:
                        assert ne in stable

    def test_stable_optimum_equilibrium_threshold(self):
        for game in CORPUS[:30]:
            for s in stable_social_optima(game):
                alpha = stabilizing_alpha(game, s)
                assert is_nash(altruistic(game, alpha), s)
                if alpha > 0:
                    assert not is_nash(altruistic(game, alpha / 2), s)

    def test_level_equals_alpha_search(self):
        for game in CORPUS:
            result = selfishness_level(game)
            searched = naive_level_by_alpha_search(game)
            if result.is_infinite:
                assert searched is None
            else:
                assert searched == result.level()


class TestCoprimeDenominators:
    """Values over denominators 5, 7, 11 and 13 in both orientations, so a
    slip in the sign or the common denominator shows against the oracles."""

    def test_level_equals_alpha_search(self):
        kinds = set()
        for game in COPRIME:
            result = selfishness_level(game)
            kinds.add(result.kind)
            assert result.level() == naive_level_by_alpha_search(game)
        assert {LevelKind.ZERO, LevelKind.FINITE} <= kinds

    def test_is_nash_at_every_profile(self):
        for game in COPRIME:
            for s in game.joint_strategies():
                assert is_nash(game, s) == naive_is_nash(game, s)

    @staticmethod
    def _assert_native(game, record):
        s = record.profile
        t = s[:record.player] + (record.to_strategy,) + s[record.player + 1:]
        before = game.payoffs[game.flat_index(s)]
        after = game.payoffs[game.flat_index(t)]
        gain = after[record.player] - before[record.player]
        drop = sum(before, Fraction(0)) - sum(after, Fraction(0))
        if game.orientation is Orientation.COST_MIN:
            gain, drop = -gain, -drop
        assert (record.payoff_gain, record.welfare_drop) == (gain, drop)
        assert record.appeal_factor == gain / drop

    def test_witnesses_in_native_units(self):
        witnesses = 0
        for game in COPRIME:
            result = selfishness_level(game)
            if result.witness_deviation is not None:
                self._assert_native(game, result.witness_deviation)
                witnesses += 1
            for s in stable_social_optima(game):
                for i in range(game.player_count):
                    for alt in upper_contour(game, s, i).strategies:
                        self._assert_native(game, appeal_factor(game, s, i, alt))
        assert witnesses


class TestPrices:
    def test_pd(self, pd):
        assert price_of_stability(pd) == 2
        assert price_of_anarchy(pd) == 2

    def test_generalized_pd(self):
        game = generate(GeneralizedPD(alpha=2, beta=3))
        assert price_of_stability(game) == 3
        assert price_of_anarchy(game) == 3

    def test_battle_of_sexes(self, battle_of_sexes):
        assert price_of_stability(battle_of_sexes) == 1
        assert price_of_anarchy(battle_of_sexes) == 1

    def test_no_equilibrium_undefined(self, matching_pennies):
        assert price_of_stability(matching_pennies) is None
        assert price_of_anarchy(matching_pennies) is None

    def test_nonpositive_denominator_undefined(self, bad_nash):
        assert price_of_stability(bad_nash) is None

    def test_cost_game_convention(self):
        # both on the shared facility is optimal (cost 10); the standalone
        # option gives the lone equilibrium cost 11 after best responses
        game = Game(
            Orientation.COST_MIN,
            (("e1", "e2"), ("e1", "e2")),
            ((Fraction(5), Fraction(5)), (Fraction(10), Fraction(1)),
             (Fraction(1), Fraction(10)), (Fraction(2), Fraction(2))),
        )
        pos = price_of_stability(game)
        assert pos is not None and pos >= 1

    def test_ratio_at_least_one_when_defined(self):
        for game in CORPUS:
            pos = price_of_stability(game)
            poa = price_of_anarchy(game)
            if pos is not None:
                assert pos >= 1
            if poa is not None:
                # anarchy defined means the worst equilibrium value is usable,
                # so the best one is too
                assert pos is not None
                assert poa >= pos

    def test_stability_one_iff_level_zero(self):
        for game in CORPUS:
            pos = price_of_stability(game)
            if pos is None:
                continue
            level_zero = selfishness_level(game).kind is LevelKind.ZERO
            assert (pos == 1) == level_zero


class TestSelfishnessFunction:
    def test_pd_table(self, pd):
        table = selfishness_function(pd, [0, 1, 2])
        assert table == [(0, Fraction(2)), (1, Fraction(1)), (2, Fraction(1))]

    def test_battle_of_sexes_at_zero(self, battle_of_sexes):
        assert selfishness_function(battle_of_sexes, [0]) == [(0, Fraction(1))]

    def test_matching_pennies_undefined_everywhere(self, matching_pennies):
        table = selfishness_function(matching_pennies, [0, 1, 7])
        assert all(value is None for _, value in table)

    def test_reaches_one_at_the_level(self):
        for game in CORPUS[:25]:
            result = selfishness_level(game)
            if result.is_infinite:
                continue
            table = selfishness_function(game, [result.level()])
            assert table[0][1] == 1


def _naive_threshold(game: Game, s) -> Fraction:
    """The largest appeal factor at stable optimum ``s``, 0 if none, by brute force."""
    factors = [ZERO]
    for i, m in enumerate(game.strategy_counts):
        for alt in range(m):
            t = s[:i] + (alt,) + s[i + 1:]
            gain = game.payoff(t, i) - game.payoff(s, i)
            drop = game.social_value(s) - game.social_value(t)
            if game.orientation is Orientation.COST_MIN:
                gain, drop = -gain, -drop
            if gain > 0:
                factors.append(gain / drop)
    return max(factors)


def _threshold_grid(game: Game) -> list[Fraction]:
    """0, each distinct threshold, the midpoints between them, just below
    the least positive one, and past the largest."""
    thresholds = sorted({_naive_threshold(game, s) for s in naive_stable_social_optima(game)})
    grid = {ZERO, *thresholds, *((a + b) / 2 for a, b in itertools.pairwise(thresholds))}
    positive = [t for t in thresholds if t > 0]
    if positive:
        grid.add(positive[0] * Fraction(996, 997))
    grid.add(2 * max(thresholds, default=ZERO) + 1)
    return sorted(grid)


def _probe_shares(game: Game) -> list[Fraction]:
    """Every level candidate, the midpoints between consecutive ones, twice
    the largest, one share with a large prime denominator, and the
    threshold grid."""
    candidates = naive_level_candidates(game)
    midpoints = [(a + b) / 2 for a, b in itertools.pairwise(candidates)]
    return sorted({*candidates, *midpoints, 2 * candidates[-1], Fraction(1, 997),
                   *_threshold_grid(game)})


class TestAltruismSharesOnBaseKernel:
    """Share queries answered on the game's own kernel equal the same
    queries on the materialised altruistic game."""

    GAMES = ([Game(orientation, game.strategy_labels, game.payoffs)
              for game in CORPUS + random_game_corpus(seed=60321, size=200)
              for orientation in Orientation]
             + COPRIME + [family_game(name) for name in FAMILY_PARAMS])

    def test_selfishness_function_matches_transformed_game(self):
        for game in self.GAMES:
            assert selfishness_function(game, [0]) == [(0, price_of_stability(game))]
            shares = _probe_shares(game)
            expected = [(a, price_of_stability(altruistic(game, a))) for a in shares]
            for pair in expected:
                assert selfishness_function(game, [pair[0]]) == [pair]
            assert selfishness_function(game, shares[::-1]) == expected[::-1]

    def test_stabilizing_alpha_matches_transformed_game(self):
        for game in self.GAMES:
            stable = stable_social_optima(game)
            for alpha in _probe_shares(game):
                nash = set(pure_nash(altruistic(game, alpha)))
                for s in stable:
                    assert (s in nash) == (alpha >= stabilizing_alpha(game, s))

    def test_is_alpha_selfish_matches_transformed_game(self):
        for game in self.GAMES:
            optima = set(social_optima(game))
            for alpha in _probe_shares(game):
                transformed = any(s in optima for s in pure_nash(altruistic(game, alpha)))
                assert is_alpha_selfish(game, alpha) == naive_is_alpha_selfish(game, alpha)
                assert is_alpha_selfish(game, alpha) == transformed

    @pytest.mark.parametrize("fixture", ["prisoners_dilemma.json", "cost_sharing_tight.json"])
    def test_no_altruistic_game_is_built(self, fixture, monkeypatch):
        doc = gamedoc.parse_game_document((FIXTURES / fixture).read_text())
        game = doc.game
        level = selfishness_level(game).level()
        alphas = [Fraction(0), level / 2, level, 2 * level]
        optima = set(social_optima(game))
        selfish = [any(s in optima for s in pure_nash(altruistic(game, a))) for a in alphas]
        table = [(a, price_of_stability(altruistic(game, a))) for a in alphas]
        report = gamedoc.sweep_report(doc, alphas)

        def forbidden(*args):
            raise AssertionError("an altruistic game was built")

        monkeypatch.setattr(transforms, "altruistic", forbidden)
        monkeypatch.setattr(Game, "with_payoffs", forbidden)
        fresh = gamedoc.parse_game_document((FIXTURES / fixture).read_text())
        assert [is_alpha_selfish(fresh.game, a) for a in alphas] == selfish
        assert selfishness_function(fresh.game, alphas) == table
        assert gamedoc.sweep_report(fresh, alphas) == report
        with pytest.raises(NegativeAlpha):
            is_alpha_selfish(fresh.game, -1)
        with pytest.raises(NegativeAlpha):
            selfishness_function(fresh.game, [0, Fraction(-1, 2)])
        with pytest.raises(GameError):
            is_alpha_selfish(fresh.game, 0.5)
        with pytest.raises(GameError):
            selfishness_function(fresh.game, [0.5])


class TestThresholds:
    """Each stable optimum's threshold, its largest appeal factor, answers
    the share queries without an equilibrium pass from the level on."""

    def test_stabilizing_alpha_is_the_largest_appeal_factor(self):
        for game in TestAltruismSharesOnBaseKernel.GAMES:
            for s in stable_social_optima(game):
                factors = [appeal_factor(game, s, i, t).appeal_factor
                           for i in range(game.player_count)
                           for t in upper_contour(game, s, i).strategies]
                assert stabilizing_alpha(game, s) == max(factors, default=ZERO)
                assert stabilizing_alpha(game, s) == _naive_threshold(game, s)

    def test_no_equilibrium_pass_at_or_above_the_level(self, monkeypatch):
        calls = collections.Counter()
        original = _Kernel.equilibria

        def counted(self, p=0, q=1):
            calls[p, q] += 1
            return original(self, p, q)

        monkeypatch.setattr(_Kernel, "equilibria", counted)
        checked = 0
        for game in TestAltruismSharesOnBaseKernel.GAMES:
            level = selfishness_level(game).level()
            fresh = Game(game.orientation, game.strategy_labels, game.payoffs)
            grid = _threshold_grid(game)
            for alpha in grid:
                is_alpha_selfish(fresh, alpha)
            assert not calls
            if level is None:
                continue
            above = [a for a in grid if a >= level]
            selfishness_function(fresh, above)
            assert not calls
            below = [a for a in grid if 0 < a < level]
            selfishness_function(fresh, below)
            assert sum(calls.values()) == len(below)
            calls.clear()
            checked += bool(below)
        assert checked

    def test_errors_come_before_kernel_work(self, pd):
        fresh = Game(pd.orientation, pd.strategy_labels, pd.payoffs)
        with pytest.raises(NegativeAlpha):
            selfishness_function(fresh, [1, Fraction(-1, 2)])
        with pytest.raises(NegativeAlpha):
            is_alpha_selfish(fresh, -1)
        assert "_kernel" not in vars(fresh)
        for profile in ((0,), (0, 0, 0), (2, 0), (0, -1), (1, 1)):
            with pytest.raises(NotStableOptimum):
                stabilizing_alpha(pd, profile)
            with pytest.raises(NotStableOptimum):
                appeal_factor(pd, profile, 0, 1)


def _expand_symmetric(n, m, payoff, orientation=Orientation.PAYOFF_MAX) -> Game:
    labels = (tuple(f"s{j}" for j in range(m)),) * n
    cells = []
    for profile in itertools.product(range(m), repeat=n):
        vec = []
        for i in range(n):
            rest = [0] * m
            for k, j in enumerate(profile):
                if k != i:
                    rest[j] += 1
            vec.append(payoff(profile[i], tuple(rest)))
        cells.append(tuple(vec))
    return Game(orientation, labels, tuple(cells))


class TestSymmetricReduction:
    def test_matches_dense_engine_on_random_symmetric_games(self):
        rng = random.Random(99)
        kinds = set()
        for _ in range(100):
            n = rng.randint(2, 4)
            m = rng.randint(1, 3)
            table = {}

            def payoff(j, rest, table=table, rng=rng):
                key = (j, rest)
                if key not in table:
                    table[key] = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
                return table[key]

            for orientation in Orientation:
                dense = selfishness_level(_expand_symmetric(n, m, payoff, orientation))
                compact = symmetric_selfishness_level(n, m, payoff, orientation=orientation)
                assert dense == compact, (n, m, orientation)
                kinds.add((orientation, dense.kind))
        assert {(o, k) for o in Orientation for k in (LevelKind.ZERO, LevelKind.FINITE)} <= kinds

    def test_each_payoff_key_evaluated_once(self):
        for n, m in ((2, 1), (2, 3), (3, 2), (4, 3), (5, 4)):
            calls = collections.Counter()

            def payoff(j, rest, calls=calls):
                calls[j, rest] += 1
                return Fraction(j * sum(rest) - rest[0], 1 + j)

            symmetric_selfishness_level(n, m, payoff)
            assert set(calls.values()) == {1}
            assert sum(calls.values()) == m * math.comb(n + m - 2, n - 1)

    def test_float_payoff_rejected(self):
        with pytest.raises(GameError):
            symmetric_selfishness_level(3, 2, lambda j, rest: 1.0 - j + 2.0 * rest[1])

    def test_single_player_rejected(self):
        with pytest.raises(PlayerCountTooSmall):
            symmetric_selfishness_level(1, 2, lambda j, rest: Fraction(j))

    def test_no_strategies_rejected(self):
        with pytest.raises(EmptyStrategySet):
            symmetric_selfishness_level(2, 0, lambda j, rest: Fraction(0))

    @pytest.mark.parametrize("n,m,text", [(2.0, 2, "2.0"), (True, 2, "True"), (2, 2.5, "2.5"),
                                          (2, False, "False"), ("3", 2, "'3'")])
    def test_counts_must_be_integers(self, n, m, text):
        def payoff(j, rest):
            raise AssertionError("a payoff was computed before the counts were checked")

        with pytest.raises(GameError) as raised:
            symmetric_selfishness_level(n, m, payoff)
        assert str(raised.value) == f"player and strategy counts must be integers, got {text}"

    def test_count_errors_read_as_a_games(self):
        with pytest.raises(PlayerCountTooSmall) as raised:
            symmetric_selfishness_level(1, 0, lambda j, rest: Fraction(j))
        assert str(raised.value) == "a strategic game needs more than one player, got 1"
        with pytest.raises(EmptyStrategySet) as raised:
            symmetric_selfishness_level(3, 0, lambda j, rest: Fraction(j))
        assert str(raised.value) == "player 1 has no strategies"

    @pytest.mark.parametrize("orientation", list(Orientation))
    def test_orientation_string_reads_as_the_member(self, orientation):
        rng = random.Random(str(orientation))
        for n, m in ((2, 2), (3, 2), (3, 3), (4, 2)):
            payoff = _random_symmetric_payoff(rng)
            member = symmetric_selfishness_level(n, m, payoff, orientation=orientation)
            assert symmetric_selfishness_level(n, m, payoff,
                                               orientation=orientation.value) == member

    @pytest.mark.parametrize("orientation", ["bogus", None, "COST_MIN"])
    def test_unknown_orientation_rejected(self, orientation):
        def payoff(j, rest):
            raise AssertionError("a payoff was computed before the orientation was checked")

        with pytest.raises(GameError) as raised:
            symmetric_selfishness_level(3, 2, payoff, orientation=orientation)
        assert str(raised.value) == f"orientation must be 'payoff' or 'cost', got {orientation!r}"

    def test_matches_dense_engine_on_public_goods(self):
        spec = PublicGoodsGrid(n=3, b=2, c=Fraction(3, 2), grid_steps=3)
        from selfishlevel import symmetric_form

        form = symmetric_form(spec)
        dense = selfishness_level(generate(spec))
        compact = symmetric_selfishness_level(
            form.player_count, len(form.strategy_labels), form.payoff
        )
        # (1 - c/n) / (c - 1) = (1 - 1/2) / (1/2) = 1
        assert dense.level() == 1
        assert dense == compact

    def test_orbit_cap_is_checked_before_any_payoff_call(self):
        calls = []

        def payoff(j, rest):
            calls.append((j, rest))
            return Fraction(j)

        # C(59, 9) = 12,565,671,261 orbits
        with pytest.raises(ExplosionGuard) as raised:
            symmetric_selfishness_level(50, 10, payoff)
        assert str(raised.value) == ("orbit space has 12565671261 orbits, "
                                     "exceeding the cap of 10000000")
        assert calls == []
        with pytest.raises(ExplosionGuard, match="has 10 orbits, exceeding the cap of 9"):
            symmetric_selfishness_level(3, 3, payoff, cap=9)
        assert calls == []
        assert symmetric_selfishness_level(3, 3, payoff, cap=10).level() == 0


def _random_symmetric_payoff(rng):
    """A payoff callback drawing each (j, rest) value once, from few values
    so that ties, several optima and improving moves are common."""
    table = {}

    def payoff(j, rest):
        if (j, rest) not in table:
            table[j, rest] = Fraction(rng.randint(-2, 2), rng.choice((1, 2)))
        return table[j, rest]

    return payoff


class TestOrbitSpace:
    """The orbit space against the dense kernel of the expanded game: each
    orbit reads as its sorted representative does."""

    def test_matches_the_dense_kernel_on_random_symmetric_games(self):
        rng = random.Random(11)
        seen = collections.Counter()
        for _ in range(60):
            n, m = rng.randint(2, 4), rng.randint(1, 3)
            payoff = _random_symmetric_payoff(rng)
            for orientation in Orientation:
                game = _expand_symmetric(n, m, payoff, orientation)
                kernel = game._kernel
                orbits = _Orbits(n, m, payoff, orientation)
                assert len(orbits.welfare) == math.comb(n + m - 1, n)
                cells = [orbits.profile(k) for k in range(len(orbits.welfare))]
                assert cells == sorted(cells) and all(list(c) == sorted(c) for c in cells)
                orbit_of = {cell: k for k, cell in enumerate(cells)}
                dense = [game.flat_index(cell) for cell in cells]
                optima, stable = set(kernel.optima), set(kernel.stable)
                assert orbits.optima == [k for k, c in enumerate(dense) if c in optima]
                assert orbits.stable == [k for k, c in enumerate(dense) if c in stable]
                for k in orbits.stable:  # the same steepest gain / drop
                    orbit, cell = orbits.threshold(k), kernel.threshold(dense[k])
                    assert (orbit is None) == (cell is None)
                    if orbit is not None:
                        assert Fraction(orbit[0], orbit[1]) == Fraction(cell[0], cell[1])
                        seen["thresholds"] += 1
                for k, c in enumerate(dense):
                    counts = orbits.counts(k)
                    assert counts == tuple(map(cells[k].count, range(m)))
                    assert (Fraction(orbits.welfare[k], orbits.denominator)
                            == Fraction(kernel.welfare[c], kernel.denominator))
                    # The dense moves of each group's first player, with
                    # targets read as orbits.
                    firsts = {cells[k].index(j) for j in cells[k]}
                    expected = [(i, to, orbit_of[tuple(sorted(kernel.profile(t)))],
                                 Fraction(gain, kernel.denominator))
                                for i, to, t, gain in kernel.deviations(c) if i in firsts]
                    moves = orbits.deviations(k)
                    assert [(i, to, t, Fraction(gain, orbits.denominator))
                            for i, to, t, gain in moves] == expected
                    assert orbits.targets(k) == [t for _, _, t, _ in moves]
                    assert kernel.targets(c) == [t for _, _, t, _ in kernel.deviations(c)]
                    seen["moves"] += bool(moves)
                order, weakly_acyclic = orbits.improvement
                assert (order is None) == (kernel.improvement[0] is None)
                assert weakly_acyclic == kernel.improvement[1]
                seen["fip" if order is not None else "cycle"] += 1
                seen["several optima"] += len(optima) > 1
        assert seen["moves"] and seen["several optima"] and seen["thresholds"], seen
        assert seen["fip"] and seen["cycle"], seen
