"""Family generators: paper tables reproduced, analytic levels met,
symmetry, guards."""

import itertools
import random
import re
import time
import tracemalloc
from fractions import Fraction

import pytest

from selfishlevel import (
    DEFAULT_CELL_CAP,
    Congestion,
    CostSharing,
    FLevelGame,
    GeneralizedPD,
    LevelKind,
    MatchingPennies,
    Orientation,
    PrisonersDilemmaN,
    PublicGoodsGrid,
    TightFamily,
    TravelersDilemma,
    cost_sharing_gap_instance,
    generate,
    price_of_stability,
    pure_nash,
    selfishness_level,
    social_optima,
    symmetric_form,
    symmetric_selfishness_level,
    tight_instance,
)
from selfishlevel import families
from selfishlevel.analysis import _level
from selfishlevel.core import _Orbits
from selfishlevel.errors import ExplosionGuard, GameError, InfeasibleParams, ParamOutOfRange
from selfishlevel.families import check_cap


class TestPrisonersDilemmaN:
    def test_two_players_reproduce_classic_table(self):
        game = generate(PrisonersDilemmaN(2))
        assert game.strategy_labels == (("C", "D"), ("C", "D"))
        assert game.payoffs == (
            (Fraction(2), Fraction(2)), (Fraction(0), Fraction(3)),
            (Fraction(3), Fraction(0)), (Fraction(1), Fraction(1)),
        )

    @pytest.mark.parametrize("n", range(2, 9))
    def test_level_formula(self, n):
        result = selfishness_level(generate(PrisonersDilemmaN(n)))
        assert result.level() == Fraction(1, 2 * n - 3)

    def test_rejects_single_player(self):
        with pytest.raises(ParamOutOfRange):
            PrisonersDilemmaN(1)


class TestGeneralizedPD:
    def test_table_for_alpha_two_beta_three(self):
        game = generate(GeneralizedPD(alpha=2, beta=3))
        assert game.payoffs == (
            (Fraction(1), Fraction(1)), (Fraction(0), Fraction(5, 3)),
            (Fraction(5, 3), Fraction(0)), (Fraction(1, 3), Fraction(1, 3)),
        )

    @pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(1), Fraction(2)])
    @pytest.mark.parametrize("beta", [Fraction(3, 2), Fraction(5)])
    def test_level_and_stability_price(self, alpha, beta):
        game = generate(GeneralizedPD(alpha=alpha, beta=beta))
        assert selfishness_level(game).level() == alpha
        assert price_of_stability(game) == beta

    def test_parameter_ranges(self):
        with pytest.raises(ParamOutOfRange):
            GeneralizedPD(alpha=0, beta=2)
        with pytest.raises(ParamOutOfRange):
            GeneralizedPD(alpha=1, beta=1)


class TestPublicGoodsGrid:
    def test_grid_contains_endpoints(self):
        spec = PublicGoodsGrid(n=2, b=3, c=2, grid_steps=5)
        values = spec.grid_values()
        assert values[0] == 0 and values[-1] == 3
        assert len(values) == 6

    @pytest.mark.parametrize("n,c,expected", [
        (2, Fraction(3, 2), Fraction(1, 2)),
        (4, 2, Fraction(1, 2)),
        (10, 2, Fraction(4, 5)),
        (2, 2, Fraction(0)),
        (2, 4, Fraction(0)),
    ])
    def test_level_formula_small_grids(self, n, c, expected):
        for k in (1, 2):
            game = generate(PublicGoodsGrid(n=n, b=1, c=c, grid_steps=k))
            assert selfishness_level(game).level() == expected

    @pytest.mark.parametrize("n,b,c,k", [
        (3, 0, 2, 2), (3, Fraction(5, 7), Fraction(9, 4), 4),
        (4, 1, Fraction(3, 2), 3), (2, 3, Fraction(7, 5), 6),
    ])
    def test_compact_payoff_is_the_dense_table(self, n, b, c, k):
        # b - v_j + (c/n) * total, against both the callback and the table
        spec = PublicGoodsGrid(n=n, b=b, c=c, grid_steps=k)
        game = generate(spec)
        form = symmetric_form(spec)
        values = spec.grid_values()
        m = len(values)
        for j in range(m):
            for others in itertools.combinations_with_replacement(range(m), n - 1):
                rest = tuple(others.count(j2) for j2 in range(m))
                total = values[j] + sum(values[j2] for j2 in others)
                expected = spec.b - values[j] + spec.c / n * total
                assert form.payoff(j, rest) == expected
                assert game.payoff((j, *others), 0) == expected

    def test_zero_budget_collapses_grid(self):
        game = generate(PublicGoodsGrid(n=2, b=0, c=2, grid_steps=3))
        assert game.strategy_counts == (1, 1)
        assert selfishness_level(game).level() == 0


class TestTravelersDilemma:
    def test_shape_and_low_claim_payoff(self, travelers):
        assert travelers.strategy_counts == (99, 99)
        low_vs_high = travelers.profile_from_labels(("2", "100"))
        assert travelers.payoff(low_vs_high, 0) == 4
        assert travelers.payoff(low_vs_high, 1) == 0

    def test_level_equilibrium_optimum(self, travelers):
        assert selfishness_level(travelers).level() == Fraction(1, 2)
        assert [travelers.labels_for(s) for s in pure_nash(travelers)] == [("2", "2")]
        assert [travelers.labels_for(s) for s in social_optima(travelers)] == [("100", "100")]


class TestFLevelGame:
    def test_payoffs_for_three_players(self):
        game = generate(FLevelGame(n=3, f_value=7))
        all_ones = (0, 0, 0)
        assert game.payoff_vector(all_ones) == (0, 0, 0)
        deviator_first = game.profile_from_labels(("0", "1", "1"))
        assert game.payoff(deviator_first, 0) == 7
        assert game.social_value(all_ones) == 0
        for s in game.joint_strategies():
            if s != all_ones:
                assert game.social_value(s) == -1

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("f", [0, 1, Fraction(7), 100])
    def test_level_is_pinned(self, n, f):
        result = selfishness_level(generate(FLevelGame(n=n, f_value=f)))
        assert result.level() == f


class TestSymmetry:
    def _assert_symmetric(self, game):
        # relabeling players by perm sends s to t with t[perm[k]] = s[k]
        # and must send player i's payoff to player perm[i]'s payoff
        n = game.player_count
        for s in game.joint_strategies():
            for perm in itertools.permutations(range(n)):
                t = [0] * n
                for k in range(n):
                    t[perm[k]] = s[k]
                t = tuple(t)
                for i in range(n):
                    assert game.payoff(s, i) == game.payoff(t, perm[i])

    def test_pd_n(self):
        self._assert_symmetric(generate(PrisonersDilemmaN(3)))

    def test_public_goods(self):
        self._assert_symmetric(generate(PublicGoodsGrid(n=3, b=1, c=2, grid_steps=2)))

    def test_travelers_two_by_two_slice(self):
        # full game is large; permutation symmetry of a 2-player game is
        # transposition symmetry of the payoff table
        game = generate(TravelersDilemma())
        rng = random.Random(11)
        for _ in range(200):
            a, b = rng.randrange(99), rng.randrange(99)
            assert game.payoff((a, b), 0) == game.payoff((b, a), 1)

    def test_symmetric_form_agrees_with_tensor(self):
        options = (("e1",), ("e1", "e2"), ("e3",))
        for spec in (PrisonersDilemmaN(3),
                     PublicGoodsGrid(n=3, b=1, c=2, grid_steps=2),
                     TravelersDilemma(),
                     CostSharing(facility_costs={"e1": Fraction(5, 2), "e2": 3, "e3": 7},
                                 strategies=(options,) * 3),
                     Congestion(facilities={"e1": (Fraction(1, 3), 2), "e2": (2, 0),
                                            "e3": (Fraction(3, 2), Fraction(1, 4))},
                                strategies=(options,) * 3)):
            game = generate(spec)
            form = symmetric_form(spec)
            assert form.orientation is game.orientation
            assert (form.strategy_labels,) * form.player_count == game.strategy_labels
            m = len(form.strategy_labels)
            for s in game.joint_strategies():
                for i in range(game.player_count):
                    rest = [0] * m
                    for k, j in enumerate(s):
                        if k != i:
                            rest[j] += 1
                    assert form.payoff(s[i], tuple(rest)) == game.payoff(s, i)


class TestCostSharing:
    def test_singleton_tight_instance(self):
        spec = tight_instance(TightFamily.COST_SHARING_SINGLETON, c_max=10, c_min=1)
        game = generate(spec)
        assert game.orientation is Orientation.COST_MIN
        assert selfishness_level(game).level() == 4

    def test_singleton_tight_requires_gap(self):
        with pytest.raises(ParamOutOfRange):
            tight_instance(TightFamily.COST_SHARING_SINGLETON, c_max=2, c_min=1)

    @pytest.mark.parametrize("L,c_max", [(3, 2), (1, 4), (2, 3), (5, 2)])
    def test_integer_tight_instance(self, L, c_max):
        spec = tight_instance(TightFamily.COST_SHARING_INTEGER, L=L, c_max=c_max)
        expected = max(Fraction(0), Fraction(L * c_max, 2) - 1)
        assert selfishness_level(generate(spec)).level() == expected

    def test_gap_instance_level(self):
        spec = cost_sharing_gap_instance(c_max=10, c_min=1, gap=Fraction(1, 2))
        # (c_max/2 - gap) / gap = (5 - 1/2) / (1/2) = 9
        assert selfishness_level(generate(spec)).level() == 9

    def test_shared_cost_split(self):
        spec = CostSharing(
            facility_costs={"e1": Fraction(6), "e2": Fraction(2)},
            strategies=((("e1",),), (("e1",), ("e2",))),
        )
        game = generate(spec)
        both = game.profile_from_labels(("e1", "e1"))
        assert game.payoff(both, 0) == 3
        assert game.payoff(both, 1) == 3

    def test_unknown_facility_rejected(self):
        with pytest.raises(ParamOutOfRange):
            CostSharing(facility_costs={"e1": 1},
                        strategies=((("e1",),), (("e2",),)))


class TestCongestion:
    @pytest.mark.parametrize("delta", [0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])
    def test_singleton_tight_instance(self, delta):
        spec = tight_instance(TightFamily.CONGESTION_SINGLETON, delta=delta, a=1)
        expected = delta / (1 - delta)
        assert selfishness_level(generate(spec)).level() == expected

    @pytest.mark.parametrize("L,d_max,d_min",
                             [(2, 3, 1), (1, 5, 2), (4, 2, 1), (2, 2, 1), (2, 1, 1)])
    def test_integer_tight_instance(self, L, d_max, d_min):
        spec = tight_instance(TightFamily.CONGESTION_INTEGER,
                              L=L, d_max=d_max, d_min=d_min)
        expected = Fraction(L * d_max - d_min - 1, 2)
        assert selfishness_level(generate(spec)).level() == expected

    def test_integer_tight_infeasible(self):
        with pytest.raises(InfeasibleParams):
            tight_instance(TightFamily.CONGESTION_INTEGER, L=3, d_max=1, d_min=1)

    def test_delay_accumulates_over_users(self):
        spec = Congestion(
            facilities={"e": (Fraction(2), Fraction(1))},
            strategies=((("e",),), (("e",),)),
        )
        game = generate(spec)
        assert game.payoff((0, 0), 0) == 2 * 2 + 1


TIGHT_PARAMS = {
    TightFamily.COST_SHARING_SINGLETON: {"c_max": 9, "c_min": 2},
    TightFamily.COST_SHARING_INTEGER: {"L": 2, "c_max": 3},
    TightFamily.CONGESTION_SINGLETON: {"delta": Fraction(1, 4), "a": 2},
    TightFamily.CONGESTION_INTEGER: {"L": 2, "d_max": 3, "d_min": 1},
}


class TestTightInstance:
    """``tight_instance`` is the ``*_tight`` entry of ``FAMILIES``, with its checks."""

    @pytest.mark.parametrize("family", list(TightFamily))
    def test_is_the_families_entry(self, family):
        params = TIGHT_PARAMS[family]
        spec = families.FAMILIES[f"{family.value}_tight"].spec(params)
        assert tight_instance(family, **params) == spec
        assert tight_instance(family.value, **params) == spec
        text = {key: str(value) for key, value in params.items()}
        assert tight_instance(family, **text) == spec

    @pytest.mark.parametrize("family,params,message", [
        ("nope", {}, "unknown family 'nope_tight'"),
        (None, {"c_max": 9}, "unknown family 'None_tight'"),
        (TightFamily.CONGESTION_SINGLETON, {"delta": 0},
         "missing required parameter 'a'"),
        (TightFamily.CONGESTION_SINGLETON, {"delta": 0, "a": 1, "b": 2},
         "unknown parameters: b"),
        (TightFamily.COST_SHARING_INTEGER, {"L": Fraction(3, 2), "c_max": 2},
         "parameter 'L' must be an integer, got 3/2"),
        (TightFamily.CONGESTION_INTEGER, {"L": 0, "d_max": 3, "d_min": 1},
         "need an integer L >= 1"),
    ])
    def test_bad_parameters_raise_param_out_of_range(self, family, params, message):
        with pytest.raises(ParamOutOfRange) as raised:
            tight_instance(family, **params)
        assert str(raised.value) == message

    def test_float_parameter_raises_parse_error(self):
        with pytest.raises(GameError, match="floating-point value 0.25 rejected"):
            tight_instance(TightFamily.CONGESTION_SINGLETON, delta=0.25, a=2)

    @pytest.mark.parametrize("orientation", [Orientation.COST_MIN, "cost"])
    def test_compact_cost_orientation_of_the_singleton_congestion(self, orientation):
        spec = tight_instance(TightFamily.CONGESTION_SINGLETON, delta=Fraction(1, 4), a=2)
        form = symmetric_form(spec)
        level = symmetric_selfishness_level(2, 2, form.payoff, orientation=orientation)
        assert level == selfishness_level(generate(spec))
        assert level.level() == Fraction(1, 3)


def _facility_spec(kind, names, strategies, bad=None):
    """A CostSharing or Congestion spec on facilities ``names``; ``bad`` names
    one facility given a negative cost or coefficient."""
    values = [(name, -1 if name == bad else 1) for name in names]
    if kind is CostSharing:
        return CostSharing(facility_costs=values, strategies=strategies)
    return Congestion(facilities=[(name, a, 0) for name, a in values], strategies=strategies)


class TestFacilitySubsets:
    ONE = (("e1",),)

    @pytest.mark.parametrize("kind", [CostSharing, Congestion])
    @pytest.mark.parametrize("names,strategies,message", [
        (("e1",), ((), ONE), "each player needs at least one strategy"),
        (("e1",), (((),), ONE), "facility subsets must be non-empty"),
        (("e1",), ((("e1", "e1"),), ONE), "facility repeated within a strategy: ('e1', 'e1')"),
        (("e1",), ((("e1",), ("e1",)), ONE), "duplicate strategy subsets for one player"),
        (("e1",), (ONE,), "need at least two players"),
        (("e1",), (ONE, (("e2",),)), "unknown facility 'e2'"),
        (("e1", "e1"), (ONE, ONE), "duplicate facility name"),
        # The first failing check wins: subsets before players before names.
        (("e1",), ((("e2",),), ((),)), "facility subsets must be non-empty"),
        (("e1",), ((("e2",),),), "need at least two players"),
        (("e1", "e1"), ((),), "duplicate facility name"),
        # Within the subset and name checks, the first failure in player order wins.
        (("e1",), ((("e2", "e2"),), ONE), "facility repeated within a strategy: ('e2', 'e2')"),
        (("e1",), (ONE, (("e1", "e3"), ("e2",))), "unknown facility 'e3'"),
    ])
    def test_rejections(self, kind, names, strategies, message):
        with pytest.raises(ParamOutOfRange) as raised:
            _facility_spec(kind, names, strategies)
        assert str(raised.value) == message

    @pytest.mark.parametrize("kind,message", [
        (CostSharing, "facility e2 needs a cost >= 0"),
        (Congestion, "facility e2 needs coefficients >= 0"),
    ])
    def test_negative_facility_is_checked_first(self, kind, message):
        with pytest.raises(ParamOutOfRange) as raised:
            _facility_spec(kind, ("e1", "e2", "e1"), ((),), bad="e2")
        assert str(raised.value) == message

    @pytest.mark.parametrize("kind", [CostSharing, Congestion])
    def test_shape(self, kind):
        singleton = _facility_spec(kind, ("e1", "e2"), (self.ONE, (("e1",), ("e2",))))
        assert singleton.is_singleton and singleton.max_subset_size == 1
        paths = _facility_spec(kind, ("e1", "e2"), (self.ONE, (("e1", "e2"),)))
        assert not paths.is_singleton and paths.max_subset_size == 2


def _random_symmetric_facility_spec(rng, kind, max_cells=4096):
    """A random symmetric CostSharing or Congestion spec of at most
    ``max_cells`` joint strategies; options are subsets of 1-2 facilities."""
    names = [f"e{i}" for i in range(rng.randint(1, 4))]
    options = []
    for _ in range(rng.randint(1, 4)):
        subset = tuple(rng.sample(names, rng.randint(1, min(2, len(names)))))
        if subset not in options:
            options.append(subset)
    players = rng.randint(2, 6)
    while len(options) ** players > max_cells:
        players -= 1

    def value():
        return Fraction(rng.randint(0, 6), rng.choice((1, 2, 3)))

    strategies = (tuple(options),) * players
    if kind is CostSharing:
        return CostSharing(facility_costs={name: value() for name in names},
                           strategies=strategies)
    return Congestion(facilities={name: (value(), value()) for name in names},
                      strategies=strategies)


class TestFacilitySymmetricForm:
    # All players on a cheapest option is an optimal equilibrium of a
    # symmetric fair cost-sharing game, so its level is 0 and only the
    # witness optimum can differ; congestion games reach finite levels.
    @pytest.mark.parametrize("kind,expected", [
        (CostSharing, {LevelKind.ZERO}),
        (Congestion, {LevelKind.ZERO, LevelKind.FINITE}),
    ])
    def test_compact_level_equals_dense(self, kind, expected):
        rng = random.Random(1010 if kind is CostSharing else 2020)
        kinds = set()
        for _ in range(80):
            spec = _random_symmetric_facility_spec(rng, kind)
            form = symmetric_form(spec)
            compact = symmetric_selfishness_level(
                form.player_count, len(form.strategy_labels), form.payoff,
                orientation=form.orientation)
            dense = selfishness_level(generate(spec))
            assert compact == dense, spec
            kinds.add(dense.kind)
        assert kinds == expected

    @pytest.mark.parametrize("spec", [
        tight_instance(TightFamily.CONGESTION_SINGLETON, delta=Fraction(1, 4), a=2),
        tight_instance(TightFamily.CONGESTION_SINGLETON, delta=0, a=Fraction(5, 3)),
    ])
    def test_tight_singleton_congestion_compact_equals_dense(self, spec):
        form = symmetric_form(spec)
        assert form.orientation is Orientation.COST_MIN
        compact = symmetric_selfishness_level(
            form.player_count, len(form.strategy_labels), form.payoff,
            orientation=form.orientation)
        assert compact == selfishness_level(generate(spec))

    @pytest.mark.parametrize("spec", [
        tight_instance(TightFamily.COST_SHARING_SINGLETON, c_max=10, c_min=1),
        tight_instance(TightFamily.CONGESTION_INTEGER, L=2, d_max=3, d_min=1),
        cost_sharing_gap_instance(c_max=10, c_min=1, gap=2),
    ])
    def test_asymmetric_spec_has_no_form(self, spec):
        assert not spec.is_symmetric
        with pytest.raises(ParamOutOfRange):
            symmetric_form(spec)

    def test_payoff_families_default_to_payoff_orientation(self):
        for spec in (PrisonersDilemmaN(3), TravelersDilemma(),
                     PublicGoodsGrid(n=3, b=1, c=2, grid_steps=2)):
            assert symmetric_form(spec).orientation is Orientation.PAYOFF_MAX


def _symmetric_congestion(players, facilities=3):
    names = [f"e{k}" for k in range(1, facilities + 1)]
    return Congestion(facilities={name: (k % 3, Fraction(k, 2)) for k, name in enumerate(names)},
                      strategies=(tuple((name,) for name in names),) * players)


class TestIntegerRows:
    """Each symmetric form's integer rows against its own Fraction view,
    which the orbit space reads through the callback path."""

    SPECS = [
        *map(PrisonersDilemmaN, (2, 3, 7, 40)),
        PublicGoodsGrid(n=3, b=0, c=2, grid_steps=4),
        PublicGoodsGrid(n=4, b=Fraction(5, 7), c=Fraction(9, 4), grid_steps=3),
        PublicGoodsGrid(n=6, b=1, c=3, grid_steps=2),
        PublicGoodsGrid(n=2, b=3, c=Fraction(7, 5), grid_steps=6),
        TravelersDilemma(),
        CostSharing(facility_costs={"e1": Fraction(5, 2), "e2": 3, "e3": 7},
                    strategies=((("e1",), ("e1", "e2"), ("e3",)),) * 4),
        Congestion(facilities={"e1": (Fraction(1, 3), 2), "e2": (2, 0),
                               "e3": (Fraction(3, 2), Fraction(1, 4))},
                   strategies=((("e1",), ("e1", "e2"), ("e3",), ("e2", "e3")),) * 3),
        tight_instance(TightFamily.CONGESTION_SINGLETON, delta=Fraction(1, 4), a=2),
        tight_instance(TightFamily.CONGESTION_SINGLETON, delta=0, a=Fraction(5, 3)),
        _symmetric_congestion(9),
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: type(spec).__name__)
    def test_rule_and_callback_give_one_orbit_space(self, spec):
        form = symmetric_form(spec)
        n, m = form.player_count, len(form.strategy_labels)
        rule = _Orbits(n, m, form.payoff, form.orientation)
        callback = _Orbits(n, m, lambda j, r: form.payoff(j, r), form.orientation)
        assert ([Fraction(w, rule.denominator) for w in rule.welfare]
                == [Fraction(w, callback.denominator) for w in callback.welfare])
        assert (rule.optima, rule.stable) == (callback.optima, callback.stable)
        for cell in rule.stable:
            ours, theirs = rule.threshold(cell), callback.threshold(cell)
            assert (ours is None) == (theirs is None)
            if ours is not None:
                assert Fraction(ours[0], ours[1]) == Fraction(theirs[0], theirs[1])
                assert ours[2][:3] == theirs[2][:3]
        assert _level(rule) == _level(callback)

    @pytest.mark.parametrize("spec", [s for s in SPECS if isinstance(
        s, (PrisonersDilemmaN, CostSharing, Congestion)) and symmetric_form(s).player_count < 8],
        ids=lambda spec: type(spec).__name__)
    def test_payoff_is_the_first_player_on_j_in_the_dense_table(self, spec):
        form = symmetric_form(spec)
        game = generate(spec)
        n, m = form.player_count, len(form.strategy_labels)
        for others in itertools.combinations_with_replacement(range(m), n - 1):
            rest = tuple(map(others.count, range(m)))
            for j in range(m):
                profile = tuple(sorted((j, *others)))
                assert form.payoff(j, rest) == game.payoff(profile, profile.index(j))


class TestGuards:
    def test_explosion_guard(self):
        with pytest.raises(ExplosionGuard):
            generate(PublicGoodsGrid(n=10, b=1, c=2, grid_steps=5))

    def test_cap_override(self):
        game = generate(PrisonersDilemmaN(3), cap=8)
        assert game.cell_count == 8
        with pytest.raises(ExplosionGuard):
            generate(PrisonersDilemmaN(3), cap=7)

    def test_unknown_spec_rejected(self):
        with pytest.raises(ParamOutOfRange):
            generate(object())

    @pytest.mark.parametrize("counts,text", [
        ([10] * 4299, "1" + "0" * 4299),  # 4,300 digits: the largest count printed in full
        ([10] * 4300, "10^4300"),
        ([10] * 4300 + [2], "more than 10^4300"),
        ([2] * 100_000, "more than 10^4300"),
    ], ids=["4300 digits", "10^4300", "just past", "huge"])
    def test_cap_names_counts_beyond_printing(self, counts, text):
        with pytest.raises(ExplosionGuard) as raised:
            check_cap(counts, 3)
        assert str(raised.value) == f"joint strategy space has {text} cells, exceeding the cap of 3"

    def test_cap_is_read_only_up_to_the_bound(self):
        def counts():
            yield from [2] * 20_000
            raise AssertionError("read past the bound")

        with pytest.raises(ExplosionGuard, match="more than 10\\^4300"):
            check_cap(counts(), DEFAULT_CELL_CAP)

    @pytest.mark.parametrize("build,text", [
        (lambda: generate(PrisonersDilemmaN(10**6), cap=3), "more than 10^4300 cells"),
        (lambda: generate(FLevelGame(n=10**6, f_value=1), cap=3), "more than 10^4300 cells"),
        (lambda: generate(PublicGoodsGrid(n=10**5, b=1, c=2, grid_steps=2), cap=3),
         "more than 10^4300 cells"),
        (lambda: generate(PublicGoodsGrid(n=2, b=1, c=2, grid_steps=10**9), cap=3),
         "1000000002000000001 cells"),
        (lambda: symmetric_selfishness_level(
            10**5, 3, symmetric_form(PublicGoodsGrid(n=10**5, b=1, c=2, grid_steps=2)).payoff,
            cap=3), "5000150001 orbits"),
        (lambda: symmetric_selfishness_level(
            2, 99, symmetric_form(TravelersDilemma()).payoff, cap=3), "4950 orbits"),
        (lambda: symmetric_selfishness_level(
            200, 3, symmetric_form(_symmetric_congestion(200)).payoff,
            orientation=Orientation.COST_MIN, cap=3), "20301 orbits"),
    ], ids=["pd_n", "f_level", "public_goods", "public_goods grid", "public_goods orbits",
            "travelers orbits", "congestion orbits"])
    def test_cap_comes_before_any_table(self, build, text, monkeypatch):
        # Every table and row is computed from these integer rules, so none may run.
        def unused(*args):
            raise AssertionError("a payoff was computed before the cap check")

        for rule in ("_pd_n_pay", "_public_goods_rows", "_travelers_pay"):
            monkeypatch.setattr(families, rule, unused)
        cost_rule = Congestion._cost_rule
        monkeypatch.setattr(Congestion, "_cost_rule", lambda spec: (cost_rule(spec)[0], unused))
        tracemalloc.start()
        started = time.perf_counter()
        try:
            with pytest.raises(ExplosionGuard, match=f"has {re.escape(text)}, exceeding the cap of 3"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - started < 0.5
        assert peak < 1 << 20

    def test_one_point_grid(self):
        game = generate(PublicGoodsGrid(n=3, b=0, c=2, grid_steps=4), cap=3)
        assert (game.player_count, game.cell_count) == (3, 1)

    def test_no_symmetric_form_for_asymmetric_family(self):
        with pytest.raises(ParamOutOfRange):
            symmetric_form(MatchingPennies())
