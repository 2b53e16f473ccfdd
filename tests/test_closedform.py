"""Closed-form levels, bounds, discrepancy, and unboundedness witnesses."""

import random
from fractions import Fraction

import pytest

from selfishlevel import families
from selfishlevel import (
    BertrandParams,
    ClosedFormKind,
    Congestion,
    CostSharing,
    CournotParams,
    FLevelGame,
    GeneralizedPD,
    MatchingPennies,
    PrisonersDilemmaN,
    PublicGoodsCont,
    PublicGoodsGrid,
    TightFamily,
    TragedyParams,
    TravelersDilemma,
    WeaklyAcyclic3x3,
    bertrand_af,
    bertrand_witness,
    closed_form_level,
    cost_sharing_gap_instance,
    cournot_af,
    cournot_witness,
    discrepancy,
    generate,
    max_discrepancy,
    selfishness_level,
    social_optima,
    stable_social_optima,
    symmetric_form,
    symmetric_selfishness_level,
    tight_instance,
    tragedy_af,
    tragedy_witness,
    unbounded_witness,
)
from selfishlevel.errors import (
    ExplosionGuard,
    MissingDiscrepancy,
    OutOfDeviationRange,
    ParamOutOfRange,
    UnknownFamily,
    ZeroLinearCoefficients,
)


class TestClosedFormLevels:
    def test_pd_n(self):
        result = closed_form_level(PrisonersDilemmaN(5))
        assert result.kind is ClosedFormKind.EXACT
        assert result.value == Fraction(1, 7)

    def test_public_goods(self):
        result = closed_form_level(PublicGoodsCont(n=10, b=1, c=2))
        assert result.value == Fraction(4, 5)
        grid = closed_form_level(PublicGoodsGrid(n=10, b=1, c=2, grid_steps=3))
        assert grid.value == Fraction(4, 5)

    def test_public_goods_clamped_at_zero(self):
        assert closed_form_level(PublicGoodsCont(n=2, b=1, c=4)).value == 0

    def test_travelers(self):
        assert closed_form_level(TravelersDilemma()).value == Fraction(1, 2)

    def test_generalized_pd_and_f_level(self):
        assert closed_form_level(GeneralizedPD(alpha=Fraction(7, 2), beta=2)).value == Fraction(7, 2)
        assert closed_form_level(FLevelGame(n=3, f_value=100)).value == 100

    def test_infinite_families(self):
        for spec in (CournotParams(a=2, b=1, c=0), TragedyParams(n=3),
                     BertrandParams(a=2, b=1, c=Fraction(1, 2)),
                     MatchingPennies(), WeaklyAcyclic3x3()):
            assert closed_form_level(spec).kind is ClosedFormKind.INFINITE

    def test_unknown_family(self):
        with pytest.raises(UnknownFamily):
            closed_form_level(object())

    def test_integer_congestion_bound_value(self):
        spec = tight_instance(TightFamily.CONGESTION_INTEGER, L=2, d_max=3, d_min=1)
        result = closed_form_level(spec)
        assert result.kind is ClosedFormKind.UPPER_BOUND
        assert result.value == 2
        assert result.tight


class TestExactRowsAgreeWithBruteForce:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_pd_n(self, n):
        assert (closed_form_level(PrisonersDilemmaN(n)).value
                == selfishness_level(generate(PrisonersDilemmaN(n))).level())

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("c", [Fraction(3, 2), 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_public_goods_grids(self, n, c, k):
        spec = PublicGoodsGrid(n=n, b=2, c=c, grid_steps=k)
        assert (closed_form_level(spec).value
                == selfishness_level(generate(spec)).level())

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("c", [Fraction(3, 2), 2, 3, 5])
    @pytest.mark.parametrize("k", [1, 2])
    def test_public_goods_zero_budget(self, n, c, k):
        # b = 0 leaves one strategy per player, so every profile is stable.
        spec = PublicGoodsGrid(n=n, b=0, c=c, grid_steps=k)
        assert selfishness_level(generate(spec)).level() == 0
        continuous = PublicGoodsCont(n=n, b=0, c=c)
        for closed in (closed_form_level(spec), closed_form_level(continuous)):
            assert closed.kind is ClosedFormKind.EXACT
            assert closed.value == 0

    @pytest.mark.parametrize("f", [0, Fraction(5, 3), 42])
    def test_f_level(self, f):
        spec = FLevelGame(n=3, f_value=f)
        assert closed_form_level(spec).value == selfishness_level(generate(spec)).level()

    @pytest.mark.parametrize("name", [name for name, family in families.FAMILIES.items()
                                      if not family.params])
    def test_fixed_tables(self, name):
        spec = families.FAMILIES[name].spec({})
        closed = closed_form_level(spec)
        level = selfishness_level(generate(spec))
        if level.is_infinite:
            assert closed.kind is ClosedFormKind.INFINITE
        else:
            assert closed.kind is ClosedFormKind.EXACT
            assert closed.value == level.level()


def _random_singleton_cost_sharing(rng):
    facilities = {f"e{i}": Fraction(rng.randint(1, 12), rng.choice((1, 2)))
                  for i in range(rng.randint(2, 5))}
    names = list(facilities)
    players = rng.randint(2, 4)
    strategies = []
    for _ in range(players):
        chosen = rng.sample(names, rng.randint(1, len(names)))
        strategies.append(tuple((name,) for name in chosen))
    return CostSharing(facility_costs=facilities, strategies=tuple(strategies))


def _random_integer_congestion(rng):
    facilities = {f"e{i}": (Fraction(rng.randint(0, 3)), Fraction(rng.randint(0, 3)))
                  for i in range(rng.randint(2, 4))}
    if all(a == 0 and b == 0 for a, b in facilities.values()):
        facilities["e0"] = (Fraction(1), Fraction(0))
    names = list(facilities)
    players = rng.randint(2, 3)
    strategies = []
    for _ in range(players):
        options = []
        for _ in range(rng.randint(1, 3)):
            subset = tuple(rng.sample(names, rng.randint(1, min(2, len(names)))))
            if subset not in options:
                options.append(subset)
        strategies.append(tuple(options))
    return Congestion(facilities=facilities, strategies=tuple(strategies))


def _random_symmetric_singleton_congestion(rng):
    facilities = {f"e{i}": (Fraction(rng.randint(0, 4)), Fraction(rng.randint(0, 4)))
                  for i in range(rng.randint(2, 4))}
    options = tuple((name,) for name in facilities)
    players = rng.randint(2, 4)
    return Congestion(facilities=facilities, strategies=(options,) * players)


def _random_symmetric_congestion(rng, singleton):
    facilities = {f"e{i}": (Fraction(rng.randint(0, 3), rng.choice((1, 2))),
                            Fraction(rng.randint(0, 4), rng.choice((1, 3))))
                  for i in range(rng.randint(1, 4))}
    names = list(facilities)
    options = []
    for _ in range(rng.randint(1, 3)):
        size = 1 if singleton else rng.randint(1, min(2, len(names)))
        subset = tuple(rng.sample(names, size))
        if subset not in options:
            options.append(subset)
    return Congestion(facilities=facilities,
                      strategies=(tuple(options),) * rng.randint(2, 4))


def _dense_max_discrepancy(spec, optima=stable_social_optima):
    """The discrepancy on the expanded game: the largest below 1 over the
    facility pairs with a positive linear coefficient at every profile of
    ``optima(game)``, or None."""
    game = generate(spec)
    coeffs = {name: (a, b) for name, a, b in spec.facilities}
    best = None
    for profile in optima(game):
        usage = dict.fromkeys(coeffs, 0)
        for player, position in enumerate(profile):
            for name in spec.strategies[player][position]:
                usage[name] += 1
        for e in coeffs:
            for e2 in coeffs:
                if e == e2 or coeffs[e][0] + coeffs[e2][0] == 0:
                    continue
                value = discrepancy(*coeffs[e], *coeffs[e2], usage[e], usage[e2])
                if value < 1 and (best is None or value > best):
                    best = value
    return best


class TestUpperBoundSoundness:
    def test_random_singleton_cost_sharing_within_bound(self):
        rng = random.Random(1)
        for _ in range(30):
            spec = _random_singleton_cost_sharing(rng)
            bound = closed_form_level(spec)
            level = selfishness_level(generate(spec)).level()
            assert level is not None and level <= bound.value

    def test_random_integer_congestion_within_bound(self):
        rng = random.Random(2)
        for _ in range(30):
            spec = _random_integer_congestion(rng)
            bound = closed_form_level(spec)
            level = selfishness_level(generate(spec)).level()
            assert level is not None and level <= bound.value

    def test_random_symmetric_singleton_congestion_within_bound(self):
        rng = random.Random(3)
        checked = 0
        for _ in range(30):
            spec = _random_symmetric_singleton_congestion(rng)
            try:
                bound = closed_form_level(spec)
            except MissingDiscrepancy:
                continue
            checked += 1
            level = selfishness_level(generate(spec)).level()
            assert level is not None and level <= bound.value
        assert checked >= 10

    @pytest.mark.parametrize("n,k,draws", [(10, 4, 6), (25, 4, 4), (50, 3, 3), (50, 4, 1)])
    def test_paper_scale_symmetric_singleton_congestion_within_bound(self, n, k, draws):
        """The singleton bound does not depend on n: specs of n players on k
        facilities stay within it, with levels read from the orbit space."""
        rng = random.Random(10 * n + k)
        positive = 0
        for _ in range(draws):
            facilities = {f"e{i}": (Fraction(rng.randint(0, 3)), Fraction(rng.randint(0, 3 * n)))
                          for i in range(k)}
            options = tuple((name,) for name in facilities)
            spec = Congestion(facilities=facilities, strategies=(options,) * n)
            try:
                bound = closed_form_level(spec, cap=k ** n)
            except MissingDiscrepancy:
                continue
            form = symmetric_form(spec)
            level = symmetric_selfishness_level(n, k, form.payoff,
                                                orientation=form.orientation).level()
            assert level is not None and level <= bound.value, spec
            positive += level > 0
        assert positive

    def test_tight_instances_achieve_bounds(self):
        cases = [
            tight_instance(TightFamily.COST_SHARING_SINGLETON, c_max=9, c_min=2),
            tight_instance(TightFamily.COST_SHARING_INTEGER, L=2, c_max=3),
            tight_instance(TightFamily.CONGESTION_INTEGER, L=2, d_max=3, d_min=1),
        ]
        for spec in cases:
            bound = closed_form_level(spec)
            assert bound.tight
            assert selfishness_level(generate(spec)).level() == bound.value

    def test_tight_singleton_congestion_achieves_bound(self):
        spec = tight_instance(TightFamily.CONGESTION_SINGLETON, delta=Fraction(1, 2), a=1)
        bound = closed_form_level(spec)
        assert bound.value == 1
        assert selfishness_level(generate(spec)).level() == 1


class TestGapInstance:
    @pytest.mark.parametrize("gap", [Fraction(1), Fraction(1, 2), Fraction(1, 10)])
    def test_level_driven_by_gap(self, gap):
        c_max = Fraction(10)
        spec = cost_sharing_gap_instance(c_max=c_max, c_min=1, gap=gap)
        expected = c_max / (2 * gap) - 1
        assert selfishness_level(generate(spec)).level() == expected


class TestDiscrepancy:
    def test_tight_instance_pair(self):
        assert discrepancy(0, Fraction(5, 2), 1, 0, 1, 1) == Fraction(1, 2)

    def test_symmetric_facilities_equal_load(self):
        assert discrepancy(2, 1, 2, 1, 3, 3) == 0

    def test_zero_linear_coefficients(self):
        with pytest.raises(ZeroLinearCoefficients):
            discrepancy(0, 1, 0, 2, 1, 1)

    def test_bounded_at_social_optima_for_pairs_in_use(self):
        # the bound rests on redistributing the pair's total load to the
        # integer split nearest the parabola minimum; that argument needs
        # both facilities loaded, and an unused facility can indeed sit
        # arbitrarily far from the two-facility optimum (e.g. delays x
        # and x + 100 with two players: both use the first facility and
        # the pair's discrepancy is 48)
        rng = random.Random(17)
        checked = 0
        for _ in range(40):
            spec = _random_symmetric_singleton_congestion(rng)
            game = generate(spec)
            coeffs = {name: (a, b) for name, a, b in spec.facilities}
            names = list(coeffs)
            for profile in social_optima(game):
                usage = {name: 0 for name in names}
                for player, position in enumerate(profile):
                    for name in spec.strategies[player][position]:
                        usage[name] += 1
                for e in names:
                    for e2 in names:
                        if e == e2 or coeffs[e][0] + coeffs[e2][0] == 0:
                            continue
                        if usage[e] == 0 or usage[e2] == 0:
                            continue
                        value = discrepancy(*coeffs[e], *coeffs[e2],
                                            usage[e], usage[e2])
                        assert -1 <= value <= 1
                        checked += 1
        assert checked >= 40

    def test_max_discrepancy_matches_tight_construction(self):
        spec = tight_instance(TightFamily.CONGESTION_SINGLETON,
                              delta=Fraction(1, 4), a=2)
        assert max_discrepancy(spec) == Fraction(1, 4)

    def test_max_discrepancy_needs_a_pair(self):
        spec = Congestion(facilities={"e": (Fraction(1), Fraction(0))},
                          strategies=((("e",),), (("e",),)))
        with pytest.raises(MissingDiscrepancy):
            max_discrepancy(spec)

    def test_max_discrepancy_equals_dense_reference(self):
        rng = random.Random(4248)
        outcomes = {"singleton": set(), "subsets": set()}
        unstable = 0  # specs whose answer over all optima would differ
        for k in range(240):
            spec = _random_symmetric_congestion(rng, singleton=k % 2 == 0)
            expected = _dense_max_discrepancy(spec)
            unstable += expected != _dense_max_discrepancy(spec, social_optima)
            shape = "singleton" if spec.is_singleton else "subsets"
            if expected is None:
                with pytest.raises(MissingDiscrepancy):
                    max_discrepancy(spec)
                outcomes[shape].add("missing")
            else:
                assert max_discrepancy(spec) == expected, spec
                outcomes[shape].add("value")
        assert outcomes == {"singleton": {"missing", "value"}, "subsets": {"missing", "value"}}
        assert unstable >= 1

    def test_max_discrepancy_checks_the_cap_first(self):
        spec = tight_instance(TightFamily.CONGESTION_SINGLETON, delta=Fraction(1, 4), a=2)
        assert max_discrepancy(spec, cap=4) == Fraction(1, 4)
        with pytest.raises(ExplosionGuard, match="has 4 cells, exceeding the cap of 3"):
            max_discrepancy(spec, cap=3)
        asymmetric = tight_instance(TightFamily.CONGESTION_INTEGER, L=2, d_max=3, d_min=1)
        with pytest.raises(ExplosionGuard):
            max_discrepancy(asymmetric, cap=1)

    def test_max_discrepancy_rejects_an_asymmetric_spec(self):
        spec = Congestion(facilities={"e1": (1, 0), "e2": (1, 1)},
                          strategies=((("e1",), ("e2",)), (("e2",), ("e1",))))
        with pytest.raises(ParamOutOfRange):
            max_discrepancy(spec)


class TestContinuousAppealFactors:
    def test_tragedy_reference_point(self):
        assert tragedy_af(Fraction(1, 4), Fraction(3, 8)) == 1

    def test_cournot_reference_point(self):
        assert cournot_af(1, 1, Fraction(1, 4), Fraction(3, 8)) == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(OutOfDeviationRange):
            tragedy_af(Fraction(3, 8), Fraction(1, 4))
        with pytest.raises(OutOfDeviationRange):
            cournot_af(1, 1, Fraction(1, 2), Fraction(3, 4))
        with pytest.raises(OutOfDeviationRange):
            bertrand_af(2, 1, Fraction(1, 2), Fraction(1, 4))

    def test_bertrand_grows_near_the_optimum_price(self):
        a, b, c = Fraction(2), Fraction(1), Fraction(1, 2)
        d = BertrandParams(a, b, c).d
        previous = None
        for k in (4, 16, 64, 256):
            value = bertrand_af(a, b, c, d - (d - c) / k)
            if previous is not None:
                assert value > previous
            previous = value
        assert previous > 1000


M_GRID = [Fraction(10), Fraction(1000), Fraction(10 ** 6)]


class TestWitnesses:
    @pytest.mark.parametrize("m", M_GRID)
    def test_tragedy(self, m):
        a = Fraction(1, 4)
        x = tragedy_witness(a, m)
        assert a < x < Fraction(1, 2)
        assert tragedy_af(a, x) > m

    @pytest.mark.parametrize("m", M_GRID)
    def test_cournot(self, m):
        d, b, y = Fraction(1), Fraction(1), Fraction(1, 4)
        x = cournot_witness(d, b, y, m)
        assert y < x < d / (2 * b)
        assert cournot_af(d, b, y, x) > m

    @pytest.mark.parametrize("m", M_GRID)
    def test_bertrand(self, m):
        a, b, c = Fraction(2), Fraction(1), Fraction(1, 2)
        s = bertrand_witness(a, b, c, m)
        assert c < s < BertrandParams(a, b, c).d
        assert bertrand_af(a, b, c, s) > m

    def test_dispatcher(self):
        m = Fraction(50)
        x = unbounded_witness(TragedyParams(n=4), m)
        assert tragedy_af(Fraction(1, 8), x) > m
        params = CournotParams(a=3, b=2, c=1)
        x = unbounded_witness(params, m)
        assert cournot_af(params.d, params.b, params.d / (4 * params.b), x) > m
        params = BertrandParams(a=2, b=1, c=Fraction(1, 2))
        x = unbounded_witness(params, m)
        assert bertrand_af(params.a, params.b, params.c, x) > m

    def test_param_validation(self):
        with pytest.raises(ParamOutOfRange):
            CournotParams(a=1, b=1, c=2)
        with pytest.raises(ParamOutOfRange):
            BertrandParams(a=1, b=1, c=2)
        with pytest.raises(ParamOutOfRange):
            tragedy_witness(Fraction(1, 2), 10)
