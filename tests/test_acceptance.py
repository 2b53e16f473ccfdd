"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a `criterion NN PASS/FAIL` line (visible with -s); all
comparisons are exact rational equalities unless a runtime budget is
stated.  Run with:  pytest tests/test_acceptance.py -v -s
"""

import functools
import itertools
import random
import time
from fractions import Fraction

import selfishlevel as sl
from selfishlevel import LevelKind

from oracles import naive_level_by_alpha_search, random_game_corpus

HALF = Fraction(1, 2)


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:02d} FAIL  {description}")
                raise
            print(f"criterion {number:02d} PASS  {description}")
            return result

        return inner

    return wrap


@functools.lru_cache(maxsize=None)
def transform_corpus():
    return tuple(random_game_corpus(seed=60321, size=200))


def _random_singleton_cost_sharing(rng):
    facilities = {f"e{i}": Fraction(rng.randint(1, 12), rng.choice((1, 2)))
                  for i in range(rng.randint(2, 5))}
    names = list(facilities)
    strategies = []
    for _ in range(rng.randint(2, 4)):
        chosen = rng.sample(names, rng.randint(1, len(names)))
        strategies.append(tuple((name,) for name in chosen))
    return sl.CostSharing(facility_costs=facilities, strategies=tuple(strategies))


def _random_symmetric_singleton_congestion(rng):
    facilities = {f"e{i}": (Fraction(rng.randint(0, 4)), Fraction(rng.randint(0, 4)))
                  for i in range(rng.randint(2, 4))}
    options = tuple((name,) for name in facilities)
    return sl.Congestion(facilities=facilities,
                         strategies=(options,) * rng.randint(2, 4))


@functools.lru_cache(maxsize=None)
def cost_congestion_corpus():
    """Every cost-sharing/congestion spec the suite generates."""
    specs = [
        sl.tight_instance(sl.TightFamily.COST_SHARING_SINGLETON, c_max=10, c_min=1),
        sl.tight_instance(sl.TightFamily.COST_SHARING_SINGLETON, c_max=9, c_min=2),
        sl.tight_instance(sl.TightFamily.COST_SHARING_SINGLETON,
                          c_max=Fraction(7, 2), c_min=1),
    ]
    for L, c_max in [(1, 2), (1, 4), (2, 2), (2, 3), (3, 2), (5, 2)]:
        specs.append(sl.tight_instance(sl.TightFamily.COST_SHARING_INTEGER,
                                       L=L, c_max=c_max))
    for delta in (0, Fraction(1, 4), HALF, Fraction(3, 4)):
        specs.append(sl.tight_instance(sl.TightFamily.CONGESTION_SINGLETON,
                                       delta=delta, a=1))
    for L, d_max, d_min in [(2, 3, 1), (1, 5, 2), (4, 2, 1), (2, 2, 1), (2, 5, 1)]:
        specs.append(sl.tight_instance(sl.TightFamily.CONGESTION_INTEGER,
                                       L=L, d_max=d_max, d_min=d_min))
    for gap in (Fraction(1), HALF, Fraction(1, 10)):
        specs.append(sl.cost_sharing_gap_instance(c_max=10, c_min=1, gap=gap))
    rng = random.Random(4711)
    specs.extend(_random_singleton_cost_sharing(rng) for _ in range(25))
    rng = random.Random(1213)
    specs.extend(_random_symmetric_singleton_congestion(rng) for _ in range(25))
    return tuple(specs)


@criterion(1, "n-player dilemma level is 1/(2n-3) for n=2..8, under 1 s")
def test_criterion_01_pd_n():
    started = time.perf_counter()
    for n in range(2, 9):
        result = sl.selfishness_level(sl.generate(sl.PrisonersDilemmaN(n)))
        assert result.level() == Fraction(1, 2 * n - 3)
    assert time.perf_counter() - started < 1.0


@criterion(2, "full 99x99 travelers game: level 1/2, NE (2,2), optimum (100,100), under 5 s")
def test_criterion_02_travelers():
    started = time.perf_counter()
    game = sl.generate(sl.TravelersDilemma())
    result = sl.selfishness_level(game)
    equilibria = sl.pure_nash(game)
    optima = sl.social_optima(game)
    elapsed = time.perf_counter() - started
    assert result.level() == HALF
    assert [game.labels_for(s) for s in equilibria] == [("2", "2")]
    assert [game.labels_for(s) for s in optima] == [("100", "100")]
    assert elapsed < 5.0


@criterion(3, "public goods grid level is max{0, (1-c/n)/(c-1)} over the full parameter grid")
def test_criterion_03_public_goods_grid():
    dense_cell_budget = 4096
    combos = list(itertools.product(
        (2, 4, 10),
        (Fraction(3, 2), Fraction(2), Fraction(4)),
        (Fraction(1), Fraction(3)),
        (1, 2, 5),
    ))
    assert len(combos) == 54
    dense_checked = 0
    for n, c, b, k in combos:
        spec = sl.PublicGoodsGrid(n=n, b=b, c=c, grid_steps=k)
        expected = max(Fraction(0), (1 - c / n) / (c - 1))
        form = sl.symmetric_form(spec)
        result = sl.symmetric_selfishness_level(
            form.player_count, len(form.strategy_labels), form.payoff
        )
        assert result.level() == expected, (n, c, b, k)
        if len(form.strategy_labels) ** n <= dense_cell_budget:
            dense = sl.selfishness_level(sl.generate(spec))
            assert dense == result, (n, c, b, k)
            dense_checked += 1
    assert dense_checked >= 40


@criterion(4, "fixed examples: dilemma 1, sexes 0, pennies inf, bad 3x3 inf, no-equilibrium 1")
def test_criterion_04_fixed_examples():
    expectations = [
        (sl.PrisonersDilemmaN(2), Fraction(1)),
        (sl.BattleOfSexes(), Fraction(0)),
        (sl.MatchingPennies(), None),
        (sl.BadNash3x3(), None),
        (sl.NoNash2x2(), Fraction(1)),
    ]
    for spec, expected in expectations:
        result = sl.selfishness_level(sl.generate(spec))
        assert result.level() == expected, spec


@criterion(5, "generalized dilemma hits prescribed level alpha and stability price beta")
def test_criterion_05_generalized_pd():
    for alpha in (HALF, Fraction(1), Fraction(2), Fraction(10)):
        for beta in (Fraction(3, 2), Fraction(2), Fraction(5)):
            game = sl.generate(sl.GeneralizedPD(alpha=alpha, beta=beta))
            assert sl.selfishness_level(game).level() == alpha
            assert sl.price_of_stability(game) == beta


@criterion(6, "pinned-level game attains every prescribed value f")
def test_criterion_06_f_level():
    for n in (2, 3, 4):
        for f in (Fraction(0), Fraction(1), Fraction(7), Fraction(100)):
            result = sl.selfishness_level(sl.generate(sl.FLevelGame(n=n, f_value=f)))
            assert result.level() == f, (n, f)


@criterion(7, "cost sharing: tight levels met exactly, random singletons within the bound")
def test_criterion_07_cost_sharing():
    for c_max, c_min in [(10, 1), (9, 2), (Fraction(7, 2), 1)]:
        spec = sl.tight_instance(sl.TightFamily.COST_SHARING_SINGLETON,
                                 c_max=c_max, c_min=c_min)
        expected = HALF * Fraction(c_max) / Fraction(c_min) - 1
        assert sl.selfishness_level(sl.generate(spec)).level() == expected
    for L, c_max in [(1, 2), (1, 4), (2, 2), (2, 3), (3, 2), (5, 2)]:
        spec = sl.tight_instance(sl.TightFamily.COST_SHARING_INTEGER, L=L, c_max=c_max)
        expected = HALF * L * c_max - 1
        assert sl.selfishness_level(sl.generate(spec)).level() == max(Fraction(0), expected)
    rng = random.Random(4711)
    for _ in range(25):
        spec = _random_singleton_cost_sharing(rng)
        costs = [c for _, c in spec.facility_costs]
        bound = max(Fraction(0), HALF * max(costs) / min(costs) - 1)
        level = sl.selfishness_level(sl.generate(spec)).level()
        assert level is not None and level <= bound


@criterion(8, "congestion: tight levels met exactly, in-use pair discrepancies within [-1, 1]")
def test_criterion_08_congestion():
    for delta in (Fraction(0), Fraction(1, 4), HALF, Fraction(3, 4)):
        spec = sl.tight_instance(sl.TightFamily.CONGESTION_SINGLETON, delta=delta, a=1)
        assert sl.selfishness_level(sl.generate(spec)).level() == delta / (1 - delta)
    for L, d_max, d_min in [(2, 3, 1), (1, 5, 2), (4, 2, 1), (2, 2, 1), (2, 5, 1)]:
        spec = sl.tight_instance(sl.TightFamily.CONGESTION_INTEGER,
                                 L=L, d_max=d_max, d_min=d_min)
        expected = HALF * (L * d_max - d_min - 1)
        assert sl.selfishness_level(sl.generate(spec)).level() == expected
    rng = random.Random(1213)
    pairs_checked = 0
    for _ in range(25):
        spec = _random_symmetric_singleton_congestion(rng)
        game = sl.generate(spec)
        coeffs = {name: (a, b) for name, a, b in spec.facilities}
        for profile in sl.social_optima(game):
            usage = {name: 0 for name in coeffs}
            for player, position in enumerate(profile):
                for name in spec.strategies[player][position]:
                    usage[name] += 1
            for e, e2 in itertools.permutations(coeffs, 2):
                if coeffs[e][0] + coeffs[e2][0] == 0:
                    continue
                if usage[e] == 0 or usage[e2] == 0:
                    continue
                value = sl.discrepancy(*coeffs[e], *coeffs[e2], usage[e], usage[e2])
                assert -1 <= value <= 1
                pairs_checked += 1
    assert pairs_checked >= 40


@criterion(9, "transform algebra holds on 200 random rational games")
def test_criterion_09_transform_properties():
    shares = (HALF, Fraction(2))
    for index, game in enumerate(transform_corpus()):
        base = sl.selfishness_level(game)
        shifted = sl.selfishness_level(sl.shift(game, Fraction(-7, 3)))
        scaled = sl.selfishness_level(sl.scale(game, Fraction(3, 4)))
        assert shifted.kind is base.kind and shifted.level() == base.level()
        assert scaled.kind is base.kind and scaled.level() == base.level()

        assert sl.compose_check(game, shares[index % 2], Fraction(5, 7))
        assert sl.altruistic(sl.inverse_altruistic(game, shares[index % 2]),
                             shares[index % 2]) == game

        alpha = shares[(index + 1) % 2]
        reference = sl.altruistic(game, alpha)
        reference_nash = sl.pure_nash(reference)
        reference_optima = sl.social_optima(reference)
        for model in (sl.AltruismModel.B, sl.AltruismModel.C, sl.AltruismModel.D):
            param = sl.convert_param(alpha, model, n=game.player_count)
            variant = sl.altruistic_model(game, param)
            assert sl.pure_nash(variant) == reference_nash
            assert sl.social_optima(variant) == reference_optima

        grid = (Fraction(0), Fraction(1, 3), Fraction(1), Fraction(4))
        flags = [sl.is_alpha_selfish(game, a) for a in grid]
        for low, high in itertools.pairwise(flags):
            assert not (low and not high)


@criterion(10, "characterization formula agrees with the candidate-share search oracle")
def test_criterion_10_oracle_cross_check():
    finite_games = 0
    for game in transform_corpus():
        result = sl.selfishness_level(game)
        searched = naive_level_by_alpha_search(game)
        if result.is_infinite:
            assert searched is None
        else:
            finite_games += 1
            assert searched == result.level()
    assert finite_games >= 100


@criterion(11, "weakly acyclic counterexample is infinite; potential games stay finite")
def test_criterion_11_dynamics():
    game = sl.generate(sl.WeaklyAcyclic3x3())
    assert sl.is_weakly_acyclic(game)
    assert not sl.has_fip(game)
    assert sl.selfishness_level(game).is_infinite
    for spec in cost_congestion_corpus():
        generated = sl.generate(spec)
        assert sl.has_fip(generated), spec
        assert sl.selfishness_level(generated).kind is not LevelKind.INFINITE, spec


@criterion(12, "continuous families: witnesses beat every threshold; reference factors check out")
def test_criterion_12_continuous_families():
    assert sl.tragedy_af(Fraction(1, 4), Fraction(3, 8)) == 1
    assert sl.cournot_af(1, 1, Fraction(1, 4), Fraction(3, 8)) == 1
    thresholds = (Fraction(10), Fraction(1000), Fraction(10 ** 6))
    for m in thresholds:
        a = Fraction(1, 4)
        x = sl.tragedy_witness(a, m)
        assert sl.tragedy_af(a, x) > m

        d, b, y = Fraction(1), Fraction(1), Fraction(1, 4)
        x = sl.cournot_witness(d, b, y, m)
        assert sl.cournot_af(d, b, y, x) > m

        a, b, c = Fraction(2), Fraction(1), HALF
        s = sl.bertrand_witness(a, b, c, m)
        assert sl.bertrand_af(a, b, c, s) > m


@criterion(13, "three-facility gap instance level is c_max/(2*gap) - 1 for each gap")
def test_criterion_13_gap_instance():
    c_max = Fraction(10)
    for gap in (Fraction(1), HALF, Fraction(1, 10)):
        spec = sl.cost_sharing_gap_instance(c_max=c_max, c_min=1, gap=gap)
        expected = HALF * c_max / gap - 1
        assert sl.selfishness_level(sl.generate(spec)).level() == expected


@criterion(14, "CLI pipelines print 1, 1/2, inf; document round-trips are lossless")
def test_criterion_14_cli(capsys, monkeypatch):
    import io
    import sys
    from pathlib import Path

    from selfishlevel.cli import main

    def run(argv, stdin_text=""):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0
        return out

    pipelines = [
        (["generate", "pd_n", "--param", "n=2"], "1\n"),
        (["generate", "travelers"], "1/2\n"),
        (["generate", "matching_pennies"], "inf\n"),
    ]
    for generate_argv, expected in pipelines:
        document = run(generate_argv)
        assert run(["level"], stdin_text=document) == expected

    fixtures = sorted((Path(__file__).parent / "fixtures").iterdir())
    assert len(fixtures) >= 5
    for path in fixtures:
        doc = sl.parse_game_document(path.read_text())
        rendered = sl.render_game_document(doc)
        again = sl.parse_game_document(rendered)
        assert again.game == doc.game
        assert again.player_names == doc.player_names
        assert sl.render_game_document(again) == rendered
