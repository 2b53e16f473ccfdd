"""Improvement graph, FIP, weak acyclicity, exact and ordinal potentials."""

import itertools
import random
from fractions import Fraction

import pytest

from selfishlevel import (
    BattleOfSexes,
    Congestion,
    CostSharing,
    FLevelGame,
    Game,
    LevelKind,
    Orientation,
    TightFamily,
    generate,
    has_fip,
    improvement_graph,
    is_weakly_acyclic,
    ordinal_potential_certificate,
    pure_nash,
    selfishness_level,
    tight_instance,
)
from selfishlevel import dynamics, families, gamedoc
from selfishlevel.core import _Kernel
from selfishlevel.errors import ExplosionGuard

from conftest import FAMILY_PARAMS, family_game
from oracles import naive_pure_nash, random_game_corpus

CORPUS = random_game_corpus(seed=777, size=40)


class TestImprovementGraph:
    def test_pd_structure(self, pd):
        graph = improvement_graph(pd)
        assert len(graph.nodes) == 4
        assert graph.sinks() == [(1, 1)]
        assert (1, 1) in graph.successors[(0, 1)]
        assert (1, 1) in graph.successors[(1, 0)]
        assert graph.successors[(1, 1)] == ()

    def test_matching_pennies_cycle_no_sinks(self, matching_pennies):
        graph = improvement_graph(matching_pennies)
        assert graph.sinks() == []
        assert graph.edge_count == 4
        # follow the unique out-edges around the four-cycle
        node = (0, 0)
        seen = [node]
        for _ in range(4):
            (node,) = graph.successors[node]
            seen.append(node)
        assert seen[-1] == seen[0]

    def test_battle_of_sexes_sinks(self, battle_of_sexes):
        assert improvement_graph(battle_of_sexes).sinks() == [(0, 0), (1, 1)]

    def test_sinks_equal_pure_nash(self):
        for table in CORPUS:
            for orientation in Orientation:
                game = Game(orientation, table.strategy_labels, table.payoffs)
                sinks = improvement_graph(game).sinks()
                assert sinks == pure_nash(game) == naive_pure_nash(game)

    def test_cost_orientation_edges_follow_cost_decrease(self):
        spec = tight_instance(TightFamily.COST_SHARING_SINGLETON, c_max=10, c_min=1)
        game = generate(spec)
        graph = improvement_graph(game)
        optimum = game.profile_from_labels(("e1", "e1"))
        cheaper = game.profile_from_labels(("e1", "e2"))
        assert cheaper in graph.successors[optimum]

    def test_explosion_guard(self, travelers):
        with pytest.raises(ExplosionGuard):
            improvement_graph(travelers, cap=100)


class TestFip:
    def test_pd(self, pd):
        assert has_fip(pd)

    def test_matching_pennies(self, matching_pennies):
        assert not has_fip(matching_pennies)

    def test_weakly_acyclic_example_has_head_tail_cycle(self, weakly_acyclic_game):
        assert not has_fip(weakly_acyclic_game)
        graph = improvement_graph(weakly_acyclic_game)
        cycle = [(0, 0), (0, 1), (1, 1), (1, 0), (0, 0)]
        for a, b in zip(cycle, cycle[1:]):
            assert b in graph.successors[a]


class TestWeakAcyclicity:
    def test_counterexample_game(self, weakly_acyclic_game):
        assert is_weakly_acyclic(weakly_acyclic_game)
        assert selfishness_level(weakly_acyclic_game).is_infinite

    def test_matching_pennies(self, matching_pennies):
        assert not is_weakly_acyclic(matching_pennies)

    def test_fip_implies_weakly_acyclic(self, pd):
        assert is_weakly_acyclic(pd)
        for game in CORPUS[:20]:
            if has_fip(game):
                assert is_weakly_acyclic(game)


class TestPotentialCertificate:
    def _assert_edge_monotone(self, game, potential):
        graph = improvement_graph(game)
        for node, targets in graph.successors.items():
            for target in targets:
                assert potential[target] > potential[node]

    def test_pd(self, pd):
        potential = ordinal_potential_certificate(pd)
        assert potential is not None
        self._assert_edge_monotone(pd, potential)

    def test_matching_pennies_has_none(self, matching_pennies):
        assert ordinal_potential_certificate(matching_pennies) is None

    def test_pinned_level_game(self):
        game = generate(FLevelGame(n=2, f_value=1))
        potential = ordinal_potential_certificate(game)
        assert potential is not None
        self._assert_edge_monotone(game, potential)

    def test_exists_iff_fip(self):
        for game in CORPUS[:20]:
            assert (ordinal_potential_certificate(game) is not None) == has_fip(game)


class TestPotentialGamesHaveFiniteLevel:
    def test_cost_sharing_and_congestion_instances(self):
        specs = [
            tight_instance(TightFamily.COST_SHARING_SINGLETON, c_max=7, c_min=1),
            tight_instance(TightFamily.COST_SHARING_INTEGER, L=2, c_max=2),
            tight_instance(TightFamily.CONGESTION_SINGLETON, delta=Fraction(1, 4), a=1),
            tight_instance(TightFamily.CONGESTION_INTEGER, L=2, d_max=3, d_min=1),
            CostSharing(facility_costs={"e1": 4, "e2": Fraction(5, 2), "e3": 1},
                        strategies=((("e1",), ("e2",)),
                                    (("e1", "e3"), ("e2",)),
                                    (("e3",), ("e2",)))),
            Congestion(facilities={"e1": (1, 0), "e2": (0, 2), "e3": (2, 1)},
                       strategies=((("e1",), ("e2", "e3")),
                                   (("e1", "e2"), ("e3",)))),
        ]
        for spec in specs:
            game = generate(spec)
            assert has_fip(game)
            assert selfishness_level(game).kind is not LevelKind.INFINITE

    def test_random_fip_games_have_finite_level(self):
        hits = 0
        for game in CORPUS:
            if has_fip(game):
                hits += 1
                assert not selfishness_level(game).is_infinite
        assert hits >= 10


def _reference_walk(graph):
    """(acyclic, every node reaches a sink) of the profile-keyed graph, by a
    depth-first cycle search and a forward search to a sink from each node."""
    successors = graph.successors
    state = dict.fromkeys(graph.nodes, "new")
    acyclic = True
    for root in graph.nodes:
        if state[root] != "new":
            continue
        state[root] = "open"
        stack = [(root, iter(successors[root]))]
        while stack:
            node, targets = stack[-1]
            for target in targets:
                if state[target] == "open":
                    acyclic = False
                elif state[target] == "new":
                    state[target] = "open"
                    stack.append((target, iter(successors[target])))
                    break
            else:
                state[node] = "done"
                stack.pop()
    good = set(graph.sinks())  # nodes known to reach a sink

    def reaches_sink(root):
        seen, stack = {root}, [root]
        while stack:
            node = stack.pop()
            if node in good:
                return True
            for target in successors[node]:
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
        return False

    weakly = True
    for root in graph.nodes:
        if reaches_sink(root):
            good.add(root)
        else:
            weakly = False
    return acyclic, weakly


def _four_cycle_potential(game):
    """Whether the game has an exact potential, by Monderer and Shapley's
    condition: around every 4-cycle of moves by two players, the movers'
    gains sum to 0.  Every such square's sum is a signed sum of those of
    the squares with a corner at both movers' first strategy, so only
    those are checked."""
    value = dict(zip(game.joint_strategies(), game.payoffs))
    counts = game.strategy_counts

    def moved(profile, player, to):
        return profile[:player] + (to,) + profile[player + 1:]

    for s in game.joint_strategies():
        for i, k in itertools.combinations(range(len(counts)), 2):
            if s[i] or s[k]:
                continue
            for a, b in itertools.product(range(1, counts[i]), range(1, counts[k])):
                x = moved(s, i, a)
                y, z = moved(x, k, b), moved(s, k, b)
                gains = (value[x][i] - value[s][i] + value[y][k] - value[x][k]
                         + value[z][i] - value[y][i] + value[s][k] - value[z][k])
                if gains:
                    return False
    return True


def _random_facility_spec(rng):
    """A Congestion or CostSharing spec: 2-3 players, each with 1-3
    subsets of 1-2 of 2-4 facilities."""
    names = [f"e{i}" for i in range(rng.randint(2, 4))]
    strategies = tuple(
        tuple(dict.fromkeys(tuple(sorted(rng.sample(names, rng.randint(1, 2))))
                            for _ in range(rng.randint(1, 3))))
        for _ in range(rng.randint(2, 3)))
    if rng.random() < 0.5:
        return Congestion(facilities={name: (Fraction(rng.randint(0, 3), rng.choice((1, 2))),
                                             Fraction(rng.randint(0, 4), rng.choice((1, 3))))
                                      for name in names}, strategies=strategies)
    return CostSharing(facility_costs={name: Fraction(rng.randint(0, 6), rng.choice((1, 2)))
                                       for name in names}, strategies=strategies)


def _doubled_battle_of_sexes():
    """Battle of the sexes with player 1's payoffs doubled: FIP, but its
    4-cycle's gains sum to -3, so it has no exact potential."""
    game = generate(BattleOfSexes())
    return Game(game.orientation, game.strategy_labels,
                [(2 * a, b) for a, b in game.payoffs])


def _dynamics_games():
    """Every game the walk and the potential check are compared on."""
    games = [Game(orientation, table.strategy_labels, table.payoffs)
             for table in CORPUS for orientation in Orientation]
    games += [family_game(name) for name in families.FAMILIES]
    rng = random.Random(1996)
    games += [generate(_random_facility_spec(rng)) for _ in range(40)]
    return games + [_doubled_battle_of_sexes()]


def _near_potential_games():
    """(game, moved) pairs: seeded exact-potential games, each as it is and
    with one player's value at one cell moved, for every player and cell,
    so that a moved value falls in every outer block of every player's axis
    segments; and a 2x2x2 game of that kind whose walk finds a cycle."""
    rng = random.Random(1105)
    pairs = []
    for counts in ((2, 2, 2), (2, 3, 2), (2, 2, 3), (3, 2)):
        profiles = list(itertools.product(*map(range, counts)))
        potential = [rng.randint(-3, 3) for _ in profiles]
        others = [{} for _ in counts]  # per player, a value of the others' profile
        table = [[p + others[i].setdefault(s[:i] + s[i + 1:], rng.randint(-3, 3))
                  for i in range(len(counts))] for s, p in zip(profiles, potential)]
        labels = tuple(tuple(f"s{j}" for j in range(m)) for m in counts)
        for orientation in Orientation:
            pairs.append((Game(orientation, labels, table), False))
            for cell, player in itertools.product(range(len(table)), range(len(counts))):
                moved = [list(vector) for vector in table]
                moved[cell][player] += rng.choice((-6, -3, -1, 1, 3, 6))
                pairs.append((Game(orientation, labels, moved), True))
    cycle = Game(Orientation.PAYOFF_MAX, (("a", "b"),) * 3,
                 [(3, 3, 3), (2, 2, 2), (0, 0, 0), (3, 3, 3),
                  (3, 3, 3), (2, 5, 2), (4, 4, 0), (3, 3, 3)])
    return pairs + [(cycle, True)]


class TestIntegerWalk:
    def test_matches_reference_walk(self):
        classes = set()
        for game in _dynamics_games():
            graph = improvement_graph(game)
            acyclic, weakly = _reference_walk(graph)
            assert has_fip(game) == acyclic
            assert is_weakly_acyclic(game) == weakly
            potential = ordinal_potential_certificate(game)
            assert (potential is not None) == acyclic
            if potential is not None:
                assert set(potential) == set(graph.nodes)
                for node, targets in graph.successors.items():
                    for target in targets:
                        assert potential[target] > potential[node]
            classes.add((acyclic, weakly))
        assert classes == {(True, True), (False, True), (False, False)}

    def test_every_family_is_walked(self):
        assert list(FAMILY_PARAMS) == list(families.FAMILIES)

    def test_pinned_certificate_pd_n(self):
        potential = ordinal_potential_certificate(family_game("pd_n"))
        assert list(potential.items()) == [
            ((0, 0, 0), 0), ((1, 0, 0), 1), ((0, 1, 0), 2), ((0, 0, 1), 3),
            ((1, 1, 0), 4), ((1, 0, 1), 5), ((0, 1, 1), 6), ((1, 1, 1), 7),
        ]

    def test_pinned_certificate_cost_game(self):
        game = family_game("congestion_integer_tight")
        assert game.orientation is Orientation.COST_MIN
        potential = ordinal_potential_certificate(game)
        assert list(potential.items()) == [((0, 0, 0, 0), 0), ((0, 0, 0, 1), 1)]

    def test_answers_without_the_profile_view(self, monkeypatch, pd, weakly_acyclic_game):
        def refuse(*args, **kwargs):
            raise AssertionError("the profile-keyed graph was built")

        monkeypatch.setattr(dynamics, "improvement_graph", refuse)
        assert has_fip(pd) and is_weakly_acyclic(pd)
        assert ordinal_potential_certificate(pd) is not None
        assert not has_fip(weakly_acyclic_game)
        assert is_weakly_acyclic(weakly_acyclic_game)
        assert ordinal_potential_certificate(weakly_acyclic_game) is None
        report = gamedoc.dynamics_report(gamedoc.GameDocument.from_game(weakly_acyclic_game),
                                         families.DEFAULT_CELL_CAP)
        assert report["finite_improvement_property"] is False
        assert report["weakly_acyclic"] is True
        assert report["ordinal_potential_certificate"] is False

    def test_one_walk_per_game(self, monkeypatch):
        calls = []
        targets = _Kernel.targets

        def counting(self, cell):
            calls.append(cell)
            return targets(self, cell)

        monkeypatch.setattr(_Kernel, "targets", counting)
        game = family_game("weakly_acyclic_3x3")
        assert not has_fip(game)
        walked = len(calls)
        assert walked == game.cell_count
        assert is_weakly_acyclic(game)
        assert ordinal_potential_certificate(game) is None
        gamedoc.dynamics_report(gamedoc.GameDocument.from_game(game), families.DEFAULT_CELL_CAP)
        assert has_fip(game) is False
        assert len(calls) == walked

    @pytest.mark.parametrize("query", [
        lambda game: improvement_graph(game, cap=100),
        lambda game: has_fip(game, cap=100),
        lambda game: is_weakly_acyclic(game, cap=100),
        lambda game: ordinal_potential_certificate(game, cap=100),
        lambda game: gamedoc.dynamics_report(gamedoc.GameDocument.from_game(game), 100),
    ], ids=["improvement_graph", "has_fip", "is_weakly_acyclic",
            "ordinal_potential_certificate", "dynamics_report"])
    def test_cap(self, travelers, query):
        with pytest.raises(ExplosionGuard) as raised:
            query(travelers)
        assert str(raised.value) == "joint strategy space has 9801 cells, exceeding the cap of 100"


class TestExactPotential:
    def test_matches_four_cycle_condition(self):
        classes = set()
        for game in _dynamics_games():
            exact = game._kernel.exact_potential
            assert exact == _four_cycle_potential(game)
            acyclic, weakly = _reference_walk(improvement_graph(game))
            if exact:
                assert acyclic and weakly
            classes.add((exact, acyclic))
        assert classes == {(True, True), (False, True), (False, False)}

    def test_one_moved_value_breaks_it(self):
        classes = set()
        for game, moved in _near_potential_games():
            exact = game._kernel.exact_potential
            assert exact == _four_cycle_potential(game) == (not moved)
            acyclic, weakly = _reference_walk(improvement_graph(game))
            assert (has_fip(game), is_weakly_acyclic(game)) == (acyclic, weakly)
            classes.add((exact, acyclic, weakly))
        assert classes == {(True, True, True), (False, True, True), (False, False, True),
                           (False, False, False)}
        cycle, _ = _near_potential_games()[-1]
        assert not has_fip(cycle) and not is_weakly_acyclic(cycle)

    def test_facility_games_have_one(self):
        rng = random.Random(1973)
        for _ in range(40):
            assert generate(_random_facility_spec(rng))._kernel.exact_potential

    @staticmethod
    def _count_walks(monkeypatch):
        calls = []
        targets = _Kernel.targets

        def counting(self, cell):
            calls.append(cell)
            return targets(self, cell)

        monkeypatch.setattr(_Kernel, "targets", counting)
        return calls

    def test_fip_game_without_one_is_walked(self, monkeypatch):
        calls = self._count_walks(monkeypatch)
        game = _doubled_battle_of_sexes()
        assert not game._kernel.exact_potential
        assert has_fip(game)
        assert len(calls) == game.cell_count
        assert is_weakly_acyclic(game)
        assert list(ordinal_potential_certificate(game).values()) == [0, 1, 2, 3]
        assert len(calls) == game.cell_count

    @pytest.mark.parametrize("name,ranks", [
        ("congestion_integer_tight", [((0, 0, 0, 0), 0), ((0, 0, 0, 1), 1)]),
        ("pd_n", [((0, 0, 0), 0), ((1, 0, 0), 1), ((0, 1, 0), 2), ((0, 0, 1), 3),
                  ((1, 1, 0), 4), ((1, 0, 1), 5), ((0, 1, 1), 6), ((1, 1, 1), 7)]),
    ])
    def test_potential_games_are_not_walked(self, monkeypatch, name, ranks):
        calls = self._count_walks(monkeypatch)
        game = family_game(name)
        assert has_fip(game) and is_weakly_acyclic(game)
        report = gamedoc.dynamics_report(gamedoc.GameDocument.from_game(game),
                                         families.DEFAULT_CELL_CAP)
        assert (report["finite_improvement_property"], report["weakly_acyclic"],
                report["ordinal_potential_certificate"]) == (True, True, True)
        assert calls == []
        assert list(ordinal_potential_certificate(game).items()) == ranks
        assert len(calls) == game.cell_count
