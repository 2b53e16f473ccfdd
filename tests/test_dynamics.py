"""Improvement graph, FIP, weak acyclicity, potential certificates."""

from fractions import Fraction

import pytest

from selfishlevel import (
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
from selfishlevel.errors import ExplosionGuard

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
