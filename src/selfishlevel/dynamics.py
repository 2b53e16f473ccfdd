"""Improvement dynamics: better-response graph, FIP, weak acyclicity.

The improvement graph has one node per joint strategy and an edge for
every strictly improving unilateral deviation.  Its sinks are exactly
the pure Nash equilibria.  A finite game has the finite improvement
property (every improvement path is finite) iff this graph is acyclic,
which for finite games coincides with admitting an ordinal potential.
A game is weakly acyclic iff from every node some sink is reachable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import Game, Profile
from .errors import ExplosionGuard
from .families import DEFAULT_CELL_CAP


@dataclass(frozen=True)
class ImprovementGraph:
    """Strict better-response graph over the joint strategies."""

    nodes: tuple[Profile, ...]
    successors: dict[Profile, tuple[Profile, ...]]

    def sinks(self) -> list[Profile]:
        """Nodes without improving deviations; exactly the pure equilibria."""
        return [s for s in self.nodes if not self.successors[s]]

    @property
    def edge_count(self) -> int:
        return sum(len(targets) for targets in self.successors.values())


def improvement_graph(game: Game, cap: int = DEFAULT_CELL_CAP) -> ImprovementGraph:
    """Build the full improvement graph in deterministic node/edge order."""
    if game.cell_count > cap:
        raise ExplosionGuard(
            f"improvement graph would have {game.cell_count} nodes, exceeding {cap}"
        )
    kernel = game._kernel
    nodes = tuple(game.joint_strategies())
    players = range(game.player_count)
    successors = {
        s: tuple(nodes[t] for i in players for t in kernel.moves(k, i))
        for k, s in enumerate(nodes)
    }
    return ImprovementGraph(nodes, successors)


def _topological_order(graph: ImprovementGraph) -> list[Profile] | None:
    """Kahn's algorithm; None when the graph has a cycle."""
    indegree = {s: 0 for s in graph.nodes}
    for targets in graph.successors.values():
        for t in targets:
            indegree[t] += 1
    queue = deque(s for s in graph.nodes if indegree[s] == 0)
    order = []
    while queue:
        s = queue.popleft()
        order.append(s)
        for t in graph.successors[s]:
            indegree[t] -= 1
            if indegree[t] == 0:
                queue.append(t)
    if len(order) != len(graph.nodes):
        return None
    return order


def _reaches_sinks(graph: ImprovementGraph) -> bool:
    """Whether every node has a path to a sink (backward reachability)."""
    predecessors: dict[Profile, list[Profile]] = {s: [] for s in graph.nodes}
    for s, targets in graph.successors.items():
        for t in targets:
            predecessors[t].append(s)
    reached = set(graph.sinks())
    queue = deque(reached)
    while queue:
        t = queue.popleft()
        for s in predecessors[t]:
            if s not in reached:
                reached.add(s)
                queue.append(s)
    return len(reached) == len(graph.nodes)


def has_fip(game: Game, cap: int = DEFAULT_CELL_CAP) -> bool:
    """Whether every improvement path is finite (graph acyclicity)."""
    return _topological_order(improvement_graph(game, cap)) is not None


def is_weakly_acyclic(game: Game, cap: int = DEFAULT_CELL_CAP) -> bool:
    """Whether a finite improvement path to an equilibrium starts at every
    joint strategy (backward reachability from the sinks)."""
    return _reaches_sinks(improvement_graph(game, cap))


def ordinal_potential_certificate(game: Game,
                                  cap: int = DEFAULT_CELL_CAP) -> dict[Profile, int] | None:
    """An assignment that strictly increases along every improvement edge.

    Exists iff the game has the finite improvement property; built from
    a topological order of the improvement graph, so the values are
    small integers (any strictly monotone relabeling is equally valid).
    None when the graph has a cycle.
    """
    order = _topological_order(improvement_graph(game, cap))
    if order is None:
        return None
    return {s: rank for rank, s in enumerate(order)}
