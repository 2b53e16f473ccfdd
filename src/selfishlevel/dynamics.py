"""Improvement dynamics: better-response graph, FIP, weak acyclicity.

The improvement graph has one node per joint strategy and an edge for
every strictly improving unilateral deviation.  Its sinks are exactly
the pure Nash equilibria.  A finite game has the finite improvement
property (every improvement path is finite) iff this graph is acyclic,
which for finite games coincides with admitting a generalized ordinal
potential.  A game is weakly acyclic iff from every node some sink is
reachable.

``has_fip`` and ``is_weakly_acyclic`` first ask whether the game has an
exact potential (``_Kernel.exact_potential``), an integer check on its
table.  A potential rises along every improving move, so it proves FIP,
and FIP implies weak acyclicity: congestion and cost sharing games are
answered without walking the graph.  Any other game falls back to the
walk, done once per game on the integer cells of the game's kernel
(``_Space.improvement``).  ``ordinal_potential_certificate`` and
``improvement_graph`` always walk, since their ranks and edges are the
answer; ``ImprovementGraph`` is the walk's profile-keyed view.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import DEFAULT_CELL_CAP, Game, Profile, _Kernel, check_cap


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


def _kernel(game: Game, cap: int) -> _Kernel:
    """The game's integer space, once its joint strategies fit under ``cap``."""
    check_cap(game.strategy_counts, cap)
    return game._kernel


def improvement_graph(game: Game, cap: int = DEFAULT_CELL_CAP) -> ImprovementGraph:
    """Build the full improvement graph in deterministic node/edge order."""
    kernel = _kernel(game, cap)
    nodes = tuple(game.joint_strategies())
    successors = {s: tuple(map(nodes.__getitem__, kernel.targets(k)))
                  for k, s in enumerate(nodes)}
    return ImprovementGraph(nodes, successors)


def has_fip(game: Game, cap: int = DEFAULT_CELL_CAP) -> bool:
    """Whether every improvement path is finite (graph acyclicity): true at
    once for a game with an exact potential, else decided by the walk."""
    kernel = _kernel(game, cap)
    return kernel.exact_potential or kernel.improvement[0] is not None


def is_weakly_acyclic(game: Game, cap: int = DEFAULT_CELL_CAP) -> bool:
    """Whether a finite improvement path to an equilibrium starts at every
    joint strategy: true at once for a game with an exact potential, which
    has FIP, else decided by backward reachability from the sinks."""
    kernel = _kernel(game, cap)
    return kernel.exact_potential or kernel.improvement[1]


def ordinal_potential_certificate(game: Game,
                                  cap: int = DEFAULT_CELL_CAP) -> dict[Profile, int] | None:
    """An assignment that strictly increases along every improvement edge.

    Exists iff the game has the finite improvement property; built from
    a topological order of the improvement graph, so the values are
    small integers (any strictly monotone relabeling is equally valid).
    None when the graph has a cycle.
    """
    kernel = _kernel(game, cap)
    order = kernel.improvement[0]
    return None if order is None else {kernel.profile(c): rank for rank, c in enumerate(order)}
