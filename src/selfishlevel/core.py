"""Finite normal-form games over exact rational payoffs.

A game is either payoff-maximizing or cost-minimizing.  It stores its
payoff table once, as integers over one denominator: player i's value at
flat cell c is ``columns[i][c] / denominator``, and the denominator is
the least common denominator of the values in lowest terms.  The store
is canonical, so two games are equal exactly when their tables of exact
values are; nothing in this package ever rounds.  ``Game.payoffs`` is an
exact ``fractions.Fraction`` view of the store, built on first use.

A game built from raw values coerces each distinct value once; the
family generators, the transforms and ``negated`` hand over a store
directly, which is reduced by its gcd to the canonical one.

The analysis kernels work on the integers: ``_Kernel`` takes the
columns as they are for payoff games and negated for cost games, so
that larger is always better.  A positive scaling and a uniform sign
flip change no equilibrium, optimum or stable optimum, and an appeal
factor is a ratio in which the common denominator cancels, so results
stay exact; Fractions reappear only in the values a caller gets back.

Two profile spaces share that integer form.  ``_Kernel`` is a game's
dense table, with flat cell indices.  ``_Orbits`` is a symmetric game
given compactly, with one cell per player-permutation orbit; an orbit is
keyed by one integer, its per-strategy counts read as digits in base
n + 1, so a deviation is one addition and each value the payoff callback
returns is added into the welfare vector once, in one pass.  Each space
supplies its welfare vector, its strictly improving deviations and
their targets alone; ``_Space`` derives the optima, the stable optima
and the improvement graph's walk from them, once for both, and the
level engine in ``analysis`` runs on either.  ``_Kernel`` also decides
whether the game has an exact potential, on the same integers; FIP and
weak acyclicity are read from that first, and the walk is the fallback.
``check_cap`` and the orbit count bound each space by
``DEFAULT_CELL_CAP`` cells, or a cap given, before anything is built.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import (
    DimensionMismatch,
    DuplicateLabel,
    EmptyStrategySet,
    ExplosionGuard,
    GameError,
    IndexOutOfRange,
    NegativeAlpha,
    PlayerCountTooSmall,
    ZeroDenominator,
)

#: A joint strategy: one strategy index per player.
Profile = tuple[int, ...]

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)

#: Default cap on the cells of a profile space: joint strategies, or orbits.
DEFAULT_CELL_CAP = 10_000_000

# Python turns no int of more than 4,300 digits into a string, so a size
# past this bound is named by the bound instead of its digits.
_PRINTABLE = 10 ** 4300


class Orientation(str, Enum):
    """Whether players maximize payoffs or minimize costs."""

    PAYOFF_MAX = "payoff"
    COST_MIN = "cost"


def _orientation(value, error: type[GameError] = GameError) -> Orientation:
    """``value``, an Orientation or its string, as the member; ``error`` otherwise."""
    try:
        return Orientation(value)
    except ValueError:
        raise error(f"orientation must be 'payoff' or 'cost', got {value!r}") from None


def parse_rational(value) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact Fraction.

    Floats are rejected: binary floating point cannot represent the
    exact table entries this package promises to preserve.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise GameError(f"not a rational value: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise GameError(
            f"floating-point value {value!r} rejected; write it as an "
            f"integer or a 'p/q' string"
        )
    if isinstance(value, str):
        text = value.strip()
        if "." in text or "e" in text or "E" in text:
            raise GameError(f"not an exact rational literal: {value!r}")
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ZeroDenominator(f"zero denominator in {value!r}") from None
        except ValueError:
            raise GameError(f"not a rational literal: {value!r}") from None
    raise GameError(f"not a rational value: {value!r}")


def parse_share(alpha) -> Fraction:
    """An altruism share, coerced by ``parse_rational``; NegativeAlpha if below 0."""
    alpha = parse_rational(alpha)
    if alpha < 0:
        raise NegativeAlpha(f"altruism share must be >= 0, got {alpha}")
    return alpha


def format_rational(q: Fraction) -> str:
    """Render a Fraction in lowest terms as "p" or "p/q"."""
    return str(q)


def _scaled(values) -> tuple[int, list[int]]:
    """A flat sequence of raw rationals as (denominator, ints): every value
    times the least common denominator of the sequence.

    Each distinct raw value goes through ``parse_rational`` once, in
    order of first appearance, so the first bad value raises, as it would
    if every value were parsed in turn.  A sequence holding Fractions is
    read value by value instead: they need no parsing, and hashing one
    costs more than that.
    """
    types = set(map(type, values))
    if Fraction in types:
        raws = values
    else:
        # No int equals a str, so those are their own keys; any other type
        # is keyed with its value, so that True is not taken for 1.
        keys = values if types <= {int, str} else list(zip(map(type, values), values))
        try:
            distinct = dict.fromkeys(keys)
        except TypeError:  # an unhashable value; parse_rational rejects it, or an earlier one
            list(map(parse_rational, values))
            raise
        raws = distinct if keys is values else (raw for _, raw in distinct)
    exact = list(map(parse_rational, raws))
    denominator = math.lcm(*{q.denominator for q in exact})
    scaled = [q.numerator * (denominator // q.denominator) for q in exact]
    if len(scaled) == len(values):  # no key repeats: the ints are in sequence order
        return denominator, scaled
    # one int per distinct key: spread them over the sequence
    return denominator, list(map(dict(zip(distinct, scaled)).__getitem__, keys))


def _check_size(sizes: Iterable[int], cap: int, space: str, unit: str) -> None:
    """Raise ExplosionGuard when a space of ``unit``s is larger than ``cap``.

    ``sizes`` are running sizes, each at least the one before, that end at
    the space's size.  They are read only until one passes both ``cap``
    and ``_PRINTABLE``, so a huge space costs no more than that bound.
    """
    bound = max(cap, _PRINTABLE)
    size = 1
    for size in sizes:
        if size > bound:
            break
    if size > cap:
        text = (size if size < _PRINTABLE else "10^4300" if size == _PRINTABLE
                else "more than 10^4300")
        raise ExplosionGuard(f"{space} has {text} {unit}, exceeding the cap of {cap}")


def check_cap(counts: Iterable[int], cap: int) -> None:
    """Raise ExplosionGuard when strategy counts ``counts`` give more than
    ``cap`` joint strategies."""
    _check_size(itertools.accumulate(counts, operator.mul), cap,
                "joint strategy space", "cells")


def _orbit_counts(n: int, m: int) -> Iterator[int]:
    """C(n + k, k) for k = 1, ..., m - 1: the last is the number of orbits
    of n players on m strategies."""
    size = 1
    for k in range(1, m):
        size = size * (n + k) // k
        yield size


def _count_vectors(total: int, m: int) -> list[tuple[int, ...]]:
    """The per-strategy counts of ``total`` players on m strategies, one per
    sorted profile, in the profiles' lexicographic order."""
    if m <= 2:
        return [(c, total - c) for c in range(total, -1, -1)] if m == 2 else [(total,)]
    a = (m - 1) // 2  # a head over a + 1 gives the first a counts, and its last the tail's total
    tails = [_count_vectors(t, m - a) for t in range(total + 1)]
    return [head[:a] + tail for head in _count_vectors(total, a + 1) for tail in tails[head[a]]]


def _check_counts(players, strategies: tuple) -> None:
    """Raise unless ``players``, and each of ``strategies``, the players'
    strategy counts in turn, is an int, with at least 2 players and at
    least 1 strategy each."""
    for count in (players, *strategies):
        if type(count) is not int:  # a bool is not a count
            raise GameError(f"player and strategy counts must be integers, got {count!r}")
    if players < 2:
        raise PlayerCountTooSmall(f"a strategic game needs more than one player, got {players}")
    for i, m in enumerate(strategies):
        if m < 1:
            raise EmptyStrategySet(f"player {i + 1} has no strategies")


def _check_shape(labels, cells: int, widths: Iterable[int]) -> None:
    """Raise the first violated structural invariant of a table with
    ``cells`` payoff vectors of lengths ``widths`` over ``labels``."""
    counts = tuple(map(len, labels))
    _check_counts(len(labels), counts)
    for i, per_player in enumerate(labels):
        if len(set(per_player)) != len(per_player):
            raise DuplicateLabel(f"player {i + 1} has duplicate strategy labels")
    expected = math.prod(counts)
    if cells != expected:
        raise DimensionMismatch(f"payoff tensor has {cells} cells, expected {expected}")
    n = len(labels)
    for width in widths:
        if width != n:
            raise DimensionMismatch(
                f"payoff cell has {width} values, expected one per player ({n})"
            )


def _store(labels, payoffs) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(denominator, columns) of a raw payoff table, checked against ``labels``."""
    cells = list(map(tuple, payoffs))
    return _columns(labels, list(itertools.chain.from_iterable(cells)),
                    len(cells), map(len, cells))


def _columns(labels, values, cells: int, widths) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(denominator, columns) of the flat ``values`` of ``cells`` payoff
    vectors of lengths ``widths``: the values are parsed first, then the
    shape is checked against ``labels``."""
    denominator, scaled = _scaled(values)
    _check_shape(labels, cells, widths)
    n = len(labels)
    return denominator, tuple(tuple(scaled[i::n]) for i in range(n))


def _dense_fault(nested, widths: list[int]) -> None:
    """Raise DimensionMismatch for the first malformed node of a nested
    payoff table in depth-first order: a node at depth d < n must be a
    list or tuple of ``widths[d]`` entries, and a leaf a vector of n."""
    n = len(widths) - 1

    def walk(node, depth: int):
        if depth == n:
            if not isinstance(node, (list, tuple)) or len(node) != n:
                raise DimensionMismatch(f"expected a vector of {n} payoffs, got {node!r}")
            return
        if not isinstance(node, (list, tuple)) or len(node) != widths[depth]:
            raise DimensionMismatch(
                f"expected {widths[depth]} entries for player {depth + 1}, "
                f"got {len(node) if isinstance(node, (list, tuple)) else node!r}"
            )
        for child in node:
            walk(child, depth + 1)

    walk(nested, 0)


@dataclass(frozen=True, init=False, repr=False)
class Game:
    """A finite strategic game with exact rational payoffs.

    ``columns[i][c] / denominator`` is player i's value at flat cell c.
    Cells are in lexicographic order of the index tuples (player 1's
    index varies slowest), and ``denominator`` is the least common
    denominator of the values in lowest terms.  For cost games the
    stored values are costs; no sign convention is applied at this level.

    ``Game(orientation, strategy_labels, payoffs)`` takes one length-n
    vector of rationals (ints, Fractions or "p/q" strings) per joint
    strategy, in flat order, and checks every value and the shape.  Each
    constructor raises a GameError: the first value ``parse_rational``
    rejects, then ``_check_shape``'s first fault, then an orientation that
    is neither an ``Orientation`` nor its string, "payoff" or "cost".
    """

    orientation: Orientation
    strategy_labels: tuple[tuple[str, ...], ...]
    denominator: int
    columns: tuple[tuple[int, ...], ...]

    def __init__(self, orientation: Orientation, strategy_labels, payoffs):
        labels = tuple(tuple(per_player) for per_player in strategy_labels)
        self._adopt(orientation, labels, *_store(labels, payoffs))

    @classmethod
    def _from_store(cls, orientation: Orientation, labels, denominator: int,
                    columns) -> "Game":
        """A game on a trusted store: one tuple of ints per player over a
        positive denominator, with labels already in tuples."""
        game = cls.__new__(cls)
        game._adopt(orientation, labels, denominator, columns)
        return game

    def _adopt(self, orientation, labels, denominator, columns) -> None:
        """Take a store, reduced by its gcd to the canonical one, and validate."""
        divisor = denominator
        for column in columns:
            if divisor == 1:
                break
            divisor = math.gcd(divisor, *column)
        if divisor > 1:
            denominator //= divisor
            columns = tuple(tuple(v // divisor for v in column) for column in columns)
        object.__setattr__(self, "orientation", _orientation(orientation))
        object.__setattr__(self, "strategy_labels", labels)
        object.__setattr__(self, "denominator", denominator)
        object.__setattr__(self, "columns", columns)
        self.__post_init__()

    def __post_init__(self):
        self.validate()

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(orientation={self.orientation!r}, "
                f"strategy_labels={self.strategy_labels!r}, payoffs={self.payoffs!r})")

    # --- construction -----------------------------------------------------

    @classmethod
    def from_dense(cls, orientation: Orientation, strategy_labels, nested) -> "Game":
        """Build a game from a nested payoff table.

        The table is nested once per player (outermost index: player 1's
        strategy) and its innermost entries are length-n payoff vectors.
        It is checked and flattened one depth at a time; on a fault,
        ``_dense_fault`` reports the first one in depth-first order.
        """
        labels = tuple(tuple(per_player) for per_player in strategy_labels)
        n = len(labels)
        widths = [len(per_player) for per_player in labels] + [n]
        nodes = [nested]
        for width in widths:
            if not (all(map(isinstance, nodes, itertools.repeat((list, tuple))))
                    and all(map(width.__eq__, map(len, nodes)))):
                _dense_fault(nested, widths)
            nodes = list(itertools.chain.from_iterable(nodes))
        cells = math.prod(widths[:n])
        return cls._from_store(orientation, labels, *_columns(labels, nodes, cells, ()))

    # --- invariants ---------------------------------------------------------

    def validate(self) -> None:
        """Raise the first violated structural invariant, if any."""
        cells = len(self.columns[0]) if self.columns else 0
        _check_shape(self.strategy_labels, cells, (len(self.columns),))

    # --- shape --------------------------------------------------------------

    @property
    def player_count(self) -> int:
        return len(self.strategy_labels)

    @cached_property
    def strategy_counts(self) -> tuple[int, ...]:
        return tuple(len(per_player) for per_player in self.strategy_labels)

    @cached_property
    def cell_count(self) -> int:
        return math.prod(self.strategy_counts)

    @cached_property
    def _strides(self) -> tuple[int, ...]:
        strides = [1] * self.player_count
        for i in range(self.player_count - 2, -1, -1):
            strides[i] = strides[i + 1] * self.strategy_counts[i + 1]
        return tuple(strides)

    @cached_property
    def _kernel(self) -> "_Kernel":
        return _Kernel(self)

    def flat_index(self, profile: Profile) -> int:
        counts = self.strategy_counts
        if len(profile) != len(counts):
            raise IndexOutOfRange(f"profile {profile} has wrong length")
        index = 0
        for pos, stride, m in zip(profile, self._strides, counts):
            if not 0 <= pos < m:
                raise IndexOutOfRange(f"strategy index {pos} out of range in {profile}")
            index += pos * stride
        return index

    # --- lookups ------------------------------------------------------------

    @cached_property
    def payoffs(self) -> tuple[tuple[Fraction, ...], ...]:
        """One length-n vector of Fractions per joint strategy, in flat
        order: the exact view of the store, built on first use."""
        exact = {v: Fraction(v, self.denominator)
                 for v in set(itertools.chain.from_iterable(self.columns))}
        return tuple(zip(*(map(exact.__getitem__, column) for column in self.columns)))

    def payoff_vector(self, profile: Profile) -> tuple[Fraction, ...]:
        cell = self.flat_index(profile)
        return tuple(Fraction(column[cell], self.denominator) for column in self.columns)

    def payoff(self, profile: Profile, player: int) -> Fraction:
        """The stored payoff (or cost) of ``player`` at ``profile``."""
        if not 0 <= player < self.player_count:
            raise IndexOutOfRange(f"player index {player} out of range")
        return Fraction(self.columns[player][self.flat_index(profile)], self.denominator)

    def social_value(self, profile: Profile) -> Fraction:
        """Sum of all players' values at ``profile``.

        Social welfare for payoff games, social cost for cost games.
        """
        cell = self.flat_index(profile)
        return Fraction(sum(column[cell] for column in self.columns), self.denominator)

    def joint_strategies(self) -> Iterator[Profile]:
        """All joint strategies in lexicographic index order."""
        return itertools.product(*(range(m) for m in self.strategy_counts))

    # --- labels -------------------------------------------------------------

    @cached_property
    def _label_index(self) -> tuple[dict, ...]:
        return tuple(
            {label: i for i, label in enumerate(per_player)}
            for per_player in self.strategy_labels
        )

    def labels_for(self, profile: Profile) -> tuple[str, ...]:
        return tuple(
            self.strategy_labels[i][pos] for i, pos in enumerate(profile)
        )

    def profile_from_labels(self, labels) -> Profile:
        if len(labels) != self.player_count:
            raise IndexOutOfRange(f"label tuple {labels!r} has wrong length")
        profile = []
        for i, label in enumerate(labels):
            try:
                profile.append(self._label_index[i][label])
            except KeyError:
                raise IndexOutOfRange(
                    f"player {i + 1} has no strategy labelled {label!r}"
                ) from None
        return tuple(profile)

    # --- derived games --------------------------------------------------------

    def with_payoffs(self, cells) -> "Game":
        """Same shape and orientation, new payoff cells (flat order)."""
        return Game._from_store(self.orientation, self.strategy_labels,
                                *_store(self.strategy_labels, cells))

    def negated(self) -> "Game":
        """Flip orientation and negate every value.

        A cost game and its negation have the same equilibria, optima,
        and deviation structure.
        """
        flipped = (
            Orientation.COST_MIN
            if self.orientation is Orientation.PAYOFF_MAX
            else Orientation.PAYOFF_MAX
        )
        return Game._from_store(flipped, self.strategy_labels, self.denominator,
                                tuple(tuple(-v for v in column) for column in self.columns))


class _Space:
    """A finite profile space in scaled integers, larger always better.

    A subclass sets ``welfare`` (one int per cell) and ``denominator`` and
    defines ``profile(cell)``, ``deviations(cell)``, the strictly
    improving unilateral moves as (player, to_strategy, target cell,
    integer gain) in (player, strategy) order, and ``targets(cell)``,
    their target cells alone in the same order.  The optima, the stable
    optima, their thresholds and the improvement graph's walk are derived
    here, once, on first use; all but the thresholds read only the targets.
    """

    welfare: list[int]
    denominator: int

    @cached_property
    def best_welfare(self) -> int:
        return max(self.welfare)

    @cached_property
    def optima(self) -> list[int]:
        best = self.best_welfare
        return [c for c, w in enumerate(self.welfare) if w == best]

    @cached_property
    def stable(self) -> list[int]:
        """Optima from which no player improves by moving to another optimum."""
        optimal = set(self.optima)
        return [c for c in self.optima
                if optimal.isdisjoint(self.targets(c))]

    @cached_property
    def _thresholds(self) -> dict[int, tuple[int, int, tuple] | None]:
        return {}

    def threshold(self, cell: int) -> tuple[int, int, tuple] | None:
        """(gain, drop, move) of a stable optimum's steepest improving move
        (each drop is positive), the first on ties, or None; found once."""
        memo = self._thresholds
        if cell not in memo:
            steepest = None
            for move in self.deviations(cell):
                drop = self.welfare[cell] - self.welfare[move[2]]
                if steepest is None or move[3] * steepest[1] > steepest[0] * drop:
                    steepest = move[3], drop, move
            memo[cell] = steepest
        return memo[cell]

    @cached_property
    def improvement(self) -> tuple[list[int] | None, bool]:
        """(order, weakly acyclic) of the graph of edges from each cell to its
        strictly improving targets: Kahn's order (start queue ascending, successors
        in deviation order), or None on a cycle, and whether every cell
        reaches a sink.  The adjacency lists are not kept."""
        successors = list(map(self.targets, range(len(self.welfare))))
        indegree = [0] * len(successors)
        for targets in successors:
            for t in targets:
                indegree[t] += 1
        order = [c for c, degree in enumerate(indegree) if not degree]
        for c in order:  # the list is its own queue
            for t in successors[c]:
                indegree[t] -= 1
                if not indegree[t]:
                    order.append(t)
        if len(order) == len(successors):  # acyclic: every path ends at a sink
            return order, True
        predecessors: list[list[int]] = [[] for _ in successors]
        for c, targets in enumerate(successors):
            for t in targets:
                predecessors[t].append(c)
        reached = [c for c, targets in enumerate(successors) if not targets]
        seen = set(reached)
        for t in reached:  # backward from the sinks
            fresh = [c for c in predecessors[t] if c not in seen]
            seen.update(fresh)
            reached += fresh
        return None, len(reached) == len(successors)


class _Kernel(_Space):
    """A game's values as integers in maximizing sign, for the analysis code.

    ``values[i][c]`` is the game's ``columns[i][c]``, player i's value at
    flat cell c times ``denominator``, negated for cost games;
    ``welfare[c]`` is the sum over players.  Cells are
    flat indices, so ascending order is lexicographic profile order.
    The equilibria, the optima, the stable optima and whether the game
    has an exact potential are computed at most once, on first use.
    """

    def __init__(self, game: Game):
        self.denominator = game.denominator
        self.sign = 1 if game.orientation is Orientation.PAYOFF_MAX else -1
        self.values = (game.columns if self.sign == 1
                       else [[-v for v in column] for column in game.columns])
        self.welfare = [sum(vec) for vec in zip(*self.values)]
        self.counts = game.strategy_counts
        self.strides = game._strides

    def native(self, value: int) -> Fraction:
        """A scaled integer back in the game's own units and sign."""
        return Fraction(self.sign * value, self.denominator)

    def profile(self, cell: int) -> Profile:
        return tuple(cell // stride % m for stride, m in zip(self.strides, self.counts))

    def moves(self, cell: int, player: int) -> list[int]:
        """The cells ``player`` reaches from ``cell`` by a strictly improving
        unilateral deviation, in the order of the deviator's strategies."""
        stride, m = self.strides[player], self.counts[player]
        values = self.values[player]
        start = cell - cell // stride % m * stride
        base = values[cell]
        return [t for t in range(start, start + m * stride, stride) if values[t] > base]

    def targets(self, cell: int) -> list[int]:
        out = []
        for i in range(len(self.values)):
            out += self.moves(cell, i)
        return out

    def deviations(self, cell: int) -> list[tuple[int, int, int, int]]:
        out = []
        for i, values in enumerate(self.values):
            stride, m = self.strides[i], self.counts[i]
            out += [(i, t // stride % m, t, values[t] - values[cell]) for t in self.moves(cell, i)]
        return out

    @cached_property
    def exact_potential(self) -> bool:
        """Whether the game has an exact potential: a P over the cells with
        ``values[i][t] - values[i][c] == P[t] - P[c]`` for every move of any
        player i from c to t (Monderer and Shapley, 1996).  P then rises
        along every improving move, so no improvement path is infinite.

        Each pair of players is screened on its first 2x2 square, the cells
        0, s_i, s_k and s_i + s_k: the movers' gains around it must sum to
        0.  Then the one candidate P up to a constant is built along the
        axes, fastest first: P[0] = 0 and P[c] = P[c - s] + u[c] - u[c - s]
        for the player of stride s and values u, over the cells whose
        earlier coordinates are all 0.  The game has a potential exactly
        when each player's u - P is constant along each of the player's
        axis segments; they are compared as slices, to the first mismatch.
        """
        values, strides, counts = self.values, self.strides, self.counts
        axes = [i for i, m in enumerate(counts) if m > 1]
        for i, k in itertools.combinations(axes, 2):
            u, v, a, b = values[i], values[k], strides[i], strides[k]
            if u[a] - u[0] + v[a + b] - v[a] + u[b] - u[a + b] + v[0] - v[b]:
                return False
        potential = [0]
        for i in reversed(axes):
            u, s = values[i], strides[i]
            for lo in range(s, counts[i] * s, s):
                potential += map(operator.add, potential[lo - s:lo],
                                 map(operator.sub, u[lo:lo + s], u[lo - s:lo]))
        for i in axes:
            rest = list(map(operator.sub, values[i], potential))
            s, span = strides[i], counts[i] * strides[i]
            if not all(rest[c:c + span - s] == rest[c + s:c + span]
                       for c in range(0, len(rest), span)):
                return False
        return True

    def equilibria(self, p: int = 0, q: int = 1) -> list[int]:
        """The cells, ascending, that are pure Nash equilibria of the
        altruistic game at share p/q (q > 0, p >= 0).

        Player i's value there is a positive multiple of
        ``q * values[i][c] + p * welfare[c]``, so comparing those integers
        along the player's stride axis decides every deviation exactly.
        Each axis segment's maximum is taken once, by its first cell.
        """
        welfare = self.welfare
        cells = range(len(welfare))
        for i, values in enumerate(self.values):
            if p:
                values = [q * v + p * w for v, w in zip(values, welfare)]
            stride, m = self.strides[i], self.counts[i]
            span = m * stride
            tops: dict[int, int] = {}
            kept = []
            for c in cells:
                start = c - c // stride % m * stride
                top = tops.get(start)
                if top is None:
                    top = tops[start] = max(values[start:start + span:stride])
                if top <= values[c]:
                    kept.append(c)
            cells = kept
        return cells

    @cached_property
    def nash(self) -> list[int]:
        return self.equilibria()


class _Rule(NamedTuple):
    """A compact symmetric payoff as an integer rule: ``row(rest)``, the m values over
    ``denominator`` against the others' counts; called, the exact ``payoff(j, rest)``."""

    denominator: int
    row: Callable[[tuple[int, ...]], list[int]]

    def __call__(self, j: int, rest: tuple[int, ...]) -> Fraction:
        return Fraction(self.row(rest)[j], self.denominator)


class _Orbits(_Space):
    """A symmetric game given compactly, one cell per player-permutation orbit.

    ``payoff(j, rest)`` is the common payoff of a player choosing strategy
    j while the others' per-strategy counts are ``rest``.  Permuting the
    players permutes the payoffs, so welfare, optimality, stability and
    appeal factors are constant on orbits.  Cell k is the k-th sorted
    profile in lexicographic order, the lexicographically first member of
    its orbit.  A cell lists each deviation once, for the first player of
    the deviator's strategy group: the group's moves are all equal, and
    that player's come first in (player, strategy) order.

    An orbit is keyed by the integer code of its count vector c,
    ``sum(c[j] * powers[j])`` with ``powers[j] = (n + 1) ** j``: no count
    exceeds n, so the code is c written in base n + 1, and a move from
    strategy j to k is ``code - powers[j] + powers[k]``.  The sorted
    profiles with strategy j read as ``powers[j]`` sum to the codes in
    cell order: ``codes[cell]`` is the cell's code and ``index`` maps it
    back.  A cell's counts and profile are decoded from its code on demand.

    A ``_Rule`` gives each rest's integer row in one call; any other payoff
    is called once per ``(j, rest)``, in that order of the others' profiles,
    and scaled as a game's table is.  Negated for cost games, ``rows[r][j]``
    is the value of strategy j against the others' code r.  The welfare
    vector is summed in one pass over those keys: the value of j against r
    is earned by each of the ``r_j + 1`` players on j in orbit ``r + powers[j]``.

    The counts pass ``Game``'s count rule, the orientation is coerced as a
    ``Game``'s is, and the orbit count, C(n + m - 1, n), is checked against
    ``cap``, in that order, before anything is enumerated or evaluated.
    """

    def __init__(self, n: int, m: int, payoff, orientation: Orientation,
                 cap: int = DEFAULT_CELL_CAP):
        _check_counts(n, (m,))
        orientation = _orientation(orientation)
        _check_size(_orbit_counts(n, m), cap, "orbit space", "orbits")
        self.base = n + 1
        self.powers = powers = [self.base ** j for j in range(m)]
        self.codes = list(map(sum, itertools.combinations_with_replacement(powers, n)))
        self.index = index = dict(zip(self.codes, itertools.count()))
        rests = list(map(sum, itertools.combinations_with_replacement(powers, n - 1)))
        rest_counts = _count_vectors(n - 1, m)
        if isinstance(payoff, _Rule):
            self.denominator, rows = payoff.denominator, list(map(payoff.row, rest_counts))
        else:
            self.denominator, values = _scaled([payoff(j, counts) for counts in rest_counts
                                                for j in range(m)])
            rows = [values[k:k + m] for k in range(0, len(values), m)]
        if orientation is Orientation.COST_MIN:
            rows = [[-v for v in row] for row in rows]
        self.rows = dict(zip(rests, rows))
        self.welfare = welfare = [0] * len(self.codes)
        for rest, counts, row in zip(rests, rest_counts, rows):
            for power, others_on_j, value in zip(powers, counts, row):
                welfare[index[rest + power]] += (others_on_j + 1) * value

    def counts(self, cell: int) -> tuple[int, ...]:
        """The number of players on each strategy at ``cell``."""
        base, code = self.base, self.codes[cell]
        return tuple(code // power % base for power in self.powers)

    def profile(self, cell: int) -> Profile:
        return tuple(itertools.chain.from_iterable(map(itertools.repeat, itertools.count(),
                                                       self.counts(cell))))

    def _played(self, cell: int) -> Iterator[tuple[int, int, int, list[int]]]:
        """(first player, strategy, others' code, value row) per strategy
        played at ``cell``, in strategy order."""
        code = self.codes[cell]
        player = 0
        for j, (power, count) in enumerate(zip(self.powers, self.counts(cell))):
            if count:
                yield player, j, code - power, self.rows[code - power]
                player += count

    def deviations(self, cell: int) -> list[tuple[int, int, int, int]]:
        index = self.index
        return [(player, to, index[rest + power], value - row[j])
                for player, j, rest, row in self._played(cell)
                for to, (power, value) in enumerate(zip(self.powers, row)) if value > row[j]]

    def targets(self, cell: int) -> list[int]:
        index = self.index
        return [index[rest + power]
                for _, j, rest, row in self._played(cell)
                for power, value in zip(self.powers, row) if value > row[j]]
