"""Generators for the game families the analysis is exercised on.

Each family is a small frozen spec; ``generate`` expands it into a
normal-form Game.  Cost-sharing and congestion games are specified
compactly (facilities plus per-player facility subsets) and expanded to
cost-minimizing normal form; everything else is payoff-maximizing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from enum import Enum
from typing import Callable, Union

from .core import HALF, ONE, ZERO, Game, Orientation, parse_rational
from .errors import ExplosionGuard, InfeasibleParams, ParamOutOfRange

#: Default cap on the number of joint strategies a spec may expand to.
DEFAULT_CELL_CAP = 10_000_000


# ---------------------------------------------------------------------------
# family specs
# ---------------------------------------------------------------------------

def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ParamOutOfRange(message)


@dataclass(frozen=True)
class PrisonersDilemmaN:
    """n-player cooperate/defect game: p_i = 1 - s_i + 2 * sum of others."""

    n: int

    def __post_init__(self):
        _require(isinstance(self.n, int) and self.n >= 2, "need an integer n >= 2")


@dataclass(frozen=True)
class GeneralizedPD:
    """Two-player dilemma tuned to a given level alpha and price of stability beta."""

    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", parse_rational(self.alpha))
        object.__setattr__(self, "beta", parse_rational(self.beta))
        _require(self.alpha > 0, "need alpha > 0")
        _require(self.beta > 1, "need beta > 1")


@dataclass(frozen=True)
class PublicGoodsGrid:
    """Contribution game on a uniform grid of the budget interval [0, b].

    Each player contributes a grid amount; contributions are summed,
    multiplied by c > 1, and redistributed evenly.  The grid has
    ``grid_steps + 1`` points and always contains 0 and b.
    """

    n: int
    b: Fraction
    c: Fraction
    grid_steps: int

    def __post_init__(self):
        object.__setattr__(self, "b", parse_rational(self.b))
        object.__setattr__(self, "c", parse_rational(self.c))
        _require(isinstance(self.n, int) and self.n >= 2, "need an integer n >= 2")
        _require(self.b >= 0, "need budget b >= 0")
        _require(self.c > 1, "need multiplier c > 1")
        _require(isinstance(self.grid_steps, int) and self.grid_steps >= 1,
                 "need grid_steps >= 1")

    def grid_values(self) -> tuple[Fraction, ...]:
        values = []
        for j in range(self.grid_steps + 1):
            v = Fraction(j, self.grid_steps) * self.b
            if v not in values:
                values.append(v)
        return tuple(values)


@dataclass(frozen=True)
class TravelersDilemma:
    """Two travelers naming 2..100; the lower claim wins a +-2 transfer."""


@dataclass(frozen=True)
class MatchingPennies:
    pass


@dataclass(frozen=True)
class BattleOfSexes:
    pass


@dataclass(frozen=True)
class BadNash3x3:
    """Matching pennies padded with a third strategy that forms a poor equilibrium."""


@dataclass(frozen=True)
class NoNash2x2:
    """A 2x2 game without pure equilibria whose level is still finite."""


@dataclass(frozen=True)
class FLevelGame:
    """Two-strategy game pinned to an arbitrary selfishness level f_value."""

    n: int
    f_value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "f_value", parse_rational(self.f_value))
        _require(isinstance(self.n, int) and self.n >= 2, "need an integer n >= 2")
        _require(self.f_value >= 0, "need f_value >= 0")


@dataclass(frozen=True)
class WeaklyAcyclic3x3:
    """Weakly acyclic 3x3 game whose selfishness level is infinite."""


def _normalize_subsets(strategies) -> tuple[tuple[tuple[str, ...], ...], ...]:
    per_player = []
    for options in strategies:
        normalized = tuple(tuple(subset) for subset in options)
        _require(len(normalized) >= 1, "each player needs at least one strategy")
        for subset in normalized:
            _require(len(subset) >= 1, "facility subsets must be non-empty")
            _require(len(set(subset)) == len(subset),
                     f"facility repeated within a strategy: {subset}")
        _require(len(set(normalized)) == len(normalized),
                 "duplicate strategy subsets for one player")
        per_player.append(normalized)
    _require(len(per_player) >= 2, "need at least two players")
    return tuple(per_player)


@dataclass(frozen=True)
class CostSharing:
    """Fair cost sharing: each facility's cost splits evenly among its users."""

    facility_costs: tuple[tuple[str, Fraction], ...]
    strategies: tuple[tuple[tuple[str, ...], ...], ...]

    def __post_init__(self):
        costs = self.facility_costs
        if hasattr(costs, "items"):
            costs = tuple(costs.items())
        costs = tuple((name, parse_rational(c)) for name, c in costs)
        for name, c in costs:
            _require(c >= 0, f"facility {name} needs a cost >= 0")
        _require(len({name for name, _ in costs}) == len(costs),
                 "duplicate facility name")
        object.__setattr__(self, "facility_costs", costs)
        object.__setattr__(self, "strategies", _normalize_subsets(self.strategies))
        known = {name for name, _ in costs}
        for options in self.strategies:
            for subset in options:
                for name in subset:
                    _require(name in known, f"unknown facility {name!r}")

    @property
    def is_singleton(self) -> bool:
        return all(len(subset) == 1 for options in self.strategies for subset in options)

    @property
    def has_integer_costs(self) -> bool:
        return all(c.denominator == 1 for _, c in self.facility_costs)

    @property
    def max_subset_size(self) -> int:
        return max(len(subset) for options in self.strategies for subset in options)


@dataclass(frozen=True)
class Congestion:
    """Congestion game with affine per-facility delays d_e(x) = a_e*x + b_e."""

    facilities: tuple[tuple[str, Fraction, Fraction], ...]
    strategies: tuple[tuple[tuple[str, ...], ...], ...]

    def __post_init__(self):
        facs = self.facilities
        if hasattr(facs, "items"):
            facs = tuple((name, a, b) for name, (a, b) in facs.items())
        facs = tuple((name, parse_rational(a), parse_rational(b)) for name, a, b in facs)
        for name, a, b in facs:
            _require(a >= 0 and b >= 0, f"facility {name} needs coefficients >= 0")
        _require(len({name for name, _, _ in facs}) == len(facs),
                 "duplicate facility name")
        object.__setattr__(self, "facilities", facs)
        object.__setattr__(self, "strategies", _normalize_subsets(self.strategies))
        known = {name for name, _, _ in facs}
        for options in self.strategies:
            for subset in options:
                for name in subset:
                    _require(name in known, f"unknown facility {name!r}")

    @property
    def is_singleton(self) -> bool:
        return all(len(subset) == 1 for options in self.strategies for subset in options)

    @property
    def is_symmetric(self) -> bool:
        return all(options == self.strategies[0] for options in self.strategies)

    @property
    def has_integer_coefficients(self) -> bool:
        return all(a.denominator == 1 and b.denominator == 1
                   for _, a, b in self.facilities)

    @property
    def max_subset_size(self) -> int:
        return max(len(subset) for options in self.strategies for subset in options)


FamilySpec = Union[
    PrisonersDilemmaN, GeneralizedPD, PublicGoodsGrid, TravelersDilemma,
    MatchingPennies, BattleOfSexes, BadNash3x3, NoNash2x2, FLevelGame,
    WeaklyAcyclic3x3, CostSharing, Congestion,
]


# ---------------------------------------------------------------------------
# expansion to normal form
# ---------------------------------------------------------------------------

def check_cap(counts, cap: int) -> None:
    """Raise ExplosionGuard when strategy counts ``counts`` give more than
    ``cap`` joint strategies."""
    cells = 1
    for m in counts:
        cells *= m
    if cells > cap:
        raise ExplosionGuard(
            f"joint strategy space has {cells} cells, exceeding the cap of {cap}"
        )


def _fixed_table(labels, rows) -> Game:
    nested = [[tuple(Fraction(v) if isinstance(v, int) else v for v in cell)
               for cell in row] for row in rows]
    return Game.from_dense(Orientation.PAYOFF_MAX, labels, nested)


_FIXED_GAMES: dict[type, Callable[[], Game]] = {
    MatchingPennies: lambda: _fixed_table(
        (("H", "T"), ("H", "T")),
        [[(1, -1), (-1, 1)], [(-1, 1), (1, -1)]],
    ),
    BattleOfSexes: lambda: _fixed_table(
        (("F", "B"), ("F", "B")),
        [[(2, 1), (0, 0)], [(0, 0), (1, 2)]],
    ),
    BadNash3x3: lambda: _fixed_table(
        (("H", "T", "E"), ("H", "T", "E")),
        [
            [(1, -1), (-1, 1), (-1, -1)],
            [(-1, 1), (1, -1), (-1, -1)],
            [(-1, -1), (-1, -1), (-1, -1)],
        ],
    ),
    NoNash2x2: lambda: _fixed_table(
        (("C", "D"), ("C", "D")),
        [[(2, 2), (2, 0)], [(3, 0), (1, 1)]],
    ),
    WeaklyAcyclic3x3: lambda: _fixed_table(
        (("H", "T", "E"), ("H", "T", "E")),
        [
            [(1, -1), (-1, 1), (-1, -HALF)],
            [(-1, 1), (1, -1), (-1, -HALF)],
            [(-HALF, -1), (-HALF, -1), (-HALF, -HALF)],
        ],
    ),
}


def _generate_pd_n(spec: PrisonersDilemmaN) -> Game:
    labels = (("C", "D"),) * spec.n
    values = (1, 0)
    cells = []
    for profile in itertools.product((0, 1), repeat=spec.n):
        total = sum(values[j] for j in profile)
        cells.append(tuple(
            Fraction(1 - 3 * values[j] + 2 * total) for j in profile
        ))
    return Game(Orientation.PAYOFF_MAX, labels, tuple(cells))


def _generate_generalized_pd(spec: GeneralizedPD) -> Game:
    x = spec.alpha / (spec.alpha + 1)
    low = 1 / spec.beta
    return _fixed_table(
        (("C", "D"), ("C", "D")),
        [[(ONE, ONE), (ZERO, x + 1)], [(x + 1, ZERO), (low, low)]],
    )


def _generate_public_goods(spec: PublicGoodsGrid) -> Game:
    values = spec.grid_values()
    labels = (tuple(str(v) for v in values),) * spec.n
    share = spec.c / spec.n
    payoff_cache: dict[tuple[Fraction, Fraction], Fraction] = {}

    def pay(v: Fraction, total: Fraction) -> Fraction:
        key = (v, total)
        if key not in payoff_cache:
            payoff_cache[key] = spec.b - v + share * total
        return payoff_cache[key]

    cells = []
    for profile in itertools.product(range(len(values)), repeat=spec.n):
        chosen = [values[j] for j in profile]
        total = sum(chosen, ZERO)
        cells.append(tuple(pay(v, total) for v in chosen))
    return Game(Orientation.PAYOFF_MAX, labels, tuple(cells))


def _generate_travelers(_: TravelersDilemma) -> Game:
    claims = range(2, 101)
    labels = (tuple(str(v) for v in claims),) * 2
    cache: dict[int, Fraction] = {}

    def q(v: int) -> Fraction:
        if v not in cache:
            cache[v] = Fraction(v)
        return cache[v]

    cells = []
    for a in claims:
        for b in claims:
            if a == b:
                cells.append((q(a), q(b)))
            elif a < b:
                cells.append((q(a + 2), q(a - 2)))
            else:
                cells.append((q(b - 2), q(b + 2)))
    return Game(Orientation.PAYOFF_MAX, labels, tuple(cells))


def _generate_f_level(spec: FLevelGame) -> Game:
    labels = (("1", "0"),) * spec.n
    f = spec.f_value
    sucker = -(f + 1) / (spec.n - 1)
    cells = []
    for profile in itertools.product((0, 1), repeat=spec.n):
        contributions = [1 - j for j in profile]
        if all(v == 1 for v in contributions):
            cells.append((ZERO,) * spec.n)
            continue
        first_zero = contributions.index(0)
        cells.append(tuple(
            f if i == first_zero else sucker for i in range(spec.n)
        ))
    return Game(Orientation.PAYOFF_MAX, labels, tuple(cells))


def _subset_labels(options) -> tuple[str, ...]:
    return tuple("+".join(subset) for subset in options)


def facility_usage(choice) -> dict[str, int]:
    """The number of players on each facility when player i takes the
    facility subset ``choice[i]``."""
    usage: dict[str, int] = {}
    for subset in choice:
        for name in subset:
            usage[name] = usage.get(name, 0) + 1
    return usage


def _generate_cost_sharing(spec: CostSharing) -> Game:
    costs = dict(spec.facility_costs)
    labels = tuple(_subset_labels(options) for options in spec.strategies)
    cells = []
    for choice in itertools.product(*spec.strategies):
        usage = facility_usage(choice)
        cells.append(tuple(
            sum((costs[name] / usage[name] for name in subset), ZERO)
            for subset in choice
        ))
    return Game(Orientation.COST_MIN, labels, tuple(cells))


def _generate_congestion(spec: Congestion) -> Game:
    delays = {name: (a, b) for name, a, b in spec.facilities}
    labels = tuple(_subset_labels(options) for options in spec.strategies)
    cells = []
    for choice in itertools.product(*spec.strategies):
        usage = facility_usage(choice)
        delay_of = {name: delays[name][0] * count + delays[name][1]
                    for name, count in usage.items()}
        cells.append(tuple(
            sum((delay_of[name] for name in subset), ZERO) for subset in choice
        ))
    return Game(Orientation.COST_MIN, labels, tuple(cells))


def generate(spec: FamilySpec, cap: int = DEFAULT_CELL_CAP) -> Game:
    """Expand a family spec into a validated normal-form game.

    Raises ExplosionGuard when the joint-strategy space would exceed
    ``cap`` cells.
    """
    kind = type(spec)
    if kind in _FIXED_GAMES:
        return _FIXED_GAMES[kind]()
    if isinstance(spec, PrisonersDilemmaN):
        check_cap((2,) * spec.n, cap)
        return _generate_pd_n(spec)
    if isinstance(spec, GeneralizedPD):
        return _generate_generalized_pd(spec)
    if isinstance(spec, PublicGoodsGrid):
        check_cap((len(spec.grid_values()),) * spec.n, cap)
        return _generate_public_goods(spec)
    if isinstance(spec, TravelersDilemma):
        check_cap((99, 99), cap)
        return _generate_travelers(spec)
    if isinstance(spec, FLevelGame):
        check_cap((2,) * spec.n, cap)
        return _generate_f_level(spec)
    if isinstance(spec, CostSharing):
        check_cap(tuple(len(options) for options in spec.strategies), cap)
        return _generate_cost_sharing(spec)
    if isinstance(spec, Congestion):
        check_cap(tuple(len(options) for options in spec.strategies), cap)
        return _generate_congestion(spec)
    raise ParamOutOfRange(f"unknown family spec: {spec!r}")


# ---------------------------------------------------------------------------
# compact symmetric views
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymmetricForm:
    """Per-position payoff view of a symmetric family.

    ``payoff(j, rest)`` is the payoff of any player choosing strategy
    ``j`` while the remaining players' choices have per-strategy counts
    ``rest``.  Suitable for orbit-reduced analysis of games whose full
    tensor would be too large to expand.
    """

    player_count: int
    strategy_labels: tuple[str, ...]
    payoff: Callable[[int, tuple[int, ...]], Fraction] = field(compare=False)


def symmetric_form(spec: FamilySpec) -> SymmetricForm:
    """Compact symmetric view of a player-symmetric family."""
    if isinstance(spec, PrisonersDilemmaN):
        values = (1, 0)

        def pd_pay(j: int, rest: tuple[int, ...]) -> Fraction:
            others = sum(count * values[j2] for j2, count in enumerate(rest))
            return Fraction(1 - values[j] + 2 * others)

        return SymmetricForm(spec.n, ("C", "D"), pd_pay)

    if isinstance(spec, PublicGoodsGrid):
        values = spec.grid_values()
        share = spec.c / spec.n
        budget = spec.b

        def pg_pay(j: int, rest: tuple[int, ...]) -> Fraction:
            total = values[j] + sum(
                (count * values[j2] for j2, count in enumerate(rest)), ZERO
            )
            return budget - values[j] + share * total

        return SymmetricForm(spec.n, tuple(str(v) for v in values), pg_pay)

    if isinstance(spec, TravelersDilemma):
        def td_pay(j: int, rest: tuple[int, ...]) -> Fraction:
            own = j + 2
            other = rest.index(1) + 2
            if own == other:
                return Fraction(own)
            if own < other:
                return Fraction(own + 2)
            return Fraction(other - 2)

        return SymmetricForm(2, tuple(str(v) for v in range(2, 101)), td_pay)

    raise ParamOutOfRange(f"no symmetric form for {spec!r}")


# ---------------------------------------------------------------------------
# tight instances
# ---------------------------------------------------------------------------

class TightFamily(str, Enum):
    COST_SHARING_SINGLETON = "cost_sharing_singleton"
    COST_SHARING_INTEGER = "cost_sharing_integer"
    CONGESTION_SINGLETON = "congestion_singleton"
    CONGESTION_INTEGER = "congestion_integer"


def _tight_cost_sharing_singleton(c_max, c_min) -> CostSharing:
    c_max = parse_rational(c_max)
    c_min = parse_rational(c_min)
    _require(c_min > 0, "need c_min > 0")
    _require(c_max > 2 * c_min, "need c_max > 2 * c_min")
    return CostSharing(
        facility_costs=(("e1", c_max), ("e2", c_min)),
        strategies=((("e1",),), (("e1",), ("e2",))),
    )


def _tight_cost_sharing_integer(L, c_max) -> CostSharing:
    _require(isinstance(L, int) and L >= 1, "need an integer L >= 1")
    _require(isinstance(c_max, int) and c_max >= 1, "need an integer c_max >= 1")
    n = L + 1
    names = [f"e{i}" for i in range(1, n + 1)]
    costs = tuple((names[i], Fraction(c_max)) for i in range(L)) + ((names[L], ONE),)
    strategies = tuple(((names[i],),) for i in range(L)) + (
        (tuple(names[:L]), (names[L],)),
    )
    return CostSharing(facility_costs=costs, strategies=strategies)


def _tight_congestion_singleton(delta, a) -> Congestion:
    delta = parse_rational(delta)
    a = parse_rational(a)
    _require(0 <= delta < 1, "need discrepancy delta in [0, 1)")
    _require(a > 0, "need a > 0")
    facilities = (("e1", ZERO, (2 + delta) * a), ("e2", a, ZERO))
    options = (("e1",), ("e2",))
    return Congestion(facilities=facilities, strategies=(options, options))


def _tight_congestion_integer(L, d_max, d_min) -> Congestion:
    _require(isinstance(L, int) and L >= 1, "need an integer L >= 1")
    _require(isinstance(d_max, int) and d_max >= 1, "need an integer d_max >= 1")
    _require(isinstance(d_min, int) and d_min >= 1, "need an integer d_min >= 1")
    _require(d_max >= d_min, "need d_max >= d_min")
    numerator = L * d_max + 1 + d_min
    if numerator % (2 * d_min) != 0:
        raise InfeasibleParams(
            f"no integer n satisfies (2n-1)*{d_min} = {L}*{d_max} + 1"
        )
    n = numerator // (2 * d_min)
    if n < 2:
        raise InfeasibleParams(f"derived player count n={n} is below 2")
    names = [f"e{i}" for i in range(1, L + 2)]
    facilities = tuple((names[i], ZERO, Fraction(d_max)) for i in range(L)) + (
        (names[L], Fraction(d_min), ZERO),
    )
    strategies = tuple(((names[L],),) for _ in range(n - 1)) + (
        (tuple(names[:L]), (names[L],)),
    )
    return Congestion(facilities=facilities, strategies=strategies)


def tight_instance(family: TightFamily, **params) -> FamilySpec:
    """A spec whose brute-force level meets its family bound with equality.

    cost_sharing_singleton: c_max, c_min with c_max > 2*c_min;
    cost_sharing_integer: L, c_max (positive integers);
    congestion_singleton: delta in [0, 1), a > 0;
    congestion_integer: L, d_max, d_min (positive integers) such that
    (2n-1)*d_min = L*d_max + 1 for some feasible player count n.
    """
    family = TightFamily(family)
    builders = {
        TightFamily.COST_SHARING_SINGLETON: _tight_cost_sharing_singleton,
        TightFamily.COST_SHARING_INTEGER: _tight_cost_sharing_integer,
        TightFamily.CONGESTION_SINGLETON: _tight_congestion_singleton,
        TightFamily.CONGESTION_INTEGER: _tight_congestion_integer,
    }
    return builders[family](**params)


def cost_sharing_gap_instance(c_max, c_min, gap) -> CostSharing:
    """Two-player, three-facility sharing game whose level is driven by the
    cost gap between the bundled and the standalone option, not by the
    c_max/c_min ratio: one player is pinned to the expensive facility,
    the other picks between sharing it (plus a cheap add-on) and a
    standalone facility that costs ``gap`` more than the add-on.
    """
    c_max = parse_rational(c_max)
    c_min = parse_rational(c_min)
    gap = parse_rational(gap)
    _require(c_max > 0, "need c_max > 0")
    _require(c_min >= 0, "need c_min >= 0")
    _require(gap > 0, "need gap > 0")
    return CostSharing(
        facility_costs=(("e1", c_max), ("e2", c_min + gap), ("e3", c_min)),
        strategies=((("e1",),), (("e1", "e3"), ("e2",))),
    )
