"""Generators for the game families the analysis is exercised on.

Each family is a small frozen spec; ``generate`` expands it into a
normal-form Game.  Cost-sharing and congestion games are specified
compactly (facilities plus per-player facility subsets) and expanded to
cost-minimizing normal form from one integer cost-at-load rule, which
also gives symmetric ones their compact form; everything else is
payoff-maximizing.

Each decision about a family is made in one table: ``FAMILIES`` maps a
CLI name to its spec constructor and typed ``--param`` schema, and
``generate`` and ``symmetric_form`` look their expansion and compact
view up by spec type.  Adding a family means one spec class, one
expansion, and one ``FAMILIES`` entry.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Union

from .core import DEFAULT_CELL_CAP, ONE, ZERO, Game, Orientation, _Rule, check_cap, parse_rational
from .errors import InfeasibleParams, ParamOutOfRange


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
        k = self.grid_steps
        return tuple(dict.fromkeys(Fraction(j, k) * self.b for j in range(k + 1)))


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


def _normalize_subsets(strategies, known) -> tuple[tuple[tuple[str, ...], ...], ...]:
    """The players' facility subsets as tuples, checked; names last, against ``known``."""
    per_player = []
    for options in strategies:
        normalized = tuple(tuple(subset) for subset in options)
        _require(len(normalized) >= 1, "each player needs at least one strategy")
        for subset in normalized:
            _require(len(subset) >= 1, "facility subsets must be non-empty")
            if len(set(subset)) != len(subset):
                raise ParamOutOfRange(f"facility repeated within a strategy: {subset}")
        _require(len(set(normalized)) == len(normalized),
                 "duplicate strategy subsets for one player")
        per_player.append(normalized)
    _require(len(per_player) >= 2, "need at least two players")
    for options in per_player:
        for subset in options:
            for name in subset:
                if name not in known:
                    raise ParamOutOfRange(f"unknown facility {name!r}")
    return tuple(per_player)


class _FacilitySubsets:
    """The shape of a facility game's strategies: per player, facility subsets.

    Each family's one integer rule, ``_cost_rule() -> (d, cost)``, gives
    ``cost(facility, load) / d``, what each of ``load`` users pays there.
    """

    @property
    def is_symmetric(self) -> bool:
        return all(options == self.strategies[0] for options in self.strategies)

    @property
    def is_singleton(self) -> bool:
        return all(len(subset) == 1 for options in self.strategies for subset in options)

    @property
    def max_subset_size(self) -> int:
        return max(len(subset) for options in self.strategies for subset in options)


@dataclass(frozen=True)
class CostSharing(_FacilitySubsets):
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
        object.__setattr__(self, "strategies", _normalize_subsets(
            self.strategies, {name for name, _ in costs}))

    def _cost_rule(self) -> tuple[int, Callable[[str, int], int]]:
        # Over d, a facility's cost is an integer divisible by any user count.
        d = (math.lcm(*(c.denominator for _, c in self.facility_costs))
             * math.lcm(*range(1, len(self.strategies) + 1)))
        costs = {name: int(c * d) for name, c in self.facility_costs}
        return d, lambda name, load: costs[name] // load


@dataclass(frozen=True)
class Congestion(_FacilitySubsets):
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
        object.__setattr__(self, "strategies", _normalize_subsets(
            self.strategies, {name for name, _, _ in facs}))

    def _cost_rule(self) -> tuple[int, Callable[[str, int], int]]:
        d = math.lcm(*(v.denominator for _, a, b in self.facilities for v in (a, b)))
        delays = {name: (int(a * d), int(b * d)) for name, a, b in self.facilities}
        return d, lambda name, load: delays[name][0] * load + delays[name][1]


# ---------------------------------------------------------------------------
# expansion to normal form
# ---------------------------------------------------------------------------

# An expansion maps a spec and the cap to (orientation, strategy labels,
# denominator, cells): the cells are a lazy iterable, in row-major order, of
# integer payoff vectors over the denominator, so ``generate`` can check the
# cap from the labels before any cell is built (an n-player family checks it
# first), and fills the game's integer store without a Fraction per cell.

def _over(*values: Fraction) -> tuple[int, list[int]]:
    """(d, ints): the rationals ``values`` as integers over their least
    common denominator d."""
    d = math.lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def _fixed(labels, *cells, denominator: int = 1):
    """A two-player table with the same ``labels`` for both players."""
    return lambda spec, cap: (Orientation.PAYOFF_MAX, (labels, labels), denominator, cells)


def _pd_n_pay(j: int, cooperators: int) -> int:
    """1 - v + 2 * (the others' v), with v = 1 for C (j = 0) and 0 for D (j = 1),
    when ``cooperators`` players, this one included, play C."""
    return 2 * cooperators - 2 + 3 * j


def _expand_pd_n(spec: PrisonersDilemmaN, cap: int):
    check_cap(itertools.repeat(2, spec.n), cap)

    def cell(profile):
        cooperators = profile.count(0)
        return tuple(_pd_n_pay(j, cooperators) for j in profile)

    return (Orientation.PAYOFF_MAX, (("C", "D"),) * spec.n, 1,
            map(cell, itertools.product(range(2), repeat=spec.n)))


def _expand_generalized_pd(spec: GeneralizedPD, cap: int):
    x = spec.alpha / (spec.alpha + 1)
    d, (one, high, low) = _over(ONE, x + 1, 1 / spec.beta)
    cells = ((one, one), (0, high), (high, 0), (low, low))
    return Orientation.PAYOFF_MAX, (("C", "D"),) * 2, d, cells


def _grid_labels(spec: PublicGoodsGrid) -> tuple[str, ...]:
    return tuple(str(v) for v in spec.grid_values())


def _public_goods_rows(spec: PublicGoodsGrid) -> tuple[int, list[list[int]]]:
    """(d, rows): ``rows[steps][j] / d`` is the payoff of a player on grid
    point j when the contributions total ``steps`` grid steps, for every
    total a profile can reach.

    Grid point j is j steps of b/k, so the payoff b - v_j + (c/n)*total
    is (b/k) * ((k - j) + c*steps/n): an integer over d for every j and
    steps.  With b = 0 the grid is the single point 0 and every payoff 0.
    """
    m = len(spec.grid_values())
    step = spec.b / spec.grid_steps
    c = spec.c
    scale = spec.n * c.denominator
    rows = [[step.numerator * ((spec.grid_steps - j) * scale + c.numerator * steps)
             for j in range(m)] for steps in range(spec.n * (m - 1) + 1)]
    return step.denominator * scale, rows


def _expand_public_goods(spec: PublicGoodsGrid, cap: int):
    check_cap(itertools.repeat(spec.grid_steps + 1, spec.n if spec.b else 0), cap)  # b=0: 1 cell
    d, rows = _public_goods_rows(spec)

    def cell(chosen):
        row = rows[sum(chosen)]
        return tuple(map(row.__getitem__, chosen))

    return (Orientation.PAYOFF_MAX, (_grid_labels(spec),) * spec.n, d,
            map(cell, itertools.product(range(len(rows[0])), repeat=spec.n)))


_CLAIMS = range(2, 101)  # the traveler's dilemma's strategies


def _travelers_pay(own: int, other: int) -> int:
    """Claiming ``own`` against ``other`` pays the lower claim, +2 to its
    maker and -2 to the other traveler."""
    if own == other:
        return own
    if own < other:
        return own + 2
    return other - 2


def _expand_travelers(_: TravelersDilemma, cap: int):
    # rows[a][b]: the pay of the a-th claim against the b-th, so player 1's
    # column is the rows in turn and player 2's the columns in turn
    rows = [[_travelers_pay(own, other) for other in _CLAIMS] for own in _CLAIMS]
    return (Orientation.PAYOFF_MAX, (tuple(map(str, _CLAIMS)),) * 2, 1,
            zip(itertools.chain.from_iterable(rows), itertools.chain.from_iterable(zip(*rows))))


def _expand_f_level(spec: FLevelGame, cap: int):
    check_cap(itertools.repeat(2, spec.n), cap)
    d, (f, sucker) = _over(spec.f_value, -(spec.f_value + 1) / (spec.n - 1))

    def cell(profile):
        if 1 not in profile:
            return (0,) * spec.n
        first_zero = profile.index(1)
        return tuple(f if i == first_zero else sucker for i in range(spec.n))

    return (Orientation.PAYOFF_MAX, (("1", "0"),) * spec.n, d,
            map(cell, itertools.product((0, 1), repeat=spec.n)))


def _subset_labels(spec) -> tuple[tuple[str, ...], ...]:
    return tuple(tuple("+".join(subset) for subset in options)
                 for options in spec.strategies)


def facility_usage(choice, counts=itertools.repeat(1)) -> dict[str, int]:
    """The number of players on each facility when ``counts[k]`` players
    (default: one each) take the facility subset ``choice[k]``."""
    usage: dict[str, int] = {}
    for subset, count in zip(choice, counts):
        for name in subset:
            usage[name] = usage.get(name, 0) + count
    return usage


def _expand_facilities(spec: _FacilitySubsets, cap: int):
    d, cost = spec._cost_rule()

    def cell(choice):
        usage = facility_usage(choice)
        return tuple(sum(cost(name, usage[name]) for name in subset) for subset in choice)

    return (Orientation.COST_MIN, _subset_labels(spec), d,
            map(cell, itertools.product(*spec.strategies)))


_EXPANSIONS: dict[type, Callable] = {
    PrisonersDilemmaN: _expand_pd_n,
    GeneralizedPD: _expand_generalized_pd,
    PublicGoodsGrid: _expand_public_goods,
    TravelersDilemma: _expand_travelers,
    MatchingPennies: _fixed(("H", "T"), (1, -1), (-1, 1), (-1, 1), (1, -1)),
    BattleOfSexes: _fixed(("F", "B"), (2, 1), (0, 0), (0, 0), (1, 2)),
    BadNash3x3: _fixed(
        ("H", "T", "E"),
        (1, -1), (-1, 1), (-1, -1),
        (-1, 1), (1, -1), (-1, -1),
        (-1, -1), (-1, -1), (-1, -1),
    ),
    NoNash2x2: _fixed(("C", "D"), (2, 2), (2, 0), (3, 0), (1, 1)),
    FLevelGame: _expand_f_level,
    # over denominator 2: a player on E gets -1/2
    WeaklyAcyclic3x3: _fixed(
        ("H", "T", "E"),
        (2, -2), (-2, 2), (-2, -1),
        (-2, 2), (2, -2), (-2, -1),
        (-1, -2), (-1, -2), (-1, -1),
        denominator=2,
    ),
    **dict.fromkeys((CostSharing, Congestion), _expand_facilities),
}

#: Any spec ``generate`` expands.
FamilySpec = Union[tuple(_EXPANSIONS)]


def generate(spec: FamilySpec, cap: int = DEFAULT_CELL_CAP) -> Game:
    """Expand a family spec into a validated normal-form game.

    Raises ExplosionGuard when the joint-strategy space would exceed
    ``cap`` cells, before any cell or n-player label is built.
    """
    expand = _EXPANSIONS.get(type(spec))
    if expand is None:
        raise ParamOutOfRange(f"unknown family spec: {spec!r}")
    orientation, labels, denominator, cells = expand(spec, cap)
    check_cap(map(len, labels), cap)
    return Game._from_store(orientation, labels, denominator, tuple(zip(*cells)))


# ---------------------------------------------------------------------------
# compact symmetric views
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymmetricForm:
    """Per-position payoff view of a symmetric family.

    ``payoff(j, rest)`` is the payoff (in a cost game, the cost) of any
    player choosing strategy ``j`` while the remaining players' choices
    have per-strategy counts ``rest``.  Suitable for orbit-reduced
    analysis of games whose full tensor would be too large to expand.
    """

    player_count: int
    strategy_labels: tuple[str, ...]
    payoff: Callable[[int, tuple[int, ...]], Fraction] = field(compare=False)
    orientation: Orientation = Orientation.PAYOFF_MAX


def _pd_n_form(spec: PrisonersDilemmaN) -> SymmetricForm:
    return SymmetricForm(spec.n, ("C", "D"),
                         _Rule(1, lambda rest: [_pd_n_pay(0, rest[0] + 1), _pd_n_pay(1, rest[0])]))


def _public_goods_form(spec: PublicGoodsGrid) -> SymmetricForm:
    by_steps = []  # filled on the first call, after the orbit space is checked against the cap

    def pg_row(rest: tuple[int, ...]) -> list[int]:
        if not by_steps:  # rows[t][j] is earned on j when all steps, j's too, total t
            rows = _public_goods_rows(spec)[1]
            by_steps.extend([rows[steps + j][j] for j in range(len(rest))]
                            for steps in range(len(rows) - len(rest) + 1))
        return by_steps[sum(map(operator.mul, range(len(rest)), rest))]

    # the denominator of _public_goods_rows, without building the rows
    d = (spec.b / spec.grid_steps).denominator * spec.n * spec.c.denominator
    return SymmetricForm(spec.n, _grid_labels(spec), _Rule(d, pg_row))


def _travelers_form(_: TravelersDilemma) -> SymmetricForm:
    by_other = []  # filled on the first call, after the orbit space is checked against the cap

    def td_row(rest: tuple[int, ...]) -> list[int]:
        if not by_other:
            by_other.extend([_travelers_pay(own, other) for own in _CLAIMS] for other in _CLAIMS)
        return by_other[rest.index(1)]

    return SymmetricForm(2, tuple(map(str, _CLAIMS)), _Rule(1, td_row))


def _facility_form(spec: _FacilitySubsets) -> SymmetricForm:
    """A facility's load is the number of players on options that contain it."""
    if not spec.is_symmetric:
        raise ParamOutOfRange(f"no symmetric form for {spec!r}: the players' options differ")
    options = spec.strategies[0]
    d, cost = spec._cost_rule()
    position: dict[str, int] = {}  # each facility's, in order of first use
    uses = [[position.setdefault(name, len(position)) for name in subset] for subset in options]

    def facility_row(rest: tuple[int, ...]) -> list[int]:
        loads = [1] * len(position)  # this player, plus the others on options that use it
        for used, count in zip(uses, rest):
            for f in used:
                loads[f] += count
        paid = list(map(cost, position, loads))
        return [sum(map(paid.__getitem__, used)) for used in uses]

    return SymmetricForm(len(spec.strategies), _subset_labels(spec)[0], _Rule(d, facility_row),
                         Orientation.COST_MIN)


_SYMMETRIC_FORMS: dict[type, Callable[..., SymmetricForm]] = {
    PrisonersDilemmaN: _pd_n_form,
    PublicGoodsGrid: _public_goods_form,
    TravelersDilemma: _travelers_form,
    **dict.fromkeys((CostSharing, Congestion), _facility_form),
}


def symmetric_form(spec: FamilySpec) -> SymmetricForm:
    """Compact symmetric view of a player-symmetric family."""
    form = _SYMMETRIC_FORMS.get(type(spec))
    if form is None:
        raise ParamOutOfRange(f"no symmetric form for {spec!r}")
    return form(spec)


# ---------------------------------------------------------------------------
# tight instances
# ---------------------------------------------------------------------------

class TightFamily(str, Enum):
    COST_SHARING_SINGLETON = "cost_sharing_singleton"
    COST_SHARING_INTEGER = "cost_sharing_integer"
    CONGESTION_SINGLETON = "congestion_singleton"
    CONGESTION_INTEGER = "congestion_integer"


def _tight_cost_sharing_singleton(c_max: Fraction, c_min: Fraction) -> CostSharing:
    _require(c_min > 0, "need c_min > 0")
    _require(c_max > 2 * c_min, "need c_max > 2 * c_min")
    return CostSharing(
        facility_costs=(("e1", c_max), ("e2", c_min)),
        strategies=((("e1",),), (("e1",), ("e2",))),
    )


def _tight_cost_sharing_integer(L: int, c_max: int) -> CostSharing:
    _require(L >= 1, "need an integer L >= 1")
    _require(c_max >= 1, "need an integer c_max >= 1")
    n = L + 1
    names = [f"e{i}" for i in range(1, n + 1)]
    costs = tuple((names[i], Fraction(c_max)) for i in range(L)) + ((names[L], ONE),)
    strategies = tuple(((names[i],),) for i in range(L)) + (
        (tuple(names[:L]), (names[L],)),
    )
    return CostSharing(facility_costs=costs, strategies=strategies)


def _tight_congestion_singleton(delta: Fraction, a: Fraction) -> Congestion:
    _require(0 <= delta < 1, "need discrepancy delta in [0, 1)")
    _require(a > 0, "need a > 0")
    facilities = (("e1", ZERO, (2 + delta) * a), ("e2", a, ZERO))
    options = (("e1",), ("e2",))
    return Congestion(facilities=facilities, strategies=(options, options))


def _tight_congestion_integer(L: int, d_max: int, d_min: int) -> Congestion:
    _require(L >= 1, "need an integer L >= 1")
    _require(d_max >= 1, "need an integer d_max >= 1")
    _require(d_min >= 1, "need an integer d_min >= 1")
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

    It is the ``FAMILIES`` entry ``<family>_tight``, checked as ``generate``
    on the CLI checks it: ParamOutOfRange for an unknown family, or an
    unknown, missing, non-integer or out-of-range parameter, and
    InfeasibleParams when no instance fits.
    """
    name = family.value if isinstance(family, TightFamily) else family
    return named(f"{name}_tight").spec(params)


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


# ---------------------------------------------------------------------------
# named families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Param:
    """One ``--param`` key: its type (``int`` or ``Fraction``), the spec
    keyword it fills (default: the key) and, if it is optional, its default."""

    key: str
    kind: type = Fraction
    keyword: str | None = None
    default: Fraction | None = None


@dataclass(frozen=True)
class Family:
    """A family as the CLI names it: a spec constructor and its parameters."""

    build: Callable[..., object]
    params: tuple[Param, ...] = ()

    def spec(self, params: dict):
        """The spec for ``--param`` values, each parsed by ``parse_rational``.

        Raises ParamOutOfRange for keys the family does not take, then
        for a missing or non-integer parameter, then for whatever the
        constructor rejects.
        """
        unknown = set(params).difference(p.key for p in self.params)
        if unknown:
            raise ParamOutOfRange(f"unknown parameters: {', '.join(sorted(unknown))}")
        kwargs = {}
        for p in self.params:
            if p.key not in params and p.default is None:
                raise ParamOutOfRange(f"missing required parameter {p.key!r}")
            value = parse_rational(params[p.key]) if p.key in params else p.default
            if p.kind is int and value.denominator != 1:
                raise ParamOutOfRange(f"parameter {p.key!r} must be an integer, got {value}")
            kwargs[p.keyword or p.key] = p.kind(value)
        return self.build(**kwargs)


#: The families ``generate`` (and ``closedform``) accept, by CLI name.
FAMILIES: dict[str, Family] = {
    "pd_n": Family(PrisonersDilemmaN, (Param("n", int),)),
    "generalized_pd": Family(GeneralizedPD, (Param("alpha"), Param("beta"))),
    "public_goods": Family(PublicGoodsGrid, (
        Param("n", int), Param("b"), Param("c"), Param("k", int, "grid_steps"))),
    "travelers": Family(TravelersDilemma),
    "matching_pennies": Family(MatchingPennies),
    "battle_of_sexes": Family(BattleOfSexes),
    "bad_nash_3x3": Family(BadNash3x3),
    "no_nash_2x2": Family(NoNash2x2),
    "weakly_acyclic_3x3": Family(WeaklyAcyclic3x3),
    "f_level": Family(FLevelGame, (Param("n", int), Param("f", keyword="f_value"))),
    "cost_sharing_singleton_tight": Family(
        _tight_cost_sharing_singleton, (Param("c_max"), Param("c_min"))),
    "cost_sharing_integer_tight": Family(
        _tight_cost_sharing_integer, (Param("L", int), Param("c_max", int))),
    "congestion_singleton_tight": Family(
        _tight_congestion_singleton, (Param("delta"), Param("a"))),
    "congestion_integer_tight": Family(
        _tight_congestion_integer, (Param("L", int), Param("d_max", int), Param("d_min", int))),
    "cost_sharing_gap": Family(
        cost_sharing_gap_instance, (Param("c_max"), Param("c_min"), Param("gap"))),
}


def named(name: str, table: dict[str, Family] = FAMILIES) -> Family:
    """The family called ``name`` in ``table``; ParamOutOfRange if none is."""
    if name not in table:
        raise ParamOutOfRange(f"unknown family {name!r}")
    return table[name]
