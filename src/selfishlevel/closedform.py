"""Closed-form selfishness levels and continuous-family evaluators.

Finite families with an exact analytic level report it directly;
cost-sharing and congestion games report the proven upper bound (tight,
in the sense that instances attaining it exist); the continuous
competition games have infinite level, certified constructively: for
any threshold M a deviation with appeal factor above M is produced.
``closed_form_level`` looks each spec type up in one table, and
``CONTINUOUS`` names the continuous families for the CLI.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from . import families
from .core import HALF, ONE, ZERO, _Orbits, parse_rational
from .errors import (
    MissingDiscrepancy,
    OutOfDeviationRange,
    ParamOutOfRange,
    UnknownFamily,
    ZeroLinearCoefficients,
)
from .families import (
    Congestion,
    CostSharing,
    Family,
    FLevelGame,
    GeneralizedPD,
    MatchingPennies,
    BadNash3x3,
    BattleOfSexes,
    NoNash2x2,
    Param,
    PrisonersDilemmaN,
    PublicGoodsGrid,
    TravelersDilemma,
    WeaklyAcyclic3x3,
    _require,
)


class ClosedFormKind(Enum):
    EXACT = "exact"
    UPPER_BOUND = "upper_bound"
    INFINITE = "infinite"


@dataclass(frozen=True)
class ClosedFormResult:
    kind: ClosedFormKind
    value: Fraction | None = None
    tight: bool | None = None

    def render(self) -> str:
        if self.kind is ClosedFormKind.INFINITE:
            return "inf"
        prefix = "" if self.kind is ClosedFormKind.EXACT else "<= "
        return f"{prefix}{self.value}"


# ---------------------------------------------------------------------------
# continuous family parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TragedyParams:
    """Common-resource game: p_i = max(0, s_i * (1 - sum of all shares))."""

    n: int

    def __post_init__(self):
        _require(isinstance(self.n, int) and self.n >= 2, "need an integer n >= 2")


@dataclass(frozen=True)
class CournotParams:
    """Quantity competition with inverse demand a - b*total and unit cost c."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", parse_rational(self.a))
        object.__setattr__(self, "b", parse_rational(self.b))
        object.__setattr__(self, "c", parse_rational(self.c))
        _require(self.c >= 0 and self.a > self.c, "need a > c >= 0")
        _require(self.b > 0, "need b > 0")

    @property
    def d(self) -> Fraction:
        """Demand intercept net of the unit cost."""
        return self.a - self.c


@dataclass(frozen=True)
class BertrandParams:
    """Price competition: the lower price sells (a - b*price), ties split."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", parse_rational(self.a))
        object.__setattr__(self, "b", parse_rational(self.b))
        object.__setattr__(self, "c", parse_rational(self.c))
        _require(self.b > 0, "need b > 0")
        _require(self.c > 0, "need c > 0")
        _require(self.b * self.c < self.a, "need b*c < a")

    @property
    def d(self) -> Fraction:
        """The welfare-optimal price, interior to the strategy interval."""
        return (self.a + self.b * self.c) / (2 * self.b)


@dataclass(frozen=True)
class PublicGoodsCont:
    """Continuous-contribution public goods game on [0, b]."""

    n: int
    b: Fraction
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "b", parse_rational(self.b))
        object.__setattr__(self, "c", parse_rational(self.c))
        _require(isinstance(self.n, int) and self.n >= 2, "need an integer n >= 2")
        _require(self.b >= 0, "need b >= 0")
        _require(self.c > 1, "need c > 1")


ContinuousFamilyParams = TragedyParams | CournotParams | BertrandParams | PublicGoodsCont


#: The continuous families ``closedform`` accepts by CLI name; they take
#: precedence over ``families.FAMILIES``.
CONTINUOUS: dict[str, Family] = {
    "tragedy": Family(TragedyParams, (Param("n", int),)),
    "cournot": Family(CournotParams, (Param("a"), Param("b"), Param("c"))),
    "bertrand": Family(BertrandParams, (Param("a"), Param("b"), Param("c"))),
    "public_goods": Family(
        PublicGoodsCont, (Param("n", int), Param("b", default=ONE), Param("c"))),
}


# ---------------------------------------------------------------------------
# discrepancy between congestion facilities
# ---------------------------------------------------------------------------

def discrepancy(a_e, b_e, a_e2, b_e2, x_e: int, x_e2: int) -> Fraction:
    """Normalized marginal-load difference of two affine facilities.

    ((2*a_e*x_e + b_e) - (2*a_e2*x_e2 + b_e2)) / (a_e + a_e2); at any
    social optimum of a symmetric singleton game this lies in [-1, 1].
    """
    a_e, b_e = parse_rational(a_e), parse_rational(b_e)
    a_e2, b_e2 = parse_rational(a_e2), parse_rational(b_e2)
    denom = a_e + a_e2
    if denom == 0:
        raise ZeroLinearCoefficients("both facilities have zero linear coefficient")
    return ((2 * a_e * x_e + b_e) - (2 * a_e2 * x_e2 + b_e2)) / denom


def max_discrepancy(spec: Congestion, cap: int = families.DEFAULT_CELL_CAP) -> Fraction:
    """Largest discrepancy below 1 over the stable social optima.

    Checks the cap, then reads the stable optima from the orbit space of
    a symmetric spec (ParamOutOfRange if it is not): the discrepancy
    depends only on usage, which is the same across an orbit.  Raises
    MissingDiscrepancy when no facility pair qualifies (all
    discrepancies are 1, or no pair has a positive linear coefficient).
    """
    families.check_cap(map(len, spec.strategies), cap)
    form = families.symmetric_form(spec)
    space = _Orbits(form.player_count, len(form.strategy_labels), form.payoff, form.orientation,
                    cap)
    best: Fraction | None = None
    for cell in space.stable:
        usage = families.facility_usage(spec.strategies[0], space.counts(cell))
        for (e, a_e, b_e), (e2, a_e2, b_e2) in itertools.permutations(spec.facilities, 2):
            if a_e + a_e2 == 0:
                continue
            value = discrepancy(a_e, b_e, a_e2, b_e2, usage.get(e, 0), usage.get(e2, 0))
            if value < 1 and (best is None or value > best):
                best = value
    if best is None:
        raise MissingDiscrepancy(
            "no facility pair with positive linear coefficient and "
            "discrepancy below 1 at any stable social optimum"
        )
    return best


# ---------------------------------------------------------------------------
# closed-form levels
# ---------------------------------------------------------------------------

def _cost_sharing_bound(spec: CostSharing, **_) -> ClosedFormResult:
    costs = [c for _, c in spec.facility_costs]
    if spec.is_singleton:
        c_max, c_min = max(costs), min(costs)
        if c_min <= 0:
            raise ParamOutOfRange("singleton bound needs positive facility costs")
        bound = max(ZERO, HALF * c_max / c_min - 1)
        return ClosedFormResult(ClosedFormKind.UPPER_BOUND, bound, tight=True)
    scale = math.lcm(*(c.denominator for c in costs))
    c_max = max(costs) * scale
    bound = max(ZERO, HALF * spec.max_subset_size * c_max - 1)
    return ClosedFormResult(ClosedFormKind.UPPER_BOUND, bound, tight=True)


def _congestion_bound(spec: Congestion, *, cap: int) -> ClosedFormResult:
    spans = [a + b for _, a, b in spec.facilities]
    if spec.is_symmetric and spec.is_singleton:
        linear = [a for _, a, _ in spec.facilities if a > 0]
        if not linear:
            # No improving deviation can raise the social cost when every
            # delay is constant, so stable optima are equilibria.
            return ClosedFormResult(ClosedFormKind.UPPER_BOUND, ZERO, tight=True)
        delta_max = max_discrepancy(spec, cap=cap)
        span_gap = max(spans) - min(spans)
        bound = max(ZERO, HALF * span_gap / ((1 - delta_max) * min(linear)) - HALF)
        return ClosedFormResult(ClosedFormKind.UPPER_BOUND, bound, tight=True)
    scale = math.lcm(*(v.denominator for _, a, b in spec.facilities for v in (a, b)))
    span_max, span_min = max(spans) * scale, min(spans) * scale
    bound = max(ZERO, HALF * (spec.max_subset_size * span_max - span_min - 1))
    return ClosedFormResult(ClosedFormKind.UPPER_BOUND, bound, tight=True)


def _public_goods(spec, **_) -> ClosedFormResult:
    if spec.b == 0:
        # A zero budget leaves each player one strategy: every profile is
        # an equilibrium.
        return ClosedFormResult(ClosedFormKind.EXACT, ZERO)
    value = max(ZERO, (1 - spec.c / spec.n) / (spec.c - 1))
    return ClosedFormResult(ClosedFormKind.EXACT, value)


def _exact(value_of):
    return lambda spec, **_: ClosedFormResult(ClosedFormKind.EXACT, value_of(spec))


def _infinite(spec, **_) -> ClosedFormResult:
    return ClosedFormResult(ClosedFormKind.INFINITE)


_CLOSED_FORMS = {
    PrisonersDilemmaN: _exact(lambda spec: Fraction(1, 2 * spec.n - 3)),
    PublicGoodsGrid: _public_goods,
    PublicGoodsCont: _public_goods,
    TravelersDilemma: _exact(lambda spec: HALF),
    BattleOfSexes: _exact(lambda spec: ZERO),
    NoNash2x2: _exact(lambda spec: ONE),
    GeneralizedPD: _exact(lambda spec: spec.alpha),
    FLevelGame: _exact(lambda spec: spec.f_value),
    CostSharing: _cost_sharing_bound,
    Congestion: _congestion_bound,
    **dict.fromkeys((TragedyParams, CournotParams, BertrandParams,
                     MatchingPennies, BadNash3x3, WeaklyAcyclic3x3), _infinite),
}


def closed_form_level(spec, *, cap: int = families.DEFAULT_CELL_CAP) -> ClosedFormResult:
    """Analytic selfishness level (or proven upper bound) for a family.

    For rational-valued cost-sharing and congestion games the integer
    bounds are applied after scaling all values to integers, which
    leaves the level unchanged.  The symmetric singleton congestion
    bound needs the maximum discrepancy, which ``max_discrepancy`` reads
    from the stable social optima on the orbit space.
    """
    solve = _CLOSED_FORMS.get(type(spec))
    if solve is None:
        raise UnknownFamily(f"no closed-form level for {spec!r}")
    return solve(spec, cap=cap)


# ---------------------------------------------------------------------------
# appeal factors of the continuous games
# ---------------------------------------------------------------------------

def tragedy_af(a, x) -> Fraction:
    """Appeal factor of deviating to share x from a welfare-optimal profile
    where the deviator holds share a (and all shares sum to 1/2)."""
    a, x = parse_rational(a), parse_rational(x)
    if not 0 <= a < x < HALF:
        raise OutOfDeviationRange(f"need 0 <= a < x < 1/2, got a={a}, x={x}")
    return (x - HALF) / (a - x)


def cournot_af(d, b, y, x) -> Fraction:
    """Appeal factor of moving output from y to x at a welfare-optimal
    profile with total output d/(2b)."""
    d, b, y, x = (parse_rational(v) for v in (d, b, y, x))
    if b <= 0 or d <= 0:
        raise ParamOutOfRange("need d > 0 and b > 0")
    peak = d / (2 * b)
    if not 0 <= y < x < peak:
        raise OutOfDeviationRange(f"need 0 <= y < x < {peak}, got y={y}, x={x}")
    return -(x - peak) / (x - y)


def bertrand_af(a, b, c, s_i) -> Fraction:
    """Appeal factor of undercutting the welfare-optimal price to s_i."""
    params = BertrandParams(a, b, c)
    s_i = parse_rational(s_i)
    d = params.d
    if not params.c < s_i < d:
        raise OutOfDeviationRange(f"need {params.c} < s_i < {d}, got {s_i}")

    def revenue(p: Fraction) -> Fraction:
        return (p - params.c) * (params.a - params.b * p)

    gain = revenue(s_i) - HALF * revenue(d)
    drop = revenue(d) - revenue(s_i)
    return gain / drop


# ---------------------------------------------------------------------------
# unboundedness witnesses
# ---------------------------------------------------------------------------

def tragedy_witness(a, m) -> Fraction:
    """A deviation share whose appeal factor exceeds m."""
    a, m = parse_rational(a), parse_rational(m)
    _require(0 <= a < HALF, "need the optimum share a in [0, 1/2)")
    _require(m > 0, "need a positive threshold")
    return a + (HALF - a) / (m + 2)


def cournot_witness(d, b, y, m) -> Fraction:
    """A deviation output whose appeal factor exceeds m."""
    d, b, y, m = (parse_rational(v) for v in (d, b, y, m))
    _require(d > 0 and b > 0, "need d > 0 and b > 0")
    peak = d / (2 * b)
    _require(0 <= y < peak, f"need the optimum output y in [0, {peak})")
    _require(m > 0, "need a positive threshold")
    return y + (peak - y) / (m + 2)


def bertrand_witness(a, b, c, m) -> Fraction:
    """An undercutting price whose appeal factor exceeds m.

    Stepping 1/t of the way from the optimal price towards cost gives
    appeal factor t*t/2 - 1, so any integer t with t*t > 2*(m+1) works.
    """
    params = BertrandParams(a, b, c)
    m = parse_rational(m)
    _require(m > 0, "need a positive threshold")
    t = math.isqrt(math.floor(2 * (m + 1))) + 1
    return params.d - (params.d - params.c) / t


def unbounded_witness(params: ContinuousFamilyParams, m) -> Fraction:
    """Dispatch to the family's witness at a canonical stable optimum.

    Tragedy uses the symmetric optimum (share 1/(2n) each); quantity
    competition uses the symmetric two-firm optimum (output d/(4b)).
    """
    if isinstance(params, TragedyParams):
        return tragedy_witness(Fraction(1, 2 * params.n), m)
    if isinstance(params, CournotParams):
        return cournot_witness(params.d, params.b, params.d / (4 * params.b), m)
    if isinstance(params, BertrandParams):
        return bertrand_witness(params.a, params.b, params.c, m)
    raise UnknownFamily(f"no unboundedness witness for {params!r}")
