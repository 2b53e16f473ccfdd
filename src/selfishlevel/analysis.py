"""Equilibrium and selfishness-level analysis of finite games.

The selfishness level of a game is the smallest altruism share alpha >= 0
such that the altruistic version of the game (every payoff augmented by
alpha times the social welfare) has a pure Nash equilibrium that is a
social optimum; it is infinite when no such alpha exists.

For finite games the level is determined by the stable social optima:
social optima from which no player gains by unilaterally moving to
another social optimum.  At a stable social optimum every strictly
improving unilateral deviation lowers social welfare, and its appeal
factor is the payoff gain divided by that welfare drop.  The level is
the minimum over stable social optima of the largest appeal factor.

The kernels run on each game's scaled-integer form (see ``core``), in
which cost games are negated so that larger is always better; reported
gains and drops are converted back to native units, so for cost games
they are the cost decrease and the social-cost increase, both positive.
One level engine, ``_level``, serves the dense table of a game
(``selfishness_level``) and the orbit space of a compact symmetric game
(``symmetric_selfishness_level``), so both pick the same witnesses.

Queries at a share alpha run on the same kernel, never on a transformed
game.  A stable optimum is an equilibrium of the altruistic game exactly
when alpha is at least its threshold, its largest appeal factor, so alpha
is selfish exactly when it reaches the level, the least threshold.  Only
prices below the level need the altruistic equilibria: at alpha = p/q they
are those of the integers q*v_i + p*W, a positive rescaling of p_i + alpha*SW.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .core import DEFAULT_CELL_CAP, ZERO, Game, Orientation, Profile, _Orbits, parse_share
from .errors import GameError, IndexOutOfRange, NotImproving, NotStableOptimum


# ---------------------------------------------------------------------------
# result types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeviationRecord:
    """One strictly improving unilateral deviation and its appeal factor.

    Values are in the game's native orientation: for cost games,
    ``payoff_gain`` is the deviator's cost decrease and ``welfare_drop``
    the social-cost increase.  Both are strictly positive.
    """

    player: int
    profile: Profile
    to_strategy: int
    payoff_gain: Fraction
    welfare_drop: Fraction
    appeal_factor: Fraction

    def __post_init__(self):
        if self.payoff_gain <= 0:
            raise GameError("deviation record requires a strict payoff gain")
        if self.welfare_drop <= 0:
            raise GameError("deviation record requires a strict welfare drop")
        if self.appeal_factor != self.payoff_gain / self.welfare_drop:
            raise GameError("appeal factor must equal gain / drop exactly")


@dataclass(frozen=True)
class UpperContourSet:
    """The strictly improving deviations of one player at one profile."""

    player: int
    profile: Profile
    strategies: frozenset[int]


class LevelKind(Enum):
    ZERO = "zero"
    FINITE = "finite"
    INFINITE = "infinite"


class InfiniteReason(Enum):
    NO_STABLE_SOCIAL_OPTIMUM = "no_stable_social_optimum"


@dataclass(frozen=True)
class LevelResult:
    """Selfishness level of a finite game, with witnesses.

    Zero: some social optimum is already a Nash equilibrium.
    Finite: the positive level, the stable social optimum attaining it,
    and the deviation whose appeal factor equals the level.
    Infinite: the game has no stable social optimum.

    For finite games the infimum over workable altruism shares is always
    attained (the candidates form a finite set of appeal factors), so a
    finite result carries the exact share at which the game first has an
    optimal equilibrium; only pathological infinite games can have an
    unattained infimum, and those are outside this type's domain.
    """

    kind: LevelKind
    value: Fraction | None = None
    witness_optimum: Profile | None = None
    witness_deviation: DeviationRecord | None = None
    infinite_reason: InfiniteReason | None = None

    def __post_init__(self):
        if self.kind is LevelKind.FINITE:
            if self.value is None or self.value <= 0:
                raise GameError("finite level must carry a positive value")
            if self.witness_optimum is None or self.witness_deviation is None:
                raise GameError("finite level must carry witnesses")
        elif self.kind is LevelKind.ZERO:
            if self.witness_optimum is None:
                raise GameError("zero level must carry a witness optimum")
        elif self.infinite_reason is None:
            raise GameError("infinite level must carry a reason")

    @classmethod
    def zero(cls, witness: Profile) -> "LevelResult":
        return cls(LevelKind.ZERO, witness_optimum=witness)

    @classmethod
    def finite(cls, value: Fraction, witness: Profile, deviation: DeviationRecord) -> "LevelResult":
        return cls(LevelKind.FINITE, value=value, witness_optimum=witness,
                   witness_deviation=deviation)

    @classmethod
    def infinite(cls) -> "LevelResult":
        return cls(LevelKind.INFINITE,
                   infinite_reason=InfiniteReason.NO_STABLE_SOCIAL_OPTIMUM)

    @property
    def is_infinite(self) -> bool:
        return self.kind is LevelKind.INFINITE

    def level(self) -> Fraction | None:
        """The level as a number: 0, a positive rational, or None for infinity."""
        if self.kind is LevelKind.ZERO:
            return ZERO
        return self.value

    def render(self) -> str:
        if self.kind is LevelKind.ZERO:
            return "0"
        if self.kind is LevelKind.FINITE:
            return str(self.value)
        return "inf"


# ---------------------------------------------------------------------------
# equilibria and optima
# ---------------------------------------------------------------------------

def _check_player(game: Game, player: int) -> None:
    if not 0 <= player < game.player_count:
        raise IndexOutOfRange(f"player index {player} out of range")


def pure_nash(game: Game) -> list[Profile]:
    """All pure Nash equilibria, lexicographically sorted (possibly none)."""
    kernel = game._kernel
    return [kernel.profile(c) for c in kernel.nash]


def is_nash(game: Game, profile: Profile) -> bool:
    """Whether no player can strictly improve by a unilateral deviation."""
    cell = game.flat_index(profile)
    kernel = game._kernel
    return not any(kernel.moves(cell, i) for i in range(game.player_count))


def social_optima(game: Game) -> list[Profile]:
    """All welfare-maximizing (cost-minimizing) profiles, ties included."""
    kernel = game._kernel
    return [kernel.profile(c) for c in kernel.optima]


def social_optimum_value(game: Game) -> Fraction:
    """The optimal social value in the game's native orientation."""
    kernel = game._kernel
    return kernel.native(kernel.best_welfare)


def stable_social_optima(game: Game) -> list[Profile]:
    """Social optima from which no player gains by moving to another optimum."""
    kernel = game._kernel
    return [kernel.profile(c) for c in kernel.stable]


def upper_contour(game: Game, profile: Profile, player: int) -> UpperContourSet:
    """Player's strictly improving unilateral deviations at ``profile``."""
    _check_player(game, player)
    kernel = game._kernel
    moves = kernel.moves(game.flat_index(profile), player)
    return UpperContourSet(player, profile,
                           frozenset(kernel.profile(t)[player] for t in moves))


# ---------------------------------------------------------------------------
# appeal factors and the level
# ---------------------------------------------------------------------------

def _stable_cell(game: Game, profile: Profile) -> int:
    kernel = game._kernel
    if profile not in [kernel.profile(c) for c in kernel.stable]:
        raise NotStableOptimum(f"{profile} is not a stable social optimum")
    return game.flat_index(profile)


def _deviation_record(space, cell: int, move: tuple[int, int, int, int]) -> DeviationRecord:
    player, to_strategy, target, gain = move
    drop = space.welfare[cell] - space.welfare[target]
    return DeviationRecord(
        player, space.profile(cell), to_strategy,
        Fraction(gain, space.denominator), Fraction(drop, space.denominator),
        Fraction(gain, drop),
    )


def appeal_factor(game: Game, profile: Profile, player: int,
                  to_strategy: int) -> DeviationRecord:
    """Appeal factor of one deviation from a stable social optimum.

    Raises NotStableOptimum unless ``profile`` is a stable social
    optimum, and NotImproving unless the deviation strictly improves the
    deviator.  The welfare drop is then guaranteed positive.
    """
    cell = _stable_cell(game, profile)
    _check_player(game, player)
    if not 0 <= to_strategy < game.strategy_counts[player]:
        raise IndexOutOfRange(f"strategy index {to_strategy} out of range for player {player}")
    kernel = game._kernel
    for move in kernel.deviations(cell):
        if move[:2] == (player, to_strategy):
            return _deviation_record(kernel, cell, move)
    raise NotImproving(
        f"strategy {to_strategy} does not improve player {player} at {profile}"
    )


def stabilizing_alpha(game: Game, profile: Profile) -> Fraction:
    """The least altruism share making a stable social optimum an equilibrium.

    Zero when the optimum already is a Nash equilibrium; otherwise the
    maximum appeal factor over all improving deviations at it.
    """
    threshold = game._kernel.threshold(_stable_cell(game, profile))
    return ZERO if threshold is None else Fraction(threshold[0], threshold[1])


def _level(space) -> LevelResult:
    """The level on a profile space (see ``core._Space``).

    Over the stable optima in cell order, the first least threshold;
    the first optimum without one (an equilibrium) ends the scan at 0.
    """
    best = None
    for cell in space.stable:
        threshold = space.threshold(cell)
        if threshold is None:
            return LevelResult.zero(space.profile(cell))
        if best is None or threshold[0] * best[2] < best[1] * threshold[1]:
            best = (cell, *threshold)
    if best is None:
        return LevelResult.infinite()
    cell, gain, drop, move = best
    return LevelResult.finite(Fraction(gain, drop), space.profile(cell),
                              _deviation_record(space, cell, move))


def selfishness_level(game: Game) -> LevelResult:
    """Selfishness level of a finite game, with witnesses.

    Infinite exactly when the game has no stable social optimum.  The
    witness optimum is the lexicographically first stable social optimum
    attaining the minimum.
    """
    return _level(game._kernel)


def is_alpha_selfish(game: Game, alpha) -> bool:
    """Whether the altruistic version at ``alpha`` has an equilibrium that
    is a social optimum of the original game (the two optimum sets agree).

    It holds exactly when alpha reaches the level: no equilibrium is
    computed and no altruistic game is built.
    """
    alpha = parse_share(alpha)
    level = _level(game._kernel).level()
    return level is not None and alpha >= level


# ---------------------------------------------------------------------------
# prices of stability and anarchy
# ---------------------------------------------------------------------------

def _price(game: Game, pick, equilibria: list[int]) -> Fraction | None:
    """Optimum against the welfare that ``pick`` selects among the
    equilibrium cells ``equilibria``."""
    kernel = game._kernel
    if not equilibria:
        return None
    equilibrium = pick(kernel.welfare[c] for c in equilibria)
    optimum = kernel.best_welfare
    # The common denominator cancels; for cost games both scaled welfares
    # are negated social costs, so their ratio is the cost ratio.
    if game.orientation is Orientation.PAYOFF_MAX:
        return Fraction(optimum, equilibrium) if equilibrium > 0 else None
    return Fraction(equilibrium, optimum) if optimum < 0 else None


def price_of_stability(game: Game) -> Fraction | None:
    """Optimum-to-best-equilibrium social value ratio (>= 1), or None.

    None when the game has no pure Nash equilibrium or the ratio's
    denominator is not positive.
    """
    return _price(game, max, game._kernel.nash)


def price_of_anarchy(game: Game) -> Fraction | None:
    """Optimum-to-worst-equilibrium social value ratio (>= 1), or None."""
    return _price(game, min, game._kernel.nash)


def selfishness_function(game: Game, alphas: Iterable) -> list[tuple[Fraction, Fraction | None]]:
    """Price of stability of the altruistic version at each altruism share.

    The selfishness level is the least share at which this function
    first equals 1.  Pairs are returned in input order.

    No altruistic game is built: from the level on its best equilibrium
    is an optimum; below it, its equilibria at alpha = p/q are those of
    ``q * v_i + p * W``.  Its social value is ``(1 + n * alpha)`` times
    the game's, a factor that cancels in the price and keeps its signs.
    """
    alphas = list(map(parse_share, alphas))
    kernel = game._kernel
    level = _level(kernel).level()
    return [(alpha, _price(game, max, kernel.optima if level is not None and alpha >= level
                           else kernel.equilibria(alpha.numerator, alpha.denominator)))
            for alpha in alphas]


# ---------------------------------------------------------------------------
# symmetric games in compact form
# ---------------------------------------------------------------------------

def symmetric_selfishness_level(
    player_count: int,
    strategy_count: int,
    payoff: Callable[[int, Sequence[int]], Fraction],
    *,
    orientation: Orientation = Orientation.PAYOFF_MAX,
    cap: int = DEFAULT_CELL_CAP,
) -> LevelResult:
    """Selfishness level of a symmetric game given in compact form.

    ``payoff(j, rest)`` is the common payoff of a player choosing
    strategy ``j`` while the other players' choices have per-strategy
    counts ``rest`` (a tuple of length ``strategy_count`` summing to
    ``player_count - 1``).  In a symmetric game permuting players
    permutes payoffs, so welfare, optimality, stability, and appeal
    factors are constant on permutation orbits.  The level engine of
    ``selfishness_level`` runs on one sorted representative per orbit
    (``core._Orbits``), so the result, witnesses included, equals the
    dense engine's on the expanded game at a fraction of the cost.

    The orbit space has C(player_count + strategy_count - 1,
    player_count) cells.  Before any orbit is built or ``payoff`` is
    called, the inputs are checked as a ``Game``'s are, each fault a
    GameError: a count that is not an int, PlayerCountTooSmall below 2
    players, EmptyStrategySet below 1 strategy, an orientation that is
    neither an ``Orientation`` nor its string, then ExplosionGuard when
    the orbits are more than ``cap``.  A float payoff raises GameError.
    """
    return _level(_Orbits(player_count, strategy_count, payoff, orientation, cap))
