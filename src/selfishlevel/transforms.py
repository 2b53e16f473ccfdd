"""Altruistic payoff transforms and related payoff algebra.

The basic transform replaces every payoff p_i(s) by p_i(s) + alpha*SW(s)
for an altruism share alpha >= 0.  For cost games the same formula on
the stored costs yields c_i(s) + alpha*SC(s), the cost-minimizing
counterpart.  Shift and scale leave the selfishness level unchanged;
the inverse transform reconstructs the game a transform came from.

Four parameterizations of altruism are supported; all are equivalent up
to a positive rescaling of the perceived payoffs, so they share pure
equilibria and social optima under the matching parameter conversion:

  A: p + alpha*SW                    alpha >= 0
  B: (1-beta)*p + (beta/n)*SW        beta  in [0, 1]
  C: (1-gamma)*p + gamma*SW          gamma in [0, 1]
  D: (1-delta)*p + delta*(SW - p)    delta in [0, 1]

The conversion into model D only covers delta in [0, 1/2]; larger
deltas are still a well-defined transform, just not reachable from A.

Every transform here maps a value v to own*v + social*SW + constant, so
each runs on the game's integer store and never on Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .core import ONE, ZERO, Game, parse_rational, parse_share
from .errors import NonPositiveScale, ParamOutOfRange


def _linear(game: Game, own: Fraction, social: Fraction = ZERO,
            constant: Fraction = ZERO) -> Game:
    """Every value v at a cell with social value SW becomes
    own*v + social*SW + constant.

    On the store (values x/d), that is (a*x + b*W + c*d) / (d*k) with
    integers a, b, c over the coefficients' common denominator k.
    """
    k = math.lcm(own.denominator, social.denominator, constant.denominator)
    a, b, c = (int(coefficient * k) for coefficient in (own, social, constant))
    c *= game.denominator
    welfare = [sum(cell) for cell in zip(*game.columns)]
    columns = tuple(tuple(a * x + b * w + c for x, w in zip(column, welfare))
                    for column in game.columns)
    return Game._from_store(game.orientation, game.strategy_labels,
                            game.denominator * k, columns)


def altruistic(game: Game, alpha) -> Game:
    """The altruistic version: every value becomes p_i(s) + alpha * SW(s)."""
    alpha = parse_share(alpha)
    if alpha == 0:
        return game
    return _linear(game, ONE, alpha)


def shift(game: Game, a) -> Game:
    """Add a constant to every value; the selfishness level is unchanged."""
    a = parse_rational(a)
    return _linear(game, ONE, constant=a)


def scale(game: Game, a) -> Game:
    """Multiply every value by a positive constant; the level is unchanged."""
    a = parse_rational(a)
    if a <= 0:
        raise NonPositiveScale(f"scale factor must be > 0, got {a}")
    return _linear(game, a)


def inverse_altruistic(game: Game, alpha) -> Game:
    """The game whose altruistic version at ``alpha`` is ``game``.

    Subtracting alpha/(1 + n*alpha) times the social value from every
    payoff inverts the transform exactly, cell for cell.
    """
    alpha = parse_share(alpha)
    factor = alpha / (1 + game.player_count * alpha)
    return _linear(game, ONE, -factor)


def compose_check(game: Game, alpha, beta) -> bool:
    """Whether transforming by alpha+beta equals transforming by alpha and
    then by beta/(1 + n*alpha).  Holds identically; exposed as an oracle."""
    alpha = parse_share(alpha)
    beta = parse_share(beta)
    combined = altruistic(game, alpha + beta)
    staged = altruistic(altruistic(game, alpha), beta / (1 + game.player_count * alpha))
    return combined == staged


class AltruismModel(str, Enum):
    A = "A"
    B = "B"
    C = "C"
    D = "D"


@dataclass(frozen=True)
class AltruismParam:
    """A model tag plus a parameter value within that model's range."""

    model: AltruismModel
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", parse_rational(self.value))
        if self.model is AltruismModel.A:
            if self.value < 0:
                raise ParamOutOfRange(f"model A needs alpha >= 0, got {self.value}")
        elif not 0 <= self.value <= 1:
            raise ParamOutOfRange(
                f"model {self.model.value} needs a parameter in [0, 1], got {self.value}"
            )


def convert_param(alpha, target: AltruismModel, n: int | None = None) -> AltruismParam:
    """Convert a model-A altruism share into an equivalent parameter.

    Model B depends on the player count n.  The resulting parameter
    always lies in the range on which the equivalence holds (for model D
    that is [0, 1/2]).
    """
    alpha = parse_share(alpha)
    if target is AltruismModel.A:
        return AltruismParam(target, alpha)
    if target is AltruismModel.B:
        if n is None:
            raise ParamOutOfRange("model B conversion needs the player count")
        return AltruismParam(target, alpha * n / (1 + alpha * n))
    if target is AltruismModel.C:
        return AltruismParam(target, alpha / (1 + alpha))
    return AltruismParam(target, alpha / (1 + 2 * alpha))


def altruistic_model(game: Game, param: AltruismParam) -> Game:
    """Apply the perceived-payoff transform of the parameter's model."""
    value = param.value
    if param.model is AltruismModel.A:
        return altruistic(game, value)
    if param.model is AltruismModel.B:
        return _linear(game, ONE - value, value / game.player_count)
    if param.model is AltruismModel.C:
        return _linear(game, ONE - value, value)
    # (1 - delta)*v + delta*(SW - v)
    return _linear(game, 1 - 2 * value, value)
