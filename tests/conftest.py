from fractions import Fraction

import pytest

from selfishlevel import (
    BadNash3x3,
    BattleOfSexes,
    Game,
    MatchingPennies,
    NoNash2x2,
    Orientation,
    PrisonersDilemmaN,
    TravelersDilemma,
    WeaklyAcyclic3x3,
    families,
    generate,
)


# One instance of every registered family, all under the default cap.
FAMILY_PARAMS = {
    "pd_n": {"n": 3},
    "generalized_pd": {"alpha": Fraction(1, 2), "beta": 2},
    "public_goods": {"n": 4, "b": 1, "c": 2, "k": 2},
    "travelers": {},
    "matching_pennies": {},
    "battle_of_sexes": {},
    "bad_nash_3x3": {},
    "no_nash_2x2": {},
    "weakly_acyclic_3x3": {},
    "f_level": {"n": 2, "f": 7},
    "cost_sharing_singleton_tight": {"c_max": 10, "c_min": 1},
    "cost_sharing_integer_tight": {"L": 3, "c_max": 2},
    "congestion_singleton_tight": {"delta": Fraction(1, 2), "a": 1},
    "congestion_integer_tight": {"L": 2, "d_max": 3, "d_min": 1},
    "cost_sharing_gap": {"c_max": 10, "c_min": 1, "gap": 1},
}


def family_game(name) -> Game:
    params = {key: Fraction(value) for key, value in FAMILY_PARAMS[name].items()}
    return generate(families.FAMILIES[name].spec(params))


def two_player(rows, labels=(("C", "D"), ("C", "D")),
               orientation=Orientation.PAYOFF_MAX) -> Game:
    """Build a 2-player game from a row-major table of payoff pairs."""
    return Game.from_dense(orientation, labels, rows)


@pytest.fixture
def pd():
    return generate(PrisonersDilemmaN(2))


@pytest.fixture
def matching_pennies():
    return generate(MatchingPennies())


@pytest.fixture
def battle_of_sexes():
    return generate(BattleOfSexes())


@pytest.fixture
def bad_nash():
    return generate(BadNash3x3())


@pytest.fixture
def no_nash():
    return generate(NoNash2x2())


@pytest.fixture
def weakly_acyclic_game():
    return generate(WeaklyAcyclic3x3())


@pytest.fixture(scope="session")
def travelers():
    return generate(TravelersDilemma())


@pytest.fixture
def half():
    return Fraction(1, 2)
