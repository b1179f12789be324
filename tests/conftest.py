import cmath
import random
from fractions import Fraction

import pytest

from octogroup import catalog
from octogroup.scalars import Cyclotomic


@pytest.fixture(scope="session")
def report():
    """The full verification report, computed once per session."""
    return catalog.verify_all()


def numeric(x: Cyclotomic) -> complex:
    """Independent numeric evaluation of a cyclotomic via complex exponentials."""
    return sum(
        (c.numerator / c.denominator) * cmath.exp(2j * cmath.pi * e / x.conductor)
        for e, c in x.coeffs
    )


def random_cyclotomic(rng: random.Random, conductors=(1, 3, 4, 7, 8, 12)) -> Cyclotomic:
    n = rng.choice(conductors)
    parts = {}
    for _ in range(rng.randint(1, 3)):
        parts[rng.randrange(n)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Cyclotomic.make(n, parts)
