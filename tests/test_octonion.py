import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from octogroup.octonion import (
    FANO_LINES,
    Octonion,
    associator,
    is_algebra_automorphism,
    structure_constant,
    triad_type,
    unit_product,
)
from octogroup import catalog

e = Octonion.unit


def conj(x: Octonion) -> Octonion:
    """Negate the imaginary parts."""
    return Octonion((x.coeffs[0],) + tuple(-c for c in x.coeffs[1:]))


def norm(x: Octonion) -> Fraction:
    """Sum of the squared coefficients."""
    return sum(c * c for c in x.coeffs)


def rand_oct(rng: random.Random) -> Octonion:
    return Octonion(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                          for _ in range(8)))


def test_unit_products():
    assert e(1) * e(2) == e(3)
    assert e(5) * e(5) == e(0).scale(-1)
    assert e(7) * e(1) == e(4)
    assert e(0) * e(4) == e(4) == e(4) * e(0)
    # e7 * (1, e1, e2, e3) = (e7, e4, e5, e6), the block the quaternion pairs act on
    assert [unit_product(7, i) for i in range(4)] == [(7, 1), (4, 1), (5, 1), (6, 1)]


def test_structure_constants():
    assert structure_constant(1, 2, 3) == 1
    assert structure_constant(2, 1, 3) == -1
    assert structure_constant(1, 2, 4) == 0
    nonzero = [frozenset(t) for t in combinations(range(1, 8), 3)
               if structure_constant(*t) != 0]
    assert len(nonzero) == 7
    assert set(nonzero) == {frozenset(line) for line in FANO_LINES}
    # complete antisymmetry
    for i, j, k in combinations(range(1, 8), 3):
        base = structure_constant(i, j, k)
        for perm in permutations((i, j, k)):
            sign = 1
            p = list(perm)
            for a in range(3):
                for b in range(a + 1, 3):
                    if (i, j, k).index(p[a]) > (i, j, k).index(p[b]):
                        sign = -sign
            assert structure_constant(*perm) == sign * base


def test_conjugate_and_norm():
    assert conj(e(3)) == e(3).scale(-1)
    assert norm(e(0) + e(1)) == 2
    for i in range(1, 8):
        assert norm(e(i)) == 1
    x = e(0).scale(2) + e(5)
    prod = x * conj(x)
    assert prod.coeffs[0] == norm(x)
    assert all(c == 0 for c in prod.coeffs[1:])


def test_associator_values():
    zero = Octonion.zero()
    assert associator(e(1), e(2), e(3)) == zero
    # frozen oracle: e1(e2 e4) = e1 e6 = e5 while (e1 e2) e4 = e3 e4 = -e5,
    # so the associator is -2 e5
    assert associator(e(1), e(2), e(4)) == e(5).scale(-2)


def test_alternativity_random():
    rng = random.Random(2)
    for _ in range(15):
        a, b = rand_oct(rng), rand_oct(rng)
        assert associator(a, a, b) == Octonion.zero()
        assert (a * a) * b == a * (a * b)
        assert (a * b) * b == a * (b * b)


def test_norm_multiplicative_random():
    rng = random.Random(6)
    for _ in range(15):
        a, b = rand_oct(rng), rand_oct(rng)
        assert norm(a * b) == norm(a) * norm(b)


def test_antisymmetry():
    for i in range(1, 8):
        for j in range(1, 8):
            if i != j:
                assert e(i) * e(j) == (e(j) * e(i)).scale(-1)


def test_triad_classification():
    assert triad_type(2, 4, 6) == "associative"
    assert triad_type(1, 2, 4) == "anti_associative"
    counts = {"associative": 0, "anti_associative": 0}
    for i, j, k in combinations(range(1, 8), 3):
        counts[triad_type(i, j, k)] += 1
    assert counts == {"associative": 7, "anti_associative": 28}
    with pytest.raises(ValueError):
        triad_type(1, 1, 2)


def test_associative_triads_multiply_to_minus_one():
    for i, j, k in FANO_LINES:
        assert (e(i) * e(j)) * e(k) == e(0).scale(-1)


def test_algebra_automorphism_examples():
    assert is_algebra_automorphism(catalog.generator("alpha"))
    assert is_algebra_automorphism(catalog.generator("N1"))
    assert is_algebra_automorphism(catalog.generator("gamma"))
    assert not is_algebra_automorphism(catalog.generator("A_t"))


def test_automorphisms_closed_under_composition():
    gens = [catalog.generator(n) for n in ("alpha", "gamma")]
    for x in gens:
        assert is_algebra_automorphism(x.inverse())
        for y in gens:
            assert is_algebra_automorphism(x * y)


def test_octonion_expression_round_trip():
    x = Octonion.parse("1/2*e2 + e7 - 3")
    assert x.coeffs[0] == -3
    assert x.coeffs[2] == Fraction(1, 2)
    assert Octonion.parse(str(x)) == x
    rng = random.Random(8)
    for _ in range(200):
        y = rand_oct(rng)
        assert Octonion.parse(str(y)) == y
    for bad in ("e8", "", "e1 +", "1/0*e1", "2*", "z3",
                "1e5", "1e100000000", "1e5*e1", "1.5*e1", "1_0", "2.0*e1",
                "e0_7", "e\u0663"):
        with pytest.raises(ValueError):
            Octonion.parse(bad)
