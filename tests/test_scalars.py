import cmath
import random
from fractions import Fraction
from math import gcd

import pytest

from octogroup.scalars import (MAX_PARSED_CONDUCTOR, Cyclotomic, QuadSqrt2,
                               _divmod_monic, cyclotomic_polynomial)

from octogroup import catalog

from conftest import numeric, random_cyclotomic

MU = Cyclotomic.root(1, 3)
MU_BAR = Cyclotomic.root(2, 3)
ETA = Cyclotomic.root(1, 7) + Cyclotomic.root(2, 7) + Cyclotomic.root(4, 7)
ETA_BAR = Cyclotomic.root(3, 7) + Cyclotomic.root(5, 7) + Cyclotomic.root(6, 7)


def test_root_identity_cases():
    assert Cyclotomic.root(0, 7) == Cyclotomic.from_rational(1)
    assert Cyclotomic.root(1, 2) == Cyclotomic.from_rational(-1)
    assert Cyclotomic.root(1, 1) == Cyclotomic.from_rational(1)


def closed_form_root(k: int, n: int) -> Cyclotomic:
    """zeta_n^k in canonical form from its order alone, without a subfield
    test: zeta_n^k is a primitive d-th root of unity, d = n / gcd(n, k).  For
    d = 2m with m odd it is -zeta_m^((k' + m) / 2), k' = k / gcd(n, k),
    because zeta_d^m = -1; otherwise it generates Q(zeta_d), so d is the
    least conductor.  Either way one reduction mod Phi_d gives the
    coefficients."""
    g = gcd(n, k)
    d, e, sign = n // g, k // g, Fraction(1)
    if d % 4 == 2:
        d //= 2
        e, sign = (e + d) // 2, -sign
    if d == 1:
        return Cyclotomic.from_rational(sign)
    rem = _divmod_monic([0] * (e % d) + [sign], cyclotomic_polynomial(d))[1]
    return Cyclotomic(d, tuple((i, Fraction(c)) for i, c in enumerate(rem) if c))


def test_root_equals_make():
    """make's prime-by-prime descent finds the canonical form of zeta_n^k
    that the closed form reads off its order."""
    for n in range(1, 49):
        for k in range(-1, n):
            assert Cyclotomic.make(n, {k: 1}) == closed_form_root(k, n), (n, k)
            assert Cyclotomic.root(k, n) == Cyclotomic.make(n, {k: 1}), (n, k)
    rng = random.Random(24)
    for n in (56, 84, 168, 1344):
        for k in rng.sample(range(n), 10) + [n // 2, n // 3, n // 6 - 1]:
            assert Cyclotomic.make(n, {k: 1}) == closed_form_root(k, n), (n, k)
    with pytest.raises(ValueError):
        Cyclotomic.root(1, 0)


def test_largest_conductor_root_numerically():
    # zeta_1344^96 is a primitive 14th root of unity, so it lies in Q(zeta_7)
    for k, conductor in ((1, 1344), (5, 1344), (96, 7), (448, 3), (671, 1344),
                         (672, 1), (1343, 1344)):
        x = Cyclotomic.parse(f"z1344^{k}")
        assert x.conductor == conductor, k
        assert abs(numeric(x) - cmath.exp(2j * cmath.pi * k / 1344)) < 1e-9


def test_eta_matches_numeric_oracle():
    # eta = zeta_7 + zeta_7^2 + zeta_7^4 should equal (-1 + i sqrt 7) / 2
    # to at least 12 digits, evaluated independently via complex exponentials.
    target = complex(-0.5, 7 ** 0.5 / 2)
    assert abs(numeric(ETA) - target) < 1e-12
    assert abs(numeric(ETA_BAR) - target.conjugate()) < 1e-12


def test_mu_eta_arithmetic():
    assert MU + MU_BAR == Cyclotomic.from_rational(-1)
    assert ETA * ETA_BAR == Cyclotomic.from_rational(2)
    assert MU * MU == MU_BAR
    assert abs(numeric(MU) - complex(-0.5, 3 ** 0.5 / 2)) < 1e-12


def test_conjugation():
    assert ETA.conjugate() == ETA_BAR
    assert Cyclotomic.from_rational(3).conjugate() == Cyclotomic.from_rational(3)
    rng = random.Random(7)
    for _ in range(25):
        x = random_cyclotomic(rng)
        assert x.conjugate().conjugate() == x


def test_conjugation_is_a_field_automorphism():
    rng = random.Random(11)
    for _ in range(25):
        x, y = random_cyclotomic(rng), random_cyclotomic(rng)
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()


def test_canonical_forms_coincide_across_conductors():
    assert Cyclotomic.make(42, {6: 1}) == Cyclotomic.root(1, 7)
    assert Cyclotomic.make(12, {3: 1}) == Cyclotomic.root(1, 4)
    assert Cyclotomic.make(8, {2: 1}) == Cyclotomic.root(1, 4)
    assert Cyclotomic.make(6, {3: 1}) == Cyclotomic.from_rational(-1)
    # zeta_6 lies in Q(zeta_3): 1 + zeta_3
    z6 = Cyclotomic.root(1, 6)
    assert z6.conductor == 3
    assert z6 == Cyclotomic.from_rational(1) + MU
    rng = random.Random(3)
    for _ in range(20):
        x = random_cyclotomic(rng, conductors=(3, 7))
        scaled = Cyclotomic.make(21 * 2, {e * (42 // x.conductor): c for e, c in x.coeffs})
        assert scaled == x


def galois_image(n: int, parts: dict[int, Fraction], a: int = 1) -> complex:
    """sum(parts[e] * zeta_n^(a*e)) as a complex number."""
    return sum(float(c) * cmath.exp(2j * cmath.pi * a * e / n) for e, c in parts.items())


def galois_conductor(n: int, parts: dict[int, Fraction]) -> int:
    """The smallest d dividing n whose subgroup {a = 1 mod d} of the units
    mod n fixes x = sum(parts[e] * zeta_n^e): the fixed field of that
    subgroup is Q(zeta_d)."""
    x = galois_image(n, parts)
    units = [a for a in range(1, n) if gcd(a, n) == 1]
    return next(d for d in range(1, n + 1) if n % d == 0
                and all(abs(galois_image(n, parts, a) - x) < 1e-9
                        for a in units if (a - 1) % d == 0))


def test_conductor_matches_galois_criterion():
    rng = random.Random(17)
    seen = set()
    for n in (12, 24, 42, 45, 56, 60, 168):
        subfields = [d for d in range(1, n + 1) if n % d == 0]
        for _ in range(15):
            # a sum of elements of one or two subfields Q(zeta_d)
            parts: dict[int, Fraction] = {}
            for d in rng.sample(subfields, rng.randint(1, 2)):
                for _ in range(rng.randint(1, 3)):
                    e = rng.randrange(d) * (n // d)
                    parts[e] = parts.get(e, 0) + Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            x = Cyclotomic.make(n, parts)
            assert x.conductor == galois_conductor(n, parts), (n, parts)
            assert abs(numeric(x) - galois_image(n, parts)) < 1e-9
            seen.add(x.conductor)
    assert len(seen) > 10


def test_field_axioms_on_random_triples():
    rng = random.Random(5)
    for _ in range(20):
        x, y, z = (random_cyclotomic(rng) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert abs(numeric(x * y) - numeric(x) * numeric(y)) < 1e-9


def test_rendering():
    assert str(Cyclotomic.from_rational(1)) == "1"
    assert str(Cyclotomic.zero()) == "0"
    assert str(Cyclotomic.root(1, 3)) == "z3"
    assert str(ETA) == "z7 + z7^2 + z7^4"
    assert str(Cyclotomic.from_rational(Fraction(-2, 3))) == "-2/3"
    half = Cyclotomic.root(1, 3).scale(Fraction(1, 2))
    assert str(half) == "1/2*z3"


def test_parse_round_trip():
    rng = random.Random(9)
    for _ in range(30):
        x = random_cyclotomic(rng)
        assert Cyclotomic.parse(str(x)) == x
    assert Cyclotomic.parse("1/2*z3 - 1/2*z3^2") == \
        MU.scale(Fraction(1, 2)) + MU_BAR.scale(Fraction(-1, 2))
    assert Cyclotomic.parse("0") == Cyclotomic.zero()
    # a root of the largest roster order 1344 still parses
    assert Cyclotomic.parse("z1344^1344") == Cyclotomic.from_rational(1)
    # eta rendered canonically equals the root sum
    assert Cyclotomic.parse(str(ETA)) == \
        Cyclotomic.root(1, 7) + Cyclotomic.root(2, 7) + Cyclotomic.root(4, 7)
    for name in catalog.ROSTER:
        for row in catalog.table(name).rows:
            for v in row.values:
                assert Cyclotomic.parse(str(v)) == v


def test_parse_rejects_garbage():
    for bad in ("", "z", "1 +", "q3", "1/0", "1/0*z3", "2*", "z3^",
                "1e5", "1e100000000", "1e5*z3", "1.5", "1_0", "1_0*z3", "0x10",
                # root indices are plain ASCII digits
                "z1_2", "z3^0_2", "z\u0663", "z3^\u0662",
                # conductors above the largest roster order 1344
                "z1345", "z10007", "1 + z20000^3"):
        with pytest.raises(ValueError):
            Cyclotomic.parse(bad)


def test_parsed_conductor_cap_is_largest_roster_order():
    """A reference table's cells lie in Q(z_N) for its group's order N, so the
    cap admits every roster table and nothing beyond the largest of them."""
    assert MAX_PARSED_CONDUCTOR == max(e.expected_order for e in catalog.ROSTER.values())


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(7) == (1, 1, 1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def real(x: QuadSqrt2) -> float:
    return float(x.a) + float(x.b) * 2 ** 0.5


def quad_norm(x: QuadSqrt2) -> Fraction:
    """The field norm a^2 - 2*b^2."""
    return x.a * x.a - 2 * x.b * x.b


def test_quad_sqrt2_arithmetic():
    x = QuadSqrt2.of(1, 1)
    assert x * QuadSqrt2(x.a, -x.b) == QuadSqrt2.of(quad_norm(x))
    assert quad_norm(x) == -1
    rng = random.Random(13)
    for _ in range(25):
        a = QuadSqrt2(Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5)))
        b = QuadSqrt2(Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5)))
        assert quad_norm(a * b) == quad_norm(a) * quad_norm(b)
        assert abs(real(a * b) - real(a) * real(b)) < 1e-9


def test_quad_sqrt2_sign():
    assert QuadSqrt2.of(0, 1).sign() == 1
    assert QuadSqrt2.of(-3, 2).sign() == -1   # 2*sqrt(2) < 3
    assert QuadSqrt2.of(-1, 1).sign() == 1    # sqrt(2) > 1
    assert QuadSqrt2.of(3, -2).sign() == 1
    assert QuadSqrt2.of(0, 0).sign() == 0
