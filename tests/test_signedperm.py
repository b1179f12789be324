import random
from operator import itemgetter

import pytest

from octogroup.signedperm import SignedPerm, conjugate
from octogroup import catalog


def rand_perm(rng: random.Random, n: int = 7) -> SignedPerm:
    img = list(range(n))
    rng.shuffle(img)
    return SignedPerm(tuple(img), tuple(rng.choice((1, -1)) for _ in range(n)))


def test_identity_composition():
    g = catalog.generator("theta")
    e = SignedPerm.identity(7)
    assert e * g == g
    assert g * e == g


def test_compose_examples():
    # gamma-tilde composed with delta is the diagonal involution N6
    gt, d = catalog.generator("gamma_t"), catalog.generator("delta")
    n = catalog.diagonal_involutions()
    assert gt * d == d * gt == n[6]
    assert n[1] * n[2] == n[2] * n[1] == n[3]


def test_inverse_examples():
    n1 = catalog.generator("N1")
    assert n1.inverse() == n1
    a = catalog.generator("alpha")
    assert a.inverse() == a ** 6
    e = SignedPerm.identity(7)
    assert e.inverse() == e


def test_orders():
    assert catalog.generator("theta").order() == 8
    assert catalog.generator("A").order() == 6
    assert catalog.generator("B").order() == 4
    assert catalog.generator("delta").order() == 2
    assert catalog.generator("alpha").order() == 7
    assert catalog.generator("beta").order() == 3


def test_parse_examples():
    d = SignedPerm.parse("(e1 -e5)(e2)(e3 -e7)(e4)(e6)")
    assert d * d == SignedPerm.identity(7)
    assert d.apply(0) == (4, -1)
    a = SignedPerm.parse("(e1 e2 e4 e3 e6 e5 e7)")
    assert a.order() == 7
    assert SignedPerm.parse("") == SignedPerm.identity(7)
    assert SignedPerm.parse("()") == SignedPerm.identity(7)


def test_parse_double_cover_consistency():
    theta = SignedPerm.parse("(e1 -e5)(e2 -e3 e4 -e7 -e2 e3 -e4 e7)(e6 -e6)")
    assert theta.order() == 8
    assert theta.apply(1) == (2, -1)
    assert theta.apply(6) == (1, 1)


def test_parse_errors():
    with pytest.raises(ValueError):
        SignedPerm.parse("(e1 e2)(e1 e3)")  # point mapped twice, incompatibly
    with pytest.raises(ValueError):
        SignedPerm.parse("(e1 -e1 e2)")  # 1 -> -1 and -1 -> 2 conflict
    with pytest.raises(ValueError):
        SignedPerm.parse("(e9)")
    with pytest.raises(ValueError):
        SignedPerm.parse("(e1 x2)")
    for text in ("e1 e2", "(e1 e2) junk", "x(e1 e2)", "(e1 e2)e3", "((e1 e2))", "(e1 e2",
                 "(e\u0661 e2)"):
        with pytest.raises(ValueError):
            SignedPerm.parse(text)


def is_diagonal(g: SignedPerm) -> bool:
    return g.image == tuple(range(g.degree))


def elements_1344():
    """Every element of the two order-1344 groups."""
    return [g for name in ("2^3.PSL2(7)", "2^3:PSL2(7)") for g in catalog.build(name).elements]


def test_render_round_trip_for_generators():
    for name in ("alpha", "beta", "gamma", "theta", "delta", "A", "B", "alpha_t", "beta_t",
                 "gamma_t", "theta_t", "A_t", "B_t", "N1", "N2", "N7"):
        g = catalog.generator(name)
        assert SignedPerm.parse(str(g)) == g
    for g in elements_1344():
        assert SignedPerm.parse(str(g)) == g


def test_underlying_and_diagonal():
    n5 = catalog.diagonal_involutions()[5]
    assert is_diagonal(n5)
    assert not is_diagonal(catalog.generator("gamma"))
    theta = catalog.generator("theta")
    underlying = SignedPerm(theta.image, (1,) * 7)
    assert underlying == SignedPerm.parse("(e1 e5)(e2 e3 e4 e7)")


def test_group_axioms_random():
    rng = random.Random(21)
    for _ in range(30):
        a, b, c = (rand_perm(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * a.inverse() == SignedPerm.identity(7)
        assert a.inverse() * a == SignedPerm.identity(7)


def matrix(g: SignedPerm) -> list[list[int]]:
    """Row i holds the image of basis vector i."""
    rows = [[0] * g.degree for _ in range(g.degree)]
    for i, (j, s) in enumerate(zip(g.image, g.signs)):
        rows[i][j] = s
    return rows


def test_matrix_convention():
    # composition corresponds to the matrix product for row-vector action
    rng = random.Random(4)
    for _ in range(10):
        a, b = rand_perm(rng), rand_perm(rng)
        ma, mb = matrix(a), matrix(b)
        prod = [[sum(ma[i][k] * mb[k][j] for k in range(7)) for j in range(7)]
                for i in range(7)]
        assert prod == matrix(a * b)


def test_order_divides_group_order():
    group = catalog.build("2^3.S4")
    assert all(group.order % g.order() == 0 for g in group.generators)
    # the order read off the signed cycles equals the least k with g**k = 1,
    # found by repeated multiplication
    e = SignedPerm.identity(7)
    for g in elements_1344():
        k, power = 1, g
        while power != e:
            k, power = k + 1, power * g
        assert g.order() == k


def test_conjugate_orientation():
    # conjugating N1 by alpha walks the printed 7-cycle of diagonals
    n = catalog.diagonal_involutions()
    a = catalog.generator("alpha")
    assert conjugate(n[1], a) == n[2]
    assert conjugate(n[2], a) == n[4]


def is_even(perm) -> bool:
    """Parity of a permutation of 0..n-1 by counting inversions."""
    return sum(1 for a in range(len(perm)) for b in range(a) if perm[b] > perm[a]) % 2 == 0


def test_doubled_parity():
    assert SignedPerm.identity(7).doubled_is_even()
    n1 = catalog.generator("N1")
    assert n1.doubled_is_even()  # four sign flips
    single_flip = SignedPerm.diagonal([-1, 1, 1, 1, 1, 1, 1])
    assert not single_flip.doubled_is_even()
    # against the parity of the explicit permutation of the 14 points +-e_i,
    # point 2i standing for +e_i and 2i + 1 for -e_i
    for g in elements_1344() + [single_flip]:
        image = [0] * 14
        for i, (j, s) in enumerate(zip(g.image, g.signs)):
            image[2 * i] = 2 * j + (s < 0)
            image[2 * i + 1] = 2 * j + (s > 0)
        assert g.doubled_is_even() == is_even(image)
        assert g.points() == tuple(image)


@pytest.mark.parametrize("n", [7, 2])
def test_points_compose_like_signed_perms(n):
    rng = random.Random(n)
    for _ in range(100):
        g, h = rand_perm(rng, n), rand_perm(rng, n)
        points = g.points()
        assert sorted(points) == list(range(2 * n))
        assert (g * h).points() == itemgetter(*points)(h.points())
        inverse = g.inverse().points()
        assert all(inverse[points[x]] == x for x in range(2 * n))
        assert all(points[x ^ 1] == points[x] ^ 1 for x in range(2 * n))
        assert is_even(points) == g.doubled_is_even()


def test_degree_mismatch():
    with pytest.raises(ValueError):
        SignedPerm.identity(7) * SignedPerm.identity(6)
