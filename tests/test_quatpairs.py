import random
from fractions import Fraction

import pytest

from octogroup.octonion import is_algebra_automorphism
from octogroup.quatpairs import (
    COSET_NAMES,
    Quaternion,
    QuaternionPair,
    binary_octahedral,
    coset_of,
    coset_product,
    is_homomorphism,
    pair_group,
    pair_images,
    pair_to_signedperm7,
    quaternion_index,
    verify_coset_table,
)
from octogroup.scalars import QuadSqrt2
from octogroup.signedperm import SignedPerm
from octogroup import catalog
from octogroup.groups import close

half = Fraction(1, 2)


def test_quaternion_units():
    e1, e2, e3 = Quaternion.unit(1), Quaternion.unit(2), Quaternion.unit(3)
    assert e1 * e2 == e3
    assert e2.conjugate() == -e2
    assert (e1 * e1) == -Quaternion.unit(0)


def test_order_eight_element():
    # (1 + e1)/sqrt(2) has order 8
    q = Quaternion.of(QuadSqrt2.of(0, half), QuadSqrt2.of(0, half))
    power = Quaternion.unit(0)
    orders = []
    for k in range(1, 9):
        power = power * q
        orders.append(power == Quaternion.unit(0))
    assert orders == [False] * 7 + [True]


def test_binary_octahedral_counts():
    group = binary_octahedral()
    assert len(group) == 48
    for name in COSET_NAMES:
        assert sum(1 for v in group.values() if v == name) == 8


def test_specific_cosets():
    q = Quaternion.of(half, half, half, half)
    assert coset_of(q) == "V+"
    r = Quaternion.of(QuadSqrt2.of(0), QuadSqrt2.of(0),
                      QuadSqrt2.of(0, half), QuadSqrt2.of(0, half))
    assert coset_of(r) == "V1"
    assert coset_of(Quaternion.unit(0)) == "V0"
    with pytest.raises(ValueError):
        coset_of(Quaternion.of(2))


def test_coset_products():
    assert coset_product("V+", "V+") == "V-"
    assert coset_product("V0", "V2") == "V2"
    assert coset_product("V1", "V2") == "V+"
    with pytest.raises(ValueError):
        coset_product("V9", "V0")


def test_coset_table_elementwise():
    assert verify_coset_table()


def test_closure_and_identity_coset():
    group = binary_octahedral()
    for a in list(group)[:8]:
        for b in list(group)[:8]:
            assert a * b in group


def test_pair_group_size():
    assert len(pair_group()) == 192


def test_pair_canonicalization():
    one = Quaternion.unit(0)
    assert QuaternionPair.of(one, one) == QuaternionPair.of(-one, -one)


def test_pair_images():
    one = Quaternion.unit(0)
    assert pair_to_signedperm7(QuaternionPair.of(one, one)) == SignedPerm.identity(7)
    n1 = catalog.generator("N1")
    assert pair_to_signedperm7(QuaternionPair.of(one, -one)) == n1


def test_homomorphism_sample():
    rng = random.Random(0)
    pairs = pair_group()
    sample = rng.sample(pairs, 16)
    for a in sample:
        for b in sample:
            assert pair_to_signedperm7(a * b) == pair_to_signedperm7(a) * pair_to_signedperm7(b)


def test_image_is_automorphism_group():
    image = {pair_to_signedperm7(g) for g in pair_group()}
    assert len(image) == 192
    assert all(is_algebra_automorphism(g) for g in image)


def test_image_conjugate_to_ab_group():
    img = catalog.build("2^3.S4-pairs")
    ab = catalog.build("2^3.S4")
    big = catalog.build("2^3.PSL2(7)")
    from octogroup.groups import find_conjugating_element
    assert set(img.elements) != set(ab.elements)
    assert find_conjugating_element(big, img, ab) is not None


def test_pair_group_classes():
    group = catalog.build("2^3.S4-pairs")
    assert len(group.classes) == 13


def test_index_table_matches_exact_products():
    index = quaternion_index()
    elements = index.elements
    assert len(elements) == 48
    for i, a in enumerate(elements):
        assert elements[index.neg[i]] == -a
        for j, b in enumerate(elements):
            assert elements[index.mul[i][j]] == a * b


def test_index_pair_product_matches_pair_product():
    index = quaternion_index()
    rng = random.Random(7)
    pairs = pair_group()
    for _ in range(200):
        a, b = rng.choice(pairs), rng.choice(pairs)
        assert index.pair_product(index.pair_of(a), index.pair_of(b)) == index.pair_of(a * b)
    one = Quaternion.unit(0)
    assert index.unit_pair(0, -1) == index.pair_of(QuaternionPair.of(-one, one))


def test_homomorphism_check_detects_one_flipped_sign():
    images = dict(pair_images())
    assert len(images) == 192
    assert is_homomorphism(images)
    key = sorted(images)[100]
    g = images[key]
    images[key] = SignedPerm(g.image, (-g.signs[0],) + g.signs[1:])
    assert not is_homomorphism(images)


def test_pair_image_group_generators():
    group = catalog.pair_image_group()
    assert group.order == 192
    assert close(list(group.generators)).elements == group.elements
    assert len(group.generators) < 64
