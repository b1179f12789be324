import random
from fractions import Fraction

import pytest

from octogroup.octonion import is_algebra_automorphism
from octogroup.quatpairs import (
    COSET_NAMES,
    COSET_TABLE,
    PAIRED_COSET,
    Quaternion,
    QuaternionIndex,
    QuaternionPair,
    binary_octahedral,
    doubled,
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
zero = QuadSqrt2.of(0)


def coset_of(q: Quaternion) -> str:
    group = binary_octahedral()
    if q not in group:
        raise ValueError("quaternion is not in the binary octahedral group")
    return group[q]


def coset_product(s: str, t: str) -> str:
    if s not in COSET_NAMES or t not in COSET_NAMES:
        raise ValueError(f"unknown coset label: {s!r} / {t!r}")
    return COSET_TABLE[(s, t)]


def test_quaternion_units():
    e1, e2, e3 = Quaternion.unit(1), Quaternion.unit(2), Quaternion.unit(3)
    assert e1 * e2 == e3
    assert e2.conjugate() == -e2
    assert (e1 * e1) == -Quaternion.unit(0)


def test_order_eight_element():
    # (1 + e1)/sqrt(2) has order 8
    q = Quaternion((QuadSqrt2.of(0, half), QuadSqrt2.of(0, half), zero, zero))
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
    q = Quaternion((QuadSqrt2.of(half),) * 4)
    assert coset_of(q) == "V+"
    r = Quaternion((zero, zero, QuadSqrt2.of(0, half), QuadSqrt2.of(0, half)))
    assert coset_of(r) == "V1"
    assert coset_of(Quaternion.unit(0)) == "V0"
    with pytest.raises(ValueError):
        coset_of(Quaternion((QuadSqrt2.of(2), zero, zero, zero)))


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


def _exact(pair):
    index = quaternion_index()
    return QuaternionPair(index.elements[pair[0]], index.elements[pair[1]])


def _indexed(g):
    index = quaternion_index()
    return index.position[g.p], index.position[g.q]


def test_pair_group_size():
    pairs = pair_group()
    assert len(pairs) == 192
    # the same set as canonicalizing every exact pair of paired cosets
    members = {name: [q for q, label in binary_octahedral().items() if label == name]
               for name in COSET_NAMES}
    exact = {_indexed(QuaternionPair.of(p, q)) for p_label, q_label in PAIRED_COSET.items()
             for p in members[p_label] for q in members[q_label]}
    assert set(pairs) == exact


def test_pair_canonicalization():
    one = Quaternion.unit(0)
    assert QuaternionPair.of(one, one) == QuaternionPair.of(-one, -one)


def test_pair_images():
    index = quaternion_index()
    assert pair_to_signedperm7(index.unit_pair(0)) == SignedPerm.identity(7)
    n1 = catalog.generator("N1")
    assert pair_to_signedperm7(index.unit_pair(0, -1)) == n1
    one = index.basis[0]
    with pytest.raises(ValueError):
        pair_to_signedperm7((one, index.label.index("V+")))


def _exact_unit(q):
    """(basis index, sign) of q = +-e_i."""
    (i, c), = [(i, c) for i, c in enumerate(q.coeffs) if not c.is_zero()]
    assert c in (QuadSqrt2.of(1), QuadSqrt2.of(-1))
    return i, c.sign()


def test_images_match_exact_products():
    four_block = (6, 3, 4, 5)  # 0-based octonion points of e7 * (1, e1, e2, e3)
    for pair in pair_group():
        g = _exact(pair)
        img, sgn = [0] * 7, [1] * 7
        for i in (1, 2, 3):
            k, sgn[i - 1] = _exact_unit(g.p * Quaternion.unit(i) * g.p.conjugate())
            img[i - 1] = k - 1
        for i, point in enumerate(four_block):
            k, sgn[point] = _exact_unit(g.p * Quaternion.unit(i) * g.q)
            img[point] = four_block[k]
        assert pair_to_signedperm7(pair) == SignedPerm(tuple(img), tuple(sgn)), pair


def test_homomorphism_sample():
    rng = random.Random(0)
    sample = rng.sample(pair_group(), 16)
    for a in sample:
        for b in sample:
            ab = _indexed(_exact(a) * _exact(b))
            assert pair_to_signedperm7(ab) == pair_to_signedperm7(a) * pair_to_signedperm7(b)


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


def test_doubled_coordinates():
    for q in quaternion_index().elements:
        assert [QuadSqrt2.of(a, b) for a, b in doubled(q)] == [QuadSqrt2.of(2) * c
                                                               for c in q.coeffs]
    with pytest.raises(ValueError):
        doubled(Quaternion((QuadSqrt2.of(Fraction(1, 3)), zero, zero, zero)))
    with pytest.raises(ValueError):
        doubled(Quaternion((zero, zero, QuadSqrt2.of(1, Fraction(1, 4)), zero)))


def test_product_outside_the_table_raises():
    index = QuaternionIndex()
    index.elements = index.elements[1:]  # drop 1, which e1 * -e1 gives
    assert Quaternion.unit(0) not in index.elements
    with pytest.raises(KeyError):
        index.mul


def test_index_pair_product_matches_pair_product():
    index = quaternion_index()
    rng = random.Random(7)
    pairs = pair_group()
    for _ in range(200):
        a, b = rng.choice(pairs), rng.choice(pairs)
        assert index.pair_product(a, b) == _indexed(_exact(a) * _exact(b))
    one = Quaternion.unit(0)
    assert index.unit_pair(0, -1) == _indexed(QuaternionPair.of(-one, one))


def test_homomorphism_check_detects_one_flipped_sign():
    images = dict(pair_images())
    assert len(images) == 192
    assert is_homomorphism(images)
    key = sorted(images)[100]
    g = images[key]
    images[key] = SignedPerm(g.image, (-g.signs[0],) + g.signs[1:])
    assert not is_homomorphism(images)


def test_homomorphism_check_detects_two_swapped_images():
    images = dict(pair_images())
    a, b = sorted(images)[100:102]
    images[a], images[b] = images[b], images[a]
    assert not is_homomorphism(images)


def test_pair_image_group_generators():
    group = catalog.pair_image_group()
    assert group.order == 192
    assert close(list(group.generators)).elements == group.elements
    assert len(group.generators) < 64
