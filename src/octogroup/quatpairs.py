"""Quaternions over Q(sqrt(2)), the binary octahedral group, and its pair group.

The 48 unit quaternions of the binary octahedral group split into six cosets
of the quaternion group V0 = {+-1, +-e1, +-e2, +-e3}.  Pairs [p, q] acting by
h -> p h q and preserving V0 form a group of order 192 (after identifying
[p, q] with [-p, -q]); mapping the 3-dimensional conjugation action on
(e1, e2, e3) together with the 4-dimensional action on e7 * (1, e1, e2, e3)
= (e7, e4, e5, e6) yields degree-7 signed permutations.

The 48 elements are indexed once (``quaternion_index``): a fixed order, the
coset label, negation and inverse maps, the sign ``QuaternionPair.of``
canonicalizes on, and a 48 x 48 product table.  ``Quaternion`` over
``QuadSqrt2`` is the exact definition of the elements; the table is computed
over the integers from their doubles, whose coordinates lie in Z[sqrt(2)],
and a product outside the group raises KeyError.  A pair [p, q] is the
canonical index pair (index of p, index of q).  The pair group, the degree-7
images, the coset check and the checks over all 192 x 192 pair products and
the pair involutions all read products off the table; the homomorphism check
composes the images as permutations of the 14 signed points.
``QuaternionPair`` keeps the exact form as the reference the tests compare
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from operator import itemgetter

from .octonion import unit_product
from .scalars import QuadSqrt2, QUAD_ZERO, QUAD_ONE
from .signedperm import SignedPerm

COSET_NAMES = ("V0", "V+", "V-", "V1", "V2", "V3")

# multiplication of cosets (row = left factor); verified elementwise in coset_table()
COSET_TABLE: dict[tuple[str, str], str] = {}
for _row, _vals in zip(COSET_NAMES, (
    ("V0", "V+", "V-", "V1", "V2", "V3"),
    ("V+", "V-", "V0", "V3", "V1", "V2"),
    ("V-", "V0", "V+", "V2", "V3", "V1"),
    ("V1", "V2", "V3", "V0", "V+", "V-"),
    ("V2", "V3", "V1", "V-", "V0", "V+"),
    ("V3", "V1", "V2", "V+", "V-", "V0"),
)):
    for _col, _val in zip(COSET_NAMES, _vals):
        COSET_TABLE[(_row, _col)] = _val

# the coset of q = conj(V0 p V0) paired with each coset of p
PAIRED_COSET = {"V0": "V0", "V+": "V-", "V-": "V+", "V1": "V1", "V2": "V2", "V3": "V3"}


@dataclass(frozen=True)
class Quaternion:
    """Quaternion over Q(sqrt(2)) on the basis (1, e1, e2, e3), which multiply
    as the octonion units do: (1, 2, 3) is a line of the Fano plane."""

    coeffs: tuple[QuadSqrt2, QuadSqrt2, QuadSqrt2, QuadSqrt2]

    @staticmethod
    def unit(i: int) -> "Quaternion":
        coeffs = [QUAD_ZERO] * 4
        coeffs[i] = QUAD_ONE
        return Quaternion(tuple(coeffs))

    def __neg__(self) -> "Quaternion":
        return Quaternion(tuple(-a for a in self.coeffs))

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        out = [QUAD_ZERO] * 4
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if b.is_zero():
                    continue
                c = a * b
                k, s = unit_product(i, j)
                out[k] = out[k] + (c if s > 0 else -c)
        return Quaternion(tuple(out))

    def conjugate(self) -> "Quaternion":
        return Quaternion((self.coeffs[0],) + tuple(-c for c in self.coeffs[1:]))

    def norm(self) -> QuadSqrt2:
        total = QUAD_ZERO
        for c in self.coeffs:
            total = total + c * c
        return total


@lru_cache(maxsize=1)
def binary_octahedral() -> dict[Quaternion, str]:
    """The 48 unit quaternions, mapped to their coset labels."""
    elements: dict[Quaternion, str] = {}

    def put(q: Quaternion, label: str) -> None:
        if q in elements or q.norm() != QUAD_ONE:
            raise AssertionError("repeated or non-unit binary octahedral element")
        elements[q] = label

    for i in range(4):
        for s in (1, -1):
            coeffs = [QUAD_ZERO] * 4
            coeffs[i] = QuadSqrt2.of(s)
            put(Quaternion(tuple(coeffs)), "V0")
    for signs in product((1, -1), repeat=4):
        q = Quaternion(tuple(QuadSqrt2.of(Fraction(s, 2)) for s in signs))
        put(q, "V+" if signs.count(1) % 2 == 0 else "V-")
    half = Fraction(1, 2)
    for i in (1, 2, 3):
        label = f"V{i}"
        j, k = [x for x in (1, 2, 3) if x != i]
        for s0, si in product((1, -1), repeat=2):
            coeffs = [QUAD_ZERO] * 4
            coeffs[0] = QuadSqrt2.of(0, s0 * half)
            coeffs[i] = QuadSqrt2.of(0, si * half)
            put(Quaternion(tuple(coeffs)), label)
        for sj, sk in product((1, -1), repeat=2):
            coeffs = [QUAD_ZERO] * 4
            coeffs[j] = QuadSqrt2.of(0, sj * half)
            coeffs[k] = QuadSqrt2.of(0, sk * half)
            put(Quaternion(tuple(coeffs)), label)
    if len(elements) != 48:
        raise AssertionError("binary octahedral group does not have 48 elements")
    return elements


def verify_coset_table() -> bool:
    """Compare the coset of each of the 48 x 48 elementwise products with the table."""
    index = quaternion_index()
    label = index.label
    return all(label[k] == COSET_TABLE[(label[i], label[j])]
               for i, row in enumerate(index.mul) for j, k in enumerate(row))


@dataclass(frozen=True)
class QuaternionPair:
    """The SO(4) element h -> p h q, stored with the sign of p canonicalized:
    the exact form of an index pair, kept as the reference for tests."""

    p: Quaternion
    q: Quaternion

    @staticmethod
    def of(p: Quaternion, q: Quaternion) -> "QuaternionPair":
        for c in p.coeffs:
            s = c.sign()
            if s < 0:
                return QuaternionPair(-p, -q)
            if s > 0:
                return QuaternionPair(p, q)
        raise ValueError("zero quaternion in a pair")

    def __mul__(self, other: "QuaternionPair") -> "QuaternionPair":
        """Apply self first, then other: h -> p' (p h q) q'."""
        return QuaternionPair.of(other.p * self.p, self.q * other.q)


IndexPair = tuple[int, int]


def doubled(q: Quaternion) -> tuple[tuple[int, int], ...]:
    """2q as integer pairs (a, b), one per coordinate 2q_i = a + b sqrt(2);
    ValueError unless every coordinate of q lies in 1/2 Z[sqrt(2)]."""
    pairs = [(2 * c.a, 2 * c.b) for c in q.coeffs]
    if any(x.denominator != 1 for ab in pairs for x in ab):
        raise ValueError("a coordinate lies outside 1/2 Z[sqrt(2)]")
    return tuple((int(a), int(b)) for a, b in pairs)


class QuaternionIndex:
    """The binary octahedral group in the order of ``binary_octahedral()``."""

    def __init__(self) -> None:
        group = binary_octahedral()
        self.elements: tuple[Quaternion, ...] = tuple(group)
        self.label: tuple[str, ...] = tuple(group.values())
        self.position: dict[Quaternion, int] = {q: i for i, q in enumerate(self.elements)}
        self.neg: tuple[int, ...] = tuple(self.position[-q] for q in self.elements)
        self.inverse: tuple[int, ...] = tuple(self.position[q.conjugate()] for q in self.elements)
        # QuaternionPair.of keeps [p, q] when the first nonzero coefficient of p is positive
        self.positive: tuple[bool, ...] = tuple(
            next(s for s in (c.sign() for c in q.coeffs) if s) > 0 for q in self.elements)
        # basis[i] is the index of e_i (e_0 = 1); units maps the index of +-e_i to (i, +-1)
        self.basis: tuple[int, ...] = tuple(self.position[Quaternion.unit(i)] for i in range(4))
        self.units: dict[int, tuple[int, int]] = {
            **{e: (i, 1) for i, e in enumerate(self.basis)},
            **{self.neg[e]: (i, -1) for i, e in enumerate(self.basis)}}

    @cached_property
    def mul(self) -> tuple[tuple[int, ...], ...]:
        """mul[i][j] is the index of elements[i] * elements[j].  (2p)(2q) = 4pq
        sums the ``unit_product`` terms (a + b sqrt2)(c + d sqrt2) =
        (ac + 2bd) + (ad + bc) sqrt2 over the nonzero coordinates of the
        doubles, and is looked up among the doubled doubles 2 (2r)."""
        double = [doubled(q) for q in self.elements]
        position = {tuple(2 * x for ab in d for x in ab): i for i, d in enumerate(double)}
        nonzero = [[(i, a, b) for i, (a, b) in enumerate(d) if a or b] for d in double]

        def times(x, y):
            out = [0] * 8
            for i, a, b in x:
                for j, c, d in y:
                    k, s = unit_product(i, j)
                    out[2 * k] += s * (a * c + 2 * b * d)
                    out[2 * k + 1] += s * (a * d + b * c)
            return tuple(out)
        return tuple(tuple(position[times(x, y)] for y in nonzero) for x in nonzero)

    def pair(self, p: int, q: int) -> IndexPair:
        """The canonical index pair of [elements[p], elements[q]]."""
        return (p, q) if self.positive[p] else (self.neg[p], self.neg[q])

    def unit_pair(self, i: int, sign: int = 1) -> IndexPair:
        """The index pair of [e_i, sign * e_i], where e_0 = 1."""
        e = self.basis[i]
        return self.pair(e, e if sign > 0 else self.neg[e])

    def pair_product(self, a: IndexPair, b: IndexPair) -> IndexPair:
        """Index form of ``QuaternionPair.__mul__``: apply a first, then b."""
        mul = self.mul
        return self.pair(mul[b[0]][a[0]], mul[a[1]][b[1]])


@lru_cache(maxsize=1)
def quaternion_index() -> QuaternionIndex:
    return QuaternionIndex()


@lru_cache(maxsize=1)
def pair_group() -> tuple[IndexPair, ...]:
    """The 192 canonical index pairs [p, q] preserving V0: each p whose canonical
    sign is positive, with each q in the coset paired with the coset of p."""
    index = quaternion_index()
    label = index.label
    return tuple((p, q) for p in range(len(label)) if index.positive[p]
                 for q in range(len(label)) if label[q] == PAIRED_COSET[label[p]])


# octonion indices of e7 * (1, e1, e2, e3) = (e7, e4, e5, e6), all with sign +1
_FOUR_BLOCK = tuple(unit_product(7, i)[0] for i in range(4))
if any(unit_product(7, i)[1] != 1 for i in range(4)):
    raise AssertionError("e7 * (1, e1, e2, e3) has a negative sign")


def pair_to_signedperm7(pair: IndexPair) -> SignedPerm:
    """Degree-7 signed permutation of the index pair [p, q]: conjugation by p on
    (e1, e2, e3) and h -> p h q on the block (e7, e4, e5, e6), read off the table."""
    index = quaternion_index()
    mul, basis, units = index.mul, index.basis, index.units
    p, q = pair
    img = [0] * 7
    sgn = [1] * 7
    for i in (1, 2, 3):
        k, sgn[i - 1] = units[mul[mul[p][basis[i]]][index.inverse[p]]]
        img[i - 1] = k - 1
    for i, oct_idx in enumerate(_FOUR_BLOCK):
        unit = units.get(mul[mul[p][basis[i]]][q])
        if unit is None:
            raise ValueError("pair does not preserve the quaternion group V0")
        img[oct_idx - 1] = _FOUR_BLOCK[unit[0]] - 1
        sgn[oct_idx - 1] = unit[1]
    return SignedPerm(tuple(img), tuple(sgn))


@lru_cache(maxsize=1)
def pair_images() -> dict[IndexPair, SignedPerm]:
    """The degree-7 image of each pair of ``pair_group()``."""
    return {pair: pair_to_signedperm7(pair) for pair in pair_group()}


def is_homomorphism(images: dict[IndexPair, SignedPerm]) -> bool:
    """images[a * b] == images[a] * images[b] for every ordered pair of keys,
    with a * b read off the product table and each image taken as its
    permutation of the 14 signed points (``SignedPerm.points``)."""
    pair_product = quaternion_index().pair_product
    points = {a: g.points() for a, g in images.items()}
    then = {a: itemgetter(*pa) for a, pa in points.items()}
    return all(points[pair_product(a, b)] == then[a](pb)
               for a in points for b, pb in points.items())
