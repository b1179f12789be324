"""Signed permutations: monomial matrices with entries +-1.

An element of degree n sends basis vector i to ``signs[i] * (basis vector
image[i])``; indices are 0-based internally and 1-based in the text notation.

Composition convention: ``g * h`` applies g first, then h.  With matrices
acting on row vectors from the right this is the ordinary matrix product
``M(g) @ M(h)``.  Conjugation is written ``conjugate(x, g) = g * x * g**-1``
(apply g, then x, then g inverse); this is the orientation under which the
conjugation action of the catalog generators on the diagonal involutions
reproduces their quotient counterparts literally.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import lcm


@dataclass(frozen=True)
class SignedPerm:
    image: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.image)
        if sorted(self.image) != list(range(n)):
            raise ValueError("image is not a permutation")
        if len(self.signs) != n or any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be +-1, one per point")

    # -- basic structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.image)

    @staticmethod
    def identity(n: int) -> "SignedPerm":
        return SignedPerm(tuple(range(n)), (1,) * n)

    @staticmethod
    def diagonal(signs: tuple[int, ...] | list[int]) -> "SignedPerm":
        return SignedPerm(tuple(range(len(signs))), tuple(signs))

    def __mul__(self, other: "SignedPerm") -> "SignedPerm":
        """Apply self first, then other."""
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        img = tuple(other.image[j] for j in self.image)
        sgn = tuple(s * other.signs[j] for j, s in zip(self.image, self.signs))
        return SignedPerm(img, sgn)

    def inverse(self) -> "SignedPerm":
        n = self.degree
        img = [0] * n
        sgn = [1] * n
        for i, (j, s) in enumerate(zip(self.image, self.signs)):
            img[j] = i
            sgn[j] = s
        return SignedPerm(tuple(img), tuple(sgn))

    def __pow__(self, k: int) -> "SignedPerm":
        if k < 0:
            return self.inverse() ** (-k)
        result = SignedPerm.identity(self.degree)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def cycles(self):
        """Yield (points, sign) for each cycle of the underlying permutation:
        the 0-based points in walk order from the smallest, and the product of
        the signs along the cycle.  Fixed points are 1-cycles."""
        seen = [False] * self.degree
        for start in range(self.degree):
            if seen[start]:
                continue
            points = []
            sign = 1
            i = start
            while not seen[i]:
                seen[i] = True
                points.append(i)
                sign *= self.signs[i]
                i = self.image[i]
            yield tuple(points), sign

    def order(self) -> int:
        """Least k >= 1 with self**k = identity: a cycle of length l has order l
        when its sign is +1 and 2l when it is -1."""
        return lcm(*(len(points) * (1 if sign == 1 else 2) for points, sign in self.cycles()))

    def apply(self, i: int) -> tuple[int, int]:
        """Image of 0-based point i as (point, sign)."""
        return self.image[i], self.signs[i]

    def points(self) -> tuple[int, ...]:
        """The permutation of the 2n signed points, 2i = +e_i and 2i + 1 = -e_i,
        that self induces: ``(g * h).points()`` is
        ``operator.itemgetter(*g.points())(h.points())``."""
        return tuple(2 * j + (t ^ (s < 0)) for j, s in zip(self.image, self.signs)
                     for t in (0, 1))

    def key(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Canonical encoding used for ordering and deduplication."""
        return (self.image, self.signs)

    def __lt__(self, other: "SignedPerm") -> bool:
        return self.key() < other.key()

    def doubled_is_even(self) -> bool:
        """Parity of the induced permutation of the 2n points +-e_i (True = even).

        A cycle of length l with sign +1 lifts to two l-cycles (an even
        permutation); with sign -1 it lifts to one 2l-cycle (an odd one).
        """
        return sum(1 for _, sign in self.cycles() if sign == -1) % 2 == 0

    # -- text notation ------------------------------------------------------

    _TOKEN = re.compile(r"-?e[0-9]+")
    _CYCLES = re.compile(r"(\s*\([^()]*\))*\s*")

    @staticmethod
    def parse(text: str) -> "SignedPerm":
        """Parse signed-cycle notation like ``(e1 -e5)(e2 -e3 e4 -e7 -e2 e3 -e4 e7)``
        into a degree-7 signed permutation.

        Each listed signed point maps to the next in its cycle (the last wraps
        to the first); unmentioned points are fixed with sign +1.  Only
        whitespace may stand between and around the cycles.  Listing both
        signed orbits of one underlying point is allowed when consistent.
        """
        mapping: dict[int, tuple[int, int]] = {}

        def record(i: int, si: int, j: int, sj: int) -> None:
            target = (j, si * sj)
            if i in mapping and mapping[i] != target:
                raise ValueError(f"inconsistent images for point {i + 1}")
            mapping[i] = target

        if not SignedPerm._CYCLES.fullmatch(text):
            raise ValueError(f"not a product of cycles: {text!r}")
        for cycle in re.findall(r"\(([^()]*)\)", text):
            entries = []
            for token in cycle.replace(",", " ").split():
                if not SignedPerm._TOKEN.fullmatch(token):
                    raise ValueError(f"bad token {token!r}")
                sign = -1 if token.startswith("-") else 1
                idx = int(token[2:]) if sign < 0 else int(token[1:])
                if not 1 <= idx <= 7:
                    raise ValueError(f"index {idx} out of range for degree 7")
                entries.append((idx - 1, sign))
            for (i, si), (j, sj) in zip(entries, entries[1:] + entries[:1]):
                record(i, si, j, sj)
        img = list(range(7))
        sgn = [1] * 7
        for i, (j, s) in mapping.items():
            img[i] = j
            sgn[i] = s
        return SignedPerm(tuple(img), tuple(sgn))

    def __str__(self) -> str:
        """Signed-cycle notation; a cycle with sign -1 is written over two laps."""
        cycles = []
        for points, sign in self.cycles():
            if len(points) == 1 and sign == 1:
                continue
            entries = []
            s = 1
            for i in points * (1 if sign == 1 else 2):
                entries.append(f"-e{i + 1}" if s < 0 else f"e{i + 1}")
                s *= self.signs[i]
            cycles.append("(" + " ".join(entries) + ")")
        return "".join(cycles) if cycles else "()"


def conjugate(x: SignedPerm, g: SignedPerm) -> SignedPerm:
    """g * x * g**-1 in the apply-left-first convention."""
    return g * x * g.inverse()
