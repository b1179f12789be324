"""Exact octonion algebra over the rationals.

The seven imaginary units multiply through the completely antisymmetric
structure constants phi_ijk, generated from the seven seed triples below
(the lines of the Fano plane) and their cyclic rotations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .scalars import signed_sum, signed_terms
from .signedperm import SignedPerm

FANO_LINES: tuple[tuple[int, int, int], ...] = (
    (1, 2, 3), (2, 4, 6), (4, 3, 5), (3, 6, 7), (6, 5, 1), (5, 7, 2), (7, 1, 4),
)


def _build_unit_table() -> dict[tuple[int, int], tuple[int, int]]:
    """(i, j) -> (k, sign) with e_i e_j = sign * e_k, for distinct i, j in 1..7."""
    table: dict[tuple[int, int], tuple[int, int]] = {}
    for i, j, k in FANO_LINES:
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for key, val in (((a, b), (c, 1)), ((b, a), (c, -1))):
                if key in table and table[key] != val:
                    raise AssertionError("inconsistent Fano seed triples")
                table[key] = val
    # Fano property: every unordered pair lies on exactly one line
    if len(table) != 42:
        raise AssertionError("Fano seed triples miss an unordered pair")
    return table


_UNIT_TABLE = _build_unit_table()


def unit_product(i: int, j: int) -> tuple[int, int]:
    """(k, sign) with e_i e_j = sign * e_k for i, j in 0..7, where e_0 = 1."""
    if i == 0 or j == 0:
        return i + j, 1
    if i == j:
        return 0, -1
    return _UNIT_TABLE[(i, j)]


def structure_constant(i: int, j: int, k: int) -> int:
    """phi_ijk in {-1, 0, +1} for i, j, k in 1..7."""
    if len({i, j, k}) < 3:
        return 0
    kk, s = _UNIT_TABLE[(i, j)]
    return s if kk == k else 0


@dataclass(frozen=True)
class Octonion:
    """Rational octonion over the basis (1, e1, ..., e7)."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != 8:
            raise ValueError("octonion needs 8 coefficients")

    @staticmethod
    def unit(i: int) -> "Octonion":
        """1 for i = 0, else e_i."""
        coeffs = [Fraction(0)] * 8
        coeffs[i] = Fraction(1)
        return Octonion(tuple(coeffs))

    @staticmethod
    def zero() -> "Octonion":
        return Octonion((Fraction(0),) * 8)

    def __add__(self, other: "Octonion") -> "Octonion":
        return Octonion(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Octonion") -> "Octonion":
        return Octonion(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, q: Fraction | int) -> "Octonion":
        q = Fraction(q)
        return Octonion(tuple(q * a for a in self.coeffs))

    def __mul__(self, other: "Octonion") -> "Octonion":
        out = [Fraction(0)] * 8
        a, b = self.coeffs, other.coeffs
        for i in range(8):
            if not a[i]:
                continue
            for j in range(8):
                if not b[j]:
                    continue
                k, s = unit_product(i, j)
                out[k] += s * a[i] * b[j]
        return Octonion(tuple(out))

    def __str__(self) -> str:
        return signed_sum([(c, f"e{i}" if i else "") for i, c in enumerate(self.coeffs)])

    @staticmethod
    def parse(text: str) -> "Octonion":
        """Parse expressions like ``e1``, ``-e3``, ``1/2*e2 + e7 - 3``."""
        total = Octonion.zero()
        for coeff, atom in signed_terms(text):
            if not atom:
                idx = 0
            elif re.fullmatch(r"e[0-9]+", atom):
                idx = int(atom[1:])
                if not 1 <= idx <= 7:
                    raise ValueError(f"unit index {idx} out of range")
            else:
                raise ValueError(f"bad octonion term {atom!r}")
            total = total + Octonion.unit(idx).scale(coeff)
        return total


def associator(a: Octonion, b: Octonion, c: Octonion) -> Octonion:
    """(a*b)*c - a*(b*c)."""
    return (a * b) * c - a * (b * c)


def triad_type(i: int, j: int, k: int) -> str:
    """'associative' or 'anti_associative' for distinct unit indices."""
    if len({i, j, k}) < 3:
        raise ValueError("triad indices must be pairwise distinct")
    return "associative" if structure_constant(i, j, k) != 0 else "anti_associative"


def is_algebra_automorphism(g: SignedPerm) -> bool:
    """Does g (acting linearly, fixing 1, e_i -> sign*e_image) preserve the product?"""
    if g.degree != 7:
        raise ValueError("octonion automorphism test needs degree 7")
    for i in range(1, 8):
        for j in range(1, 8):
            if i == j:
                continue  # e_i^2 = -1 is preserved by any signed permutation
            k, s = _UNIT_TABLE[(i, j)]
            pi, si = g.apply(i - 1)
            pj, sj = g.apply(j - 1)
            pk, sk = g.apply(k - 1)
            m, sm = _UNIT_TABLE[(pi + 1, pj + 1)]
            if m != pk + 1 or si * sj * sm != s * sk:
                return False
    return True
