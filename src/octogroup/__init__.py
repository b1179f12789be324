"""Exact group theory for the order-1344 automorphism groups of the octonion frame."""

from .scalars import Cyclotomic, QuadSqrt2, Rational
from .signedperm import SignedPerm, conjugate
from .octonion import Octonion, associator, is_algebra_automorphism, triad_type
from .groups import (
    Group,
    ConjugacyClass,
    close,
    subgroup,
    is_normal,
    quotient,
    find_complement,
    find_conjugating_element,
)
from .chartab import (
    CharacterRow,
    CharacterTable,
    character_table,
    natural_character,
    inner_product,
    tensor_decompose,
    branch,
    frobenius_schur,
)

__all__ = [
    "Cyclotomic", "QuadSqrt2", "Rational",
    "SignedPerm", "conjugate",
    "Octonion", "associator", "is_algebra_automorphism", "triad_type",
    "Group", "ConjugacyClass", "close", "subgroup", "is_normal", "quotient",
    "find_complement", "find_conjugating_element",
    "CharacterRow", "CharacterTable", "character_table", "natural_character",
    "inner_product", "tensor_decompose", "branch", "frobenius_schur",
]
