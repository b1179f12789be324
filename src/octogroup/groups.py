"""Finite-group machinery over signed permutations.

One orbit walk serves closure and conjugacy classes.  On top of it sit
power maps (read from one cached table of the classes of each class
representative's powers), normality, the quotient by a normal subgroup as a
conjugation action, the complement search by lifting generators, and the
search for an element conjugating one subgroup onto another.  Every
construction takes what it needs from its arguments.

Everything is deterministic: elements are ordered by their canonical
encoding, conjugacy classes by (element order, size, representative), and
all searches scan in those orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import lcm
from operator import mul

from .signedperm import SignedPerm, conjugate


class ClosureCapError(RuntimeError):
    """Raised when an orbit exceeds its cap."""


class SubgroupError(ValueError):
    """Raised when claimed subgroup generators or elements are not members."""


@dataclass(frozen=True)
class ConjugacyClass:
    representative: SignedPerm
    size: int
    element_order: int
    member_indices: tuple[int, ...]


def orbit(start, generators, act, cap: int | None = None) -> set:
    """Breadth-first orbit of start: the smallest set containing start and
    closed under x -> act(x, g) for every generator g.  Raises ClosureCapError
    as soon as the orbit exceeds cap elements."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for g in generators:
                y = act(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    if cap is not None and len(seen) > cap:
                        raise ClosureCapError(f"closure exceeded cap {cap}")
        frontier = nxt
    return seen


def conjugate_action(g: SignedPerm, points: list[SignedPerm]) -> SignedPerm:
    """The permutation induced by conjugation with g on the given points."""
    where = {p: i for i, p in enumerate(points)}
    img = [where[conjugate(p, g)] for p in points]
    return SignedPerm(tuple(img), (1,) * len(points))


class Group:
    """A closed set of signed permutations with canonical indexing.

    Invariant: ``generators`` generate ``elements``.  Classes, normality and
    the conjugacy search test generators only, and every constructor here
    keeps it."""

    def __init__(self, elements: list[SignedPerm], generators: list[SignedPerm]):
        self.elements: tuple[SignedPerm, ...] = tuple(sorted(set(elements)))
        self.generators: tuple[SignedPerm, ...] = tuple(generators)
        self.index: dict[SignedPerm, int] = {g: i for i, g in enumerate(self.elements)}
        self.degree = self.elements[0].degree

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> SignedPerm:
        return SignedPerm.identity(self.degree)

    def __contains__(self, g: SignedPerm) -> bool:
        return g in self.index

    # -- conjugacy classes --------------------------------------------------

    @cached_property
    def classes(self) -> tuple[ConjugacyClass, ...]:
        """Partition into conjugacy classes, sorted (order, size, representative)."""
        assigned = [False] * self.order
        found = []
        for i, x in enumerate(self.elements):
            if assigned[i]:
                continue
            members = tuple(sorted(self.index[y] for y in orbit(x, self.generators, conjugate)))
            for j in members:
                assigned[j] = True
            rep = self.elements[members[0]]
            found.append(ConjugacyClass(rep, len(members), rep.order(), members))
        found.sort(key=lambda c: (c.element_order, c.size, c.representative.key()))
        return tuple(found)

    @cached_property
    def class_of(self) -> tuple[int, ...]:
        """Class index of each element index."""
        out = [0] * self.order
        for ci, cls in enumerate(self.classes):
            for j in cls.member_indices:
                out[j] = ci
        return tuple(out)

    def class_index(self, g: SignedPerm) -> int:
        return self.class_of[self.index[g]]

    @cached_property
    def exponent(self) -> int:
        result = 1
        for cls in self.classes:
            result = lcm(result, cls.element_order)
        return result

    def order_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for cls in self.classes:
            hist[cls.element_order] = hist.get(cls.element_order, 0) + cls.size
        return hist

    @cached_property
    def power_classes(self) -> tuple[tuple[int, ...], ...]:
        """power_classes[c][t] is the class index of rep**t, for the
        representative rep of class c and 0 <= t < order(rep)."""
        table = []
        for cls in self.classes:
            row = []
            g = self.identity
            for _ in range(cls.element_order):
                row.append(self.class_index(g))
                g = g * cls.representative
            table.append(tuple(row))
        return tuple(table)

    def power_map(self, k: int) -> tuple[int, ...]:
        """Class index of g**k as a function of the class index of g."""
        return tuple(row[k % len(row)] for row in self.power_classes)


def close(generators: list[SignedPerm]) -> Group:
    """Breadth-first closure of the generators; uncapped, as degree-n signed
    permutations number 2^n * n! (645 120 at degree 7)."""
    if not generators:
        raise ValueError("need at least one generator")
    if len({g.degree for g in generators}) != 1:
        raise ValueError("generators must share a degree")
    identity = SignedPerm.identity(generators[0].degree)
    return Group(list(orbit(identity, generators, mul)), list(generators))


def subgroup(parent: Group, generators: list[SignedPerm]) -> Group:
    """Closure of the generators, checked to lie inside parent."""
    for g in generators:
        if g not in parent:
            raise SubgroupError("subgroup generator outside the parent group")
    return close(generators)


def is_normal(parent: Group, sub: Group) -> bool:
    """g * h * g**-1 lies in H for every generator g of the parent and h of H,
    so g * H * g**-1 = H for every g in the parent."""
    if any(h not in parent for h in sub.generators):
        raise SubgroupError("claimed subgroup is not contained in the group")
    return all(conjugate(h, g) in sub for g in parent.generators for h in sub.generators)


def quotient(parent: Group, normal: Group, points: list[SignedPerm]) -> Group:
    """The quotient parent/normal, realized as the conjugation action of parent
    on ``points``: the nontrivial elements of ``normal``, in the order that
    labels them.  The image is the closure of the generators' actions.  The
    action factors through the quotient; it is checked to be faithful on it
    (order of the image times order of normal is the parent's).
    """
    if not is_normal(parent, normal):
        raise SubgroupError("quotient by a non-normal subgroup")
    if sorted(points) != sorted(g for g in normal.elements if g != normal.identity):
        raise ValueError("points must list the nontrivial elements of the normal subgroup")
    gens = [conjugate_action(g, points) for g in parent.generators]
    result = close(gens)
    if result.order * normal.order != parent.order:
        raise AssertionError("conjugation on points is not a faithful action of the quotient")
    return result


def find_complement(parent: Group, normal: Group) -> Group | None:
    """A complement of the normal subgroup ``normal`` in ``parent``, or None.

    A complement H meets every coset of ``normal`` exactly once, so for each
    generator g of parent outside ``normal`` it holds exactly one lift g*n with
    n in ``normal``.  Those lifts map onto generators of parent/normal and H
    maps isomorphically onto it, so they generate H.  Conversely, any lifts
    generate a subgroup that maps onto parent/normal; if it has at most
    |parent/normal| elements, it meets ``normal`` trivially and is a
    complement.  Trying every tuple of lifts, each closure capped at
    |parent/normal|, therefore finds a complement exactly when one exists.
    """
    if not is_normal(parent, normal):
        raise SubgroupError("complement of a non-normal subgroup")
    cap = parent.order // normal.order
    outside = [g for g in parent.generators if g not in normal]
    for ns in product(normal.elements, repeat=len(outside)):
        lifts = [g * n for g, n in zip(outside, ns)]
        try:
            elems = orbit(parent.identity, lifts, mul, cap)
        except ClosureCapError:
            continue
        return Group(list(elems), lifts)
    return None


def find_conjugating_element(parent: Group, sub1: Group, sub2: Group) -> SignedPerm | None:
    """The first g in parent with g * H1 * g**-1 = H2, or None.  With equal
    orders it suffices that g conjugates the generators of H1 into H2."""
    if sub1.order != sub2.order:
        return None
    return next((g for g in parent.elements
                 if all(conjugate(h, g) in sub2 for h in sub1.generators)), None)
