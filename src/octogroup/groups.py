"""Finite-group machinery over signed permutations.

Everything is deterministic: elements are ordered by their canonical
encoding, conjugacy classes by (element order, size, representative), and
all searches scan in those orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm
from operator import mul

from .signedperm import SignedPerm, conjugate


class ClosureCapError(RuntimeError):
    """Raised when a closure exceeds the configured element cap."""


class SubgroupError(ValueError):
    """Raised when claimed subgroup generators or elements are not members."""


@dataclass(frozen=True)
class ConjugacyClass:
    representative: SignedPerm
    size: int
    element_order: int
    member_indices: tuple[int, ...]


# profile name -> (order of x, order of y, order of x*y, order of the quotient)
COMPLEMENT_PROFILES: dict[str, tuple[int, int, int, int]] = {
    "PSL2(7)": (2, 3, 7, 168),
    "S4": (4, 3, 2, 24),
}


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
    """A closed set of signed permutations with canonical indexing."""

    def __init__(self, elements: list[SignedPerm], generators: list[SignedPerm]):
        self.elements: tuple[SignedPerm, ...] = tuple(sorted(elements))
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

    def __iter__(self):
        return iter(self.elements)

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

    def power_map(self, k: int, verify: bool = False) -> tuple[int, ...]:
        """Class index of g**k as a function of the class index of g."""
        out = []
        for cls in self.classes:
            out.append(self.class_index(cls.representative ** k))
        if verify:
            for ci, cls in enumerate(self.classes):
                for j in cls.member_indices:
                    if self.class_index(self.elements[j] ** k) != out[ci]:
                        raise AssertionError(f"power map {k} not constant on class {ci}")
        return tuple(out)

    @cached_property
    def inverse_class(self) -> tuple[int, ...]:
        return tuple(self.class_index(c.representative.inverse()) for c in self.classes)

    def centralizer_order(self, g: SignedPerm) -> int:
        return sum(1 for h in self.elements if h * g == g * h)


def close(generators: list[SignedPerm], cap: int = 10**6) -> Group:
    """Breadth-first closure of the generators."""
    if not generators:
        raise ValueError("need at least one generator")
    if len({g.degree for g in generators}) != 1:
        raise ValueError("generators must share a degree")
    identity = SignedPerm.identity(generators[0].degree)
    return Group(list(orbit(identity, generators, mul, cap)), list(generators))


def subgroup(parent: Group, generators: list[SignedPerm]) -> Group:
    """Closure of the generators, checked to lie inside parent."""
    for g in generators:
        if g not in parent:
            raise SubgroupError("subgroup generator outside the parent group")
    return close(generators)


def is_normal(parent: Group, sub: Group) -> bool:
    """g * H * g**-1 = H for every generator g of the parent."""
    for h in sub.elements:
        if h not in parent:
            raise SubgroupError("claimed subgroup is not contained in the group")
    for g in parent.generators:
        for h in sub.elements:
            if conjugate(h, g) not in sub:
                return False
    return True


def quotient(parent: Group, normal: Group,
             diagonal_points: list[SignedPerm] | None = None) -> Group:
    """The quotient group, realized as a concrete permutation group.

    When ``normal`` is the diagonal subgroup of order 8 at degree 7, the
    quotient acts by conjugation on the seven nontrivial diagonal elements
    (``diagonal_points`` fixes their labelling; canonical order by default).
    Otherwise it is the permutation action on the right cosets of ``normal``.
    """
    if not is_normal(parent, normal):
        raise SubgroupError("quotient by a non-normal subgroup")
    is_diag8 = (
        parent.degree == 7 and normal.order == 8
        and all(g.is_diagonal() for g in normal.elements)
    )
    if is_diag8:
        points = diagonal_points or sorted(g for g in normal.elements if g != normal.identity)
        if sorted(points) != sorted(g for g in normal.elements if g != normal.identity):
            raise ValueError("diagonal_points must list the 7 nontrivial elements")

        def act(g: SignedPerm) -> SignedPerm:
            return conjugate_action(g, points)
    else:
        coset_key = {}
        for g in parent.elements:
            coset_key[g] = min((n * g).key() for n in normal.elements)
        labels = sorted(set(coset_key.values()))
        label_index = {k: i for i, k in enumerate(labels)}
        rep_of = {}
        for g in parent.elements:  # canonical order; first hit is the minimal rep
            i = label_index[coset_key[g]]
            rep_of.setdefault(i, g)

        def act(g: SignedPerm) -> SignedPerm:
            img = [label_index[coset_key[rep_of[i] * g]] for i in range(len(labels))]
            return SignedPerm(tuple(img), (1,) * len(labels))

    images = {act(g) for g in parent.elements}
    result = Group(sorted(images), [act(g) for g in parent.generators])
    if result.order * normal.order != parent.order:
        raise AssertionError("quotient action is not faithful on cosets")
    return result


def find_complement(parent: Group, normal: Group, profile: str) -> Group | None:
    """Search for a complement of ``normal`` whose quotient matches ``profile``.

    The scan runs over pairs (x, y) with the profile's element orders and
    product order.  x ranges over conjugacy-class representatives only: if a
    complement exists, conjugating it moves some generating pair onto a pair
    whose first member is a class representative, and any conjugate of a
    complement is again a complement, so the restricted scan is complete.
    """
    if profile not in COMPLEMENT_PROFILES:
        raise ValueError(f"unsupported complement profile {profile!r}; "
                         f"known: {sorted(COMPLEMENT_PROFILES)}")
    ox, oy, oxy, qorder = COMPLEMENT_PROFILES[profile]
    if parent.order != normal.order * qorder:
        raise ValueError("quotient order does not match the profile")
    normal_set = set(normal.elements)
    xs = [c.representative for c in parent.classes if c.element_order == ox]
    ys = [g for g in parent.elements if g.order() == oy]
    for x in xs:
        for y in ys:
            if (x * y).order() != oxy:
                continue
            try:
                elems = orbit(parent.identity, [x, y], mul, qorder)
            except ClosureCapError:
                continue
            if len(elems) != qorder:
                continue
            if any(h in normal_set and h != parent.identity for h in elems):
                continue
            return Group(elems, [x, y])
    return None


def find_conjugating_element(parent: Group, sub1: Group, sub2: Group) -> SignedPerm | None:
    """Some g in parent with g * H1 * g**-1 = H2, or None."""
    if sub1.order != sub2.order:
        return None
    target = set(sub2.elements)
    for g in parent.elements:
        gi = g.inverse()
        if all((g * h) * gi in target for h in sub1.elements):
            return g
    return None


def are_conjugate_subgroups(parent: Group, sub1: Group, sub2: Group) -> bool:
    return find_conjugating_element(parent, sub1, sub2) is not None
