import random
from itertools import product
from operator import mul

import pytest

from octogroup.groups import (
    ClosureCapError,
    Group,
    SubgroupError,
    close,
    find_complement,
    find_conjugating_element,
    is_normal,
    orbit,
    quotient,
    subgroup,
)
from octogroup.signedperm import SignedPerm, conjugate
from octogroup import catalog


def gen(*names):
    return [catalog.generator(n) for n in names]


def test_closure_orders():
    assert close(gen("alpha", "beta")).order == 21
    assert close(gen("alpha", "beta", "N1")).order == 168
    assert close(gen("alpha", "gamma")).order == 1344
    assert close(gen("gamma", "theta")).order == 192


def test_closure_cap():
    with pytest.raises(ClosureCapError):
        orbit(SignedPerm.identity(7), gen("alpha", "gamma"), mul, 100)


def centralizer_order(group, g):
    return sum(1 for h in group.elements if h * g == g * h)


def brute_force_classes(group):
    """Independent all-pairs conjugacy oracle."""
    elems = list(group.elements)
    seen = set()
    out = []
    for x in elems:
        if x in seen:
            continue
        orbit = {conjugate(x, g) for g in elems}
        seen |= orbit
        out.append((x.order(), len(orbit)))
    return sorted(out)


def test_classes_match_brute_force():
    g21 = catalog.build("7:3")
    assert sorted((c.element_order, c.size) for c in g21.classes) == \
        brute_force_classes(g21)
    g192 = catalog.build("2^3.S4")
    assert sorted((c.element_order, c.size) for c in g192.classes) == \
        brute_force_classes(g192)


def test_class_invariants():
    group = catalog.build("2^3:7:3")
    assert sum(c.size for c in group.classes) == group.order
    for c in group.classes:
        assert group.order % c.size == 0
        assert c.size * centralizer_order(group, c.representative) == group.order
        assert all(group.elements[i].order() == c.element_order
                   for i in c.member_indices)
    # identity is always a singleton class
    assert group.classes[0].size == 1
    assert group.classes[0].representative == group.identity


def test_class_count_1344():
    group = catalog.build("2^3.PSL2(7)")
    sizes = sorted(c.size for c in group.classes)
    assert len(sizes) == 11
    assert sizes == [1, 7, 42, 42, 84, 168, 168, 192, 192, 224, 224]


def test_power_maps():
    group = catalog.build("2^3:7:3")
    r = len(group.classes)
    assert group.power_map(1) == tuple(range(r))
    for k in (1, 2, 3):
        pm = group.power_map(k)
        for ci, cls in enumerate(group.classes):
            assert all(group.class_index(group.elements[j] ** k) == pm[ci]
                       for j in cls.member_indices), (k, ci)
    pm2 = group.power_map(2)
    for k, cls in enumerate(group.classes):
        if cls.element_order == 2:
            assert pm2[k] == 0


def test_power_classes_match_repeated_multiplication():
    """Row c of the cached power table lists the classes of rep**0, rep**1, ...
    up to the order of rep, for every class of all 13 roster groups."""
    for name in catalog.ROSTER:
        group = catalog.build(name)
        assert len(group.power_classes) == len(group.classes)
        for cls, row in zip(group.classes, group.power_classes):
            assert len(row) == cls.element_order, name
            g = group.identity
            for c in row:
                assert group.index[g] in group.classes[c].member_indices, name
                g = g * cls.representative
            assert g == group.identity, name
        for k in (-1, 0, 5):
            assert group.power_map(k) == tuple(
                group.class_index(cls.representative ** k) for cls in group.classes)


def test_duplicate_elements_collapse():
    e = SignedPerm.identity(7)
    g = catalog.generator("delta")
    group = Group([e, g, g], [g])
    assert group.order == 2
    assert sum(c.size for c in group.classes) == group.order


def test_order_histograms():
    non = catalog.build("2^3.PSL2(7)").order_histogram()
    spl = catalog.build("2^3:PSL2(7)").order_histogram()
    assert non.get(8, 0) == 336
    assert spl.get(8, 0) == 0


def test_subgroup_and_normality():
    parent = catalog.build("2^3.PSL2(7)")
    sub = subgroup(parent, gen("N1", "N2", "N7"))
    assert sub.order == 8
    assert is_normal(parent, sub)
    assert is_normal(parent, parent)
    g21 = catalog.build("7:3")
    assert is_normal(g21, subgroup(g21, gen("alpha")))
    alpha = subgroup(parent, gen("alpha"))
    assert alpha.order == 7
    assert not is_normal(parent, alpha)
    with pytest.raises(SubgroupError):
        subgroup(g21, gen("theta"))


def test_quotient_diagonal_action():
    parent = close(gen("alpha", "beta", "gamma", "N1"))
    normal = subgroup(parent, gen("N1", "N2", "N7"))
    points = list(catalog.diagonal_involutions().values())
    q = quotient(parent, normal, points)
    assert q.order == 168
    assert catalog.generator("alpha_t") in q
    assert len(q.classes) == 6


def test_quotient_s4_relations():
    parent = catalog.build("2^3.S4")
    normal = subgroup(parent, gen("N1", "N2", "N7"))
    q = quotient(parent, normal, list(catalog.diagonal_involutions().values()))
    assert q.order == 24
    a = catalog.generator("A_t") * catalog.generator("B_t")
    b = catalog.generator("A_t").inverse()
    assert a in q and b in q
    assert a.order() == 4 and b.order() == 3 and (a * b).order() == 2


def test_quotient_requires_normality():
    g21 = catalog.build("7:3")
    h = subgroup(g21, gen("beta"))
    with pytest.raises(SubgroupError):
        quotient(g21, h, [x for x in h.elements if x != h.identity])


def test_quotient_checks_points_and_faithfulness():
    parent = catalog.build("2^3.S4")
    normal = subgroup(parent, gen("N1", "N2", "N7"))
    points = list(catalog.diagonal_involutions().values())
    for wrong in (points[:-1], points[:-1] + [normal.identity]):
        with pytest.raises(ValueError):
            quotient(parent, normal, wrong)
    # the diagonal 2^3 is abelian, so its conjugation action on <N1> is trivial
    # and cannot realize the order-4 quotient 2^3/<N1>
    diag = close(gen("N1", "N2", "N7"))
    n1 = catalog.generator("N1")
    with pytest.raises(AssertionError):
        quotient(diag, subgroup(diag, [n1]), [n1])


def test_find_complement_cases():
    split = catalog.build("2^3:PSL2(7)")
    normal = subgroup(split, gen("N1", "N2", "N7"))
    found = find_complement(split, normal)
    assert found is not None
    assert found.order == 168
    assert set(found.elements) & set(normal.elements) == {split.identity}

    non = catalog.build("2^3.PSL2(7)")
    normal2 = subgroup(non, gen("N1", "N2", "N7"))
    assert find_complement(non, normal2) is None

    ab = catalog.build("2^3.S4")
    normal3 = subgroup(ab, gen("N1", "N2", "N7"))
    assert find_complement(ab, normal3) is None

    g21 = catalog.build("7:3")
    found = find_complement(g21, subgroup(g21, [g21.identity]))
    assert found is not None and found.elements == g21.elements
    found = find_complement(g21, g21)
    assert found is not None and found.elements == (g21.identity,)
    with pytest.raises(SubgroupError):
        find_complement(g21, subgroup(g21, gen("beta")))


def test_find_complement_any_generating_lift():
    """The search starts from the parent's generators, whatever lift of the
    quotient generator A-tilde they hold."""
    split = catalog.build("2^3:S4")
    normal_gens = gen("N1", "N2", "N7")
    for m in close(normal_gens).elements:
        parent = close([catalog.generator("A_t") * m, catalog.generator("B_t")] + normal_gens)
        assert parent.elements == split.elements
        normal = subgroup(parent, normal_gens)
        found = find_complement(parent, normal)
        assert found is not None and found.order == 24
        assert set(found.elements) & set(normal.elements) == {parent.identity}


def test_conjugate_subgroups():
    parent = catalog.build("2^3:PSL2(7)")
    h1 = catalog.build("PSL2(7)")
    assert find_conjugating_element(parent, h1, h1) is not None
    rng = random.Random(12)
    g = parent.elements[rng.randrange(parent.order)]
    moved = close([conjugate(x, g) for x in h1.generators])
    finder = find_conjugating_element(parent, h1, moved)
    assert finder is not None
    assert {conjugate(x, finder) for x in h1.elements} == set(moved.elements)


def test_deterministic_construction():
    a = close(gen("alpha", "beta", "N1"))
    b = close(gen("alpha", "beta", "N1"))
    assert a.elements == b.elements
    assert [c.representative for c in a.classes] == [c.representative for c in b.classes]


def test_lagrange():
    parent = catalog.build("4.S4:2")
    sub = subgroup(parent, [parent.generators[0]])
    assert parent.order % sub.order == 0


# Test-local references that compose SignedPerm objects, against which the
# point-tuple paths of close, find_complement and find_conjugating_element
# are checked.

def reference_complement(parent, normal):
    cap = parent.order // normal.order
    outside = [g for g in parent.generators if g not in normal]
    for ns in product(normal.elements, repeat=len(outside)):
        lifts = [g * n for g, n in zip(outside, ns)]
        try:
            return orbit(parent.identity, lifts, mul, cap), lifts
        except ClosureCapError:
            continue
    return None


def reference_conjugator(parent, sub1, sub2):
    if sub1.order != sub2.order:
        return None
    return next((g for g in parent.elements
                 if all(conjugate(h, g) in sub2 for h in sub1.generators)), None)


@pytest.mark.parametrize("name", sorted(catalog.ROSTER))
def test_closure_matches_signedperm_reference(name):
    gens = list(catalog.build(name).generators)
    group = close(gens)
    assert group.elements == tuple(sorted(orbit(SignedPerm.identity(7), gens, mul)))
    assert group.generators == tuple(gens)


@pytest.mark.parametrize("name", ["2^3.PSL2(7)", "2^3:PSL2(7)", "2^3.S4", "2^3:S4", "4:S4:2"])
def test_complement_matches_signedperm_reference(name):
    """The five extension claims: the same complement, from the same lifts, or None."""
    parent = catalog.build(name)
    normal = subgroup(parent, gen("N1", "N2", "N7"))
    found = find_complement(parent, normal)
    expected = reference_complement(parent, normal)
    assert (found is None) == (expected is None) == (name in ("2^3.PSL2(7)", "2^3.S4"))
    if found is not None:
        elements, lifts = expected
        assert found.elements == tuple(sorted(elements))
        assert found.generators == tuple(lifts)


def test_conjugator_matches_signedperm_reference():
    split, non = catalog.build("2^3:PSL2(7)"), catalog.build("2^3.PSL2(7)")
    h1 = catalog.build("PSL2(7)")
    g = split.elements[random.Random(35).randrange(split.order)]
    moved = close([conjugate(x, g) for x in h1.generators])
    cases = [(split, h1, catalog.build("PSL2(7)-second")),
             (non, catalog.build("2^3.S4-pairs"), catalog.build("2^3.S4")),
             (split, h1, moved)]
    found = [find_conjugating_element(*case) for case in cases]
    assert found == [reference_conjugator(*case) for case in cases]
    assert found[0] is None and None not in found[1:]
