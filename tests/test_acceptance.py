"""Acceptance suite: one test per criterion, each printing a pass line.

Everything here is exact (integer and symbolic equality); the only numeric
tolerance in the whole test suite is the 12-digit oracle in the scalar
tests.  Known source misprints surface as "flagged" verification claims and
are asserted explicitly where they touch a criterion.
"""

import random
from itertools import combinations

from octogroup import catalog
from octogroup import golden as gold
from octogroup.chartab import frobenius_schur, inner_product, natural_character
from octogroup.groups import close, find_complement, find_conjugating_element, subgroup
from octogroup.octonion import is_algebra_automorphism, triad_type
from octogroup.quatpairs import (
    COSET_NAMES,
    binary_octahedral,
    pair_group,
    pair_to_signedperm7,
    verify_coset_table,
)
from octogroup.signedperm import SignedPerm


def _ok(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def claims(report):
    return {c.claim_id: c for c in report.claims}


def test_criterion_01_group_orders():
    expected = {
        "7:3": 21, "2^3:7:3": 168, "2^3.PSL2(7)": 1344, "4.S4:2": 192,
        "2^3.S4": 192, "PSL2(7)": 168, "2^3:PSL2(7)": 1344,
        "PSL2(7)-second": 168, "2^3.S4-pairs": 192,
    }
    for name, order in expected.items():
        assert catalog.build(name).order == order, name
    assert len(pair_group()) == 192
    _ok(1, "all nine construction orders exact")


def test_criterion_02_class_counts_and_sizes():
    assert sorted(c.size for c in catalog.build("7:3").classes) == [1, 3, 3, 7, 7]
    assert len(catalog.build("7:3").classes) == 5
    assert sorted(c.size for c in catalog.build("2^3:7:3").classes) == \
        [1, 7, 24, 24, 28, 28, 28, 28]
    for name in ("2^3.PSL2(7)", "2^3:PSL2(7)"):
        group = catalog.build(name)
        assert len(group.classes) == 11
        assert sorted(c.size for c in group.classes) == \
            [1, 7, 42, 42, 84, 168, 168, 192, 192, 224, 224]
    # size multiset of the 14-class reference table (the 4.S4:2 family)
    v_sizes = [1, 3, 4, 6, 6, 12, 12, 12, 12, 12, 24, 24, 32, 32]
    for name in ("4.S4:2", "2^3:S4"):
        group = catalog.build(name)
        assert len(group.classes) == 14
        assert sorted(c.size for c in group.classes) == v_sizes
    for name in ("2^3.S4", "4:S4:2", "2^3.S4-pairs"):
        assert len(catalog.build(name).classes) == 13
    _ok(2, "class counts and size multisets exact for every table family")


def test_criterion_03_character_tables_align(report):
    by_id = claims(report)
    for name in catalog.ROSTER:
        claim = by_id[f"chartab.{name}"]
        assert claim.status in ("pass", "flagged"), claim
    # the two pre-annotated typo sites are flagged with computed values
    psl = by_id["chartab.PSL2(7)"]
    assert psl.status == "flagged" and "printed 42, computed 24" in psl.computed
    s4 = by_id["chartab.2^3.S4"]
    assert s4.status == "flagged" and "printed 3, computed 2" in s4.computed
    _ok(3, "all computed tables align with the reference tables; known "
           "misprinted cells flagged with computed values")


def test_criterion_04_shared_table_distinct_power_structure(report):
    by_id = claims(report)
    assert by_id["shared-table.matrices"].status == "pass"
    non = catalog.build("2^3.PSL2(7)")
    spl = catalog.build("2^3:PSL2(7)")
    assert non.order_histogram().get(8, 0) == 336
    assert spl.order_histogram().get(8, 0) == 0
    _ok(4, "identical aligned character matrices; order-8 census 336 vs 0")


def test_criterion_05_extension_types():
    def normal_2_3(parent):
        return subgroup(parent, [catalog.generator(n) for n in ("N1", "N2", "N7")])

    non = catalog.build("2^3.PSL2(7)")
    assert find_complement(non, normal_2_3(non)) is None
    ab = catalog.build("2^3.S4")
    assert find_complement(ab, normal_2_3(ab)) is None
    spl = catalog.build("2^3:PSL2(7)")
    comp = find_complement(spl, normal_2_3(spl))
    assert comp is not None and comp.order == 168
    s4split = catalog.build("2^3:S4")
    assert find_complement(s4split, normal_2_3(s4split)) is not None
    su3split = catalog.build("4:S4:2")
    assert find_complement(su3split, normal_2_3(su3split)) is not None
    _ok(5, "complement searches: none/none for the non-split pair, found for "
           "all three split groups")


def test_criterion_06_two_psl27_copies(report):
    h1 = catalog.build("PSL2(7)")
    h2 = catalog.build("PSL2(7)-second")
    psl_classes = [(1, 1), (2, 21), (3, 56), (4, 42), (7, 24), (7, 24)]
    for h in (h1, h2):
        assert h.order == 168
        assert sorted((c.element_order, c.size) for c in h.classes) == psl_classes
    parent = catalog.build("2^3:PSL2(7)")
    assert find_conjugating_element(parent, h1, h2) is None
    nat1, nat2 = natural_character(h1), natural_character(h2)
    assert inner_product(nat1, nat1, h1) == 2   # reducible: 1 + 6
    assert inner_product(nat2, nat2, h2) == 1   # irreducible
    # gamma-tilde and delta commute into a diagonal involution; the computed
    # product is N6 (the printed value N7 is a flagged misprint: with N7 the
    # generated group has order 1344, not 168)
    gt, d = catalog.generator("gamma_t"), catalog.generator("delta")
    n = catalog.diagonal_involutions()
    assert gt * d == d * gt == n[6]
    by_id = claims(report)
    assert by_id["psl2x2.gamma-delta-product"].status == "flagged"
    assert by_id["misprint.delta"].status == "flagged"
    _ok(6, "two non-conjugate PSL2(7)s with the stated natural characters; "
           "commutation product flagged as N6 (printed N7)")


def test_criterion_07_octonion_automorphisms():
    non = catalog.build("2^3.PSL2(7)")
    assert all(is_algebra_automorphism(g) for g in non.elements)
    spl = catalog.build("2^3:PSL2(7)")
    assert any(not is_algebra_automorphism(g) for g in spl.elements)
    assert not is_algebra_automorphism(catalog.generator("A_t"))
    _ok(7, "all 1344 non-split elements preserve the algebra; the split group "
           "breaks it (A-tilde among the violators)")


def test_criterion_08_tensor_products(report):
    by_id = claims(report)
    for name in ("2^3:7:3", "2^3:7:3-split", "2^3.PSL2(7)", "2^3:PSL2(7)",
                 "4.S4:2", "2^3:S4", "2^3.S4", "4:S4:2", "2^3.S4-pairs"):
        claim = by_id[f"tensor.{name}"]
        assert claim.status in ("pass", "flagged"), (name, claim.computed)
    dup = by_id["tensor.2^3.PSL2(7)"]
    assert "[3_1 x 7_2 = 21_1] computed 6 + 7_2 + 8" in dup.computed
    _ok(8, "all reference tensor lines reproduced; flagged misprints reported "
           "with computed decompositions")


def test_criterion_09_branchings(report):
    by_id = claims(report)
    for pair in ("2^3.PSL2(7)->2^3:7:3", "2^3:PSL2(7)->2^3:7:3",
                 "2^3:PSL2(7)->PSL2(7)", "2^3:7:3->7:3", "2^3:7:3-split->7:3",
                 "PSL2(7)->7:3"):
        assert by_id[f"branch.{pair}"].status == "pass", pair
    # 7 = 1 + 3_1 + 3_2 for the natural character of 7:3
    g21 = catalog.build("7:3")
    t21 = catalog.table("7:3")
    nat = natural_character(g21)
    mults = [int(inner_product(nat, row, g21)) for row in t21.rows]
    a21 = catalog.alignment("7:3")
    labels = {a21.row_to_label[i]: m for i, m in enumerate(mults) if m}
    assert labels == {"1": 1, "3_1": 1, "3_2": 1}
    _ok(9, "all four branching tables reproduced; 7 = 1 + 3_1 + 3_2 for 7:3")


def test_criterion_10_quaternion_construction(report):
    group = binary_octahedral()
    assert len(group) == 48
    assert all(sum(1 for v in group.values() if v == n) == 8 for n in COSET_NAMES)
    assert verify_coset_table()
    by_id = claims(report)
    assert by_id["quaternion.homomorphism"].status == "pass"
    img = catalog.build("2^3.S4-pairs")
    assert img.order == 192
    assert by_id["chartab.2^3.S4-pairs"].status in ("pass", "flagged")
    assert by_id["quaternion.pair-image-vs-AB"].status == "pass"
    assert "conjugate" in by_id["quaternion.pair-image-vs-AB"].computed
    _ok(10, "binary octahedral cosets, coset products, homomorphism, and "
            "the explicit identification with the A, B group all verified")


def test_criterion_11_property_suites():
    # group axioms on random elements of a roster group
    rng = random.Random(17)
    group = catalog.build("2^3.S4")
    sample = [group.elements[rng.randrange(group.order)] for _ in range(8)]
    for x in sample:
        for y in sample:
            assert (x * y) in group
        assert x * x.inverse() == group.identity

    # octonion norm multiplicativity and alternativity on random inputs
    from fractions import Fraction
    from octogroup.octonion import Octonion, associator
    for _ in range(10):
        a = Octonion(tuple(Fraction(rng.randint(-3, 3)) for _ in range(8)))
        b = Octonion(tuple(Fraction(rng.randint(-3, 3)) for _ in range(8)))
        assert sum(c * c for c in (a * b).coeffs) == \
            sum(c * c for c in a.coeffs) * sum(c * c for c in b.coeffs)
        assert associator(a, a, b) == Octonion.zero()

    # orthogonality and degree identities hold (enforced at construction,
    # exercised here on a fresh table object)
    from octogroup.chartab import character_table
    t = character_table(catalog.build("7:3"))
    assert sum(d * d for d in t.degrees()) == 21

    # Frobenius-Schur indicators across both 1344 groups
    for name in ("2^3.PSL2(7)", "2^3:PSL2(7)"):
        table = catalog.table(name)
        align = catalog.alignment(name)
        for i in range(len(table.rows)):
            ind = frobenius_schur(table, i)
            if align.row_to_label[i] in ("3_1", "3_2"):
                assert ind == 0
            else:
                assert ind == 1

    # branching conserves dimension for every registered pair
    for (parent, child), _ in catalog.BRANCH_PAIRS.items():
        child_roster = catalog.BRANCH_CHILD_ROSTER[(parent, child)]
        matrix = catalog.branch_matrix(parent, child_roster)
        tp, tc = catalog.table(parent), catalog.table(child_roster)
        for i, row in enumerate(matrix):
            assert sum(m * tc.rows[k].degree for k, m in enumerate(row)) == \
                tp.rows[i].degree
    _ok(11, "group axioms, octonion identities, orthogonality, "
            "Frobenius-Schur pattern, and branching dimensions all hold")
