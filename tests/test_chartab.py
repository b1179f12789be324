from dataclasses import replace
from fractions import Fraction

import pytest

from octogroup.chartab import (
    CharacterRow,
    CharacterTable,
    SplitFailure,
    _check_table,
    branch,
    character_table,
    class_algebra,
    decompose,
    dixon_prime,
    frobenius_schur,
    inner_product,
    natural_character,
    primitive_root,
    tensor_decompose,
)
from octogroup.groups import Group, close
from octogroup.scalars import Cyclotomic
from octogroup.signedperm import SignedPerm
from octogroup import catalog


def trivial_index(table):
    return next(i for i, row in enumerate(table.rows)
                if all(v.is_rational() and v.rational_value() == 1 for v in row.values))


def test_dixon_prime_selection():
    # 337 = 2*168 + 1 is prime and exceeds 2*floor(sqrt(1344)) = 72
    assert dixon_prime(168, 1344, 11) == 337
    assert dixon_prime(21, 21, 5) == 43
    assert dixon_prime(84, 168, 6) == 337
    assert dixon_prime(24, 192, 13) == 73
    # Q8: 5 = 1 (mod 4) exceeds 2*floor(sqrt(8)) = 4 but not the 5 classes
    assert dixon_prime(4, 8, 5) == 13


def test_class_algebra_counts():
    g21 = catalog.build("7:3")
    algebra = class_algebra(g21)
    classes = g21.classes
    ident = 0
    for j in range(len(classes)):
        # identity class row: C_1 * C_j = C_j
        for k in range(len(classes)):
            assert algebra[ident][j][k] == (1 if j == k else 0)
    # the two size-3 classes of order-7 elements multiply with total weight 9
    sevens = [i for i, c in enumerate(classes) if c.element_order == 7]
    i, j = sevens
    total = sum(algebra[i][j][k] * classes[k].size for k in range(len(classes)))
    assert total == classes[i].size * classes[j].size == 9
    # weight identity for all pairs
    for i in range(len(classes)):
        for j in range(len(classes)):
            assert sum(algebra[i][j][k] * classes[k].size
                       for k in range(len(classes))) == classes[i].size * classes[j].size


def test_degrees():
    assert sorted(catalog.table("7:3").degrees()) == [1, 1, 1, 3, 3]
    assert sorted(catalog.table("2^3:7:3").degrees()) == [1, 1, 1, 3, 3, 7, 7, 7]
    t = catalog.table("2^3.PSL2(7)")
    assert sorted(t.degrees()) == [1, 3, 3, 6, 7, 7, 7, 8, 14, 21, 21]
    assert sum(d * d for d in t.degrees()) == 1344
    assert sorted(catalog.table("PSL2(7)").degrees()) == [1, 3, 3, 6, 7, 8]


def test_orthogonality_externally():
    """Both relations as exact cyclotomic sums on every roster table: an
    independent reference for the integer row check in _check_table, and the
    only place the column relation, which follows from it, is evaluated."""
    for name in catalog.ROSTER:
        table = catalog.table(name)
        classes = table.group.classes
        order = table.group.order
        for i, chi in enumerate(table.rows):
            for j, psi in enumerate(table.rows):
                total = Cyclotomic.zero()
                for cls, x, y in zip(classes, chi.values, psi.values):
                    total = total + (x * y.conjugate()).scale(cls.size)
                assert total == Cyclotomic.from_rational(order if i == j else 0), name
        for k, ck in enumerate(classes):
            for l in range(len(classes)):
                total = Cyclotomic.zero()
                for row in table.rows:
                    total = total + row.values[k] * row.values[l].conjugate()
                expect = Fraction(order, ck.size) if k == l else 0
                assert total == Cyclotomic.from_rational(expect), name


def _edited(table, i, changes):
    """The table with rows[i].values[k] replaced by v for each k: v in changes."""
    rows = list(table.rows)
    values = list(rows[i].values)
    for k, v in changes.items():
        values[k] = v
    rows[i] = CharacterRow(rows[i].degree, tuple(values))
    return CharacterTable(table.group, tuple(rows), table.prime, table.residues)


def _resized(table, k, size):
    """The table over a copy of its group whose class k has the given size."""
    g = table.group
    group = Group(list(g.elements), list(g.generators))
    group.classes = tuple(replace(c, size=size) if m == k else c
                          for m, c in enumerate(g.classes))
    return CharacterTable(group, table.rows, table.prime, table.residues)


def _redegreed(table, i, degree):
    """The table with rows[i]'s degree and identity value both set to degree."""
    rows = list(table.rows)
    rows[i] = CharacterRow(degree, (Cyclotomic.from_rational(degree),) + rows[i].values[1:])
    return CharacterTable(table.group, tuple(rows), table.prime, table.residues)


def _swapped(table, i, k, l):
    values = table.rows[i].values
    return _edited(table, i, {k: values[l], l: values[k]})


def _conjugated(table, i, k):
    return _edited(table, i, {k: table.rows[i].values[k].conjugate()})


def _halved(table, i, k):
    """rows[i].values[k] with its first coefficient halved."""
    v = table.rows[i].values[k]
    (x, c), *rest = v.coeffs
    return _edited(table, i, {k: Cyclotomic.make(v.conductor, {x: c / 2, **dict(rest)})})


@pytest.mark.parametrize("name, corrupt, args, message", [
    # degree-6 row (6, 2, 0, 0, -1, -1): the values at 2A (21) and 4A (42)
    ("PSL2(7)", _swapped, (3, 1, 3), "orthogonality"),
    # a degree-3 row's b7 at 7A: the row norm stays 1, and only its products
    # with the other rows and the columns change
    ("7:3", _conjugated, (3, 3), "orthogonality"),
    ("7:3", _resized, (3, 4), "orthogonality"),
    ("7:3", _halved, (3, 4), "algebraic integer"),
    # the trivial row as (2, 1, ..., 1): the squared degrees sum to 1347,
    # and so does the row's own norm sum, which the row relation rejects
    ("2^3.PSL2(7)", _redegreed, (0, 2), "orthogonality"),
], ids=["swapped", "conjugated", "resized", "halved", "doubled"])
def test_check_table_rejects_corrupted_tables(name, corrupt, args, message):
    with pytest.raises(SplitFailure, match=message):
        _check_table(corrupt(catalog.table(name), *args))


def test_check_table_reads_every_coefficient_of_the_remainder():
    """A table of C4 whose relation sums all have the right rational part:
    rows 0 and 2 have inner product -2i/4, so only the zeta_4 coefficient of
    the remainder mod Phi_4 shows that the table is wrong."""
    group = close([SignedPerm((1, 2, 3, 0), (1, 1, 1, 1))])
    assert [c.element_order for c in group.classes] == [1, 2, 4, 4]
    one, minus = Cyclotomic.from_rational(1), Cyclotomic.from_rational(-1)
    i = Cyclotomic.root(1, 4)
    minus_i = i.scale(-1)
    rows = [(one, one, one, i), (one, one, minus, minus_i),
            (one, minus, i, minus), (one, minus, minus_i, one)]
    table = character_table(group)
    bad = CharacterTable(group, tuple(CharacterRow(1, row) for row in rows),
                         table.prime, table.residues)
    with pytest.raises(SplitFailure, match="row orthogonality"):
        _check_table(bad)


def test_natural_characters():
    g21 = catalog.build("7:3")
    nat = natural_character(g21)
    assert nat.values[0].rational_value() == 7
    t = catalog.table("7:3")
    triv = trivial_index(t)
    assert inner_product(nat, t.rows[triv], g21) == 1
    mults = decompose(nat, t)
    assert sorted(t.rows[i].degree for i, m in enumerate(mults) for _ in range(m)) \
        == [1, 3, 3]

    g168 = catalog.build("2^3:7:3")
    assert inner_product(natural_character(g168), natural_character(g168), g168) == 1

    psl = catalog.build("PSL2(7)")
    natp = natural_character(psl)
    assert inner_product(natp, natp, psl) == 2  # 7 = 1 + 6

    non = catalog.build("2^3.PSL2(7)")
    assert inner_product(natural_character(non), natural_character(non), non) == 1


def test_tensor_examples():
    t = catalog.table("2^3.PSL2(7)")
    a = catalog.alignment("2^3.PSL2(7)")
    i3, j3 = a.irrep_index("3_1"), a.irrep_index("3_1")
    mults = tensor_decompose(t, i3, j3)
    labels = {a.row_to_label[k]: m for k, m in enumerate(mults) if m}
    assert labels == {"3_2": 1, "6": 1}
    i7 = a.irrep_index("7_1")
    labels = {a.row_to_label[k]: m
              for k, m in enumerate(tensor_decompose(t, i7, i7)) if m}
    assert labels == {"1": 1, "6": 1, "7_1": 1, "14": 1, "21_1": 1}
    triv = trivial_index(t)
    for j in range(len(t.rows)):
        mults = tensor_decompose(t, triv, j)
        assert mults == [1 if k == j else 0 for k in range(len(t.rows))]


def test_tensor_dimension_conservation():
    t = catalog.table("4.S4:2")
    for i in range(len(t.rows)):
        for j in range(len(t.rows)):
            mults = tensor_decompose(t, i, j)
            assert sum(m * t.rows[k].degree for k, m in enumerate(mults)) == \
                t.rows[i].degree * t.rows[j].degree


def exact_tensor_decompose(table, i, j):
    """Reference: the exact product character, decomposed by exact inner products."""
    chi, psi = table.rows[i], table.rows[j]
    product = CharacterRow(chi.degree * psi.degree,
                           tuple(a * b for a, b in zip(chi.values, psi.values)))
    return decompose(product, table)


def test_tensor_decompose_matches_exact_reference():
    """All 759 unordered products of the 13 roster tables."""
    count = 0
    for name in catalog.ROSTER:
        t = catalog.table(name)
        for i in range(len(t.rows)):
            for j in range(i, len(t.rows)):
                expected = exact_tensor_decompose(t, i, j)
                assert tensor_decompose(t, i, j) == expected, (name, i, j)
                assert tensor_decompose(t, j, i) == expected, (name, j, i)
                count += 1
    assert count == 759


def test_residues_reduce_the_rows():
    """residues[i][k] is rows[i].values[k] under zeta_n -> z^((p-1)/n), z the
    smallest primitive root mod p; a rational value reduces to itself."""
    for name in ("2^3:7:3", "4.S4:2", "2^3.PSL2(7)"):
        t = catalog.table(name)
        p = t.prime
        z = primitive_root(p)
        for row, res in zip(t.rows, t.residues):
            assert res[0] == row.degree
            for v, r in zip(row.values, res):
                theta = pow(z, (p - 1) // v.conductor, p)
                assert r == sum(c.numerator * pow(c.denominator, -1, p) * pow(theta, e, p)
                                for e, c in v.coeffs) % p


def test_tensor_decompose_rejects_inexact_residues():
    t = catalog.table("2^3:7:3")
    group = t.group
    # a prime too small for the residue to be the multiplicity itself
    with pytest.raises(ValueError):
        tensor_decompose(CharacterTable(group, t.rows, 7, t.residues), 0, 0)
    # residues that are not those of the rows fail the bound or dimension check
    bad = (tuple(2 * r % t.prime for r in t.residues[0]),) + t.residues[1:]
    with pytest.raises(ValueError):
        tensor_decompose(CharacterTable(group, t.rows, t.prime, bad), 0, 0)


def test_branch_examples():
    tg = catalog.table("2^3.PSL2(7)")
    th = catalog.table("2^3:7:3")
    matrix = branch(tg, th)
    ag = catalog.alignment("2^3.PSL2(7)")
    ah = catalog.alignment("2^3:7:3")
    row8 = matrix[ag.irrep_index("8")]
    labels8 = {ah.row_to_label[k]: m for k, m in enumerate(row8) if m}
    assert labels8 == {"1_1": 1, "1_2": 1, "3_1": 1, "3_2": 1}
    row14 = matrix[ag.irrep_index("14")]
    labels14 = {ah.row_to_label[k]: m for k, m in enumerate(row14) if m}
    assert labels14 == {"7_2": 1, "7_3": 1}
    # the trivial irrep restricts to the trivial irrep
    trivial_parent = trivial_index(tg)
    trivial_child = trivial_index(th)
    assert matrix[trivial_parent] == [1 if k == trivial_child else 0
                                      for k in range(len(th.rows))]
    # dimension conservation
    for i, row in enumerate(matrix):
        assert sum(m * th.rows[k].degree for k, m in enumerate(row)) == tg.rows[i].degree


def test_branch_transitivity():
    # restriction 1344 -> 2^3:7:3 -> 7:3 equals the direct restriction to 7:3
    tg = catalog.table("2^3.PSL2(7)")
    tm = catalog.table("2^3:7:3")
    th = catalog.table("7:3")
    gm = branch(tg, tm)
    mh = branch(tm, th)
    gh = branch(tg, th)
    n_mid, n_low = len(tm.rows), len(th.rows)
    for i in range(len(tg.rows)):
        composed = [sum(gm[i][t] * mh[t][k] for t in range(n_mid)) for k in range(n_low)]
        assert composed == gh[i]


def test_branch_requires_subgroup():
    with pytest.raises(ValueError):
        branch(catalog.table("2^3.PSL2(7)"), catalog.table("PSL2(7)"))


def test_frobenius_schur():
    for name in ("2^3.PSL2(7)", "2^3:PSL2(7)"):
        t = catalog.table(name)
        a = catalog.alignment(name)
        inds = {a.row_to_label[i]: frobenius_schur(t, i) for i in range(len(t.rows))}
        assert inds["3_1"] == inds["3_2"] == 0
        assert all(v == 1 for lab, v in inds.items() if lab not in ("3_1", "3_2"))


def exact_frobenius_schur(table, i):
    """Reference: (1/|G|) sum_c |C_c| chi_i(g_c^2) over the cyclotomics, each
    square's class found from the representative itself."""
    group = table.group
    total = Cyclotomic.zero()
    for cls in group.classes:
        square = group.class_index(cls.representative * cls.representative)
        total = total + table.rows[i].values[square].scale(cls.size)
    value = total.rational_value() / group.order
    assert value.denominator == 1 and abs(value) <= 1
    return int(value)


def test_frobenius_schur_matches_exact_sum():
    for name in catalog.ROSTER:
        t = catalog.table(name)
        for i in range(len(t.rows)):
            assert frobenius_schur(t, i) == exact_frobenius_schur(t, i), (name, i)


def test_quaternionic_irreps_of_q8_x_c2():
    """Q8 x C2: Q8 as left multiplication by i and j on the basis 1, i, j, k,
    C2 swapping two more points.  Its two 2-dimensional irreps are
    quaternionic (indicator -1); the roster has no such irrep."""
    left_i = SignedPerm((1, 0, 3, 2, 4, 5), (1, -1, 1, -1, 1, 1))
    left_j = SignedPerm((2, 3, 0, 1, 4, 5), (1, -1, -1, 1, 1, 1))
    swap = SignedPerm((0, 1, 2, 3, 5, 4), (1,) * 6)
    t = character_table(close([left_i, left_j, swap]))
    assert t.group.order == 16
    inds = [frobenius_schur(t, i) for i in range(len(t.rows))]
    assert inds == [exact_frobenius_schur(t, i) for i in range(len(t.rows))]
    assert sorted(zip(t.degrees(), inds)) == [(1, 1)] * 8 + [(2, -1)] * 2


def test_q8_with_as_many_classes_as_the_smallest_prime():
    """Q8 as left multiplication by i and j on 1, i, j, k: 5 classes, and 5 is
    the smallest prime = 1 (mod 4) above 2*floor(sqrt(8)), so the class count
    alone pushes the Dixon prime to 13."""
    left_i = SignedPerm((1, 0, 3, 2), (1, -1, 1, -1))
    left_j = SignedPerm((2, 3, 0, 1), (1, -1, -1, 1))
    t = character_table(close([left_i, left_j]))
    assert (t.group.order, len(t.rows), t.prime) == (8, 5, 13)
    assert t.degrees() == (1, 1, 1, 1, 2)
    assert [frobenius_schur(t, i) for i in range(5)] == [1, 1, 1, 1, -1]


def test_frobenius_schur_rejects_inexact_residues():
    t = catalog.table("2^3.PSL2(7)")
    group = t.group
    triv = trivial_index(t)
    # doubled residues put the trivial row's indicator at 2 mod p
    doubled = tuple(tuple(2 * r % t.prime for r in row) for row in t.residues)
    with pytest.raises(ValueError):
        frobenius_schur(CharacterTable(group, t.rows, t.prime, doubled), triv)
    # mod 2 the indicators -1 and 1 have one residue
    with pytest.raises(ValueError):
        frobenius_schur(CharacterTable(group, t.rows, 2, t.residues), triv)


def test_indicators_count_square_roots_of_one():
    """sum_chi nu(chi) chi(1) = #{g : g^2 = 1}, the count taken from the
    elements themselves (no classes, power maps or table values)."""
    for name in catalog.ROSTER:
        t = catalog.table(name)
        group = t.group
        roots = sum(1 for g in group.elements if g * g == group.identity)
        assert sum(frobenius_schur(t, i) * row.degree
                   for i, row in enumerate(t.rows)) == roots, name


def test_value_conductors_divide_element_orders():
    t = catalog.table("2^3:7:3")
    for row in t.rows:
        for k, v in enumerate(row.values):
            assert t.group.classes[k].element_order % v.conductor == 0


def test_inner_product_rationality():
    g = catalog.build("7:3")
    t = catalog.table("7:3")
    assert inner_product(t.rows[0], t.rows[0], g) == Fraction(1)
