import time
from itertools import permutations, product

import pytest

from octogroup import golden as gold
from octogroup import catalog
from octogroup.chartab import tensor_decompose
from octogroup.scalars import Cyclotomic


def test_load_golden_table():
    table = gold.load_golden_table(gold.DATA_DIR / "chartab_1344.txt")
    assert table.order == 1344
    assert table.names == ["2^3.PSL2(7)", "2^3:PSL2(7)"]
    assert len(table.sizes) == 11
    assert sum(table.sizes) == 1344
    assert table.orders["2^3.PSL2(7)"][9:] == [8, 8]
    assert table.orders["2^3:PSL2(7)"][9:] == [4, 4]
    assert table.labels[0] == "1"
    assert not table.flags


def test_flagged_cells_parsed():
    table = gold.load_golden_table(gold.DATA_DIR / "chartab_2_3_s4.txt")
    assert len(table.flags) == 1
    flag = table.flags[0]
    assert flag.row_label == "2" and flag.printed == "3" and flag.corrected == "2"
    psl = gold.load_golden_table(gold.DATA_DIR / "chartab_psl2_7.txt")
    assert len(psl.flags) == 2
    assert all(f.row_label is None and f.printed == "42" and f.corrected == "24"
               for f in psl.flags)
    assert psl.sizes[4:] == [24, 24]


def test_symbol_expansion():
    table = gold.load_golden_table(gold.DATA_DIR / "chartab_7_3.txt")
    eta = Cyclotomic.root(1, 7) + Cyclotomic.root(2, 7) + Cyclotomic.root(4, 7)
    assert table.values[3][3] == eta
    assert table.values[3][4] == eta.conjugate()
    assert table.values[1][1] == Cyclotomic.root(1, 3)


def test_corrupt_file_errors(tmp_path):
    bad = tmp_path / "chartab_7_3.txt"
    bad.write_text("group 7:3\norder 21\nsizes 1 2 3\n")
    with pytest.raises(gold.GoldenFileError):
        gold.load_golden_table(bad)
    missing = tmp_path / "nothing.txt"
    with pytest.raises(gold.GoldenFileError):
        gold.load_golden_table(missing)
    garbled = tmp_path / "garbled.txt"
    garbled.write_text("group g\norder 5\nsizes 1 4\norders g 1 2\n"
                       "irrep 1 1 1\nirrep 2 1 banana\n")
    with pytest.raises(gold.GoldenFileError, match="garbled.txt.*banana"):
        gold.load_golden_table(garbled)
    zero_denominator = tmp_path / "zero_denominator.txt"
    zero_denominator.write_text("group g\norder 5\nsizes 1 4\norders g 1 2\n"
                                "irrep 1 1 1\nirrep 2 1 1/0\n")
    with pytest.raises(gold.GoldenFileError, match="zero_denominator.txt.*1/0"):
        gold.load_golden_table(zero_denominator)
    # a character of a group of order 5 takes values in Q(z5): a conductor
    # that does not divide the order, or exceeds the largest roster order
    # 1344, is rejected before the cell is expanded
    huge_conductor = tmp_path / "huge_conductor.txt"
    for order, sizes, cell in ((5, "1 4", "z1000000"), (10007, "1 10006", "z10007")):
        huge_conductor.write_text(f"group g\norder {order}\nsizes {sizes}\norders g 1 2\n"
                                  f"irrep 1 1 {cell}\n")
        with pytest.raises(gold.GoldenFileError, match="huge_conductor.txt.*conductor"):
            gold.load_golden_table(huge_conductor)
    # order, sizes and orders are positive integers in plain ASCII digits; each
    # table is otherwise well formed, so int() in their place would load it
    for i, header in enumerate(("order 0_5\nsizes 1 4\norders g 1 2\n",
                                "order 5\nsizes 1 \u0664\norders g 1 2\n",
                                "order 5\nsizes 0 5\norders g 1 2\n",
                                "order 5\nsizes 1 4\norders g 1 -2\n",
                                "order 5\nsizes 1 4\norders g 1 2_0\n")):
        bad_integer = tmp_path / f"bad_integer_{i}.txt"
        bad_integer.write_text("group g\n" + header + "irrep 1 1 1\nirrep 2 1 -1\n")
        with pytest.raises(gold.GoldenFileError,
                           match=f"{bad_integer.name}.*not a positive integer"):
            gold.load_golden_table(bad_integer)
    duplicate_label = tmp_path / "duplicate_label.txt"
    duplicate_label.write_text("group g\norder 2\nsizes 1 1\norders g 1 2\n"
                               "irrep 1 1 1\nirrep 1 1 -1\n")
    with pytest.raises(gold.GoldenFileError, match="duplicate_label.txt.*'1'"):
        gold.load_golden_table(duplicate_label)
    not_utf8 = tmp_path / "not_utf8.txt"
    not_utf8.write_bytes((gold.DATA_DIR / "chartab_7_3.txt").read_bytes() + b"\xff\xfe")
    with pytest.raises(gold.GoldenFileError, match="not_utf8.txt"):
        gold.load_golden_table(not_utf8)
    unknown_label = tmp_path / "unknown_label.txt"
    unknown_label.write_text("9_9 -> 1\n")
    with pytest.raises(gold.GoldenFileError,
                       match="unknown_label.txt.*unknown parent irrep label '9_9'"):
        gold.load_branch_lines(unknown_label, *reference_labels("2^3:7:3", "7:3"))
    # a character table is square: an extra row would have no computed row
    extra_row = tmp_path / "extra_row.txt"
    extra_row.write_text((gold.DATA_DIR / "chartab_7_3.txt").read_text()
                         + "irrep 9_9 2 2 2 2 2\n")
    with pytest.raises(gold.GoldenFileError, match="extra_row.txt: 6 irreps for 5 classes"):
        gold.load_golden_table(extra_row)
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing but a comment\n")
    with pytest.raises(gold.GoldenFileError, match="empty.txt: no table lines"):
        gold.load_golden_table(empty)
    # each header line appears once: a second one would silently replace the
    # first, and cells read before it would be checked against another order
    reference = (gold.DATA_DIR / "chartab_7_3.txt").read_text()
    for header, repeat in (("order", "order 42\norder 21\n"),
                           ("group", "group 7:3\norder 21\n"),
                           ("sizes", "sizes 1 7 7 3 3\norder 21\n"),
                           ("orders 7:3", "orders 7:3 1 3 3 7 7\norder 21\n")):
        repeated = tmp_path / "repeated.txt"
        repeated.write_text(reference.replace("order 21\n", repeat))
        with pytest.raises(gold.GoldenFileError, match=f"repeated.txt.*repeated '{header}'"):
            gold.load_golden_table(repeated)
    repeated.write_text(reference + "order 21\n")
    with pytest.raises(gold.GoldenFileError, match="repeated.txt.*repeated 'order'"):
        gold.load_golden_table(repeated)
    # cells are checked against the order, so it comes before the first irrep,
    # whether or not a cell names a root of unity
    late_order = tmp_path / "late_order.txt"
    for text in (reference.replace("order 21\n", "") + "order 21\n",
                 "group g\nsizes 1 1\norders g 1 2\nirrep 1 1 1\nirrep 2 1 -1\norder 2\n"):
        late_order.write_text(text)
        with pytest.raises(gold.GoldenFileError,
                           match="late_order.txt.*irrep line before the 'order' line"):
            gold.load_golden_table(late_order)


def test_largest_conductor_cells_load_quickly(tmp_path):
    """A chartab_1344.txt copy whose 121 value cells are all one root, or all
    one sum, of conductor 1344 is bounded work: it loads, or fails as
    GoldenFileError, within 2 seconds."""
    for cell, rendered in (("z1344", "z1344"), ("1+z1344", "1 + z1344")):
        lines = []
        for line in (gold.DATA_DIR / "chartab_1344.txt").read_text().splitlines():
            if line.startswith("irrep"):
                _, label, *cells = line.split()
                line = " ".join(["irrep", label] + [cell] * len(cells))
            lines.append(line)
        assert sum(line.split().count(cell) for line in lines) == 121
        path = tmp_path / "chartab_1344.txt"
        path.write_text("\n".join(lines) + "\n")
        start = time.perf_counter()
        try:
            table = gold.load_golden_table(path)
        except gold.GoldenFileError:
            pass
        else:
            assert {str(v) for row in table.values for v in row} == {rendered}
        assert time.perf_counter() - start < 2.0, cell


def reference_labels(*names):
    """The irrep labels of the packaged reference table of each named group."""
    return [gold.load_golden_table(gold.DATA_DIR / catalog.ROSTER[name].golden_file).labels
            for name in names]


# a multiplicity is an integer of at least 1 in plain ASCII digits
BAD_MULTIPLICITIES = ("-1(1)", "1_0(1)", "0(1)", "\u0662(1)", "(1)")


def test_tensor_lines_errors_are_typed(tmp_path):
    bad = tmp_path / "tensors.txt"
    bad.write_text("1 x 1 = 1\n3_1 x 3_2 1 + 8\n")
    labels, = reference_labels("2^3:7:3")
    with pytest.raises(gold.GoldenFileError, match="tensors.txt"):
        gold.load_tensor_lines(bad, labels)
    for rhs in BAD_MULTIPLICITIES:
        bad.write_text(f"1 x 1 = {rhs}\n")
        with pytest.raises(gold.GoldenFileError, match="tensors.txt"):
            gold.load_tensor_lines(bad, labels)
    with pytest.raises(gold.GoldenFileError, match="missing.txt"):
        gold.load_tensor_lines(tmp_path / "missing.txt", labels)
    bad.write_bytes(b"1 x 1 = 1\n\xff\xfe\n")
    with pytest.raises(gold.GoldenFileError, match="tensors.txt"):
        gold.load_tensor_lines(bad, labels)
    # every label names an irrep of the group's reference table
    bad.write_text("1_1 x 3_1 = 3_1\n")
    assert gold.load_tensor_lines(bad, labels)
    for line in ("9_9 x 3_1 = 3_1", "1_1 x 9_9 = 3_1", "1_1 x 3_1 = 9_9"):
        bad.write_text(line + "\n")
        with pytest.raises(gold.GoldenFileError, match="tensors.txt.*'9_9'"):
            gold.load_tensor_lines(bad, labels)


def test_branch_lines_errors_are_typed(tmp_path):
    bad = tmp_path / "branch.txt"
    bad.write_text("1 -> 1\n3_1 = 3_1\n")
    labels = reference_labels("2^3:7:3", "7:3")
    with pytest.raises(gold.GoldenFileError, match="branch.txt"):
        gold.load_branch_lines(bad, *labels)
    for rhs in BAD_MULTIPLICITIES:
        bad.write_text(f"1 -> {rhs}\n")
        with pytest.raises(gold.GoldenFileError, match="branch.txt"):
            gold.load_branch_lines(bad, *labels)
    with pytest.raises(gold.GoldenFileError, match="missing.txt"):
        gold.load_branch_lines(tmp_path / "missing.txt", *labels)
    bad.write_bytes(b"1 -> 1\n\xff\xfe\n")
    with pytest.raises(gold.GoldenFileError, match="branch.txt"):
        gold.load_branch_lines(bad, *labels)
    # the left side names an irrep of the parent's table, the terms the child's
    bad.write_text("7_1 -> 1 + 3_1 + 3_2\n")
    assert gold.load_branch_lines(bad, *labels)
    for line, error in (("9_9 -> 1", "unknown parent irrep label '9_9'"),
                        ("7_1 -> 1 + 9_9", "unknown child irrep label '9_9'"),
                        ("1 -> 7_1", "unknown child irrep label '7_1'")):
        bad.write_text(line + "\n")
        with pytest.raises(gold.GoldenFileError, match=f"branch.txt.*{error}"):
            gold.load_branch_lines(bad, *labels)


def test_alignment_found_for_every_roster_table():
    for name in catalog.ROSTER:
        cands = catalog._alignment_candidates(name, None)
        assert cands, f"no alignment for {name}"


def exhaustive_alignments(table, golden, group_name):
    """Reference for find_alignments: every permutation of the columns within
    their (size, element order) blocks, in itertools.product order over the
    blocks in sorted order, kept when its rows are the reference rows."""
    golden_meta = list(zip(golden.sizes, golden.orders[group_name]))
    computed_meta = [(c.size, c.element_order) for c in table.group.classes]
    metas = sorted(set(golden_meta))
    cols_of = {m: [c for c, meta in enumerate(golden_meta) if meta == m] for m in metas}
    classes_of = {m: [k for k, meta in enumerate(computed_meta) if meta == m] for m in metas}
    label_of = {tuple(str(v) for v in row): lab for lab, row in zip(golden.labels, golden.values)}
    found = []
    for combo in product(*(permutations(classes_of[m]) for m in metas)):
        col_to_class = [0] * golden.n_classes
        for m, perm in zip(metas, combo):
            for col, k in zip(cols_of[m], perm):
                col_to_class[col] = k
        label_to_row = {}
        for i, row in enumerate(table.rows):
            label = label_of.get(tuple(str(row.values[k]) for k in col_to_class))
            if label is None or label in label_to_row:
                break
            label_to_row[label] = i
        else:
            found.append((tuple(col_to_class), list(label_to_row.items())))
    return found


def test_alignment_candidates_match_exhaustive_enumeration():
    """The candidates of every roster table are those of the exhaustive
    enumeration, in its order: the first one is the reported alignment
    unless a branching list rules it out."""
    for name in catalog.ROSTER:
        golden = catalog._golden_table(catalog.ROSTER[name].golden_file, None)
        expected = exhaustive_alignments(catalog.table(name), golden, name)
        assert expected, name
        assert [(a.col_to_class, list(a.label_to_row.items()))
                for a in catalog._alignment_candidates(name, None)] == expected, name


def test_alignment_maps_are_bijective():
    a = catalog.alignment("2^3.PSL2(7)")
    assert sorted(a.label_to_row.values()) == list(range(11))
    assert sorted(a.col_to_class) == list(range(11))
    assert set(a.label_to_row) == set(a.golden.labels)


def test_product_line_parsing():
    lines = gold.load_tensor_lines(gold.DATA_DIR / "tensors_1344.txt",
                                   *reference_labels("2^3.PSL2(7)"))
    by_raw = {(l.left, l.right, l.flagged): l for l in lines}
    plain = by_raw[("3_1", "3_1", False)]
    assert plain.terms == (("3_2", 1), ("6", 1))
    flagged = [l for l in lines if l.flagged]
    assert len(flagged) == 3
    multi = next(l for l in lines if l.left == "6" and l.right == "6")
    assert dict(multi.terms) == {"1": 1, "6": 2, "7_2": 1, "8": 2}


def test_branch_line_parsing():
    lines = gold.load_branch_lines(gold.DATA_DIR / "branch_psl2_7_to_7_3.txt",
                                   *reference_labels("PSL2(7)", "7:3"))
    assert len(lines) == 6
    assert lines[-1].parent == "8"
    assert dict(lines[-1].terms) == {"1_1": 1, "1_2": 1, "3_1": 1, "3_2": 1}


def test_alignment_translates_rows_and_classes():
    for name in catalog.ROSTER:
        a = catalog.alignment(name)
        # the reference values (corrected where flagged), cell for cell
        assert a.cells() == [[str(v) for v in row] for row in a.golden.values]
        mults = [0] * len(a.table.rows)
        for k, lab in enumerate(reversed(a.golden.labels)):
            mults[a.label_to_row[lab]] = k
        assert a.terms(mults) == tuple((lab, len(mults) - 1 - i)
                                       for i, lab in enumerate(a.golden.labels[:-1]))


def test_render_terms():
    assert gold.render_terms((("1", 1), ("6", 2))) == "1 + 2(6)"
    assert gold.render_terms(()) == ""


def brute_force_relabeling(alignment, lines):
    """Reference for find_tensor_relabeling: every degree-preserving candidate
    in itertools.product order, each checked against every line."""
    table = alignment.table
    degrees = table.degrees()
    degs = sorted(set(degrees))
    rows_of = {d: [i for i, e in enumerate(degrees) if e == d] for d in degs}
    labels_of = {d: [lab for lab in alignment.golden.labels
                     if degrees[alignment.label_to_row[lab]] == d] for d in degs}
    checked = [line for line in lines if not line.flagged]
    for combo in product(*(permutations(rows_of[d]) for d in degs)):
        label_to_row = {lab: row for d, perm in zip(degs, combo)
                        for lab, row in zip(labels_of[d], perm)}
        row_to_label = {row: lab for lab, row in label_to_row.items()}
        if all(tuple(sorted((row_to_label[k], m) for k, m in enumerate(
                tensor_decompose(table, label_to_row[line.left], label_to_row[line.right]))
                if m)) == line.terms for line in checked):
            return {lab: alignment.row_to_label[row] for lab, row in label_to_row.items()}
    return None


def _renamed(lines, rename):
    return [gold.ProductLine(rename.get(line.left, line.left),
                             rename.get(line.right, line.right),
                             tuple(sorted((rename.get(lab, lab), m) for lab, m in line.terms)),
                             line.flagged, line.raw) for line in lines]


def test_tensor_relabeling_matches_brute_force():
    """The pruned search returns the first candidate of the exhaustive one: on
    the packaged 2^3.S4 list, on that list with degree-3 labels renamed, and
    with one line made unreproducible."""
    name = "2^3.S4"
    a = catalog.alignment(name)
    lines = gold.load_tensor_lines(gold.DATA_DIR / catalog.ROSTER[name].tensor_file,
                                   *reference_labels(name))
    found = gold.find_tensor_relabeling(a, lines)
    assert found is not None and found != {lab: lab for lab in found}
    assert list(found.items()) == list(brute_force_relabeling(a, lines).items())

    renamed = _renamed(lines, {"3_1": "3_4", "3_4": "3_6", "3_6": "3_1"})
    found = gold.find_tensor_relabeling(a, renamed)
    assert found is not None
    assert list(found.items()) == list(brute_force_relabeling(a, renamed).items())

    first = next(i for i, line in enumerate(lines) if not line.flagged)
    broken = list(lines)
    broken[first] = gold.ProductLine(lines[first].left, lines[first].right,
                                     tuple((lab, m + 1) for lab, m in lines[first].terms),
                                     False, lines[first].raw)
    assert gold.find_tensor_relabeling(a, broken) is None
    assert brute_force_relabeling(a, broken) is None


def test_tensor_relabeling_checks_lines_of_the_largest_degree():
    """A line naming an irrep of the largest degree is checked too: with its
    multiplicities raised by one its dimensions no longer add up, so no
    relabeling reproduces it."""
    for name, entry in catalog.ROSTER.items():
        if entry.tensor_file is None:
            continue
        a = catalog.alignment(name)
        lines = gold.load_tensor_lines(gold.DATA_DIR / entry.tensor_file,
                                       *reference_labels(name))
        degrees = a.table.degrees()
        degree = {lab: degrees[row] for lab, row in a.label_to_row.items()}
        top = max(degree.values())
        last = max(i for i, line in enumerate(lines) if not line.flagged and top in (
            degree[line.left], degree[line.right], *(degree[lab] for lab, _ in line.terms)))
        broken = list(lines)
        broken[last] = gold.ProductLine(lines[last].left, lines[last].right,
                                        tuple((lab, m + 1) for lab, m in lines[last].terms),
                                        False, lines[last].raw)
        assert gold.find_tensor_relabeling(a, broken) is None, name
