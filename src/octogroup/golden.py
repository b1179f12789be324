"""Reference tables: file formats, loading, and alignment of computed tables.

An ``Alignment`` is the one translator from a computed table to its
reference: its ``terms`` and ``cells`` give multiplicities and values under
reference labels, in reference row and column order, to the CLI, the
verification report and the line checks below.

Both matchings to reference labels come from one walk over permutations
within blocks (``_block_assignments``): ``find_alignments`` permutes columns
within (class size, element order) blocks and keeps those whose rows are the
reference rows, and ``find_tensor_relabeling`` permutes rows within degree
blocks and prunes on each tensor line as soon as its labels all have rows.

File conventions
----------------

Files are UTF-8.  Character-table files: one ``group``, ``order`` and
``sizes`` line and one ``orders`` line per group name, none repeated, and
one ``irrep <label> <cells...>`` line per row after the ``order`` line,
each label on one row only, and as many rows as classes.
The order, class sizes and element orders are positive integers written
in plain ASCII digits.  A cell may carry a known-misprint annotation
``printed!corrected``: the corrected value participates in all comparisons
and the cell is reported as flagged.  Values are integers, rationals,
``z{n}^{k}`` expressions (without spaces), or the symbols mu, mu_bar, eta,
eta_bar (optionally negated), which expand to z3, -1-z3, z7+z7^2+z7^4 and
its conjugate.
A character of a group of order N takes values in Q(z{N}), so every
``z{n}`` in a cell must have n dividing the ``order``, and n is at most
1344, the largest order of a roster group, so a cell with a huge conductor
fails at once instead of expanding.

Tensor files: lines ``<label> x <label> = <sum>``; a leading ``!`` flags a
suspected misprint (compared and reported, never fatal).  Branch files:
``<label> -> <sum>``.  Sums use ``+`` and optional multiplicities ``k(label)``,
where k is a positive integer in plain ASCII digits.  Every label must name
an irrep of the reference table of its group: the loaders take those labels
and reject any other.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path

from .chartab import CharacterTable, tensor_decompose
from .scalars import Cyclotomic

DATA_DIR = Path(__file__).parent / "data"

_SYMBOLS = {
    "mu": "z3",
    "mu_bar": "-1-z3",
    "eta": "z7+z7^2+z7^4",
    "eta_bar": "-1-z7-z7^2-z7^4",
}


class GoldenFileError(ValueError):
    """Malformed reference data file."""


def _load_lines(path: Path, kind: str, parse) -> list:
    """parse(line) for each non-blank, non-comment line of a UTF-8 file; a
    ValueError or IndexError becomes a GoldenFileError naming the file and
    the line."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise GoldenFileError(f"cannot read reference file {path}: {exc}") from exc
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            out.append(parse(line))
        except (ValueError, IndexError) as exc:
            raise GoldenFileError(f"{path.name}: bad line {raw!r}: {exc}") from exc
    if not out:
        raise GoldenFileError(f"{path.name}: no {kind} lines")
    return out


def _positive(text: str) -> int:
    """A positive integer written in plain ASCII digits."""
    if not re.fullmatch(r"[0-9]+", text) or int(text) < 1:
        raise ValueError(f"{text!r} is not a positive integer")
    return int(text)


def _parse_value(text: str, order: int) -> Cyclotomic:
    """A cell of the table of a group of the given order."""
    if text.startswith("-") and text[1:] in _SYMBOLS:
        return _parse_value(text[1:], order).scale(-1)
    text = _SYMBOLS.get(text, text)
    for n in map(int, re.findall(r"z([0-9]+)", text)):
        if n < 1 or order < 1 or order % n:
            raise ValueError(f"conductor {n} does not divide the group order {order}")
    return Cyclotomic.parse(text)


@dataclass(frozen=True)
class FlaggedCell:
    row_label: str | None  # None for a header (size) cell
    column: int
    printed: str
    corrected: str


@dataclass
class GoldenTable:
    path: str
    names: list[str]
    order: int
    sizes: list[int]
    orders: dict[str, list[int]]
    labels: list[str]
    values: list[list[Cyclotomic]]
    flags: list[FlaggedCell]

    @property
    def n_classes(self) -> int:
        return len(self.sizes)


def _split_flag(cell: str) -> tuple[str, str | None]:
    if "!" in cell:
        printed, corrected = cell.split("!", 1)
        return corrected, printed
    return cell, None


def load_golden_table(path: Path | str) -> GoldenTable:
    path = Path(path)
    t = GoldenTable(str(path), [], 0, [], {}, [], [], [])
    headers: set[str] = set()

    def parse(line: str) -> None:
        kind, *fields = line.split()
        if kind != "irrep":
            header = f"orders {fields[0]}" if kind == "orders" else kind
            if header in headers:
                raise ValueError(f"repeated {header!r} line")
            headers.add(header)
        if kind == "group":
            t.names = fields
        elif kind == "order":
            t.order = _positive(fields[0])
        elif kind == "sizes":
            for col, cell in enumerate(fields):
                val, printed = _split_flag(cell)
                t.sizes.append(_positive(val))
                if printed is not None:
                    t.flags.append(FlaggedCell(None, col, printed, val))
        elif kind == "orders":
            t.orders[fields[0]] = [_positive(x) for x in fields[1:]]
        elif kind == "irrep":
            if "order" not in headers:
                raise ValueError("irrep line before the 'order' line")
            label, *cells = fields
            if label in t.labels:
                raise ValueError(f"duplicate irrep label {label!r}")
            row = []
            for col, cell in enumerate(cells):
                val, printed = _split_flag(cell)
                row.append(_parse_value(val, t.order))
                if printed is not None:
                    t.flags.append(FlaggedCell(label, col, printed, val))
            t.labels.append(label)
            t.values.append(row)
        else:
            raise ValueError(f"unknown directive {kind!r}")

    _load_lines(path, "table", parse)
    if not t.names or not t.sizes or not t.labels:
        raise GoldenFileError(f"{path.name}: incomplete reference table")
    if sum(t.sizes) != t.order:
        raise GoldenFileError(f"{path.name}: class sizes do not sum to the order")
    if len(t.labels) != len(t.sizes):
        raise GoldenFileError(f"{path.name}: {len(t.labels)} irreps for {len(t.sizes)} classes")
    for name, olist in t.orders.items():
        if len(olist) != len(t.sizes):
            raise GoldenFileError(f"{path.name}: orders row for {name} has wrong length")
    for label, row in zip(t.labels, t.values):
        if len(row) != len(t.sizes):
            raise GoldenFileError(f"{path.name}: row {label} has wrong length")
    return t


@dataclass
class Alignment:
    """A verified match between a computed table and a reference table, and
    the translation of computed rows and classes into reference labels and
    columns."""

    golden: GoldenTable
    group_name: str
    table: CharacterTable
    col_to_class: tuple[int, ...]   # reference column -> computed class index
    label_to_row: dict[str, int]    # reference label -> computed row index
    row_to_label: dict[int, str]

    def irrep_index(self, label: str) -> int:
        if label not in self.label_to_row:
            raise KeyError(f"unknown irrep label {label!r} for {self.group_name}")
        return self.label_to_row[label]

    def labels_in_order(self) -> list[str]:
        return list(self.golden.labels)

    def terms(self, mults) -> tuple[tuple[str, int], ...]:
        """The nonzero (label, multiplicity) pairs of multiplicities indexed
        by computed row, in reference label order."""
        pairs = ((lab, mults[self.label_to_row[lab]]) for lab in self.golden.labels)
        return tuple((lab, m) for lab, m in pairs if m)

    def cells(self) -> list[list[str]]:
        """The computed table as text, in reference row and column order."""
        return [[str(self.table.rows[self.label_to_row[lab]].values[k]) for k in self.col_to_class]
                for lab in self.golden.labels]


def _block_assignments(blocks, fits):
    """Each assignment of every block's targets to its sources, as a dict
    from source to target, for blocks of (sources, targets) of equal length.

    Assignments come in itertools.product order over the blocks'
    permutations of their targets.  After block d is assigned, an assignment
    that fits(d, assignment) rejects is not extended.
    """
    assignment: dict = {}

    def walk(depth: int):
        if depth == len(blocks):
            yield dict(assignment)
            return
        sources, targets = blocks[depth]
        for perm in permutations(targets):
            assignment.update(zip(sources, perm))
            if fits(depth, assignment):
                yield from walk(depth + 1)

    return walk(0)


def find_alignments(table: CharacterTable, golden: GoldenTable,
                    group_name: str) -> list[Alignment]:
    """All column/row matchings making the computed table equal the reference.

    Columns may only be permuted within identical (size, element-order)
    groups; row matching is then forced cell-by-cell.
    """
    if group_name not in golden.orders:
        raise GoldenFileError(f"{golden.path}: no orders row for {group_name}")
    if table.group.order != golden.order:
        return []
    classes = table.group.classes
    if len(classes) != golden.n_classes:
        return []
    golden_meta = list(zip(golden.sizes, golden.orders[group_name]))
    computed_meta = [(c.size, c.element_order) for c in classes]
    if sorted(golden_meta) != sorted(computed_meta):
        return []
    blocks = [([col for col, m in enumerate(golden_meta) if m == meta],
               [idx for idx, m in enumerate(computed_meta) if m == meta])
              for meta in sorted(set(golden_meta))]

    cell_str = [[str(v) for v in row.values] for row in table.rows]
    golden_rows = {}
    for label, row in zip(golden.labels, golden.values):
        key = tuple(str(v) for v in row)
        if key in golden_rows:
            raise GoldenFileError(f"{golden.path}: duplicate reference rows")
        golden_rows[key] = label

    alignments = []
    for assignment in _block_assignments(blocks, lambda depth, assignment: True):
        col_to_class = tuple(assignment[col] for col in range(golden.n_classes))
        label_to_row: dict[str, int] = {}
        for i, cells in enumerate(cell_str):
            label = golden_rows.get(tuple(cells[idx] for idx in col_to_class))
            if label is None or label in label_to_row:
                break
            label_to_row[label] = i
        else:
            alignments.append(Alignment(
                golden, group_name, table, col_to_class,
                label_to_row, {i: lab for lab, i in label_to_row.items()},
            ))
    return alignments


# -- tensor and branching reference lists -------------------------------------

@dataclass(frozen=True)
class ProductLine:
    left: str
    right: str
    terms: tuple[tuple[str, int], ...]
    flagged: bool
    raw: str


@dataclass(frozen=True)
class BranchLine:
    parent: str
    terms: tuple[tuple[str, int], ...]
    raw: str


def _known(label: str, labels: list[str], what: str) -> str:
    if label not in labels:
        raise ValueError(f"unknown {what} label {label!r}")
    return label


def _parse_terms(text: str, labels: list[str], what: str) -> tuple[tuple[str, int], ...]:
    terms: dict[str, int] = {}
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"empty term in {text!r}")
        if "(" in chunk:
            mult_str, rest = chunk.split("(", 1)
            if not rest.endswith(")"):
                raise ValueError(f"bad term {chunk!r}")
            mult = _positive(mult_str.strip())
            label = rest[:-1].strip()
        else:
            mult, label = 1, chunk
        label = _known(label, labels, what)
        terms[label] = terms.get(label, 0) + mult
    return tuple(sorted(terms.items()))


def load_tensor_lines(path: Path | str, labels: list[str]) -> list[ProductLine]:
    """The lines of a tensor file, every label one of the reference labels."""
    def parse(line: str) -> ProductLine:
        flagged = line.startswith("!")
        if flagged:
            line = line[1:].strip()
        head, rhs = line.split("=", 1)
        left, right = (_known(part.strip(), labels, "irrep") for part in head.split("x", 1))
        return ProductLine(left, right, _parse_terms(rhs, labels, "irrep"), flagged, line)
    return _load_lines(Path(path), "tensor", parse)


def load_branch_lines(path: Path | str, parent_labels: list[str],
                      child_labels: list[str]) -> list[BranchLine]:
    """The lines of a branch file, each left side one of parent_labels and
    each term one of child_labels."""
    def parse(line: str) -> BranchLine:
        head, rhs = line.split("->", 1)
        return BranchLine(_known(head.strip(), parent_labels, "parent irrep"),
                          _parse_terms(rhs, child_labels, "child irrep"), line)
    return _load_lines(Path(path), "branch", parse)


def render_terms(terms: tuple[tuple[str, int], ...]) -> str:
    return " + ".join(label if m == 1 else f"{m}({label})" for label, m in terms)


@dataclass(frozen=True)
class LineCheck:
    line: str
    matches: bool
    flagged: bool
    computed: str


def _check_line(alignment: Alignment, mults, line: ProductLine | BranchLine,
                flagged: bool) -> LineCheck:
    """A reference line against multiplicities indexed by computed row."""
    computed = alignment.terms(mults)
    return LineCheck(line.raw, dict(computed) == dict(line.terms), flagged,
                     render_terms(computed))


def check_tensor_lines(alignment: Alignment, lines: list[ProductLine]) -> list[LineCheck]:
    results = []
    for line in lines:
        i = alignment.irrep_index(line.left)
        j = alignment.irrep_index(line.right)
        mults = tensor_decompose(alignment.table, i, j)
        results.append(_check_line(alignment, mults, line, line.flagged))
    return results


def find_tensor_relabeling(alignment: Alignment,
                           lines: list[ProductLine]) -> dict[str, str] | None:
    """A degree-preserving relabeling reproducing every non-flagged tensor line.

    Returns a map from the labels used by the product list to the aligned
    table labels (identity when the list already matches), or None.  This
    reconciles sources whose product lists enumerate equal-degree irreps in
    a different order than their own character table rows.
    """
    table = alignment.table
    degrees = table.degrees()
    label_degree = {lab: degrees[row] for lab, row in alignment.label_to_row.items()}
    blocks = [([lab for lab in alignment.golden.labels if label_degree[lab] == d],
               [i for i, e in enumerate(degrees) if e == d])
              for d in sorted(set(degrees))]

    # every candidate reads the same products of rows, so decompose each once;
    # products[i, j] lists the (row, multiplicity) terms of irrep_i (x) irrep_j
    products: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i in range(len(degrees)):
        for j in range(i, len(degrees)):
            products[i, j] = products[j, i] = [
                (k, m) for k, m in enumerate(tensor_decompose(table, i, j)) if m]

    # Candidates assign rows to the labels one degree at a time.  A line is
    # checked as soon as every label it names has a row, so the first full
    # match is the first candidate in itertools.product order that matches.
    depth_of = {lab: depth for depth, (labels, _) in enumerate(blocks) for lab in labels}
    ready: list[list[ProductLine]] = [[] for _ in blocks]
    for line in lines:
        if line.flagged:
            continue
        names = [line.left, line.right, *(lab for lab, _ in line.terms)]
        ready[max(depth_of[lab] for lab in names)].append(line)

    def fits(depth: int, label_to_row: dict[str, int]) -> bool:
        return all(sorted((label_to_row[lab], m) for lab, m in line.terms)
                   == products[label_to_row[line.left], label_to_row[line.right]]
                   for line in ready[depth])

    label_to_row = next(_block_assignments(blocks, fits), None)
    if label_to_row is None:
        return None
    return {lab: alignment.row_to_label[row] for lab, row in label_to_row.items()}


def check_branch_lines(parent: Alignment, child: Alignment,
                       branch_matrix: tuple[tuple[int, ...], ...],
                       lines: list[BranchLine]) -> list[LineCheck]:
    return [_check_line(child, branch_matrix[parent.irrep_index(line.parent)], line, False)
            for line in lines]
