"""Command-line front end: character tables, tensor products, branchings,
octonion products, and the verification suite.

Exit codes: 0 success (flagged results allowed), 1 verification failure,
2 usage error or unusable reference data.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog
from .chartab import tensor_decompose
from .golden import GoldenFileError, render_terms
from .octonion import Octonion

USAGE_ERROR = 2


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return USAGE_ERROR


def _unknown_group(name: str) -> int:
    return _fail_usage(f"unknown group {name!r}; roster: {', '.join(sorted(catalog.ROSTER))}")


def cmd_chartab(args) -> int:
    name = args.group
    if name not in catalog.ROSTER:
        return _unknown_group(name)
    align = catalog.alignment(name, args.golden_dir)
    group = align.table.group

    classes = [{
        "representative": str(group.classes[k].representative),
        "size": group.classes[k].size,
        "order": group.classes[k].element_order,
    } for k in align.col_to_class]
    irreps = [{
        "label": lab,
        "degree": align.table.rows[align.label_to_row[lab]].degree,
        "values": values,
    } for lab, values in zip(align.labels_in_order(), align.cells())]
    doc = {"group": name, "order": group.order, "classes": classes, "irreps": irreps}

    if args.format == "json":
        print(json.dumps(doc, indent=2))
        return 0
    print(f"group {name}  order {group.order}  classes {len(classes)}")
    print(f"{'class':<8}{'size':>6}{'order':>7}  representative")
    for idx, cls in enumerate(classes, start=1):
        print(f"C{idx:<7}{cls['size']:>6}{cls['order']:>7}  {cls['representative']}")
    print()
    width = max(len(irr["label"]) for irr in irreps) + 2
    cells = [[irr["label"].ljust(width)] + irr["values"] for irr in irreps]
    col_widths = [max(len(row[c]) for row in cells) for c in range(len(classes) + 1)]
    header = "".ljust(width) + "  ".join(f"C{idx + 1}".rjust(col_widths[idx + 1])
                                         for idx in range(len(classes)))
    print(header)
    for row in cells:
        print(row[0] + "  ".join(cell.rjust(col_widths[c + 1])
                                 for c, cell in enumerate(row[1:])))
    return 0


def cmd_tensor(args) -> int:
    name = args.group
    if name not in catalog.ROSTER:
        return _unknown_group(name)
    align = catalog.alignment(name, args.golden_dir)
    try:
        i = align.irrep_index(args.left)
        j = align.irrep_index(args.right)
    except KeyError as exc:
        return _fail_usage(str(exc.args[0]))
    terms = align.terms(tensor_decompose(align.table, i, j))
    rendered = render_terms(terms)
    if args.format == "json":
        print(json.dumps({"group": name, "left": args.left, "right": args.right,
                          "decomposition": rendered,
                          "terms": [{"label": lab, "multiplicity": m} for lab, m in terms]},
                         indent=2))
    else:
        print(f"{args.left} x {args.right} = {rendered}")
    return 0


def cmd_branch(args) -> int:
    pair = (args.group, args.subgroup)
    if pair not in catalog.BRANCH_PAIRS:
        known = ", ".join(f"{p} -> {c}" for p, c in sorted(catalog.BRANCH_PAIRS))
        return _fail_usage(f"no registered subgroup embedding {args.group} -> "
                           f"{args.subgroup}; known: {known}")
    child_roster = catalog.BRANCH_CHILD_ROSTER[pair]
    parent_align = catalog.alignment(args.group, args.golden_dir)
    child_align = catalog.alignment(child_roster, args.golden_dir)
    matrix = catalog.branch_matrix(args.group, child_roster)
    lines = [(lab, render_terms(child_align.terms(matrix[parent_align.irrep_index(lab)])))
             for lab in parent_align.labels_in_order()]
    if args.format == "json":
        print(json.dumps({"group": args.group, "subgroup": args.subgroup,
                          "rows": [{"irrep": lab, "decomposition": dec}
                                   for lab, dec in lines]}, indent=2))
    else:
        for lab, dec in lines:
            print(f"{lab} -> {dec}")
    return 0


def cmd_verify(args) -> int:
    report = catalog.verify_all(args.golden_dir, args.filter)
    if not report.claims:
        return _fail_usage(f"no claim id contains {args.filter!r}")
    if args.format == "json":
        print(report.to_json())
    else:
        for claim in report.claims:
            mark = {"pass": "PASS", "fail": "FAIL", "flagged": "FLAG"}[claim.status]
            print(f"{mark} {claim.claim_id}: {claim.description}")
            if claim.status != "pass":
                print(f"     expected: {claim.expected}")
                print(f"     computed: {claim.computed}")
        print(report.summary())
    return 1 if report.failures else 0


def cmd_octmul(args) -> int:
    try:
        left = Octonion.parse(args.left)
        right = Octonion.parse(args.right)
    except ValueError as exc:
        return _fail_usage(f"bad octonion expression: {exc}")
    try:
        line = f"({left}) * ({right}) = {left * right}"
    except ValueError as exc:  # a coefficient past the int-to-str digit limit
        return _fail_usage(f"cannot print the product: {exc}")
    print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="octogroup",
        description="Exact group theory for the order-1344 octonion-frame groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--golden-dir", default=None,
                       help="directory of reference tables (defaults to packaged data)")

    p = sub.add_parser("chartab", help="print a character table")
    p.add_argument("group")
    common(p)
    p.set_defaults(fn=cmd_chartab)

    p = sub.add_parser("tensor", help="decompose a tensor product of irreps")
    p.add_argument("group")
    p.add_argument("left")
    p.add_argument("right")
    common(p)
    p.set_defaults(fn=cmd_tensor)

    p = sub.add_parser("branch", help="print branching to a maximal subgroup")
    p.add_argument("group")
    p.add_argument("subgroup")
    common(p)
    p.set_defaults(fn=cmd_branch)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--filter", default=None, help="only claims whose id contains this")
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("octmul", help="multiply two octonion expressions")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=cmd_octmul)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (GoldenFileError, catalog.BuildError) as exc:
        return _fail_usage(str(exc))


if __name__ == "__main__":
    sys.exit(main())
