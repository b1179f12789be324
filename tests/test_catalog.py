import importlib.util
import json
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from octogroup.signedperm import SignedPerm, conjugate
from octogroup.octonion import is_algebra_automorphism
from octogroup import catalog
from octogroup import golden as gold


def test_generator_values():
    a = catalog.generator("alpha")
    b = catalog.generator("beta")
    assert a.order() == 7
    assert conjugate(a, b) * a ** 3 == SignedPerm.identity(7)
    n = catalog.diagonal_involutions()
    assert catalog.generator("N2") * catalog.generator("N7") == n[5]
    assert n[5] == SignedPerm.diagonal([-1, -1, 1, 1, 1, -1, -1])
    assert n[2] * n[5] == n[7]
    assert is_algebra_automorphism(catalog.generator("gamma"))


def test_generator_unknown_name():
    with pytest.raises(KeyError):
        catalog.generator("omega")


def test_build_roster():
    for name, entry in catalog.ROSTER.items():
        group = catalog.build(name)
        assert group.order == entry.expected_order
        assert len(group.classes) == entry.expected_class_count


def test_build_examples():
    assert catalog.build("4.S4:2").order == 192
    split = catalog.build("2^3:PSL2(7)")
    psl = catalog.build("PSL2(7)")
    assert all(g in split for g in psl.elements)
    second = catalog.build("PSL2(7)-second")
    assert second.order == 168


def test_build_unknown():
    with pytest.raises(KeyError):
        catalog.build("M24")


def test_misprinted_generator_forms():
    printed_a = SignedPerm.parse(catalog.PRINTED_A)
    assert not is_algebra_automorphism(printed_a)
    from octogroup.groups import close
    assert close([printed_a, catalog.generator("B")]).order == 384
    printed_delta = SignedPerm.parse(catalog.PRINTED_DELTA)
    gens = [catalog.generator("alpha_t"), catalog.generator("beta_t"), printed_delta]
    assert close(gens).order == 1344
    # the corrected delta differs from the printed one by the diagonal part
    n = catalog.diagonal_involutions()
    assert printed_delta == catalog.generator("gamma_t") * n[7]
    assert catalog.generator("delta") == catalog.generator("gamma_t") * n[6]


def test_choose_alignments_consistent():
    chosen = catalog.choose_alignments(None)
    assert set(chosen) == set(catalog.ROSTER)


def test_components_of_branching_graph():
    assert catalog.COMPONENTS == (
        ("7:3", "2^3:7:3", "2^3.PSL2(7)"),
        ("7:3-split", "2^3:7:3-split", "2^3:PSL2(7)", "PSL2(7)"),
        ("PSL2(7)-second",), ("4.S4:2",), ("2^3:S4",), ("2^3.S4",), ("4:S4:2",),
        ("2^3.S4-pairs",),
    )
    assert all(catalog.COMPONENT_OF[n] == c for c in catalog.COMPONENTS for n in c)


def consistent_combinations(component):
    """Every combination of the component's alignment candidates, in
    itertools.product order, whose branching matrices reproduce each packaged
    branching line among its groups, compared label by label."""
    checks = []
    for (parent, child), branch_file in catalog.BRANCH_PAIRS.items():
        if parent in component:
            child_roster = catalog.BRANCH_CHILD_ROSTER[(parent, child)]
            checks.append((parent, child_roster, catalog.branch_matrix(parent, child_roster),
                           gold.load_branch_lines(gold.DATA_DIR / branch_file,
                                                  catalog._labels(parent, None),
                                                  catalog._labels(child_roster, None))))

    def reproduces(chosen, parent, child, matrix, line):
        row = matrix[chosen[parent].label_to_row[line.parent]]
        computed = {lab: row[i] for lab, i in chosen[child].label_to_row.items() if row[i]}
        return computed == dict(line.terms)

    found = []
    for combo in product(*(catalog._alignment_candidates(n, None) for n in component)):
        chosen = dict(zip(component, combo))
        if all(reproduces(chosen, parent, child, matrix, line)
               for parent, child, matrix, lines in checks for line in lines):
            found.append(chosen)
    return found


@pytest.mark.parametrize("component", [c for c in catalog.COMPONENTS if len(c) > 1],
                         ids=lambda c: c[0])
def test_alignment_is_first_consistent_combination(component):
    """More than one combination is consistent, so the search order decides
    the alignment: it is the first in product order over roster order."""
    found = consistent_combinations(component)
    assert len(found) > 1
    chosen = catalog.choose_alignments(None, component)
    assert list(chosen) == list(component)
    assert all(chosen[n] is found[0][n] for n in component)


def test_whole_roster_alignments_merge_components():
    chosen = catalog.choose_alignments(None)
    assert list(chosen) == list(catalog.ROSTER)
    assert chosen == {n: catalog.alignment(n) for n in catalog.ROSTER}
    for n in catalog.ROSTER:
        assert catalog.alignment(n) is catalog.choose_alignments(None, catalog.COMPONENT_OF[n])[n]


def test_empty_golden_dir_shares_packaged_alignments():
    catalog.choose_alignments(None)
    cached = (catalog._alignment_candidates, catalog._golden_table)
    misses = [fn.cache_info().misses for fn in cached]
    component = catalog.COMPONENT_OF["7:3"]
    chosen = catalog.choose_alignments("", component)
    assert chosen is catalog.choose_alignments(None, component)
    assert [fn.cache_info().misses for fn in cached] == misses


_QUERY_BUILDS = (
    "import contextlib, io, json, sys\n"
    "from octogroup import catalog, cli, quatpairs\n"
    "build, built = catalog.build, []\n"
    "catalog.build = lambda name: built.append(name) or build(name)\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    assert cli.main(['chartab', sys.argv[1]]) == 0\n"
    "print(json.dumps({'built': sorted(set(built)), 'misses': build.cache_info().misses,\n"
    "                  'quaternion_index': quatpairs.quaternion_index.cache_info().currsize}))\n"
)


@pytest.mark.parametrize("name", ["2^3.S4", "7:3"])
def test_one_table_query_builds_only_its_component(name):
    """A cold chartab query aligns only the branching component of its group,
    so it builds those groups alone; a fresh process starts with empty caches."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", _QUERY_BUILDS, name], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    component = catalog.COMPONENT_OF[name]
    assert json.loads(result.stdout) == {"built": sorted(component), "misses": len(component),
                                         "quaternion_index": 0}


def test_verify_report_no_failures(report):
    assert report.failures == []
    assert len(report.claims) == 90


def test_verify_report_expected_flags(report):
    flagged_ids = {c.claim_id for c in report.flagged}
    assert flagged_ids == {
        "misprint.A",
        "misprint.delta",
        "chartab.split-192-assignment",
        "psl2x2.gamma-delta-product",
        "chartab.PSL2(7)",
        "chartab.PSL2(7)-second",
        "chartab.2^3.S4",
        "chartab.4:S4:2",
        "chartab.2^3.S4-pairs",
        "tensor.2^3.PSL2(7)",
        "tensor.2^3:PSL2(7)",
        "tensor.2^3.S4",
        "tensor.4:S4:2",
        "tensor.2^3.S4-pairs",
    }


def test_verify_report_key_claims_pass(report):
    by_id = {c.claim_id: c for c in report.claims}
    for cid in (
        "orders.2^3.PSL2(7)", "orders.2^3:PSL2(7)", "orders.2^3.S4-pairs",
        "extension.2^3.PSL2(7)", "extension.2^3:PSL2(7)", "extension.2^3.S4",
        "extension.2^3:S4", "extension.4:S4:2",
        "psl2x2.nonconjugate", "psl2x2.natural-characters",
        "octonion.automorphisms-nonsplit", "octonion.automorphisms-split",
        "shared-table.matrices", "shared-table.order-histograms",
        "quaternion.homomorphism", "quaternion.pair-image-vs-AB",
        "branch.2^3.PSL2(7)->2^3:7:3", "branch.2^3:PSL2(7)->PSL2(7)",
        "branch.2^3:7:3->7:3", "branch.PSL2(7)->7:3",
        "parity.split-1344",
    ):
        assert by_id[cid].status == "pass", (cid, by_id[cid].computed)


def test_report_json_and_filter(report):
    data = json.loads(report.to_json())
    assert len(data) == len(report.claims)
    assert set(data[0]) == {"claim_id", "description", "status", "computed", "expected"}
    orders_only = catalog.verify_all(None, "orders.").claims
    assert orders_only
    assert orders_only == [c for c in report.claims if "orders." in c.claim_id]


def test_verify_all_spellings_agree(report):
    """None and "" both mean the packaged data and every claim; each call
    evaluates afresh, so no report is kept between calls."""
    assert not hasattr(catalog.verify_all, "cache_info")
    filtered = [catalog.verify_all(pattern="relations.frob"),
                catalog.verify_all(None, "relations.frob"),
                catalog.verify_all("", "relations.frob")]
    assert filtered[0] is not filtered[1]
    assert filtered[0].claims == filtered[1].claims == filtered[2].claims
    assert [c.claim_id for c in filtered[0].claims] == ["relations.frobenius"]
    assert catalog.verify_all("", "").claims == report.claims


def test_claim_families_match_benchmark_layers(report):
    """perfbench/tracer.py times each claim family under a fixed name; a
    family missing from its CLAIM_FAMILIES drops out of the traced layers."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    families = tuple(dict.fromkeys(c.claim_id.split(".")[0] for c in report.claims))
    assert families == tracer.CLAIM_FAMILIES


def test_filtered_verify_builds_no_group():
    """Claims are selected before they are evaluated, so the relations claims
    build no roster group; a fresh process starts with empty caches."""
    code = ("import contextlib, io\n"
            "from octogroup import catalog, cli\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "    assert cli.main(['verify', '--filter', 'relations.']) == 0\n"
            "assert '4 claims: 4 pass' in out.getvalue(), out.getvalue()\n"
            "assert catalog.build.cache_info().misses == 0, catalog.build.cache_info()\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_corrupt_golden_dir_reports_failures(tmp_path):
    (tmp_path / "chartab_7_3.txt").write_text("group 7:3\norder 21\nsizes 1 2 3\n")
    report = catalog.verify_all(str(tmp_path))
    failing = [c for c in report.claims if c.status == "fail"]
    assert failing
    assert any("chartab_7_3.txt" in c.computed or "chartab" in c.claim_id
               for c in failing)
    assert any(c.computed.startswith("error: GoldenFileError: ") for c in failing)


def test_branch_child_groups_inside_parents():
    for (parent, _child), child_roster in catalog.BRANCH_CHILD_ROSTER.items():
        parent_group = catalog.build(parent)
        for g in catalog.ROSTER[child_roster].generator_names:
            assert catalog.generator(g) in parent_group
