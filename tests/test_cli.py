import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from octogroup import catalog
from octogroup.cli import main
from octogroup.golden import DATA_DIR


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_chartab_json_7_3(capsys):
    code, out, _ = run_cli(capsys, "chartab", "7:3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 21
    assert len(doc["classes"]) == 5
    assert len(doc["irreps"]) == 5
    assert sorted(i["degree"] for i in doc["irreps"]) == [1, 1, 1, 3, 3]
    assert [i["label"] for i in doc["irreps"]] == ["1", "1_1", "1_2", "3_1", "3_2"]


def test_chartab_json_1344(capsys):
    code, out, _ = run_cli(capsys, "chartab", "2^3.PSL2(7)", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["classes"]) == 11
    assert sum(c["size"] for c in doc["classes"]) == 1344
    eights = [c for c in doc["classes"] if c["order"] == 8]
    assert sum(c["size"] for c in eights) == 336


@pytest.mark.parametrize("argv", [("chartab", "nope"), ("tensor", "nope", "1", "1"),
                                  ("branch", "nope", "7:3")], ids=lambda argv: argv[0])
def test_chartab_unknown_group(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    if argv[0] == "branch":
        assert err.startswith("error: no registered subgroup embedding nope -> 7:3; known: ")
    else:
        assert err == f"error: unknown group 'nope'; roster: {', '.join(sorted(catalog.ROSTER))}\n"


def test_chartab_text(capsys):
    code, out, _ = run_cli(capsys, "chartab", "PSL2(7)")
    assert code == 0
    assert "order 168" in out
    assert "3_1" in out


def test_tensor_examples(capsys):
    code, out, _ = run_cli(capsys, "tensor", "2^3:7:3", "3_1", "3_2")
    assert code == 0
    assert out.strip() == "3_1 x 3_2 = 1 + 1_1 + 1_2 + 3_1 + 3_2"
    code, out, _ = run_cli(capsys, "tensor", "7:3", "1", "3_1")
    assert code == 0
    assert out.strip() == "1 x 3_1 = 3_1"
    # the printed source value for 8 x 8 omits a 7_2 (flagged misprint);
    # the computed decomposition is reported
    code, out, _ = run_cli(capsys, "tensor", "2^3.PSL2(7)", "8", "8")
    assert code == 0
    assert out.strip() == "8 x 8 = 1 + 3_1 + 3_2 + 2(6) + 3(7_2) + 3(8)"


def test_tensor_unknown_label(capsys):
    code, _, err = run_cli(capsys, "tensor", "7:3", "9_9", "1")
    assert code == 2
    assert "unknown irrep label" in err


def test_branch_examples(capsys):
    code, out, _ = run_cli(capsys, "branch", "2^3.PSL2(7)", "2^3:7:3")
    assert code == 0
    assert "21_1 -> 7_1 + 7_2 + 7_3" in out
    code, out, _ = run_cli(capsys, "branch", "PSL2(7)", "7:3")
    assert code == 0
    assert "6 -> 3_1 + 3_2" in out
    code, out, _ = run_cli(capsys, "branch", "2^3:PSL2(7)", "PSL2(7)")
    assert code == 0
    assert "7_3 -> 1 + 6" in out


def test_branch_non_subgroup_pair(capsys):
    code, _, err = run_cli(capsys, "branch", "7:3", "PSL2(7)")
    assert code == 2
    assert "no registered subgroup embedding" in err


def test_verify_filter(capsys):
    code, out, _ = run_cli(capsys, "verify", "--filter", "orders.")
    assert code == 0
    assert "PASS orders.7:3" in out
    assert "FAIL" not in out


def test_verify_full_exit_zero(capsys, report):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert "0 fail" in out
    assert "FLAG misprint.A" in out


def test_verify_filter_matching_nothing(capsys):
    code, out, err = run_cli(capsys, "verify", "--filter", "nosuchclaim")
    assert code == 2
    assert out == ""
    assert err == "error: no claim id contains 'nosuchclaim'\n"
    code, out, _ = run_cli(capsys, "verify", "--format", "json", "--filter", "nosuchclaim")
    assert (code, out) == (2, "")


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--format", "json", "--filter", "orders.")
    assert code == 0
    data = json.loads(out)
    assert all(c["status"] == "pass" for c in data)


def test_verify_corrupt_golden_dir(capsys, tmp_path):
    (tmp_path / "chartab_7_3.txt").write_text("group 7:3\norder 21\nsizes 9 9\n")
    code, out, _ = run_cli(capsys, "verify", "--golden-dir", str(tmp_path),
                           "--filter", "chartab.7:3")
    assert code == 1
    assert "FAIL" in out
    assert "chartab_7_3.txt" in out


def test_chartab_corrupt_golden_dir(capsys, tmp_path):
    (tmp_path / "chartab_7_3.txt").write_text("group 7:3\norder 21\nsizes 9 9\n")
    code, out, err = run_cli(capsys, "chartab", "7:3", "--golden-dir", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "chartab_7_3.txt" in err


def test_chartab_reference_errors_name_the_file(capsys, tmp_path):
    """A branching line naming an unknown label, a table with a duplicate irrep
    label, a file that is not UTF-8 and a cell whose conductor divides the
    file's order but exceeds 1344 are usage errors naming the file."""
    for f in DATA_DIR.iterdir():
        (tmp_path / f.name).write_bytes(f.read_bytes())

    def usage_error(name, path):
        code, out, err = run_cli(capsys, "chartab", name, "--golden-dir", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and path.name in err, err

    branch = tmp_path / "branch_2_3_7_3_to_7_3.txt"
    branch.write_text(branch.read_text().replace("\n1 -> 1\n", "\n9_9 -> 1\n"))
    usage_error("7:3", branch)
    table = tmp_path / "chartab_psl2_7.txt"
    packaged = table.read_bytes()
    table.write_bytes(packaged.replace(b"irrep 3_2", b"irrep 3_1"))
    usage_error("PSL2(7)-second", table)
    table.write_bytes(packaged + b"\xff\xfe")
    usage_error("PSL2(7)-second", table)
    table.write_text("group PSL2(7) PSL2(7)-second\norder 20000\nsizes 20000\n"
                     "orders PSL2(7)-second 1\nirrep 1 z20000\n")
    usage_error("PSL2(7)-second", table)


def test_verify_reports_reference_errors_by_type(capsys, tmp_path):
    for f in DATA_DIR.iterdir():
        (tmp_path / f.name).write_bytes(f.read_bytes())
    branch = tmp_path / "branch_2_3_7_3_to_7_3.txt"
    branch.write_text(branch.read_text().replace("\n1 -> 1\n", "\n9_9 -> 1\n"))
    code, out, _ = run_cli(capsys, "verify", "--golden-dir", str(tmp_path),
                           "--filter", "branch.2^3:7:3->")
    assert code == 1
    assert "computed: error: GoldenFileError: branch_2_3_7_3_to_7_3.txt: " in out


def test_query_reads_only_its_component_references(capsys, tmp_path):
    """PSL2(7)-second is alone in its branching component, so its query needs
    its own reference table and no branching or other table file."""
    (tmp_path / "chartab_psl2_7.txt").write_bytes((DATA_DIR / "chartab_psl2_7.txt").read_bytes())
    code, packaged, _ = run_cli(capsys, "chartab", "PSL2(7)-second")
    assert code == 0
    code, out, err = run_cli(capsys, "chartab", "PSL2(7)-second", "--golden-dir", str(tmp_path))
    assert (code, err) == (0, "")
    assert out == packaged


def test_inconsistent_component_names_its_groups(capsys, tmp_path):
    """A branching list that no alignment reproduces fails the queries of its
    own component only, and the error names that component's groups."""
    for f in DATA_DIR.iterdir():
        (tmp_path / f.name).write_bytes(f.read_bytes())
    branch = tmp_path / "branch_psl2_7_to_7_3.txt"
    branch.write_text(branch.read_text().replace("\n1 -> 1\n", "\n1 -> 1_1\n"))
    code, out, err = run_cli(capsys, "chartab", "PSL2(7)", "--golden-dir", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == ("error: no jointly consistent set of table alignments exists for "
                   "7:3-split, 2^3:7:3-split, 2^3:PSL2(7), PSL2(7)\n")
    code, packaged, _ = run_cli(capsys, "chartab", "7:3")
    code, out, err = run_cli(capsys, "chartab", "7:3", "--golden-dir", str(tmp_path))
    assert (code, err) == (0, "")
    assert out == packaged


def test_empty_golden_dir_means_packaged_data(capsys):
    code, default, _ = run_cli(capsys, "chartab", "7:3")
    assert code == 0
    cached = (catalog._alignment_candidates, catalog._golden_table, catalog.choose_alignments)
    misses = [fn.cache_info().misses for fn in cached]
    code, out, err = run_cli(capsys, "chartab", "7:3", "--golden-dir", "")
    assert code == 0, err
    assert out == default
    assert [fn.cache_info().misses for fn in cached] == misses
    assert catalog.alignment("7:3", "") is catalog.alignment("7:3")
    assert [fn.cache_info().misses for fn in cached] == misses


def test_octmul(capsys):
    code, out, _ = run_cli(capsys, "octmul", "e1", "e2")
    assert code == 0
    assert out.strip() == "(e1) * (e2) = e3"
    code, out, _ = run_cli(capsys, "octmul", "1/2*e2+e7", "e1")
    assert code == 0
    assert out.strip() == "(1/2*e2 + e7) * (e1) = -1/2*e3 + e4"
    code, _, err = run_cli(capsys, "octmul", "e9", "e1")
    assert code == 2
    code, out, err = run_cli(capsys, "octmul", "1/0*e1", "e2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad octonion expression")
    # numerals are digits or digits/digits only, so an exponent form is
    # rejected before it is expanded
    for bad in ("1e100000000", "1e5000", "1.5*e1", "1_0", "e0_7"):
        code, out, err = run_cli(capsys, "octmul", bad, "e1")
        assert (code, out) == (2, "")
        assert err.startswith("error: bad octonion expression")
    # a product coefficient past the int-to-str digit limit is a usage error
    big = "7" * 3000
    code, out, err = run_cli(capsys, "octmul", f"{big}*e1", f"{big}*e2")
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot print the product")


def test_json_output_byte_identical_across_processes():
    cmd = [sys.executable, "-m", "octogroup", "chartab", "7:3", "--format", "json"]
    first = subprocess.run(cmd, capture_output=True, check=True).stdout
    second = subprocess.run(cmd, capture_output=True, check=True).stdout
    assert first == second


def test_benchmark_tracer_installs():
    """perfbench/tracer.py wraps package functions by name, so renaming one
    breaks the traced benchmark; install() rebinds module globals, hence the
    separate process."""
    root = Path(__file__).resolve().parents[1]
    code = ("import octogroup.cli, octogroup.catalog\n"
            "from tracer import Tracer\n"
            "Tracer().install()\n"
            "assert octogroup.cli.main(['octmul', 'e1', 'e2']) == 0\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


ORACLES = Path(__file__).resolve().parents[1] / "perfbench" / "oracles"


def run_quiet(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_verify_reports_match_oracles(report):
    """The full JSON report and the text report of each claim family equal the
    benchmark's recorded outputs byte for byte."""
    oracle = json.loads((ORACLES / "verify.json").read_text())
    assert run_quiet(["verify", "--format", "json"]) == (0, oracle["full"])
    assert len(oracle["filter"]) == 19
    for prefix, stdout in oracle["filter"].items():
        assert run_quiet(["verify", "--filter", prefix]) == (0, stdout), prefix


def test_queries_match_oracles():
    """Every chartab, tensor, branch and octmul query the benchmark issues
    prints its recorded output and exit code."""
    oracle = json.loads((ORACLES / "cli.json").read_text())
    records = [rec for queries in oracle.values() for rec in queries]
    assert len(records) == 783
    for rec in records:
        assert run_quiet(rec["argv"]) == (rec["returncode"], rec["stdout"]), rec["argv"]
