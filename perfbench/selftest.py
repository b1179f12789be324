"""Self-tests of the benchmark: seeded op lists, oracles, metric names.

    python3 perfbench/selftest.py

Runs in a few seconds; it starts no octogroup process.
"""

from __future__ import annotations

import itertools
import json
import sys
import unittest

import ops
import run
import tracer

DECLARED = json.loads((ops.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
ORACLES = {name: ops.load_oracle(name) for name in ("verify", "cli", "warm")}
DRAW_ORACLE = {"verify": ORACLES["verify"], "cli-cold": ORACLES["cli"],
               "library-warm": ORACLES["warm"]}
EXPECT = ops.cli_expectations(ORACLES["verify"], ORACLES["cli"])


def op_list(workload: str, seed: int, n_rounds: int = 50) -> list[ops.Op]:
    stream = ops.rounds(workload, seed, DRAW_ORACLE[workload])
    return [op for rnd in itertools.islice(stream, n_rounds) for op in rnd]


def in_universe(workload: str, op: ops.Op) -> bool:
    if workload != "library-warm":
        return op.args in EXPECT
    warm = ORACLES["warm"]
    if op.kind == "branch":
        return "|".join(op.args) in warm["branch"]
    rec = warm["groups"].get(op.args[0])
    if rec is None:
        return False
    r = len(rec["degrees"])
    return all(0 <= i < r for i in op.args[1:]) and (
        op.kind != "tensor" or f"{op.args[1]},{op.args[2]}" in rec["tensor"])


class OpStreams(unittest.TestCase):
    def test_same_seed_same_ops(self):
        for w in ops.WORKLOADS:
            self.assertEqual(op_list(w, 7), op_list(w, 7), w)

    def test_other_seed_same_universe(self):
        for w in ops.WORKLOADS:
            a, b = op_list(w, 7), op_list(w, 8)
            self.assertNotEqual(a, b, w)
            self.assertTrue(all(in_universe(w, op) for op in a + b), w)
            kinds = [op.kind for op in a]
            self.assertEqual(kinds, list(ops.KINDS[w]) * (len(a) // len(ops.KINDS[w])), w)

    def test_draws_cover_small_and_large_groups(self):
        groups = {op.args[1] for op in op_list("cli-cold", 3, 200) if op.kind == "chartab"}
        self.assertIn("7:3", groups)
        self.assertIn("2^3.PSL2(7)", groups)


def count_failures(op: ops.Op, returncode: int, stdout: str) -> int:
    """Failed ops when every op of a closed loop returns this output."""
    samples = ops.closed_loop(iter([[op], [op]]), 60, lambda _: (returncode, stdout),
                              lambda o, out: ops.check_cli(EXPECT, o, *out))
    return sum(not s.ok for s in samples)


class Oracles(unittest.TestCase):
    def test_seed_report_counts(self):
        claims = json.loads(ORACLES["verify"]["full"])
        statuses = [c["status"] for c in claims]
        self.assertEqual((len(claims), statuses.count("pass"), statuses.count("flagged")),
                         (90, 76, 14))

    def test_filtered_reports_are_the_full_report_filtered(self):
        ids = [c["claim_id"] for c in json.loads(ORACLES["verify"]["full"])]
        for prefix, text in ORACLES["verify"]["filter"].items():
            want = [i for i in ids if prefix in i]
            got = [line.split(" ", 1)[1].split(": ", 1)[0] for line in text.splitlines()
                   if line[:5] in ("PASS ", "FLAG ", "FAIL ")]
            self.assertEqual(got, want, prefix)

    def test_full_report_flipped_status_fails(self):
        op = ops.Op("full", ("verify", "--format", "json"))
        good = ORACLES["verify"]["full"]
        self.assertEqual(count_failures(op, 0, good), 0)
        bad = good.replace('"status": "flagged"', '"status": "pass"', 1)
        self.assertNotEqual(bad, good)
        self.assertEqual(count_failures(op, 0, bad), 2)
        self.assertEqual(count_failures(op, 1, good), 2)

    def test_filtered_report_flipped_status_fails(self):
        op = ops.Op("filter", ("verify", "--filter", "tensor."))
        good = ORACLES["verify"]["filter"]["tensor."]
        bad = good.replace("FLAG ", "PASS ", 1)
        self.assertNotEqual(bad, good)
        self.assertEqual(count_failures(op, 0, good), 0)
        self.assertEqual(count_failures(op, 0, bad), 2)

    def test_cli_tensor_multiplicity_changed_fails(self):
        q = next(q for q in ORACLES["cli"]["tensor"] if "2(" in q["stdout"])
        op = ops.Op("tensor", tuple(q["argv"]))
        bad = q["stdout"].replace("2(", "3(", 1)
        self.assertEqual(count_failures(op, 0, q["stdout"]), 0)
        self.assertEqual(count_failures(op, 0, bad), 2)

    def test_warm_tensor_multiplicity_changed_fails(self):
        rec = ORACLES["warm"]["groups"]["2^3.PSL2(7)"]
        r = len(rec["degrees"])
        op = ops.Op("tensor", ("2^3.PSL2(7)", r - 1, r - 1))
        good = rec["tensor"][f"{r - 1},{r - 1}"]
        bad = list(good)
        bad[0] += 1
        samples = ops.closed_loop(iter([[op], [op]]), 60, lambda _: bad,
                                  lambda o, out: ops.check_warm(ORACLES["warm"], o, out))
        self.assertEqual(sum(not s.ok for s in samples), 2)
        self.assertTrue(ops.check_warm(ORACLES["warm"], op, good))

    def test_warm_branch_row_changed_fails(self):
        key = sorted(ORACLES["warm"]["branch"])[0]
        op = ops.Op("branch", tuple(key.split("|")))
        good = ORACLES["warm"]["branch"][key]
        bad = [list(row) for row in good]
        bad[-1][-1] += 1
        self.assertTrue(ops.check_warm(ORACLES["warm"], op, good))
        self.assertFalse(ops.check_warm(ORACLES["warm"], op, bad))


class MetricNames(unittest.TestCase):
    def test_end_to_end_names_declared(self):
        declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
        samples = [ops.Sample(k, 0.5, True, float(i)) for i, k in enumerate(ops.KINDS["cli-cold"])]
        prober = ops.Prober()
        prober.probe()
        metrics, _ = run.summarize("cli-cold", samples, [(0.0, 0.1), (1.0, 0.2)], prober, len(samples))
        self.assertEqual({k: v["unit"] for k, v in metrics.items()}, declared)

    def test_per_layer_names_declared(self):
        declared = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
        metrics, _ = run.traced_metrics([], [0.0], 1, {})
        self.assertEqual({k: v["unit"] for k, v in metrics.items()}, declared)

    def test_workloads_declared(self):
        self.assertEqual([w["name"] for w in DECLARED["workloads"]], list(ops.WORKLOADS))


class Tracing(unittest.TestCase):
    def test_wraps_every_binding_site(self):
        sys.path.insert(0, str(run.SRC))
        from octogroup import catalog, chartab, cli, golden, groups
        plain_close = groups.close
        t = tracer.Tracer()
        t.install()
        self.assertIsNot(groups.close, plain_close)
        self.assertIs(catalog.close, groups.close)
        self.assertIs(cli.tensor_decompose, chartab.tensor_decompose)
        self.assertIs(golden.tensor_decompose, chartab.tensor_decompose)
        t.begin_op(0)
        g = catalog.build("7:3")  # a cache miss, then a hit
        catalog.build("7:3")
        g2 = groups.close(list(g.generators))
        self.assertEqual(len(g2.classes), 5)
        values = tracer.layer_values([t.dump()])
        self.assertEqual(values["catalog.build_misses"], 1)
        self.assertEqual(values["groups.close_calls"], 2)
        self.assertGreater(values["signedperm.mul_calls"], 0)
        names = [s[0] for s in t.spans]
        self.assertEqual(names.count("catalog.build"), 2)
        # the closure inside catalog.build is its child span
        build = names.index("catalog.build")
        self.assertEqual(t.spans[names.index("groups.close")][3], build)


if __name__ == "__main__":
    unittest.main()
