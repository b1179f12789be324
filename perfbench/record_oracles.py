"""Record the output oracles of the benchmark.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/record_oracles.py

It writes ``perfbench/oracles/{verify,cli,warm}.json``.  Everything is
computed in one process, where warm caches make the whole query universe
quick; the benchmark then checks every cold process against these files.
The committed files were recorded at the seed commit ac7996d.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from fractions import Fraction

from ops import ORACLE_DIR, ROOT

sys.path.insert(0, str(ROOT / "src"))

from octogroup import catalog, chartab, cli  # noqa: E402

N_OCTMUL = 64


def run_cli(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return {"argv": argv, "returncode": code, "stdout": out.getvalue()}


def octonion_expressions(n: int) -> list[str]:
    """Expressions in the CLI grammar; none starts with '-', which argparse
    would take for an option."""
    rng = random.Random(2016)
    out = []
    while len(out) < n:
        terms = []
        for idx in rng.sample(range(8), rng.randint(1, 3)):
            coeff = rng.choice([Fraction(1), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3)])
            sign = "-" if (terms and rng.random() < 0.4) else "+"
            atom = "1" if idx == 0 else f"e{idx}"
            body = str(coeff) if idx == 0 else (atom if coeff == 1 else f"{coeff}*{atom}")
            terms.append(f" {sign} {body}" if terms else body)
        out.append("".join(terms))
    return out


def record_verify() -> dict:
    full = run_cli(["verify", "--format", "json"])
    assert full["returncode"] == 0
    claims = json.loads(full["stdout"])
    families = list(dict.fromkeys(c["claim_id"].split(".")[0] for c in claims))
    filtered = {}
    for fam in families:
        rec = run_cli(["verify", "--filter", fam + "."])
        assert rec["returncode"] == 0
        filtered[fam + "."] = rec["stdout"]
    return {"full": full["stdout"], "filter": filtered}


def record_cli() -> dict:
    names = list(catalog.ROSTER)
    chartab_q = [run_cli(["chartab", n, "--format", f]) for n in names for f in ("text", "json")]
    tensor_q = []
    for n in names:
        if catalog.ROSTER[n].tensor_file is None:
            continue
        labels = catalog.alignment(n).labels_in_order()
        for a in range(len(labels)):
            for b in range(a, len(labels)):
                tensor_q.append(run_cli(["tensor", n, labels[a], labels[b]]))
    branch_q = [run_cli(["branch", p, c]) for p, c in catalog.BRANCH_PAIRS]
    exprs = octonion_expressions(2 * N_OCTMUL)
    octmul_q = [run_cli(["octmul", exprs[2 * k], exprs[2 * k + 1]]) for k in range(N_OCTMUL)]
    out = {"chartab": chartab_q, "tensor": tensor_q, "branch": branch_q, "octmul": octmul_q}
    for queries in out.values():
        assert all(q["returncode"] == 0 for q in queries)
    return out


def record_warm() -> dict:
    groups = {}
    for n in catalog.ROSTER:
        t = catalog.table(n)
        r = len(t.rows)
        fs = [chartab.frobenius_schur(t, i) for i in range(r)]
        # independent check: sum of indicator * degree counts the solutions of g^2 = 1
        squares_one = sum(1 for g in t.group.elements if g * g == t.group.identity)
        assert sum(v * d for v, d in zip(fs, t.degrees())) == squares_one
        groups[n] = {
            "degrees": list(t.degrees()),
            "tensor": {f"{i},{j}": chartab.tensor_decompose(t, i, j)
                       for i in range(r) for j in range(i, r)},
            "natural": chartab.decompose(chartab.natural_character(t.group), t),
            "fs": fs,
        }
    branch = {f"{parent}|{child}": chartab.branch(catalog.table(parent), catalog.table(child))
              for (parent, _), child in catalog.BRANCH_CHILD_ROSTER.items()}
    return {"groups": groups, "branch": branch}


def main() -> int:
    ORACLE_DIR.mkdir(exist_ok=True)
    for name, fn in (("verify", record_verify), ("cli", record_cli), ("warm", record_warm)):
        with open(ORACLE_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(fn(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"recorded {name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
