"""Seeded operation streams, output checks, speed probes and the closed
measuring loop.

Every workload is a stream of rounds; a round holds one op of each kind the
workload mixes, so every run measures the same mix whatever the seed draws.
The seed only chooses the arguments, from the finite query universe whose
outputs were recorded at the seed commit (see ``record_oracles.py``).
"""

from __future__ import annotations

import bisect
import json
import random
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ORACLE_DIR = HERE / "oracles"

WORKLOADS = ("verify", "cli-cold", "library-warm")
KINDS = {
    "verify": ("full", "filter"),
    "cli-cold": ("chartab", "tensor", "branch", "octmul"),
    "library-warm": ("tensor", "branch", "natural", "fs", "inner"),
}


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple  # CLI argv for the cold workloads, call arguments for library-warm


@dataclass(frozen=True)
class Sample:
    kind: str
    seconds: float
    ok: bool
    start: float  # time.perf_counter(), comparable across processes on Linux


def load_oracle(name: str) -> dict:
    with open(ORACLE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


# -- op streams ----------------------------------------------------------------

def rounds(workload: str, seed: int, oracle: dict):
    """Endless seeded stream of rounds (lists of ops) for one workload."""
    rng = random.Random(f"{workload}:{seed}")
    draw = {"verify": _verify_round, "cli-cold": _cli_round,
            "library-warm": _warm_round}[workload]
    while True:
        yield draw(rng, oracle)


def _verify_round(rng: random.Random, oracle: dict) -> list[Op]:
    prefix = rng.choice(sorted(oracle["filter"]))
    return [Op("full", ("verify", "--format", "json")),
            Op("filter", ("verify", "--filter", prefix))]


def _cli_round(rng: random.Random, oracle: dict) -> list[Op]:
    ops = []
    for kind in KINDS["cli-cold"]:
        queries = oracle[kind]
        if kind == "tensor":
            # uniform over groups first, so small and large groups are drawn
            # alike whatever their number of irrep pairs
            group = rng.choice(sorted({q["argv"][1] for q in queries}))
            queries = [q for q in queries if q["argv"][1] == group]
        ops.append(Op(kind, tuple(rng.choice(queries)["argv"])))
    return ops


def _warm_round(rng: random.Random, oracle: dict) -> list[Op]:
    groups = oracle["groups"]
    names = sorted(groups)

    def irrep(name):
        return rng.randrange(len(groups[name]["degrees"]))

    g = rng.choice(names)
    i, j = sorted((irrep(g), irrep(g)))
    tensor = Op("tensor", (g, i, j))
    parent, child = rng.choice(sorted(oracle["branch"])).split("|")
    natural = Op("natural", (rng.choice(names),))
    g = rng.choice(names)
    fs = Op("fs", (g, irrep(g)))
    g = rng.choice(names)
    i = irrep(g)
    j = i if rng.random() < 0.5 else irrep(g)
    return [tensor, Op("branch", (parent, child)), natural, fs, Op("inner", (g, i, j))]


# -- output checks ---------------------------------------------------------------

def cli_expectations(verify_oracle: dict, cli_oracle: dict) -> dict:
    """argv tuple -> (exit code, stdout) recorded at the seed commit."""
    expect = {("verify", "--format", "json"): (0, verify_oracle["full"])}
    for prefix, text in verify_oracle["filter"].items():
        expect[("verify", "--filter", prefix)] = (0, text)
    for queries in (cli_oracle[k] for k in KINDS["cli-cold"]):
        for q in queries:
            expect[tuple(q["argv"])] = (q["returncode"], q["stdout"])
    return expect


def check_cli(expect: dict, op: Op, returncode: int, stdout: str) -> bool:
    return expect.get(op.args) == (returncode, stdout)


def check_warm(oracle: dict, op: Op, result) -> bool:
    """Compare a library result with the seed record and a dimension count.

    Degrees come from the record, never from the table under test.
    """
    if op.kind == "branch":
        parent, child = op.args
        want = oracle["branch"][f"{parent}|{child}"]
        pdeg = oracle["groups"][parent]["degrees"]
        cdeg = oracle["groups"][child]["degrees"]
        rows = [list(r) for r in result]
        return rows == want and all(
            sum(m * d for m, d in zip(row, cdeg)) == pdeg[i] for i, row in enumerate(rows))
    rec = oracle["groups"][op.args[0]]
    deg = rec["degrees"]
    if op.kind == "tensor":
        _, i, j = op.args
        mults = list(result)
        return (mults == rec["tensor"][f"{i},{j}"]
                and sum(m * d for m, d in zip(mults, deg)) == deg[i] * deg[j])
    if op.kind == "natural":
        mults = list(result)
        return mults == rec["natural"] and sum(m * d for m, d in zip(mults, deg)) == 7
    if op.kind == "fs":
        return result == rec["fs"][op.args[1]]
    if op.kind == "inner":  # first orthogonality relation
        _, i, j = op.args
        return result == (1 if i == j else 0)
    raise ValueError(f"unknown op kind {op.kind!r}")


def run_warm_op(catalog, chartab, op: Op):
    """One library-warm query against the warm caches of a live session.

    Functions are looked up on their modules at call time, so a traced
    session sees the wrapped versions.
    """
    if op.kind == "branch":
        parent, child = op.args
        return chartab.branch(catalog.table(parent), catalog.table(child))
    table = catalog.table(op.args[0])
    if op.kind == "tensor":
        return chartab.tensor_decompose(table, op.args[1], op.args[2])
    if op.kind == "natural":
        return chartab.decompose(chartab.natural_character(table.group), table)
    if op.kind == "fs":
        return chartab.frobenius_schur(table, op.args[1])
    if op.kind == "inner":
        rows = table.rows
        return chartab.inner_product(rows[op.args[1]], rows[op.args[2]], table.group)
    raise ValueError(f"unknown op kind {op.kind!r}")


# -- machine-speed probes ------------------------------------------------------------

PROBE_INTERVAL_S = 0.25
PROBE_WINDOW_S = 1.0
REF_PROBE_S = 0.003  # probe kernel time at reference speed


def _probe_kernel(size: int = 1000) -> int:
    """Fixed work shaped like the package's: breadth-first closure of
    permutation tuples of degree 7 into a set, stopped at ``size`` elements."""
    gens = ((1, 2, 3, 4, 5, 6, 0), (1, 0, 2, 3, 4, 5, 6))
    identity = tuple(range(7))
    seen = {identity}
    frontier = [identity]
    while len(seen) < size:
        grown = []
        for p in frontier:
            for g in gens:
                q = tuple(p[i] for i in g)
                if q not in seen:
                    seen.add(q)
                    grown.append(q)
        frontier = grown
    return len(seen)


class Prober:
    """Samples the machine's speed next to the measured work.

    On a shared host the speed of the same code drifts by a quarter within a
    minute.  Every ``PROBE_INTERVAL_S`` the process doing the work times a
    fixed kernel of about 3 ms, in the same thread between in-process ops,
    or in a thread of the cold op's own process (see ``child.py``).  ``factor``
    rescales an op's wall time to the reference speed, at which the kernel
    takes ``REF_PROBE_S``, from the probes within ``PROBE_WINDOW_S`` of it.
    """

    def __init__(self):
        self.marks: list[tuple[float, float]] = []  # (time, kernel seconds)

    def probe(self) -> None:
        start = time.perf_counter()
        _probe_kernel()
        end = time.perf_counter()
        self.marks.append((end, end - start))

    def maybe_probe(self) -> None:
        if not self.marks or time.perf_counter() - self.marks[-1][0] >= PROBE_INTERVAL_S:
            self.probe()

    def factor(self, start: float, end: float) -> float:
        """REF_PROBE_S over the median probe within the window around
        [start, end], widened to the nearest probe on either side."""
        marks = sorted(self.marks)
        times = [t for t, _ in marks]
        lo = max(bisect.bisect_left(times, start - PROBE_WINDOW_S) - 1, 0)
        hi = bisect.bisect_right(times, end + PROBE_WINDOW_S) + 1
        return REF_PROBE_S / statistics.median(d for _, d in marks[lo:hi])


# -- the measuring loop ------------------------------------------------------------

def closed_loop(stream, seconds: float, execute, check, max_rounds: int | None = None,
                prober: Prober | None = None):
    """One client, each op issued after the previous one completed.

    Whole rounds only, so the mix of kinds is fixed.  Without ``max_rounds``
    a new round starts while less than ``seconds`` have passed, so a run
    measures at least ``seconds`` and at most one round more.  A ``prober``
    samples the machine's speed between ops and after the last one.
    """
    samples: list[Sample] = []
    start = time.perf_counter()
    done = 0
    for rnd in stream:
        if max_rounds is not None:
            if done >= max_rounds:
                break
        elif time.perf_counter() - start >= seconds:
            break
        for op in rnd:
            if prober is not None:
                prober.maybe_probe()
            t0 = time.perf_counter()
            out = execute(op)
            dt = time.perf_counter() - t0
            samples.append(Sample(op.kind, dt, check(op, out), t0))
        done += 1
    if prober is not None:
        prober.probe()
    return samples
