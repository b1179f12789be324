"""End-to-end benchmark of octogroup.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.
Workloads (closed loop, one client):

* ``verify``: each op is a fresh process running ``octogroup.cli.main`` on
  ``verify``, alternating the full JSON report and a report filtered to a
  seeded claim-id family.
* ``cli-cold``: each op is a fresh process answering one seeded ``chartab``,
  ``tensor``, ``branch`` or ``octmul`` query.
* ``library-warm``: one process builds every table and the alignments, then
  answers seeded in-process queries against the warm caches.

Every op's output is checked against the oracles recorded at the seed
commit.  Times are rescaled to a reference machine speed by ``ops.Prober``.
The last stdout line is the result object; the line before it holds the
wall-clock and per-kind figures with their sample counts.  With
``--trace 1`` the ops run once untraced and once traced, and the result
holds the per-layer metrics of ``tracer.LAYER_METRICS`` plus the tracing
overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import ops
import tracer

SRC = ops.ROOT / "src"
TMP = ops.ROOT / ".bench_tmp"
PY = sys.executable
OP_TIMEOUT_S = 150
COLD_SETUP_REPEATS = 11  # import probes per cold run
WARM_SETUP_REPEATS = 3   # library set-ups per warm run, the session included
TRACE_ROUNDS = {"verify": 1, "cli-cold": 2, "library-warm": 60}

END_TO_END_UNITS = {"setup_s": "s", "norm_kind_p50_ms": "ms", "norm_ops_per_s": "1/s",
                    "peak_rss_mb": "MB"}

# per-kind figures of the detail line
KIND_METRICS = {
    ("verify", "full"): "verify.full_s",
    ("verify", "filter"): "verify.filter_s",
    ("cli-cold", "chartab"): "cli.chartab_s",
    ("cli-cold", "tensor"): "cli.tensor_s",
    ("cli-cold", "branch"): "cli.branch_s",
    ("cli-cold", "octmul"): "cli.octmul_s",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str]) -> tuple[int | None, str, float]:
    """Run a child to completion; returns (exit code, stdout, wall seconds)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ops.ROOT, env=child_env(), capture_output=True,
                              encoding="utf-8", timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "", time.perf_counter() - start
    return proc.returncode, proc.stdout, time.perf_counter() - start


def spawn_probed(argv: list[str], prober: ops.Prober,
                 probe_file) -> tuple[int | None, str, float]:
    """``spawn`` for a child that writes speed probes to ``probe_file``;
    returns (exit code, stdout, wall seconds rescaled to the reference speed)."""
    start = time.perf_counter()
    code, out, wall = spawn(argv)
    if probe_file.exists():
        with open(probe_file, encoding="utf-8") as fh:
            prober.marks.extend(map(tuple, json.load(fh)))
        probe_file.unlink()
    return code, out, wall * prober.factor(start, start + wall)


def peak_rss_mb() -> float:
    """Largest resident set of any child waited for (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def metric(value: float, unit: str, n: int | None = None) -> dict:
    out = {"value": value, "unit": unit}
    if n is not None:
        out["n"] = n
    return out


def summarize(workload: str, samples: list[ops.Sample], setup: list[tuple[float, float]],
              prober: ops.Prober, processes: int) -> tuple[dict, dict]:
    """End-to-end metrics and the detail figures of an untraced run.

    ``setup`` holds (start, seconds) of each set-up measured in the run.
    """
    good = [s for s in samples if s.ok] or samples
    wall = [s.seconds for s in good]
    norm = [s.seconds * prober.factor(s.start, s.start + s.seconds) for s in good]
    kind_p50 = {kind: statistics.median(n for s, n in zip(good, norm) if s.kind == kind)
                for kind in ops.KINDS[workload] if any(s.kind == kind for s in good)}
    failed = sum(not s.ok for s in samples)
    rss = peak_rss_mb()
    e2e = {
        "setup_s": statistics.median(d * prober.factor(t, t + d) for t, d in setup),
        "norm_kind_p50_ms": statistics.geometric_mean(kind_p50.values()) * 1000,
        "norm_ops_per_s": len(norm) / sum(norm),
        "peak_rss_mb": rss,
    }
    detail = {
        "setup_s": metric(e2e["setup_s"], "s", len(setup)),
        "norm_kind_p50_ms": metric(e2e["norm_kind_p50_ms"], "ms", len(norm)),
        "norm_ops_per_s": metric(e2e["norm_ops_per_s"], "1/s", len(norm)),
        **{f"norm.{kind}_ms": metric(v * 1000, "ms") for kind, v in kind_p50.items()},
        "peak_rss_mb": metric(rss, "MB", processes),
        "failed_ratio": metric(failed / len(samples), "ratio", len(samples)),
        "wall.setup_s": metric(statistics.median(d for _, d in setup), "s", len(setup)),
        "wall.op_p50_ms": metric(statistics.median(wall) * 1000, "ms", len(wall)),
        "wall.ops_per_s": metric(len(wall) / sum(wall), "1/s", len(wall)),
        "probe_ms": metric(statistics.median(d for _, d in prober.marks) * 1000, "ms",
                           len(prober.marks)),
    }
    if workload == "library-warm":
        detail["warm.ops_per_s"] = metric(len(wall) / sum(wall), "ops/s", len(wall))
        detail["warm.op_p50_ms"] = metric(statistics.median(wall) * 1000, "ms", len(wall))
        # the highest percentile with at least ten samples beyond it
        if len(wall) >= 1000:
            p99 = statistics.quantiles(wall, n=100)[98]
            detail["warm.op_p99_ms"] = metric(p99 * 1000, "ms", len(wall))
    for kind in ops.KINDS[workload]:
        name = KIND_METRICS.get((workload, kind))
        kl = [s.seconds for s in good if s.kind == kind]
        if name and kl:
            detail[name] = metric(statistics.median(kl), "s", len(kl))
    metrics = {k: metric(v, END_TO_END_UNITS[k]) for k, v in e2e.items()}
    return metrics, detail


def cold_setup(prober: ops.Prober) -> list[tuple[float, float]]:
    """Interpreter start plus ``import octogroup.cli``, in fresh processes,
    each next to a speed probe."""
    times = []
    for _ in range(COLD_SETUP_REPEATS):
        prober.probe()
        start = time.perf_counter()
        code, _, wall = spawn([PY, "-c", "import octogroup.cli"])
        if code != 0:
            raise SystemExit("error: cannot import octogroup.cli from src/")
        times.append((start, wall))
    prober.probe()
    return times


def run_cold(workload: str, seed: int, seconds: float, trace: bool):
    verify_oracle, cli_oracle = ops.load_oracle("verify"), ops.load_oracle("cli")
    expect = ops.cli_expectations(verify_oracle, cli_oracle)
    stream = ops.rounds(workload, seed, verify_oracle if workload == "verify" else cli_oracle)
    check = lambda op, out: ops.check_cli(expect, op, out[0], out[1])  # noqa: E731
    prober = ops.Prober()
    TMP.mkdir(exist_ok=True)
    probe_file = TMP / f"probes-{os.getpid()}.json"
    child = [PY, str(ops.HERE / "child.py")]
    if not trace:
        setup = cold_setup(prober)
        samples = ops.closed_loop(
            stream, seconds,
            lambda op: spawn_probed([*child, "probed-cli", str(probe_file), *op.args],
                                    prober, probe_file)[:2],
            check, prober=prober)
        return samples, summarize(workload, samples, setup, prober,
                                  len(samples) + len(setup))

    dumps, overhead = [], []
    trace_file = TMP / f"trace-{os.getpid()}.json"

    def untraced_then_traced(op):
        code, out, plain = spawn_probed([*child, "probed-cli", str(probe_file), *op.args],
                                        prober, probe_file)
        tcode, tout, traced = spawn_probed(
            [*child, "cli", str(probe_file), str(trace_file), *op.args], prober, probe_file)
        overhead.append(traced - plain)
        if not trace_file.exists():
            return None, ""
        with open(trace_file, encoding="utf-8") as fh:
            dumps.append(json.load(fh))
        trace_file.unlink()
        # both outputs must pass; a mismatch between them fails the op too
        return (code, out) if (code, out) == (tcode, tout) else (None, "")

    samples = ops.closed_loop(stream, seconds, untraced_then_traced, check,
                              max_rounds=TRACE_ROUNDS[workload])
    return samples, traced_metrics(dumps, overhead, len(samples), {})


def run_warm(seed: int, seconds: float, trace: bool):
    prober = ops.Prober()

    def session(rounds: int, trace_file: str):
        code, out, _ = spawn([PY, str(ops.HERE / "child.py"), "warm", str(seed), str(seconds),
                              str(rounds), trace_file])
        if code != 0:
            raise SystemExit(f"error: library session exited with {code}")
        res = json.loads(out)
        prober.marks.extend(map(tuple, res["probes"]))
        return res["setup"], [ops.Sample(*s) for s in res["samples"]]

    if not trace:
        setup = []
        for _ in range(WARM_SETUP_REPEATS - 1):
            code, out, _ = spawn([PY, str(ops.HERE / "child.py"), "setup"])
            if code != 0:
                raise SystemExit(f"error: library set-up exited with {code}")
            res = json.loads(out)
            prober.marks.extend(map(tuple, res["probes"]))
            setup.append(res["setup"])
        session_setup, samples = session(0, "-")
        return samples, summarize("library-warm", samples, setup + [session_setup], prober,
                                  WARM_SETUP_REPEATS)

    rounds = TRACE_ROUNDS["library-warm"]
    _, plain = session(rounds, "-")
    TMP.mkdir(exist_ok=True)
    trace_file = TMP / f"trace-{os.getpid()}.json"
    _, traced = session(rounds, str(trace_file))
    with open(trace_file, encoding="utf-8") as fh:
        dump = json.load(fh)
    trace_file.unlink()
    samples = [ops.Sample(p.kind, p.seconds, p.ok and t.ok, p.start)
               for p, t in zip(plain, traced)]
    overhead = [t.seconds * prober.factor(t.start, t.start + t.seconds)
                - p.seconds * prober.factor(p.start, p.start + p.seconds)
                for p, t in zip(plain, traced)]
    setup_layers = {k: metric(v, layer_unit(k))
                    for k, v in tracer.layer_values([dump], setup=True).items() if v}
    return samples, traced_metrics([dump], overhead, len(samples), {"setup_layers": setup_layers})


def layer_unit(name: str) -> str:
    return "s" if tracer.LAYER_METRICS[name][0] in ("self", "total") else "count"


def traced_metrics(dumps: list[dict], overhead: list[float], n: int, detail: dict):
    metrics = {k: metric(v, layer_unit(k)) for k, v in tracer.layer_values(dumps).items()}
    metrics["trace.overhead_s"] = metric(statistics.fmean(overhead), "s")
    detail["ops"] = n
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "octogroup" / "__init__.py").is_file():
        print(f"error: no octogroup package under {SRC}", file=sys.stderr)
        return 2
    # one CPU for the benchmark and its children, so that a speed probe
    # measures the core the op runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.workload == "library-warm":
        samples, (metrics, detail) = run_warm(args.seed, args.seconds, bool(args.trace))
    else:
        samples, (metrics, detail) = run_cold(args.workload, args.seed, args.seconds,
                                              bool(args.trace))
    failed = sum(not s.ok for s in samples)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": len(samples), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
