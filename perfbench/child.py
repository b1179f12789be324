"""Child processes of the benchmark; ``run.py`` starts them.

    python3 perfbench/child.py probed-cli PROBE_FILE ARG...
        The octogroup CLI on ARG..., as ``python -m octogroup`` runs it, with
        a thread taking speed probes; they go to PROBE_FILE.
    python3 perfbench/child.py cli PROBE_FILE TRACE_FILE ARG...
        The same, traced.  The CLI's output and exit code are unchanged; the
        spans go to TRACE_FILE.
    python3 perfbench/child.py warm SEED SECONDS ROUNDS TRACE_FILE
        One library session: set-up (import, every roster table, the
        alignments), then a seeded closed loop of in-process queries for
        SECONDS, or for exactly ROUNDS rounds when ROUNDS > 0.  TRACE_FILE
        "-" means untraced.  Prints one JSON line: set-up time and samples.
    python3 perfbench/child.py setup
        The library session's set-up alone; prints its time.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import sys
import threading
from time import perf_counter

import ops
from tracer import Tracer


@contextlib.contextmanager
def probing(probe_file: str):
    """Speed probes from a thread while the body runs, written to probe_file."""
    prober = ops.Prober()
    stop = threading.Event()

    def probe_loop():
        while not stop.wait(ops.PROBE_INTERVAL_S):
            prober.probe()

    thread = threading.Thread(target=probe_loop, daemon=True)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join()
        with open(probe_file, "w", encoding="utf-8") as fh:
            json.dump(prober.marks, fh)


def probed_cli(probe_file: str, argv: list[str]) -> int:
    with probing(probe_file):
        from octogroup import cli
        try:
            return cli.main(argv)
        finally:
            sys.stdout.flush()


def traced_cli(probe_file: str, trace_file: str, argv: list[str]) -> int:
    with probing(probe_file):
        tracer = Tracer()
        tracer.begin_op(0)
        start = perf_counter()
        from octogroup import cli
        tracer.record("cli.import", start, perf_counter())
        tracer.install()
        try:
            return cli.main(argv)
        finally:
            sys.stdout.flush()
            tracer.write(trace_file)


def warm_setup(tracer: Tracer | None, prober: ops.Prober):
    """Import, build every roster table and choose the alignments, between
    two speed probes; returns the two modules and the set-up's (start, seconds)."""
    prober.probe()
    start = perf_counter()
    from octogroup import catalog, chartab
    if tracer is not None:
        tracer.install()
    for name in catalog.ROSTER:
        catalog.table(name)
    catalog.choose_alignments()
    setup = (start, perf_counter() - start)
    prober.probe()
    return catalog, chartab, setup


def warm_session(seed: int, seconds: float, rounds: int, trace_file: str) -> dict:
    oracle = ops.load_oracle("warm")
    tracer = None if trace_file == "-" else Tracer()
    prober = ops.Prober()
    catalog, chartab, setup = warm_setup(tracer, prober)
    counter = itertools.count()

    def execute(op):
        if tracer is not None:
            tracer.begin_op(next(counter))
        return ops.run_warm_op(catalog, chartab, op)

    samples = ops.closed_loop(ops.rounds("library-warm", seed, oracle), seconds, execute,
                              lambda op, out: ops.check_warm(oracle, op, out),
                              max_rounds=rounds or None, prober=prober)
    if tracer is not None:
        tracer.write(trace_file)
    return {"setup": setup, "probes": prober.marks,
            "samples": [[s.kind, s.seconds, s.ok, s.start] for s in samples]}


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "cli":
        return traced_cli(rest[0], rest[1], rest[2:])
    if mode == "probed-cli":
        return probed_cli(rest[0], rest[1:])
    if mode == "warm":
        seed, seconds, rounds, trace_file = int(rest[0]), float(rest[1]), int(rest[2]), rest[3]
        print(json.dumps(warm_session(seed, seconds, rounds, trace_file)))
        return 0
    if mode == "setup":
        prober = ops.Prober()
        setup = warm_setup(None, prober)[2]
        print(json.dumps({"setup": setup, "probes": prober.marks}))
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
