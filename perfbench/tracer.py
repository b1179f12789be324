"""Per-layer tracing of octogroup, installed from outside the package.

``Tracer.install`` replaces module attributes at every binding site, so a
name imported with ``from .groups import close`` is wrapped in ``catalog``
as well as in ``groups``.  ``lru_cache`` functions are wrapped outside the
cache, so cache hits are traced too, and their misses are counted from
``cache_info()``.  Hot element methods get count-only wrappers.

A span is ``[name, start, end, parent span index, op id]``.  Spans stay in
memory and are written out once, when the traced process ends.  A layer's
self time is its span duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# Claim-id families of the verification report, in report order.  A claim's
# time is inclusive and depends on that order: the first claim that touches a
# cached group or table pays for building it.
CLAIM_FAMILIES = (
    "relations", "transcription", "misprint", "orders", "classes", "chartab",
    "extension", "normality", "quotient", "psl2x2", "octonion", "shared-table",
    "tensor", "branch", "natural", "frobenius-schur", "quaternion",
    "containment", "parity",
)

# (module, function, span name): timed spans
SPANNED = (
    ("cli", "cmd_chartab", "cli.cmd"),
    ("cli", "cmd_tensor", "cli.cmd"),
    ("cli", "cmd_branch", "cli.cmd"),
    ("cli", "cmd_verify", "cli.cmd"),
    ("cli", "cmd_octmul", "cli.cmd"),
    ("catalog", "build", "catalog.build"),
    ("catalog", "table", "catalog.table"),
    ("catalog", "choose_alignments", "catalog.choose_alignments"),
    ("catalog", "pair_image_group", "catalog.pair_image_group"),
    ("catalog", "verify_all", "catalog.verify_all"),
    ("quatpairs", "pair_group", "quatpairs.pair_group"),
    ("quatpairs", "pair_to_signedperm7", "quatpairs.pair_to_signedperm7"),
    ("quatpairs", "verify_coset_table", "quatpairs.verify_coset_table"),
    ("groups", "close", "groups.close"),
    ("groups", "quotient", "groups.quotient"),
    ("groups", "is_normal", "groups.is_normal"),
    ("groups", "find_complement", "groups.find_complement"),
    ("groups", "find_conjugating_element", "groups.find_conjugating_element"),
    ("chartab", "class_algebra", "chartab.class_algebra"),
    ("chartab", "character_table", "chartab.character_table"),
    ("chartab", "branch", "chartab.branch"),
    ("chartab", "frobenius_schur", "chartab.frobenius_schur"),
    ("chartab", "tensor_decompose", "chartab.tensor_decompose"),
    ("golden", "load_golden_table", "golden.load"),
    ("golden", "load_tensor_lines", "golden.load"),
    ("golden", "load_branch_lines", "golden.load"),
    ("golden", "find_alignments", "golden.find_alignments"),
    ("golden", "check_tensor_lines", "golden.check_tensor_lines"),
    ("golden", "find_tensor_relabeling", "golden.find_tensor_relabeling"),
    ("octonion", "is_algebra_automorphism", "octonion.is_algebra_automorphism"),
)

# (module, function, counter): count-only wrappers on functions
COUNTED_FUNCTIONS = (
    ("chartab", "decompose", "chartab.decompose_calls"),
    ("chartab", "inner_product", "chartab.inner_product_calls"),
    ("golden", "check_branch_lines", "golden.check_branch_lines_calls"),
)

# (module, class, method, counter): count-only wrappers on element methods
COUNTED_METHODS = (
    ("signedperm", "SignedPerm", "__mul__", "signedperm.mul_calls"),
    ("signedperm", "SignedPerm", "inverse", "signedperm.inverse_calls"),
    ("scalars", "Cyclotomic", "__mul__", "scalars.cyclotomic_mul_calls"),
    ("scalars", "Cyclotomic", "__add__", "scalars.cyclotomic_add_calls"),
    ("scalars", "Cyclotomic", "make", "scalars.cyclotomic_make_calls"),
    ("scalars", "QuadSqrt2", "__mul__", "scalars.quad_mul_calls"),
    ("quatpairs", "QuaternionPair", "__mul__", "quatpairs.pair_mul_calls"),
)

# per-layer metric -> (statistic, key).  "self"/"total" sum span self or whole
# durations, "spans" counts spans, "count" reads a counter.
_TIMED_SELF = (
    "catalog.build", "catalog.table", "catalog.choose_alignments",
    "catalog.pair_image_group", "quatpairs.pair_group",
    "quatpairs.pair_to_signedperm7", "quatpairs.verify_coset_table",
    "groups.close", "groups.classes", "groups.quotient", "groups.is_normal",
    "groups.find_complement", "groups.find_conjugating_element",
    "chartab.class_algebra", "chartab.character_table", "chartab.branch",
    "chartab.frobenius_schur", "chartab.tensor_decompose", "golden.load",
    "golden.find_alignments", "golden.check_tensor_lines",
    "golden.find_tensor_relabeling", "octonion.is_algebra_automorphism",
)
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "cli.import_s": ("total", "cli.import"),
    "cli.cmd_s": ("total", "cli.cmd"),
    "catalog.verify_all_s": ("total", "catalog.verify_all"),
    **{f"{name}_s": ("self", name) for name in _TIMED_SELF},
    "catalog.build_misses": ("count", "catalog.build_misses"),
    "catalog.table_misses": ("count", "catalog.table_misses"),
    "groups.close_calls": ("spans", "groups.close"),
    "quatpairs.pair_to_signedperm7_calls": ("spans", "quatpairs.pair_to_signedperm7"),
    "chartab.tensor_decompose_calls": ("spans", "chartab.tensor_decompose"),
    "octonion.is_algebra_automorphism_calls": ("spans", "octonion.is_algebra_automorphism"),
    "golden.alignment_candidates": ("count", "golden.alignment_candidates"),
    **{key: ("count", key) for *_, key in COUNTED_FUNCTIONS},
    **{key: ("count", key) for *_, key in COUNTED_METHODS},
    **{f"catalog.claim_s.{fam}": ("total", f"catalog.claim.{fam}") for fam in CLAIM_FAMILIES},
}


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1  # -1 is set-up; ops are numbered from 0
        self.n_ops = 0
        self.cells: dict[str, list[int]] = defaultdict(lambda: [0])
        self.op_counts: dict[int, dict[str, int]] = {}
        self._mark: dict[str, int] = {}

    # -- recording -------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.end_op()
        self.op = op
        self.n_ops = max(self.n_ops, op + 1)
        self._mark = {k: c[0] for k, c in self.cells.items()}

    def end_op(self) -> None:
        counts = {k: c[0] - self._mark.get(k, 0) for k, c in self.cells.items()}
        self.op_counts[self.op] = {k: v for k, v in counts.items() if v}
        self._mark = {k: c[0] for k, c in self.cells.items()}

    def record(self, name: str, start: float, end: float) -> None:
        self.spans.append([name, start, end, self.stack[-1] if self.stack else -1, self.op])

    def _timed(self, name, fn, after=None):
        spans, stack, tracer = self.spans, self.stack, self
        misses = self.cells[name + "_misses"] if hasattr(fn, "cache_info") else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op])
            stack.append(i)
            before = fn.cache_info().misses if misses is not None else 0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[i][1], spans[i][2] = start, end
                if misses is not None:
                    misses[0] += fn.cache_info().misses - before
            if after is not None:
                after(result)
            return result
        return wrapper

    def _counted(self, key, fn):
        cell = self.cells[key]

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return functools.wraps(fn)(wrapper)

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced callable of the already imported package."""
        mods = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                if name.startswith("octogroup.")}
        sites = [m for name, m in sys.modules.items()
                 if name == "octogroup" or name.startswith("octogroup.")]

        def rebind(orig, wrapper):
            for m in sites:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapper)

        candidates = self.cells["golden.alignment_candidates"]

        def count_candidates(result):
            candidates[0] += len(result)

        for mod, attr, name in SPANNED:
            if mod not in mods:  # a library session never imports the CLI
                continue
            orig = getattr(mods[mod], attr)
            after = count_candidates if name == "golden.find_alignments" else None
            rebind(orig, self._timed(name, orig, after))
        for mod, attr, key in COUNTED_FUNCTIONS:
            orig = getattr(mods[mod], attr)
            rebind(orig, self._counted(key, orig))
        for mod, cls_name, attr, key in COUNTED_METHODS:
            cls = getattr(mods[mod], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self._counted(key, raw.__func__)))
            else:
                setattr(cls, attr, self._counted(key, raw))

        group_cls = mods["groups"].Group
        prop = group_cls.__dict__["classes"]
        classes = functools.cached_property(self._timed("groups.classes", prop.func))
        classes.__set_name__(group_cls, "classes")
        group_cls.classes = classes

        report_cls = mods["catalog"].VerificationReport
        run = report_cls.run
        spans, stack, tracer = self.spans, self.stack, self

        @functools.wraps(run)
        def run_claim(report, claim_id, *args, **kwargs):
            i = len(spans)
            name = "catalog.claim." + claim_id.split(".")[0]
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op])
            stack.append(i)
            start = perf_counter()
            try:
                return run(report, claim_id, *args, **kwargs)
            finally:
                spans[i][1], spans[i][2] = start, perf_counter()
                stack.pop()
        report_cls.run = run_claim

    # -- output ---------------------------------------------------------------------

    def dump(self) -> dict:
        self.end_op()
        return {"spans": self.spans, "n_ops": self.n_ops,
                "counts": {str(op): c for op, c in self.op_counts.items()}}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.dump(), fh)


def layer_values(dumps: list[dict], setup: bool = False) -> dict[str, float]:
    """Per-layer metrics, each summed within an op and averaged over ops.

    ``dumps`` are ``Tracer.dump()`` results: one per process, so a cold run
    passes one per op.  With ``setup`` the set-up (op -1) is the only op.
    """
    per_op: list[dict[str, float]] = []
    for dump in dumps:
        spans = dump["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        acc: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, op) in enumerate(spans):
            acc[op][("total", name)] += end - start
            acc[op][("self", name)] += end - start - child[i]
            acc[op][("spans", name)] += 1
        for op, counts in dump["counts"].items():
            for key, n in counts.items():
                acc[int(op)][("count", key)] += n
        wanted = [-1] if setup else range(dump["n_ops"])
        per_op.extend(acc.get(op, {}) for op in wanted)
    n = max(len(per_op), 1)
    return {metric: sum(vals.get(stat_key, 0.0) for vals in per_op) / n
            for metric, stat_key in LAYER_METRICS.items()}
