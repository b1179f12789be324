"""Named generators, group roster, and the claim-by-claim verification suite.

Two generator corrections are applied relative to the printed source forms,
both forced by the surrounding structure and reported as flagged claims:

* ``A``: the printed signed 6-cycle on (e2, e4, e6) maps e4 to +e6, which is
  not an algebra automorphism and generates a group of order 384.  Correcting
  one sign (e4 -> -e6) yields an automorphism of order 6 that generates the
  expected order-192 group and induces the printed quotient action.
* ``delta``: the printed involution (e1 -e5)(e3 -e7) equals gamma-tilde
  composed with the diagonal N7 and generates the whole order-1344 split
  group; the unique involution with underlying permutation (1 5)(3 7) that
  completes alpha-tilde and beta-tilde to a second complement is
  gamma-tilde composed with N6, whence gamma-tilde * delta = N6 (not N7).

Table alignments are tied together only by the branching reference lists, so
they are chosen per connected component of the branching graph
(``COMPONENTS``): {7:3, 2^3:7:3, 2^3.PSL2(7)}, {7:3-split, 2^3:7:3-split,
2^3:PSL2(7), PSL2(7)}, and the singletons PSL2(7)-second, 4.S4:2, 2^3:S4,
2^3.S4, 4:S4:2 and 2^3.S4-pairs.  A component's alignment is the first
combination of its tables' candidates, in ``itertools.product`` order, that
reproduces every branching list among its groups.  A query on one group
builds, tables and reads the reference files of its component only.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from itertools import combinations, product
from pathlib import Path

from . import golden as gold
from .chartab import (
    CharacterTable,
    branch,
    character_table,
    decompose,
    frobenius_schur,
    inner_product,
    natural_character,
)
from .groups import (Group, close, conjugate_action, find_complement, find_conjugating_element,
                     is_normal, orbit, quotient, subgroup)
from .octonion import FANO_LINES, is_algebra_automorphism, triad_type
from .quatpairs import (
    binary_octahedral,
    is_homomorphism,
    pair_images,
    quaternion_index,
    verify_coset_table,
)
from .signedperm import SignedPerm, conjugate

# -- named generators ---------------------------------------------------------

_GENERATOR_TEXT = {
    "alpha": "(e1 e2 e4 e3 e6 e5 e7)",
    "beta": "(e2 e4 e6)(e3 e7 e5)",
    "gamma": "(e1 -e4)(e2 -e5)(e3 -e3)(e7 -e7)",
    "theta": "(e1 -e5)(e2 -e3 e4 -e7 -e2 e3 -e4 e7)(e6 -e6)",
    "delta": "(e1 -e5)(e2 -e2)(e3 e7)(e4 -e4)",
    "A": "(e1 -e7 e3 -e1 e7 -e3)(e2 -e4 e6)(e5 -e5)",
    "B": "(e2 -e6 -e2 e6)(e3 -e5 -e3 e5)",
    "alpha_t": "(e1 e2 e4 e3 e6 e5 e7)",
    "beta_t": "(e3 e2 e1)(e4 e6 e5)",
    "gamma_t": "(e1 e5)(e3 e7)",
    "theta_t": "(e1 e4 e2 e5)(e6 e7)",
    "A_t": "(e1 e6 e2)(e3 e5 e4)",
    "B_t": "(e1 e3)(e4 e6)",
}

# printed source forms kept for the misprint reports
PRINTED_A = "(e1 -e7 e3 -e1 e7 -e3)(e2 -e4 -e6 -e2 e4 e6)(e5 -e5)"
PRINTED_DELTA = "(e1 -e5)(e3 -e7)"

N_SIGNS = {
    1: (1, 1, 1, -1, -1, -1, -1),
    2: (1, -1, -1, 1, -1, -1, 1),
    7: (-1, 1, -1, 1, -1, 1, -1),
}


@lru_cache(maxsize=1)
def diagonal_involutions() -> dict[int, SignedPerm]:
    """N1..N7, with N3..N6 derived from the defining products."""
    n = {i: SignedPerm.diagonal(s) for i, s in N_SIGNS.items()}
    n[3] = n[1] * n[2]
    n[4] = n[7] * n[1]
    n[5] = n[7] * n[2]
    n[6] = n[7] * n[3]
    return dict(sorted(n.items()))


@lru_cache(maxsize=None)
def generator(name: str) -> SignedPerm:
    if name in _GENERATOR_TEXT:
        return SignedPerm.parse(_GENERATOR_TEXT[name])
    if name.startswith("N") and name[1:].isdigit() and 1 <= int(name[1:]) <= 7:
        return diagonal_involutions()[int(name[1:])]
    raise KeyError(f"unknown generator {name!r}")


# -- group roster --------------------------------------------------------------

@dataclass(frozen=True)
class RosterEntry:
    name: str
    generator_names: tuple[str, ...]
    expected_order: int
    expected_class_count: int
    golden_file: str
    tensor_file: str | None = None


ROSTER: dict[str, RosterEntry] = {e.name: e for e in (
    RosterEntry("7:3", ("alpha", "beta"), 21, 5, "chartab_7_3.txt"),
    RosterEntry("7:3-split", ("alpha_t", "beta_t"), 21, 5, "chartab_7_3.txt"),
    RosterEntry("2^3:7:3", ("alpha", "beta", "N1"), 168, 8,
                "chartab_2_3_7_3.txt", "tensors_2_3_7_3.txt"),
    RosterEntry("2^3:7:3-split", ("alpha_t", "beta_t", "N1"), 168, 8,
                "chartab_2_3_7_3.txt", "tensors_2_3_7_3.txt"),
    RosterEntry("2^3.PSL2(7)", ("alpha", "gamma"), 1344, 11,
                "chartab_1344.txt", "tensors_1344.txt"),
    RosterEntry("2^3:PSL2(7)", ("alpha_t", "beta_t", "gamma_t", "N1"), 1344, 11,
                "chartab_1344.txt", "tensors_1344.txt"),
    RosterEntry("PSL2(7)", ("alpha_t", "beta_t", "gamma_t"), 168, 6, "chartab_psl2_7.txt"),
    RosterEntry("PSL2(7)-second", ("alpha_t", "beta_t", "delta"), 168, 6, "chartab_psl2_7.txt"),
    RosterEntry("4.S4:2", ("gamma", "theta"), 192, 14,
                "chartab_4_s4_2.txt", "tensors_4_s4_2.txt"),
    RosterEntry("2^3:S4", ("A_t", "B_t", "N1"), 192, 14,
                "chartab_4_s4_2.txt", "tensors_4_s4_2.txt"),
    RosterEntry("2^3.S4", ("A", "B"), 192, 13,
                "chartab_2_3_s4.txt", "tensors_2_3_s4.txt"),
    RosterEntry("4:S4:2", ("gamma_t", "theta_t", "N1"), 192, 13,
                "chartab_2_3_s4.txt", "tensors_2_3_s4.txt"),
    RosterEntry("2^3.S4-pairs", (), 192, 13,
                "chartab_2_3_s4.txt", "tensors_2_3_s4.txt"),
)}

# (parent, child label, roster group realizing the child, branch reference file)
_BRANCHES = (
    ("2^3.PSL2(7)", "2^3:7:3", "2^3:7:3", "branch_1344_to_2_3_7_3.txt"),
    ("2^3:PSL2(7)", "2^3:7:3", "2^3:7:3-split", "branch_1344_to_2_3_7_3.txt"),
    ("2^3:PSL2(7)", "PSL2(7)", "PSL2(7)", "branch_split_1344_to_psl2_7.txt"),
    ("2^3:7:3", "7:3", "7:3", "branch_2_3_7_3_to_7_3.txt"),
    ("2^3:7:3-split", "7:3", "7:3-split", "branch_2_3_7_3_to_7_3.txt"),
    ("PSL2(7)", "7:3", "7:3-split", "branch_psl2_7_to_7_3.txt"),
)
BRANCH_PAIRS: dict[tuple[str, str], str] = {(p, c): f for p, c, _, f in _BRANCHES}
BRANCH_CHILD_ROSTER: dict[tuple[str, str], str] = {(p, c): r for p, c, r, _ in _BRANCHES}
_BRANCH_EDGES = tuple((parent, child_roster) for parent, _, child_roster, _ in _BRANCHES)


class BuildError(RuntimeError):
    """A named construction failed its recorded expectations."""


@lru_cache(maxsize=None)
def pair_image_group() -> Group:
    """The degree-7 image of the quaternion pair group.  An image becomes a
    generator only when the earlier generators do not already generate it."""
    images = sorted(set(pair_images().values()))
    gens: list[SignedPerm] = []
    span = {SignedPerm.identity(7)}
    for g in images:
        if g not in span:
            gens.append(g)
            span = set(close(gens).elements)
    if len(span) != len(images):
        raise BuildError(f"the {len(images)} pair images generate {len(span)} elements")
    return Group(images, gens)


@lru_cache(maxsize=None)
def build(name: str) -> Group:
    """Construct a roster group and assert its recorded order and class count."""
    entry = ROSTER.get(name)
    if entry is None:
        raise KeyError(f"unknown group {name!r}; roster: {sorted(ROSTER)}")
    if name == "2^3.S4-pairs":
        group = pair_image_group()
    else:
        group = close([generator(g) for g in entry.generator_names])
    if group.order != entry.expected_order:
        raise BuildError(f"{name}: order {group.order} != expected {entry.expected_order}")
    if len(group.classes) != entry.expected_class_count:
        raise BuildError(f"{name}: {len(group.classes)} classes != expected "
                         f"{entry.expected_class_count}")
    return group


@lru_cache(maxsize=None)
def table(name: str) -> CharacterTable:
    return character_table(build(name))


def _reference_path(filename: str, golden_dir: str | None) -> Path:
    """A reference file in golden_dir, or in the packaged data when golden_dir
    is None or empty."""
    return (Path(golden_dir) if golden_dir else gold.DATA_DIR) / filename


@lru_cache(maxsize=None)
def _golden_table(filename: str, golden_dir: str | None) -> gold.GoldenTable:
    return gold.load_golden_table(_reference_path(filename, golden_dir))


def _labels(name: str, golden_dir: str | None) -> list[str]:
    return _golden_table(ROSTER[name].golden_file, golden_dir).labels


def _branch_lines(parent: str, child_roster: str, branch_file: str,
                  golden_dir: str | None) -> list[gold.BranchLine]:
    """The reference branching lines of parent -> child_roster, read on every
    call: a file in golden_dir may be rewritten between calls."""
    return gold.load_branch_lines(_reference_path(branch_file, golden_dir),
                                  _labels(parent, golden_dir), _labels(child_roster, golden_dir))


@lru_cache(maxsize=None)
def _alignment_candidates(name: str, golden_dir: str | None) -> tuple[gold.Alignment, ...]:
    golden = _golden_table(ROSTER[name].golden_file, golden_dir)
    return tuple(gold.find_alignments(table(name), golden, name))


@lru_cache(maxsize=None)
def branch_matrix(parent: str, child_roster: str) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(row) for row in branch(table(parent), table(child_roster)))


def _swap_ends(name: str, edge: tuple[str, str]) -> str:
    """The other end of edge when name is one of its ends, else name."""
    a, b = edge
    return b if name == a else a if name == b else name


# The connected components of the branching graph on roster names, each in
# roster order, ordered by their first member.  Alignments in different
# components never constrain each other.
COMPONENTS: tuple[tuple[str, ...], ...] = tuple(dict.fromkeys(
    tuple(n for n in ROSTER if n in orbit(name, _BRANCH_EDGES, _swap_ends))
    for name in ROSTER))
COMPONENT_OF: dict[str, tuple[str, ...]] = {n: c for c in COMPONENTS for n in c}


@lru_cache(maxsize=None)
def choose_alignments(golden_dir: str | None = None,
                      component: tuple[str, ...] | None = None) -> dict[str, gold.Alignment]:
    """One alignment per table of a component of the branching graph, jointly
    consistent with every branching reference list among its groups: the
    first combination of the per-table candidates, in itertools.product order
    over the component in roster order, that matches every list.  A
    depth-first search that takes the tables in that order and skips a
    partial choice that fails a list returns the same combination, since it
    meets the combinations in the same lexicographic order.  Without a
    component, every roster table, merged from the per-component results;
    components share no list, so this is the whole-roster search's first
    match.  An empty golden_dir returns the packaged data's result."""
    if golden_dir == "":
        return choose_alignments(None, component)
    if component is None:
        return {n: alignment(n, golden_dir) for n in ROSTER}
    candidates = [_alignment_candidates(n, golden_dir) for n in component]
    for n, cands in zip(component, candidates):
        if not cands:
            raise BuildError(f"no reference alignment found for {n}")

    constraints = []
    for parent, _, child_roster, branch_file in _BRANCHES:
        if parent not in component:
            continue
        lines = _branch_lines(parent, child_roster, branch_file, golden_dir)
        constraints.append((parent, child_roster, branch_matrix(parent, child_roster), lines))

    for combo in product(*candidates):
        chosen = dict(zip(component, combo))
        if all(check.matches
               for parent, child_roster, matrix, lines in constraints
               for check in gold.check_branch_lines(chosen[parent], chosen[child_roster],
                                                    matrix, lines)):
            return chosen
    raise BuildError("no jointly consistent set of table alignments exists for "
                     + ", ".join(component))


def alignment(name: str, golden_dir: str | None = None) -> gold.Alignment:
    """The chosen alignment of a roster group, from its component's search only;
    "" shares the packaged data's caches."""
    return choose_alignments(golden_dir or None, COMPONENT_OF[name])[name]


# -- verification report --------------------------------------------------------

@dataclass
class Claim:
    claim_id: str
    description: str
    status: str  # "pass" | "fail" | "flagged"
    computed: str
    expected: str


@dataclass
class VerificationReport:
    claims: list[Claim] = field(default_factory=list)

    def run(self, claim_id: str, description: str, expected: str, fn) -> None:
        """Evaluate fn() -> (computed: str, ok: bool[, flagged: bool]); errors fail."""
        try:
            computed, ok, *flagged = fn()
        except Exception as exc:  # noqa: BLE001 - failures become report entries
            computed, ok, flagged = f"error: {type(exc).__name__}: {exc}", False, []
        status = ("flagged" if any(flagged) else "pass") if ok else "fail"
        self.claims.append(Claim(claim_id, description, status, computed, expected))

    @property
    def failures(self) -> list[Claim]:
        return [c for c in self.claims if c.status == "fail"]

    @property
    def flagged(self) -> list[Claim]:
        return [c for c in self.claims if c.status == "flagged"]

    def to_json(self) -> str:
        return json.dumps([asdict(c) for c in self.claims], indent=2, sort_keys=False)

    def summary(self) -> str:
        n = len(self.claims)
        return (f"{n} claims: {n - len(self.failures) - len(self.flagged)} pass, "
                f"{len(self.flagged)} flagged, {len(self.failures)} fail")


def _diagonal_subgroup(parent: Group) -> Group:
    """The order-8 subgroup 2^3 generated by N1, N2, N7 inside parent."""
    return subgroup(parent, [generator("N1"), generator("N2"), generator("N7")])


def _class_profile(group: Group) -> list[tuple[int, int]]:
    """The sorted (element order, class size) pairs of the conjugacy classes."""
    return sorted((c.element_order, c.size) for c in group.classes)


def _diag_name(g: SignedPerm) -> str:
    for i, n in diagonal_involutions().items():
        if g == n:
            return f"N{i}"
    return str(g)


def verify_all(golden_dir: str | None = None, pattern: str | None = None) -> VerificationReport:
    """Evaluate the recorded claims whose id contains pattern (every claim when
    pattern is None or empty), in report order, afresh on each call, and return
    the structured report.  An empty golden_dir means the packaged data, as
    None does."""
    rep = VerificationReport()
    for claim_id, description, expected, check in _claims(golden_dir or None):
        if not pattern or pattern in claim_id:
            rep.run(claim_id, description, expected, check)
    return rep


def _claims(golden_dir: str | None):
    """Every claim as (claim_id, description, expected, check), in report order.
    Producing a claim computes nothing; check() does the work."""
    al = lambda name: alignment(name, golden_dir)

    # generator relations
    a, b = generator("alpha"), generator("beta")
    ident = SignedPerm.identity(7)
    yield ("relations.frobenius",
           "alpha^7 = beta^3 = 1 and conjugating alpha by beta gives a power of alpha"
           " (the order-21 Frobenius presentation)",
           "orders (7, 3); beta alpha beta^-1 = alpha^4",
           lambda: (f"orders ({a.order()}, {b.order()}); "
                    f"conjugate = alpha^4: {conjugate(a, b) == a ** 4}",
                    a.order() == 7 and b.order() == 3
                    and conjugate(a, b) == a ** 4
                    and conjugate(a, b) * a ** 3 == ident))
    yield ("relations.orders",
           "generator orders: theta^8 = A^6 = B^4 = delta^2 = gamma^2 = 1",
           "(8, 6, 4, 2, 2)",
           lambda: (str(tuple(generator(n).order() for n in
                              ("theta", "A", "B", "delta", "gamma"))),
                    tuple(generator(n).order() for n in
                          ("theta", "A", "B", "delta", "gamma")) == (8, 6, 4, 2, 2)))

    def _n_relations():
        n = diagonal_involutions()
        ok = all(n[i] * n[j] == n[j] * n[i] == n[k] for i, j, k in FANO_LINES)
        ok = ok and all(x.order() == 2 for x in n.values())
        return (f"all seven products consistent: {ok}", ok)
    yield ("relations.diagonal-fano",
           "the seven diagonal involutions are commuting involutions multiplying "
           "along the Fano line triples (123, 147, 165, 246, 257, 345, 367)",
           "all hold", _n_relations)

    def _n_transcription():
        lines = {frozenset(t) for t in FANO_LINES}
        pos = {i: frozenset(j + 1 for j, s in enumerate(diagonal_involutions()[i].signs)
                            if s == 1) for i in (2, 7)}
        ok = pos[2] in lines and pos[7] in lines
        return (f"positive positions N2={sorted(pos[2])}, N7={sorted(pos[7])}", ok)
    yield ("transcription.N2-N7",
           "positive sign patterns of N2 and N7 form Fano lines (147) and (246)",
           "both are lines", _n_transcription)

    # misprints in the printed generators
    def _a_misprint():
        printed = SignedPerm.parse(PRINTED_A)
        corrected = generator("A")
        printed_bad = not is_algebra_automorphism(printed) \
            and close([printed, generator("B")]).order == 384
        corrected_good = is_algebra_automorphism(corrected) and corrected.order() == 6
        return (f"printed form: automorphism=False, closure order 384; "
                f"corrected {corrected}: automorphism={is_algebra_automorphism(corrected)}",
                printed_bad and corrected_good, True)
    yield ("misprint.A",
           "the printed A maps e4 to +e6, fails the algebra-automorphism test and "
           "generates order 384; one sign correction (e4 -> -e6) repairs it",
           "printed form defective; corrected form valid", _a_misprint)

    def _delta_misprint():
        printed = SignedPerm.parse(PRINTED_DELTA)
        bad = close([generator("alpha_t"), generator("beta_t"), printed]).order == 1344
        good = build("PSL2(7)-second").order == 168
        return ("printed delta generates order 1344 with alpha-tilde and beta-tilde; "
                "corrected delta generates 168", bad and good, True)
    yield ("misprint.delta",
           "the printed delta = gamma-tilde * N7 does not generate a second PSL2(7); "
           "the unique working involution with the same underlying permutation is "
           "gamma-tilde * N6",
           "printed form defective; corrected form valid", _delta_misprint)

    # group orders (acceptance 1)
    for name in ("7:3", "2^3:7:3", "2^3.PSL2(7)", "4.S4:2", "2^3.S4", "PSL2(7)",
                 "2^3:PSL2(7)", "PSL2(7)-second", "2^3:S4", "4:S4:2", "2^3.S4-pairs",
                 "7:3-split", "2^3:7:3-split"):
        expected = ROSTER[name].expected_order
        yield (f"orders.{name}", f"|{name}| = {expected}", str(expected),
               lambda name=name, expected=expected: (str(build(name).order),
                                                     build(name).order == expected))

    def _two_generator():
        four = close([generator(n) for n in ("alpha", "beta", "gamma", "N1")])
        two = build("2^3.PSL2(7)")
        ok = four.order == two.order == 1344 and set(four.elements) == set(two.elements)
        return (f"orders {four.order} and {two.order}, equal as sets: {ok}", ok)
    yield ("orders.two-generator-form",
           "alpha, beta, gamma, N1 generate the same order-1344 group as alpha, gamma alone",
           "equal element sets", _two_generator)

    # class data (acceptance 2)
    expected_classes = {
        "7:3": [(1, 1), (3, 7), (3, 7), (7, 3), (7, 3)],
        "2^3:7:3": [(1, 1), (2, 7), (3, 28), (3, 28), (6, 28), (6, 28), (7, 24), (7, 24)],
        "PSL2(7)": [(1, 1), (2, 21), (3, 56), (4, 42), (7, 24), (7, 24)],
        "2^3.PSL2(7)": [(1, 1), (2, 7), (2, 84), (3, 224), (4, 42), (4, 42),
                        (6, 224), (7, 192), (7, 192), (8, 168), (8, 168)],
        "2^3:PSL2(7)": [(1, 1), (2, 7), (2, 42), (2, 42), (3, 224), (4, 84),
                        (4, 168), (4, 168), (6, 224), (7, 192), (7, 192)],
        "4.S4:2": [(1, 1), (2, 3), (2, 4), (2, 12), (2, 12), (2, 12), (3, 32),
                   (4, 6), (4, 6), (4, 12), (4, 12), (6, 32), (8, 24), (8, 24)],
        "2^3.S4": [(1, 1), (2, 1), (2, 6), (2, 12), (2, 24), (3, 32), (4, 6),
                   (4, 6), (4, 12), (4, 12), (6, 32), (8, 24), (8, 24)],
        "2^3.S4-pairs": [(1, 1), (2, 1), (2, 6), (2, 12), (2, 24), (3, 32), (4, 6),
                         (4, 6), (4, 12), (4, 12), (6, 32), (8, 24), (8, 24)],
        "2^3:S4": [(1, 1), (2, 3), (2, 4), (2, 6), (2, 6), (2, 12), (2, 12), (3, 32),
                   (4, 12), (4, 12), (4, 12), (4, 24), (4, 24), (6, 32)],
        "4:S4:2": [(1, 1), (2, 1), (2, 6), (2, 6), (2, 6), (2, 12), (2, 12), (3, 32),
                   (4, 12), (4, 24), (4, 24), (4, 24), (6, 32)],
    }
    for name, expected in expected_classes.items():
        def _classes(name=name, expected=expected):
            got = _class_profile(build(name))
            return (str(got), got == expected)
        yield (f"classes.{name}", f"conjugacy class (order, size) data of {name}",
               str(expected), _classes)

    def _split192_assignment():
        v_like = _class_profile(build("2^3:S4"))
        vii_like = _class_profile(build("4:S4:2"))
        ok = len(v_like) == 14 and len(vii_like) == 13
        return ("the split group on A-tilde, B-tilde, N1 has 14 classes (4.S4:2-type "
                "table) and the one on gamma-tilde, theta-tilde, N1 has 13 (2^3.S4-type)",
                ok, True)
    yield ("chartab.split-192-assignment",
           "the two split order-192 groups match the opposite reference tables "
           "relative to the printed captions",
           "2^3:S4 -> 14-class table, 4:S4:2 -> 13-class table", _split192_assignment)

    # extension types (acceptance 5)
    def _complement(parent_name, expect_found):
        def check():
            parent = build(parent_name)
            normal = _diagonal_subgroup(parent)
            found = find_complement(parent, normal)
            if found is not None:
                inter = set(found.elements) & set(normal.elements)
                ok_struct = found.order * normal.order == parent.order and inter == {parent.identity}
            else:
                ok_struct = True
            got = "complement found" if found is not None else "no complement"
            return (got, (found is not None) == expect_found and ok_struct)
        return check
    yield ("extension.2^3.PSL2(7)", "no complement of 2^3 in the non-split 1344 group",
           "no complement", _complement("2^3.PSL2(7)", False))
    yield ("extension.2^3:PSL2(7)", "a complement of 2^3 exists in the split 1344 group",
           "complement found", _complement("2^3:PSL2(7)", True))
    yield ("extension.2^3.S4", "no complement of 2^3 in the group generated by A, B",
           "no complement", _complement("2^3.S4", False))
    yield ("extension.2^3:S4", "a complement of 2^3 exists in the split group on "
           "A-tilde, B-tilde, N1", "complement found", _complement("2^3:S4", True))
    yield ("extension.4:S4:2", "a complement of 2^3 exists in the split group on "
           "gamma-tilde, theta-tilde, N1", "complement found",
           _complement("4:S4:2", True))

    def _normal_2_3():
        parent = build("2^3.PSL2(7)")
        sub = _diagonal_subgroup(parent)
        ok = sub.order == 8 and is_normal(parent, sub)
        return (f"order {sub.order}, normal: {is_normal(parent, sub)}", ok)
    yield ("normality.2^3",
           "N1, N2, N7 generate a normal subgroup of order 8 in the non-split 1344 group",
           "order 8, normal", _normal_2_3)

    # quotients
    def _quotient_psl():
        parent = build("2^3.PSL2(7)")
        normal = _diagonal_subgroup(parent)
        points = list(diagonal_involutions().values())
        q = quotient(parent, normal, points)
        sizes = _class_profile(q)
        ok = (q.order == 168 and len(q.classes) == 6
              and generator("alpha_t") in q and generator("beta_t") in q
              and generator("gamma_t") in q
              and sizes == expected_classes["PSL2(7)"])
        return (f"order {q.order}, {len(q.classes)} classes, contains the printed "
                f"quotient generators: {ok}", ok)
    yield ("quotient.1344-to-psl2_7",
           "conjugation on N1..N7 realizes the quotient of the non-split 1344 group "
           "as PSL2(7) containing the printed alpha-, beta-, gamma-tilde",
           "order 168, 6 classes, printed generators present", _quotient_psl)

    def _quotient_s4():
        parent = build("2^3.S4")
        normal = _diagonal_subgroup(parent)
        points = list(diagonal_involutions().values())
        q = quotient(parent, normal, points)
        a_img = conjugate_action(generator("A"), points)
        b_img = conjugate_action(generator("B"), points)
        aa = a_img * b_img  # the printed witness product (1 4)(2 3 5 6)
        ok = (q.order == 24 and a_img == generator("A_t") and b_img == generator("B_t")
              and aa == SignedPerm.parse("(e1 e4)(e2 e3 e5 e6)")
              and aa.order() == 4 and generator("A_t").inverse().order() == 3
              and (aa * generator("A_t").inverse()).order() == 2)
        return (f"order {q.order}; induced actions equal the printed tilde generators "
                f"and the S4 presentation pair checks out: {ok}", ok)
    yield ("quotient.2^3.S4-to-s4",
           "the quotient of the A, B group by 2^3 is S4; the induced actions equal "
           "the printed A-tilde, B-tilde and satisfy a^4 = b^3 = (ab)^2 = 1",
           "order 24 with the printed quotient data", _quotient_s4)

    def _theta_action():
        points = list(diagonal_involutions().values())
        ok = conjugate_action(generator("theta"), points) == generator("theta_t")
        return (f"induced action equals theta-tilde: {ok}", ok)
    yield ("quotient.theta-action",
           "the conjugation action of theta on N1..N7 equals the printed theta-tilde "
           "(asserted, not assumed)",
           "actions equal", _theta_action)

    def _s4_witness_su3():
        gt, tt = generator("gamma_t"), generator("theta_t")
        a_el = gt * tt * gt
        b_el = tt.inverse() * gt
        ok = (a_el.order() == 4 and b_el.order() == 3 and (a_el * b_el).order() == 2)
        return (f"orders ({a_el.order()}, {b_el.order()}, {(a_el * b_el).order()})", ok)
    yield ("relations.s4-witness-su3",
           "gamma-tilde theta-tilde gamma-tilde and the inverse-theta product satisfy "
           "the S4 presentation a^4 = b^3 = (ab)^2 = 1",
           "(4, 3, 2)", _s4_witness_su3)

    # two PSL2(7)s (acceptance 6)
    def _psl_pair_orders():
        h1, h2 = build("PSL2(7)"), build("PSL2(7)-second")
        s1, s2 = _class_profile(h1), _class_profile(h2)
        ok = h1.order == h2.order == 168 and s1 == s2 == expected_classes["PSL2(7)"]
        return (f"orders ({h1.order}, {h2.order}), equal PSL2(7) class data: {ok}", ok)
    yield ("psl2x2.orders", "both PSL2(7) copies have order 168 and PSL2(7) class data",
           "168 each, class sizes 1,21,56,42,24,24", _psl_pair_orders)

    def _psl_pair_nonconjugate():
        parent = build("2^3:PSL2(7)")
        g = find_conjugating_element(parent, build("PSL2(7)"), build("PSL2(7)-second"))
        return ("no conjugating element exists" if g is None else f"conjugate via {g}",
                g is None)
    yield ("psl2x2.nonconjugate",
           "the two PSL2(7) copies are not conjugate inside the split 1344 group",
           "not conjugate", _psl_pair_nonconjugate)

    def _psl_pair_natural():
        h1, h2 = build("PSL2(7)"), build("PSL2(7)-second")
        n1, n2 = natural_character(h1), natural_character(h2)
        ip1 = inner_product(n1, n1, h1)
        ip2 = inner_product(n2, n2, h2)
        return (f"<chi,chi> = {ip1} and {ip2}", ip1 == 2 and ip2 == 1)
    yield ("psl2x2.natural-characters",
           "the natural 7-dim character is reducible (1 + 6) on the unsigned copy and "
           "irreducible on the second copy",
           "<chi,chi> = 2 and 1", _psl_pair_natural)

    def _gamma_delta():
        gt, d = generator("gamma_t"), generator("delta")
        prod1, prod2 = gt * d, d * gt
        name = _diag_name(prod1)
        ok = prod1 == prod2 and name == "N6"
        return (f"gamma-tilde * delta = delta * gamma-tilde = {name} "
                "(the printed source says N7)", ok, True)
    yield ("psl2x2.gamma-delta-product",
           "gamma-tilde and delta commute into a diagonal involution; computed N6, "
           "printed N7 (flagged misprint)",
           "commuting product N6 (printed: N7)", _gamma_delta)

    # octonion structure (acceptance 7 and triads)
    def _triads():
        counts = {"associative": 0, "anti_associative": 0}
        for i, j, k in combinations(range(1, 8), 3):
            counts[triad_type(i, j, k)] += 1
        ok = counts == {"associative": 7, "anti_associative": 28}
        return (str(counts), ok)
    yield ("octonion.triads", "the 35 unit triads split into 7 associative and 28 "
           "anti-associative", "7 / 28", _triads)

    def _automorphisms_nonsplit():
        group = build("2^3.PSL2(7)")
        ok = all(is_algebra_automorphism(g) for g in group.elements)
        return (f"all {group.order} elements preserve the product: {ok}", ok)
    yield ("octonion.automorphisms-nonsplit",
           "every element of the non-split 1344 group preserves the octonion algebra",
           "all 1344 pass", _automorphisms_nonsplit)

    def _automorphisms_split():
        group = build("2^3:PSL2(7)")
        failing = sum(1 for g in group.elements if not is_algebra_automorphism(g))
        a_t = generator("A_t")
        return (f"{failing} elements fail; A-tilde fails: {not is_algebra_automorphism(a_t)}",
                failing > 0 and not is_algebra_automorphism(a_t))
    yield ("octonion.automorphisms-split",
           "the split 1344 group contains elements that break the octonion algebra "
           "(A-tilde among them)",
           "failing elements exist", _automorphisms_split)

    def _closure_property():
        group = build("2^3.PSL2(7)")
        gens = group.generators
        ok = all(is_algebra_automorphism(x * y) and is_algebra_automorphism(x.inverse())
                 for x in gens for y in gens)
        return (f"products and inverses of generators stay automorphisms: {ok}", ok)
    yield ("octonion.automorphism-closure",
           "the algebra-automorphism property is closed under composition and inverse "
           "on the 1344-group generators",
           "closed", _closure_property)

    # order histograms / shared table (acceptance 4)
    def _order8():
        non = build("2^3.PSL2(7)").order_histogram().get(8, 0)
        spl = build("2^3:PSL2(7)").order_histogram().get(8, 0)
        return (f"order-8 elements: non-split {non}, split {spl}",
                non == 336 and spl == 0)
    yield ("shared-table.order-histograms",
           "the non-split group has 336 elements of order 8, the split group none",
           "336 vs 0", _order8)

    def _shared_matrix():
        a1, a2 = al("2^3.PSL2(7)"), al("2^3:PSL2(7)")
        m1, m2 = a1.cells(), a2.cells()
        return ("aligned character matrices are identical" if m1 == m2 else
                "aligned matrices differ", m1 == m2)
    yield ("shared-table.matrices",
           "the two order-1344 groups share one character table up to alignment",
           "identical aligned matrices", _shared_matrix)

    # character table alignments (acceptance 3)
    for name in ROSTER:
        def _align(name=name):
            a = al(name)
            flags = a.golden.flags
            desc = "aligned"
            if flags:
                notes = []
                for f in flags:
                    if f.row_label is None:
                        notes.append(f"class size column {f.column + 1}: printed "
                                     f"{f.printed}, computed {f.corrected}")
                    else:
                        notes.append(f"{f.row_label} at column {f.column + 1}: printed "
                                     f"{f.printed}, computed {f.corrected}")
                desc = "aligned; flagged cells: " + "; ".join(notes)
            return (desc, True, bool(flags))
        yield (f"chartab.{name}",
               f"computed character table of {name} aligns entry-for-entry with the "
               f"reference table {ROSTER[name].golden_file}",
               "full alignment", _align)

    # tensor products (acceptance 8)
    for name in ROSTER:
        tf = ROSTER[name].tensor_file
        if tf is None:
            continue
        def _tensors(name=name, tf=tf):
            lines = gold.load_tensor_lines(_reference_path(tf, golden_dir),
                                           _labels(name, golden_dir))
            checks = gold.check_tensor_lines(al(name), lines)
            bad = [c for c in checks if not c.matches and not c.flagged]
            flagged = [c for c in checks if c.flagged]
            msg = f"{len(checks)} lines checked, {len(bad)} mismatches"
            if flagged:
                msg += "; flagged: " + "; ".join(
                    f"[{c.line}] computed {c.computed}" for c in flagged)
            if not bad:
                return (msg, True, bool(flagged))
            # the product list may enumerate equal-degree irreps in an order
            # that differs from the table's own rows; try to reconcile
            sigma = gold.find_tensor_relabeling(al(name), lines)
            if sigma is not None:
                moved = {k: v for k, v in sigma.items() if k != v}
                return (f"{msg}; every line is reproduced exactly under the "
                        f"relabeling {moved} (the product list and the reference "
                        f"table enumerate equal-degree irreps differently)",
                        True, True)
            return (msg, False)
        yield (f"tensor.{name}",
               f"all reference tensor-product lines for {name} are reproduced",
               "all lines match (flagged or relabeled lines reported)", _tensors)

    # branchings (acceptance 9)
    for parent, child, child_roster, branch_file in _BRANCHES:
        def _branch(parent=parent, child_roster=child_roster, branch_file=branch_file):
            lines = _branch_lines(parent, child_roster, branch_file, golden_dir)
            checks = gold.check_branch_lines(al(parent), al(child_roster),
                                             branch_matrix(parent, child_roster), lines)
            bad = [c for c in checks if not c.matches]
            return (f"{len(checks)} rows checked, {len(bad)} mismatches", not bad)
        yield (f"branch.{parent}->{child}",
               f"the branching table {parent} -> {child} is reproduced",
               "all rows match", _branch)

    def _natural_branchings():
        t = table("7:3")
        got = gold.render_terms(al("7:3").terms(decompose(natural_character(t.group), t)))
        n168 = build("2^3:7:3")
        irr = inner_product(natural_character(n168), natural_character(n168), n168)
        n1344 = build("2^3.PSL2(7)")
        irr1344 = inner_product(natural_character(n1344), natural_character(n1344), n1344)
        ok = got == "1 + 3_1 + 3_2" and irr == 1 and irr1344 == 1
        return (f"7:3 natural = {got}; 2^3:7:3 and non-split 1344 natural characters "
                f"irreducible: {irr == 1}, {irr1344 == 1}", ok)
    yield ("natural.decompositions",
           "the defining 7-dim character decomposes as 1 + 3_1 + 3_2 for 7:3 and is "
           "irreducible for 2^3:7:3 and the non-split 1344 group",
           "7 = 1 + 3_1 + 3_2; irreducible twice", _natural_branchings)

    # Frobenius-Schur (acceptance 11)
    def _fs(name):
        def check():
            t = table(name)
            a = al(name)
            inds = {a.row_to_label[i]: frobenius_schur(t, i) for i in range(len(t.rows))}
            complex_rows = {lab for lab, v in inds.items() if v == 0}
            ok = complex_rows == {"3_1", "3_2"} and all(
                v == 1 for lab, v in inds.items() if lab not in complex_rows)
            return (f"indicator 0 on {sorted(complex_rows)}, +1 elsewhere", ok)
        return check
    yield ("frobenius-schur.2^3.PSL2(7)",
           "all irreps of the non-split 1344 group are real except the degree-3 pair",
           "0 on 3_1, 3_2; +1 elsewhere", _fs("2^3.PSL2(7)"))
    yield ("frobenius-schur.2^3:PSL2(7)",
           "all irreps of the split 1344 group are real except the degree-3 pair",
           "0 on 3_1, 3_2; +1 elsewhere", _fs("2^3:PSL2(7)"))

    # quaternion construction (acceptance 10)
    yield ("quaternion.cosets",
           "the binary octahedral group has 48 elements in six 8-element cosets",
           "48 = 6 x 8",
           lambda: (f"{len(binary_octahedral())} elements",
                    len(binary_octahedral()) == 48
                    and all(sum(1 for v in binary_octahedral().values() if v == name) == 8
                            for name in ("V0", "V+", "V-", "V1", "V2", "V3"))))
    yield ("quaternion.coset-table",
           "all 36 coset products match the reference multiplication table, "
           "verified elementwise",
           "elementwise consistent",
           lambda: ("all 36 products consistent", verify_coset_table()))
    yield ("quaternion.pair-group",
           "the pairs preserving V0 form a group of order 192 with 13 conjugacy classes",
           "order 192, 13 classes",
           lambda: (f"order {build('2^3.S4-pairs').order}, "
                    f"{len(build('2^3.S4-pairs').classes)} classes",
                    build("2^3.S4-pairs").order == 192
                    and len(build("2^3.S4-pairs").classes) == 13))

    def _pair_involutions():
        index = quaternion_index()
        gens = [index.unit_pair(i, -1) for i in (0, 1, 2)]
        idp = index.unit_pair(0)
        seen = orbit(idp, gens, index.pair_product)
        ok = len(seen) == 8 and all(x == idp or index.pair_product(x, x) == idp for x in seen)
        return (f"subgroup of size {len(seen)}, all non-identity elements involutions", ok)
    yield ("quaternion.2^3",
           "[1,-1], [e1,-e1], [e2,-e2] generate an order-8 subgroup of involutions",
           "order 8, exponent 2", _pair_involutions)

    def _pair_homomorphism():
        images = pair_images()
        ok = is_homomorphism(images)
        return (f"checked {len(images) ** 2} products: homomorphism holds: {ok}", ok)
    yield ("quaternion.homomorphism",
           "the degree-7 realization of quaternion pairs is a group homomorphism "
           "(all 192 x 192 products)",
           "homomorphism", _pair_homomorphism)

    def _pair_vs_ab():
        img = build("2^3.S4-pairs")
        ab = build("2^3.S4")
        equal = set(img.elements) == set(ab.elements)
        if equal:
            return ("image equals the A, B group as a set", True)
        parent = build("2^3.PSL2(7)")
        g = find_conjugating_element(parent, img, ab)
        if g is None:
            return ("image neither equals nor is conjugate to the A, B group", False)
        return (f"image is conjugate to the A, B group via {g}", True)
    yield ("quaternion.pair-image-vs-AB",
           "the pair-group image coincides with the A, B group up to an explicit "
           "basis identification inside the non-split 1344 group",
           "set equality or an explicit conjugator", _pair_vs_ab)

    # containments and the alternating-parity embedding
    def _containments():
        big_non = set(build("2^3.PSL2(7)").elements)
        big_spl = set(build("2^3:PSL2(7)").elements)
        pairs_ok = [
            all(g in big_non for g in build("2^3:7:3").elements),
            all(g in big_non for g in build("4.S4:2").elements),
            all(g in big_non for g in build("2^3.S4").elements),
            all(g in big_spl for g in build("2^3:7:3-split").elements),
            all(g in big_spl for g in build("PSL2(7)").elements),
            all(g in big_spl for g in build("PSL2(7)-second").elements),
            all(g in big_spl for g in build("2^3:S4").elements),
            all(g in big_spl for g in build("4:S4:2").elements),
        ]
        return (f"containments: {pairs_ok}", all(pairs_ok))
    yield ("containment.maximal-subgroups",
           "every roster maximal subgroup is contained in its parent order-1344 group",
           "all contained", _containments)

    def _parity():
        group = build("2^3:PSL2(7)")
        ok = all(g.doubled_is_even() for g in group.elements)
        return (f"all {group.order} elements even on the doubled 14 points: {ok}", ok)
    yield ("parity.split-1344",
           "every element of the split 1344 group induces an even permutation of the "
           "14 signed points (the testable part of the alternating-group embedding; "
           "maximality itself is documented, not verified)",
           "all even", _parity)
