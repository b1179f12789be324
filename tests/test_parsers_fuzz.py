"""Property tests of the text parsers and the reference-file loaders.

Each parser returns what its grammar describes, reads back what the
renderers write, and rejects everything else with its typed error:
``ValueError`` for ``Cyclotomic.parse``, ``Octonion.parse`` and
``SignedPerm.parse``, ``GoldenFileError`` for the three loaders.  Integers
are plain ASCII digits, so a digit written in another script, or split by an
underscore (both of which ``int()`` accepts), must be rejected.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from octogroup import golden as gold
from octogroup.octonion import Octonion
from octogroup.scalars import MAX_PARSED_CONDUCTOR, Cyclotomic
from octogroup.signedperm import SignedPerm

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=30)

# ASCII grammar characters, and look-alikes that int() accepts
NOISE = "0123456789z^e*/+-_ ().,x=>!\u0663\uff15"
fractions = st.fractions(min_value=-9, max_value=9, max_denominator=6)
conductors = st.sampled_from((1, 2, 3, 4, 5, 7, 8, 9, 12, 21, 24, 28, 42, 45, 1344))


@st.composite
def corrupt_digit(draw, text: str) -> str:
    """text with one ASCII digit written as an Arabic-Indic or fullwidth
    digit of the same value, or prefixed by ``0_``: int() reads the same
    number from each."""
    spots = [i for i, ch in enumerate(text) if ch.isascii() and ch.isdigit()]
    i = draw(st.sampled_from(spots))
    d = int(text[i])
    bad = draw(st.sampled_from((chr(0x660 + d), chr(0xFF10 + d), "0_" + text[i])))
    return text[:i] + bad + text[i + 1:]


def with_digit(text: str) -> bool:
    return any(ch.isascii() and ch.isdigit() for ch in text)


# -- Cyclotomic.parse ----------------------------------------------------------

@st.composite
def cyclotomic_terms(draw) -> tuple[str, Cyclotomic]:
    """A sum of z{n}^{k} and numeral terms, and its value by Cyclotomic.make."""
    text, value = "", Cyclotomic.zero()
    for _ in range(draw(st.integers(1, 4))):
        coeff = draw(fractions.filter(bool))
        if draw(st.booleans()):
            atom, term = "", Cyclotomic.from_rational(coeff)
        else:
            n, k = draw(conductors), draw(st.integers(0, 99))
            atom, term = f"z{n}^{k}", Cyclotomic.make(n, {k: coeff})
        body = str(abs(coeff)) if not atom else f"{abs(coeff)}*{atom}"
        text += ("-" if coeff < 0 else "+" if text else "") + body
        value = value + term
    return text, value


@FUZZ
@given(conductors, st.dictionaries(st.integers(0, 41), fractions, max_size=4))
def test_cyclotomic_round_trip(n, parts):
    x = Cyclotomic.make(n, parts)
    assert Cyclotomic.parse(str(x)) == x


@FUZZ
@given(cyclotomic_terms())
def test_cyclotomic_parse_sums_its_terms(case):
    text, value = case
    assert Cyclotomic.parse(text) == value


@FUZZ
@given(cyclotomic_terms().flatmap(lambda case: corrupt_digit(case[0])))
def test_cyclotomic_rejects_non_ascii_integers(text):
    with pytest.raises(ValueError):
        Cyclotomic.parse(text)


@settings(FUZZ, max_examples=10)
@given(st.integers(MAX_PARSED_CONDUCTOR + 1, 2 * MAX_PARSED_CONDUCTOR), st.integers(0, 5))
def test_cyclotomic_rejects_conductors_over_the_cap(n, k):
    with pytest.raises(ValueError, match="exceeds"):
        Cyclotomic.parse(f"z{n}^{k}")


@FUZZ
@given(st.text(NOISE, max_size=24))
def test_cyclotomic_parse_raises_only_value_error(text):
    try:
        Cyclotomic.parse(text)
    except ValueError:
        pass


# -- Octonion.parse ------------------------------------------------------------

octonions = st.lists(fractions, min_size=8, max_size=8).map(lambda cs: Octonion(tuple(cs)))


@FUZZ
@given(octonions)
def test_octonion_round_trip(x):
    assert Octonion.parse(str(x)) == x


@FUZZ
@given(octonions.map(str).filter(with_digit).flatmap(corrupt_digit))
def test_octonion_rejects_non_ascii_integers(text):
    with pytest.raises(ValueError):
        Octonion.parse(text)


@FUZZ
@given(st.text(NOISE, max_size=24))
def test_octonion_parse_raises_only_value_error(text):
    try:
        Octonion.parse(text)
    except ValueError:
        pass


# -- SignedPerm.parse ----------------------------------------------------------

signed_perms = st.builds(lambda image, signs: SignedPerm(tuple(image), tuple(signs)),
                         st.permutations(range(7)),
                         st.lists(st.sampled_from((1, -1)), min_size=7, max_size=7))


@FUZZ
@given(signed_perms)
def test_signed_perm_round_trip(x):
    assert SignedPerm.parse(str(x)) == x


@FUZZ
@given(signed_perms.map(str).filter(with_digit).flatmap(corrupt_digit))
def test_signed_perm_rejects_non_ascii_integers(text):
    with pytest.raises(ValueError):
        SignedPerm.parse(text)


@FUZZ
@given(st.text(NOISE, max_size=24))
def test_signed_perm_parse_raises_only_value_error(text):
    try:
        SignedPerm.parse(text)
    except ValueError:
        pass


# -- reference-file loaders ----------------------------------------------------

def data_lines(name: str) -> list[str]:
    """The non-comment lines of a packaged reference file."""
    text = (gold.DATA_DIR / name).read_text(encoding="utf-8")
    return [line for line in text.splitlines() if line and not line.startswith("#")]


TABLE_FILES = ("chartab_7_3.txt", "chartab_2_3_7_3.txt", "chartab_1344.txt",
               "chartab_psl2_7.txt")
LABELS = {name: gold.load_golden_table(gold.DATA_DIR / name).labels for name in TABLE_FILES}
# (file, left-side labels, right-side labels)
LINE_FILES = (
    ("tensors_2_3_7_3.txt", LABELS["chartab_2_3_7_3.txt"], LABELS["chartab_2_3_7_3.txt"]),
    ("tensors_1344.txt", LABELS["chartab_1344.txt"], LABELS["chartab_1344.txt"]),
    ("branch_2_3_7_3_to_7_3.txt", LABELS["chartab_2_3_7_3.txt"], LABELS["chartab_7_3.txt"]),
    ("branch_split_1344_to_psl2_7.txt", LABELS["chartab_1344.txt"],
     LABELS["chartab_psl2_7.txt"]),
)


def load(path, name: str, left: list[str], right: list[str]):
    if name.startswith("chartab"):
        return gold.load_golden_table(path)
    if name.startswith("tensors"):
        return gold.load_tensor_lines(path, left)
    return gold.load_branch_lines(path, left, right)


@pytest.fixture(scope="module")
def reference_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "reference.txt"


def number_spots(line: str) -> list[tuple[int, int]]:
    """(start, end) of each field of a table line that must be a number or a
    value: names and labels are free text, and of a flagged cell
    ``printed!corrected`` only the corrected value is read."""
    fields, spots, at = line.split(" "), [], 0
    skip = {"group": len(fields), "orders": 2, "irrep": 2}.get(fields[0], 1)
    for f, field in enumerate(fields):
        if f >= skip and field:
            spots.append((at + field.rfind("!") + 1, at + len(field)))
        at += len(field) + 1
    return spots


@st.composite
def corrupt_table(draw):
    """A packaged table, one digit of one number or value corrupted."""
    name = draw(st.sampled_from(TABLE_FILES))
    lines = [" ".join(line.split()) for line in data_lines(name)]
    candidates = [(i, a, b) for i, line in enumerate(lines)
                  for a, b in number_spots(line) if with_digit(line[a:b])]
    i, a, b = draw(st.sampled_from(candidates))
    lines[i] = lines[i][:a] + draw(corrupt_digit(lines[i][a:b])) + lines[i][b:]
    return name, "\n".join(lines)


@st.composite
def corrupt_line_file(draw):
    """A packaged tensor or branch file, one digit of a label or a
    multiplicity corrupted."""
    entry = draw(st.sampled_from(LINE_FILES))
    text = "\n".join(data_lines(entry[0]))
    return entry, draw(corrupt_digit(text))


@FUZZ
@given(corrupt_table())
def test_table_loader_rejects_non_ascii_integers(reference_file, case):
    name, text = case
    reference_file.write_text(text, encoding="utf-8")
    with pytest.raises(gold.GoldenFileError):
        gold.load_golden_table(reference_file)


@FUZZ
@given(corrupt_line_file())
def test_line_loaders_reject_non_ascii_integers(reference_file, case):
    (name, left, right), text = case
    reference_file.write_text(text, encoding="utf-8")
    with pytest.raises(gold.GoldenFileError):
        load(reference_file, name, left, right)


@st.composite
def mangled_file(draw):
    """A packaged reference file with lines dropped, repeated or replaced by
    noise, and one character replaced."""
    name, left, right = draw(st.sampled_from(
        [(name, [], []) for name in TABLE_FILES] + list(LINE_FILES)))
    lines = data_lines(name)
    out = []
    for _ in range(draw(st.integers(0, len(lines) + 2))):
        out.append(draw(st.one_of(st.sampled_from(lines), st.text(NOISE, max_size=16))))
    text = "\n".join(out)
    if text:
        i = draw(st.integers(0, len(text) - 1))
        text = text[:i] + draw(st.sampled_from(NOISE)) + text[i + 1:]
    return (name, left, right), text


@FUZZ
@given(mangled_file())
def test_loaders_raise_only_golden_file_error(reference_file, case):
    (name, left, right), text = case
    reference_file.write_text(text, encoding="utf-8")
    try:
        load(reference_file, name, left, right)
    except gold.GoldenFileError:
        pass


def test_packaged_files_load():
    """The unmodified inputs of the loader properties above are well formed."""
    for name in TABLE_FILES:
        assert gold.load_golden_table(gold.DATA_DIR / name).labels == LABELS[name]
    for name, left, right in LINE_FILES:
        assert load(gold.DATA_DIR / name, name, left, right)
