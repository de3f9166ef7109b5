"""The document readers read rational fields straight into integers.

`setfn_from_json`, `hpolytope_from_json` and `fan_from_json` scale each
list of fields by the lcm of its denominators (`rational.rats_from_json`)
and build from those integers.  The reference in `tests/oracles.py` reads
every field as a `Fraction` first and scales through `to_integers`; both
must build equal objects with equal hashes and refuse a bad field with the
same `InputFormatError`, which the CLI turns into exit 2.  Past the reader,
a polytope is counted with no `Fraction` at all.
"""

import copy
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gpcount.cli import run
from gpcount.ehrhart import count_lattice, fan_from_json, hpolytope_from_json
from gpcount.errors import InputFormatError
from gpcount.setfn import setfn_from_json
from oracles import fan_by_fractions, hpolytope_by_fractions, rat_by_fraction, setfn_by_fractions

ROOT = Path(__file__).resolve().parent.parent
DOCS = sorted((ROOT / "perfbench" / "docs").glob("*.json")) + sorted(
    (ROOT / "tests" / "golden").glob("*.json"))

# the key that marks a document's kind, its reader and the reference
READERS = {
    "values": (setfn_from_json, setfn_by_fractions),
    "rows": (hpolytope_from_json, hpolytope_by_fractions),
    "cones": (fan_from_json, fan_by_fractions),
}


def committed(kind):
    docs = [(path.name, json.loads(path.read_text())) for path in DOCS]
    return [(name, doc) for name, doc in docs if kind in doc]


def row_lists(doc):
    """The rows of a polytope document or of every cone of a fan document."""
    if "cones" in doc:
        return [row for cone in doc["cones"] for row in cone["rows"]]
    return doc.get("rows", [])


def spell(rng, q: Fraction):
    """A document field for q: an int, or a literal with numerator and
    denominator multiplied by 1 to 3, perhaps with a "+" sign, "-0" for
    zero, and blanks around it."""
    if q.denominator == 1 and rng.random() < 0.25:
        return int(q)
    k = rng.randint(1, 3)
    num, den = q.numerator * k, q.denominator * k
    text = str(num) if den == 1 and rng.random() < 0.5 else f"{num}/{den}"
    if num >= 0 and rng.random() < 0.3:
        text = "+" + text
    if num == 0 and rng.random() < 0.5:
        text = "-0"
    if rng.random() < 0.3:
        text = rng.choice((" ", "\t", "\n")) + text + " "
    return text


def respelled(rng, doc, factor=1):
    """The document with every rational field spelled anew by `spell`; a
    row is multiplied by 10^30 a third of the time, which leaves its
    primitive row as it is, and a set function's values by `factor`."""
    doc = copy.deepcopy(doc)
    for row in row_lists(doc):
        scale = 10 ** 30 if rng.random() < 1 / 3 else 1
        row["a"] = [spell(rng, scale * rat_by_fraction(c)) for c in row["a"]]
        row["b"] = spell(rng, scale * rat_by_fraction(row["b"]))
    if "values" in doc:
        doc["values"] = [spell(rng, factor * rat_by_fraction(v)) for v in doc["values"]]
    return doc


@pytest.mark.parametrize("kind", sorted(READERS))
def test_committed_documents_read_as_the_reference(kind):
    read, reference = READERS[kind]
    docs = committed(kind)
    assert docs
    for name, doc in docs:
        built, expected = read(doc), reference(doc)
        assert built == expected, name
        assert hash(built) == hash(expected), name


@pytest.mark.parametrize("kind", sorted(READERS))
def test_respelled_documents_read_as_the_reference(kind):
    # non-reduced literals ("6/4"), "-0", "+3", " 2 ", ints and rows times
    # 10^30 are the same rationals and the same primitive rows; set function
    # values times 10^30 are a new set function, the same through both
    read, reference = READERS[kind]
    rng = random.Random(41)
    spellings = set()
    for name, doc in committed(kind):
        original = read(doc)
        for _ in range(4):
            again = respelled(rng, doc)
            assert read(again) == reference(again) == original, name
            assert hash(read(again)) == hash(original), name
            big = respelled(rng, doc, 10 ** 30)
            assert read(big) == reference(big), name
            assert hash(read(big)) == hash(reference(big)), name
            fields = [v for spelled in (again, big) for row in row_lists(spelled)
                      for v in (*row["a"], row["b"])]
            for v in fields + again.get("values", []) + big.get("values", []):
                if isinstance(v, int):
                    spellings.add("int")
                elif v.strip() != v:
                    spellings.add("blanks")
                elif v.startswith("+"):
                    spellings.add("plus")
                elif v == "-0":
                    spellings.add("minus zero")
                elif "/" in v and Fraction(v).denominator != int(v.split("/")[1]):
                    spellings.add("not reduced")
                if len(str(v).strip()) > 30:
                    spellings.add("10^30")
    assert spellings == {"int", "blanks", "plus", "minus zero", "not reduced", "10^30"}


# the most digits int() reads from a string: 4300 by default from Python
# 3.11 on, 0 (no limit) where the interpreter has none
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
TOO_LONG = "1" * (max(INT_DIGITS, 4300) + 1)
BAD_FIELDS = [True, 1.5, None, [1], "1.5", "1/0", "3/04", "1e3", "٣", "", TOO_LONG]


def with_bad_field(kind, bad, where):
    """A committed document of `kind` with one field replaced by `bad`:
    the value of a set function at {1}, or the first row's first
    coefficient ("a") or its bound ("b")."""
    name = {"values": "pi_3.json", "rows": "cube_3.json", "cones": "fan_diag_q.json"}[kind]
    doc = copy.deepcopy(dict(committed(kind))[name])
    if kind == "values":
        doc["values"][1] = bad
    else:
        row = row_lists(doc)[0]
        if where == "a":
            row["a"][0] = bad
        else:
            row["b"] = bad
    return doc


def message(read, doc):
    """The refusal of `read` on `doc`, or None when it reads the document."""
    try:
        read(doc)
    except InputFormatError as exc:
        return str(exc)
    return None


CLI = {
    "values": lambda path: ["faces", "--setfn", path],
    "rows": lambda path: ["ehrhart", "--poly", path],
    "cones": lambda path: ["pruned", "--poly", str(ROOT / "tests" / "golden" / "rect_q2.json"),
                           "--fan", path],
}


@pytest.mark.parametrize("kind, where", [("values", None), ("rows", "a"), ("rows", "b"),
                                         ("cones", "a"), ("cones", "b")])
@pytest.mark.parametrize("bad", BAD_FIELDS, ids=lambda v: repr(v)[:12])
def test_bad_fields_refused_as_by_the_reference(kind, where, bad, tmp_path, capsys):
    read, reference = READERS[kind]
    doc = with_bad_field(kind, bad, where)
    expected = message(reference, doc)
    if bad is not TOO_LONG or INT_DIGITS:
        assert expected is not None
    assert message(read, doc) == expected
    if expected is None:
        return
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run(CLI[kind](str(path))) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {expected}\n"


def test_no_fraction_before_the_count(monkeypatch):
    # the committed rational boxes and simplices, read, opened and counted
    # at t = 1..6, and the set function pi_5, read, make no Fraction
    polytopes = [doc for _name, doc in committed("rows")]
    pi_5 = dict(committed("values"))["pi_5.json"]
    made = []
    real = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    assert Fraction(1, 2) and made == [(1, 2)]  # the counter counts
    made.clear()
    points = 0
    for doc in polytopes:
        poly = hpolytope_from_json(doc)
        open_poly = poly.interior()
        for t in range(1, 7):
            points += count_lattice(poly, t) + count_lattice(open_poly, t)
    z = setfn_from_json(pi_5)
    assert made == []
    monkeypatch.undo()
    assert len(polytopes) >= 10 and points > 0 and z.d == 5
