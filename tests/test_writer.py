"""`cli.dumps`, the writer of every report, gives the bytes of
`json.dumps(value, indent=2)` on the values it accepts and refuses the rest.
A list of only `Face`s is written as their dicts {"dim", "vertices"} and a
list of only `CheckEntry`s as their dicts {"label", "lhs", "rhs", "pass"},
one template per item, at top level, in a dict or among other items; a
list of nonempty rows of only ints or only strs gets the same bytes from
one join per row, and any other list, dicts of a face's or a check's shape
and rows with an empty row, a bool, a float or None among them, is written
item by item.  A lone `Face` or `CheckEntry`, which no report holds, raises
TypeError, and so does one in a list written item by item, as do tuples,
other named tuples and subclasses of `str`, `int`, `Face` or `CheckEntry`;
a `Face` with no vertex, never built by `GPerm`, raises ValueError in a
list of faces.  `faces` takes the face template and the rows path for its
vertices, `chi` the check template and `hg-headings` the rows path for its
headings and in-degree vectors."""

import json
from fractions import Fraction
from typing import NamedTuple
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gpcount import cli
from gpcount.cli import dumps
from gpcount.permutahedron import Face
from gpcount.report import CheckEntry

PI_3 = Path(__file__).resolve().parent / "golden" / "pi_3.json"

# Any code point, with lone surrogates and the characters JSON escapes drawn
# often.
TEXT = st.text(st.characters() | st.characters(categories=["Cs"]) | st.sampled_from(
    ['"', "\\", "\t", "\n", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028"]), max_size=8)
SCALARS = (TEXT | st.integers() | st.booleans() | st.none()
           | st.floats(allow_nan=False, allow_infinity=False))
VALUES = st.deferred(lambda: (
    SCALARS | st.lists(st.integers(), max_size=6) | st.lists(TEXT, max_size=6)
    | st.lists(VALUES, max_size=5) | st.dictionaries(TEXT, VALUES, max_size=5)))


@given(VALUES)
def test_same_bytes_as_json_dumps(value):
    assert dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    {}, [], [[]], {"a": {}}, [True, 1], [1, True], [False, 0, None], ["a", 1],
    [1.0, 1], {"k": [1, -2, 10 ** 30]}, 0.1, -0.0, 1e300, "\ud800"])
def test_edge_cases(value):
    assert dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    {1: "a"}, {None: 1}, {("a",): 1}, [{"a": {2: 3}}], Fraction(1, 2), {1, 2},
    ["a", Fraction(1)], ("a",), b"a", (3, 1), [(3, 1)]])
def test_unsupported_values_raise_type_error(value):
    with pytest.raises(TypeError):
        dumps(value)


# Faces of a `faces` report: an int dim and a mask of one or many ids, small or big.
# A mask with two set bits or more holds at least one vertex id, whichever bit
# of the mask an id takes.
INTS = st.integers(-3, 40) | st.integers()
MASKS = (st.integers(3, 1 << 8) | st.integers(3, 1 << 800)).filter(lambda m: m & (m - 1))
FACES = st.lists(st.builds(Face, MASKS, INTS), min_size=1, max_size=8)


def row(face):
    return {"dim": face.dim, "vertices": list(face.vertex_ids)}


def nestings(faces):
    """The faces written at top level, nested in a report and a list and
    among other items, each with the same value in dicts, and one face
    alone or among other items, with TypeError in place of the dicts."""
    rows = list(map(row, faces))
    return [(faces, rows),
            ({"command": "faces", "faces": faces, "timing": 0.5},
             {"command": "faces", "faces": rows, "timing": 0.5}),
            ([[{"faces": faces}], 1], [[{"faces": rows}], 1]),
            ([1, "a", faces, None], [1, "a", rows, None]),
            (faces[0], TypeError),
            ([1, faces[-1], "a", faces, None], TypeError)]


def written_as(value, dicts):
    """`dumps(value)` gives the bytes of `json.dumps(dicts, indent=2)`, or
    raises TypeError where dicts is TypeError."""
    if dicts is TypeError:
        with pytest.raises(TypeError):
            dumps(value)
    else:
        assert dumps(value) == json.dumps(dicts, indent=2)


@given(FACES)
def test_face_rows_template_gives_json_dumps_bytes(faces):
    for value, dicts in nestings(faces):
        written_as(value, dicts)


class Pair(NamedTuple):
    mask: int
    dim: int


class SubFace(Face):
    pass


# One item that does not fit the template, put among faces that do: the list
# is written item by item, so its faces raise TypeError as a lone face does,
# and a tuple, another named tuple or a `Face` subclass raises TypeError
# alone too.
MISFITS = [
    {"dim": 1, "vertices": [0, 1]},
    {"dim": 1, "vertices": [0, True]},
    [1, [0, 1]],
    7,
    (3, 1),
    Pair(3, 1),
    SubFace(3, 1),
    Fraction(1),
]


@given(FACES, st.sampled_from(MISFITS), st.integers(0, 8))
def test_a_row_off_the_template_gets_plain_list_bytes_or_type_error(faces, misfit, at):
    # the list is written item by item, and a `Face` alone raises TypeError
    if isinstance(misfit, tuple):  # a tuple, another named tuple, a `Face` subclass
        with pytest.raises(TypeError):
            dumps(misfit)
    faces = faces[:at] + [misfit] + faces[at:]
    for value in (faces, {"faces": faces}, [faces]):
        with pytest.raises(TypeError):
            dumps(value)


@pytest.mark.parametrize("mask", [0, -1, -6, 1, 2, 1 << 6, 1 << 70, -(1 << 70)])
def test_a_face_without_vertices_raises_value_error(mask):
    # `GPerm` builds no face with an empty mask, one that holds only the
    # sentinel bit; writing one would print a face of no polytope, so the
    # writer refuses it among faces, and a negative mask too; alone or among
    # other items it raises TypeError, as any lone `Face` does
    for value in ([Face(mask, 0)], [Face(3, 0), Face(mask, 1)], {"faces": [Face(mask, 0)]}):
        with pytest.raises(ValueError):
            dumps(value)
    for value in (Face(mask, 0), [1, Face(mask, 0)]):
        with pytest.raises(TypeError):
            dumps(value)


@pytest.mark.parametrize("rows", [
    [], [1, 2], ["a"], [[]], [{}], [{"dim": 0}], [{"name": "k=1 forward m=1", "ok": True}],
    [{"dim": 0, "vertices": [0]}, {"dim": 0, "vertices": [1], "ok": True}]])
def test_face_rows_without_rows_are_a_plain_list(rows):
    # lists without a `Face`, dicts of a face's shape among them, are written
    # item by item
    assert dumps(rows) == json.dumps(rows, indent=2)


# Checks of a report: a label with any escape, int, `Fraction`, bool or str
# sides, passing and failing.
SIDES = st.integers() | st.fractions() | st.booleans() | TEXT
CHECKS = st.lists(st.builds(lambda label, lhs, rhs, same: CheckEntry(label, lhs,
                                                                    lhs if same else rhs),
                            TEXT, SIDES, SIDES, st.booleans()), min_size=1, max_size=8)


def side(value):
    return ("true" if value else "false") if isinstance(value, bool) else str(value)


def check_row(check):
    return {"label": check.label, "lhs": side(check.lhs), "rhs": side(check.rhs),
            "pass": check.lhs == check.rhs}


def check_nestings(checks):
    """The checks written at top level, in a report, nested in a list and
    among other items, each with the same value in dicts, and one check
    alone or among other items, with TypeError in place of the dicts."""
    rows = list(map(check_row, checks))
    summary = {"checks": len(checks), "failures": sum(not row["pass"] for row in rows)}
    return [(checks, rows),
            ({"command": "verify-all", "checks": checks, "summary": summary, "timing": 0.5},
             {"command": "verify-all", "checks": rows, "summary": summary, "timing": 0.5}),
            ([[{"checks": checks}], 1], [[{"checks": rows}], 1]),
            ([1, "a", checks, None], [1, "a", rows, None]),
            (checks[0], TypeError),
            ([1, checks[-1], "a", checks, None], TypeError)]


@given(CHECKS)
def test_check_rows_template_gives_json_dumps_bytes(checks):
    for value, dicts in check_nestings(checks):
        written_as(value, dicts)


class Triple(NamedTuple):
    label: str
    lhs: object
    rhs: object


class SubCheck(CheckEntry):
    pass


# One item that does not fit the check template, put among checks that do:
# the list is written item by item, so its checks raise TypeError as a lone
# check does, and a tuple, another named tuple or a `CheckEntry` subclass
# raises TypeError alone too.
CHECK_MISFITS = [
    {"label": "t=1", "lhs": "1", "rhs": "1", "pass": True},
    Face(3, 1),
    "t=1",
    ("t=1", 1, 1),
    Triple("t=1", 1, 1),
    SubCheck("t=1", 1, 1),
    Fraction(1),
]


@given(CHECKS, st.sampled_from(CHECK_MISFITS), st.integers(0, 8))
def test_a_check_off_the_template_gets_plain_list_bytes_or_type_error(checks, misfit, at):
    # the list is written item by item, and a `CheckEntry` alone raises TypeError
    if type(misfit) in (tuple, Triple, SubCheck):
        with pytest.raises(TypeError):
            dumps(misfit)
    checks = checks[:at] + [misfit] + checks[at:]
    for value in (checks, {"checks": checks}, [checks]):
        with pytest.raises(TypeError):
            dumps(value)


# Rows of a report: headings of node names, in-degree vectors, vertices as
# exact rationals.
ROWS = (st.lists(st.lists(st.integers(), min_size=1, max_size=5), min_size=1, max_size=6)
        | st.lists(st.lists(TEXT, min_size=1, max_size=5), min_size=1, max_size=6))


class Name(str):
    pass


class Count(int):
    pass


@given(ROWS)
def test_rows_give_json_dumps_bytes(rows):
    for value in (rows, {"headings": rows, "timing": 0.5}, [[{"rows": rows}], 1]):
        assert dumps(value) == json.dumps(value, indent=2)


# One item that does not fit the rows path, put among rows that do, as a row
# or as an item of a row: each of them is written item by item, and a tuple
# or a subclass of `str` or `int` raises TypeError.
ROW_MISFITS = [[], True, False, 1.5, None, "a", 7, [1, "a"], [[1]], [True], (1, 2),
               Name("a"), Count(3)]


@given(ROWS, st.sampled_from(ROW_MISFITS), st.booleans(), st.integers(0, 6),
       st.integers(0, 5))
def test_a_row_off_the_rows_path_gets_plain_list_bytes_or_type_error(rows, misfit, as_row,
                                                                     at, cell):
    if type(misfit) in (tuple, Name, Count):
        with pytest.raises(TypeError):
            dumps(misfit)
    rows = [list(row) for row in rows]
    if as_row:
        rows.insert(at, misfit)
    else:
        rows[at % len(rows)].insert(cell, misfit)
    try:
        dumps(misfit)
    except TypeError:
        with pytest.raises(TypeError):
            dumps(rows)
    else:
        assert dumps(rows) == json.dumps(rows, indent=2)


def test_faces_and_chi_take_their_templates(monkeypatch, capsys):
    # `faces` writes its faces with one template each and has no checks;
    # `chi` writes its checks with one template each and has no faces
    calls = []
    for name in ("_face_items", "_check_items"):
        def items(values, pad, real=getattr(cli, name), name=name):
            calls.append((name, list(map(type, values))))
            return real(values, pad)
        monkeypatch.setattr(cli, name, items)
    for command, templated in (("faces", [("_face_items", [Face] * 13)]),
                               ("chi", [("_check_items", [CheckEntry] * 6)])):
        calls.clear()
        assert cli.run([command, "--setfn", str(PI_3)]) == 0
        assert capsys.readouterr().err == ""
        assert calls == templated


def test_hg_headings_and_faces_take_the_rows_path(monkeypatch, capsys):
    # `hg-headings` writes its 11 headings of node names and its 11 in-degree
    # vectors with one join per row; `faces` its 6 vertices of pi_3
    calls = []

    def rows(values, pad, write, real=cli._row_items):
        calls.append((len(values), {type(cell) for row in values for cell in row}))
        return real(values, pad, write)
    monkeypatch.setattr(cli, "_row_items", rows)
    for argv, taken in ((["hg-headings", "--hg", str(PI_3.parent / "hg_5.json")],
                         [(11, {str}), (11, {int})]),
                        (["faces", "--setfn", str(PI_3)], [(6, {str})])):
        calls.clear()
        assert cli.run(argv) == 0
        assert capsys.readouterr().err == ""
        assert calls == taken
