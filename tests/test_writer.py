"""`cli.dumps`, the writer of every report, gives the bytes of
`json.dumps(value, indent=2)` on the values it accepts and refuses the rest.
A list of dicts that all fit the template of a `faces` row gets the same
bytes from one template per row; a list with any other item is written
item by item, as a report's `checks` list is.  `faces` takes the template
and `chi` does not."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gpcount import cli
from gpcount.cli import dumps

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
    ["a", Fraction(1)], ("a",), b"a"])
def test_unsupported_values_raise_type_error(value):
    with pytest.raises(TypeError):
        dumps(value)


# Rows of a `faces` report: an int dim and one or many int ids, small or big.
INTS = st.integers(-3, 40) | st.integers()
ROWS = st.lists(st.builds(lambda dim, ids: {"dim": dim, "vertices": ids},
                          INTS, st.lists(INTS, min_size=1)), min_size=1, max_size=8)


def nestings(rows):
    """The rows written at top level and nested in a report and a list."""
    return [rows, {"command": "faces", "faces": rows, "timing": 0.5}, [[{"faces": rows}], 1]]


@given(ROWS)
def test_face_rows_template_gives_json_dumps_bytes(rows):
    assert cli._face_rows(rows, "\n  ") is not None
    for value in nestings(rows):
        assert dumps(value) == json.dumps(value, indent=2)


class Id(int):
    pass


class Ids(list):
    pass


# One row that does not fit the template, put among rows that do.
MISFITS = [
    {"dim": 1, "vertices": [0, "1"]},
    {"dim": 1, "vertices": [0, True]},
    {"dim": 1, "vertices": [0, 1.0]},
    {"dim": 1, "vertices": [0, Id(1)]},
    {"dim": 1, "vertices": [0, Fraction(1)]},
    {"dim": 1, "vertices": [0, None]},
    {"dim": True, "vertices": [0, 1]},
    {"dim": "1", "vertices": [0, 1]},
    {"dim": 1, "vertices": [0, 1], "extra": 2},
    {"dim": 1},
    {"vertices": [0, 1]},
    {"vertices": [0, 1], "dim": 1},
    {"dim": 1, "vertices": []},
    {"dim": 1, "vertices": (0, 1)},
    {"dim": 1, "vertices": Ids([0, 1])},
    [1, [0, 1]],
    7,
]


@given(ROWS, st.sampled_from(MISFITS), st.integers(0, 8))
def test_a_row_off_the_template_gets_plain_list_bytes_or_type_error(rows, misfit, at):
    # the list is written item by item: the bytes of `json.dumps`, or the
    # TypeError that the misfit row alone raises
    rows = rows[:at] + [misfit] + rows[at:]
    if type(misfit) is dict:
        assert cli._face_rows(rows, "\n  ") is None
    try:
        dumps(misfit)
    except TypeError:
        for value in nestings(rows):
            with pytest.raises(TypeError):
                dumps(value)
    else:
        for value in nestings(rows):
            assert dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("rows", [
    [], [1, 2], ["a"], [[]], [{}], [{"dim": 0}], [{"name": "k=1 forward m=1", "ok": True}],
    [{"dim": 0, "vertices": [0]}, {"dim": 0, "vertices": [1], "ok": True}]])
def test_face_rows_without_rows_are_a_plain_list(rows):
    if rows and all(type(row) is dict for row in rows):
        assert cli._face_rows(rows, "\n  ") is None
    assert dumps(rows) == json.dumps(rows, indent=2)


def test_faces_takes_the_template_and_chi_does_not(monkeypatch, capsys):
    # `faces` writes its rows with one template each; `chi`'s only list of
    # dicts, its checks, is tried once and written item by item
    returns = []
    real = cli._face_rows

    def face_rows(rows, pad):
        returns.append(real(rows, pad))
        return returns[-1]

    monkeypatch.setattr(cli, "_face_rows", face_rows)
    for command, templated in (("faces", 1), ("chi", 0)):
        returns.clear()
        assert cli.run([command, "--setfn", str(PI_3)]) == 0
        assert capsys.readouterr().err == ""
        assert returns and sum(r is not None for r in returns) == templated
