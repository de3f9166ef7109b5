"""`cli.dumps`, the writer of every report, gives the bytes of
`json.dumps(value, indent=2)` on the values it accepts and refuses the rest.
The rows of a `faces` report (`FaceRows`) that fit its template get the
same bytes from it; any other row gets what a plain list would get."""

import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gpcount import cli
from gpcount.cli import dumps
from gpcount.permutahedron import FaceRows

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
    assert cli._face_rows(FaceRows(rows), "\n  ") is not None
    for plain, marked in zip(nestings(rows), nestings(FaceRows(rows))):
        assert dumps(marked) == json.dumps(plain, indent=2)


class Id(int):
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
    {"dim": 1, "vertices": FaceRows([0, 1])},
    [1, [0, 1]],
    7,
]


@given(ROWS, st.sampled_from(MISFITS), st.integers(0, 8))
def test_a_row_off_the_template_gets_plain_list_bytes_or_type_error(rows, misfit, at):
    rows = rows[:at] + [misfit] + rows[at:]
    assert cli._face_rows(FaceRows(rows), "\n  ") is None
    for plain, marked in zip(nestings(rows), nestings(FaceRows(rows))):
        try:
            want = dumps(plain)
        except TypeError:
            with pytest.raises(TypeError):
                dumps(marked)
        else:
            assert dumps(marked) == want == json.dumps(plain, indent=2)


@pytest.mark.parametrize("rows", [[], [1, 2], ["a"], [[]]])
def test_face_rows_without_rows_are_a_plain_list(rows):
    assert dumps(FaceRows(rows)) == json.dumps(rows, indent=2)
