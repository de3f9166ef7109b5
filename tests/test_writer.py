"""`cli.dumps`, the writer of every report, gives the bytes of
`json.dumps(value, indent=2)` on the values it accepts and refuses the rest."""

import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gpcount.cli import dumps

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

