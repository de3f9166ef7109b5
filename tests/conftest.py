"""Every test starts with the CLI's kept polytope emptied (see
`cli._polytope`).  A test that patches how a polytope is built, or what its
face map computes, must see a fresh build, whatever test ran before it on
an equal set function."""

import pytest

from gpcount import cli


@pytest.fixture(autouse=True)
def empty_polytope_slot():
    cli._last_polytope.cache_clear()
