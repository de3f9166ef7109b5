"""The `gpcount ...` examples in the README's `sh` blocks parse under the
current command line, so a renamed or removed flag fails here.  Only the
arguments are parsed; no input file is read."""

import re
import shlex
from pathlib import Path

import pytest

from gpcount import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples() -> list[str]:
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.MULTILINE | re.DOTALL)
    return [line.strip() for block in blocks for line in block.splitlines()
            if line.strip().startswith("gpcount ")]


EXAMPLES = _examples()


@pytest.mark.parametrize("line", EXAMPLES)
def test_readme_example_parses(line):
    argv = shlex.split(line, comments=True)[1:]
    try:
        cli.parse(argv)
    except cli.UsageError as exc:
        pytest.fail(f"README example does not parse: {line}: {exc}")


def test_readme_shows_every_command():
    assert {shlex.split(line)[1] for line in EXAMPLES} == set(cli.COMMANDS)
