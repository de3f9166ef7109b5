"""The `gpcount ...` examples in the README's `sh` blocks parse under the
current command line, so a renamed or removed flag fails here.  The
examples on the README's set function `std3.json` and hypergraph
`running.json` also run on those documents, and the `chi` report shown in
the README is the one printed, byte for byte with `timing` elided."""

import json
import re
import shlex
from pathlib import Path

import pytest

from gpcount import cli

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")


def _fenced(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", TEXT, flags=re.MULTILINE | re.DOTALL)


def _examples() -> list[str]:
    return [line.strip() for block in _fenced("sh") for line in block.splitlines()
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


def _run_example(capsys, command: str) -> str:
    """The stdout of the README's first example of ``command``, which must exit 0."""
    line = next(line for line in EXAMPLES if shlex.split(line)[1] == command)
    assert cli.run(shlex.split(line, comments=True)[1:]) == 0, line
    return capsys.readouterr().out


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    documents = [json.loads(block) for block in _fenced("json") if '"timing"' not in block]
    std3 = next(doc for doc in documents if "values" in doc)
    running = next(doc for doc in documents if "nodes" in doc)
    (tmp_path / "std3.json").write_text(json.dumps(std3))
    (tmp_path / "running.json").write_text(json.dumps(running))
    monkeypatch.chdir(tmp_path)

    shown = next(block for block in _fenced("json") if '"timing"' in block)
    out = _run_example(capsys, "chi")
    assert re.sub(r'"timing": [0-9.e-]+\n', '"timing": ...\n', out) == shown
    faces = json.loads(_run_example(capsys, "faces"))
    assert (len(faces["vertices"]), len(faces["faces"])) == (6, 13)
    assert json.loads(_run_example(capsys, "hg-headings"))["acyclic_count"] == 5
