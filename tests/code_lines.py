"""Count the code lines of the package: the non-blank lines of each file that
are not comments and lie outside module, class and function docstrings.  A
line of a string that is no docstring counts, as does a line that holds
code beside a comment or a docstring.

Run `python tests/code_lines.py` to print the count of each file of
`src/gpcount` and their total.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gpcount"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines of the Python module ``source``."""
    docstrings = set()  # where each docstring's string token starts
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0].value
            docstrings.add((doc.lineno, doc.col_offset))
    rows = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE and not (tok.type == tokenize.STRING
                                              and tok.start in docstrings):
            rows.update(range(tok.start[0], tok.end[0] + 1))
    lines = source.splitlines()
    return sum(1 for row in rows if lines[row - 1].strip())


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
