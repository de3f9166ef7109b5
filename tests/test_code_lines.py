from code_lines import PACKAGE, code_lines, main

SYNTHETIC = '''"""Module docstring,
over two lines."""

import os  # a comment beside code counts


# a comment line does not
class Box:
    """Class docstring."""

    size = 1

    def area(self):
        """Function docstring,

        with a blank line inside."""
        text = """a multi-line string
that is no docstring

counts, blank line aside"""
        return text


def one_liner(): """Docstring beside code."""
'''


def test_code_lines_rule():
    # counted: import, class, size, def, text (its three non-blank lines),
    # return and the one-liner's def; not the docstrings, the comment line,
    # the blank lines
    assert code_lines(SYNTHETIC) == 9


def test_main_prints_each_file_and_the_total(capsys):
    main()
    lines = capsys.readouterr().out.splitlines()
    counts = [int(line.split()[0]) for line in lines]
    assert len(lines) == len(list(PACKAGE.glob("*.py"))) + 1
    assert lines[-1].endswith("  total") and counts[-1] == sum(counts[:-1])
