"""Tests for the repository tools under ``tools/``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from code_lines import code_lines  # noqa: E402

SOURCE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment does not hide the code


class Box:
    """Class docstring."""

    # A comment line.
    size = 1


def total(a, b):
    """Function docstring,

    on three lines."""
    return (a
            + b
            + os.sep.count("/"))
'''


def test_code_lines_counts_only_lines_with_code():
    """Docstrings, comments and blank lines hold no code; each line of a
    statement spanning three counts: the import, class, size and def lines and
    the three of the return."""
    assert code_lines(SOURCE) == 7


def test_code_lines_counts_a_string_statement_that_is_no_docstring():
    """Only the first statement of a scope is its docstring."""
    assert code_lines('x = 1\n"""not a docstring"""\n') == 2
