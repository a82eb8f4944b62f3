"""Tests for the repository tools under ``tools/``."""

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

from code_lines import code_lines  # noqa: E402
from same_outputs import main as same_outputs  # noqa: E402

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


def test_same_outputs_of_a_tree_against_itself(capsys):
    """Every output of the fixture runs is deterministic, apart from the
    detail CSV's wall times, so a tree matches itself."""
    src = str(REPO / "src")
    assert same_outputs(["same_outputs.py", src, src]) == 0
    assert capsys.readouterr().out.startswith("0 of ")
