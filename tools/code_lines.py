"""Count the code lines of the ``btdqos`` package, per module and in total.

A code line is a line of a ``src/btdqos/*.py`` module that holds a token
other than a comment, outside the module, class and function docstrings:
``tokenize`` drops the comments and blank lines, and ``ast`` finds the
docstrings.  A statement that spans several lines counts each of them.

Usage: ``python3 tools/code_lines.py [PACKAGE_DIR]`` (default
``src/btdqos`` beside this script's parent directory).
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

#: Tokens that hold no code: what ``tokenize`` emits for comments, line
#: ends and indentation.
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source):
    """The line numbers of the module, class and function docstrings."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """How many lines of ``source`` hold code."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv):
    package = Path(argv[1]) if len(argv) > 1 else (
        Path(__file__).resolve().parent.parent / "src" / "btdqos")
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:<16} {count:>6}")
    print(f"{'total':<16} {total:>6}")


if __name__ == "__main__":
    main(sys.argv)
