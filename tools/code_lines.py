"""Count the code lines of Python files: lines that carry a token other than
a comment or a docstring.  Blank lines, comment lines and docstring lines
do not count; a line of code with a trailing comment does.

    python tools/code_lines.py src/spintomo/*.py

prints the count and the path of each file, like ``wc -l``, then the total
when more than one file is given.  It uses the standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_starts(tree: ast.AST) -> set:
    """The (line, column) where each module, class or function docstring
    starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                starts.add((body[0].lineno, body[0].col_offset))
    return starts


def code_lines(source: str) -> set:
    """The numbers of the lines of ``source`` that carry code."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT:
            continue
        if token.type == tokenize.STRING and token.start in docstrings:
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return lines


def main(paths) -> int:
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            count = len(code_lines(handle.read()))
        total += count
        print(f"{count:7d} {path}")
    if len(paths) > 1:
        print(f"{total:7d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
