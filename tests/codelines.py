"""Code lines per source file of ``src/coil``.

Usage::

    python tests/codelines.py [SOURCE_DIR]

A code line is a line that holds part of a Python token other than a
comment, and that lies outside every docstring: the string that opens a
module, class or function body.  Blank lines, comment lines and docstrings
are not counted; a statement or string spread over several lines counts
each of them.  Prints one ``count  file`` line per ``*.py`` file of
SOURCE_DIR (``src/coil`` by default), sorted by name, then ``count  total``.
"""
from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "coil"
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one Python source text."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(source)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("source", nargs="?", type=Path, default=SOURCE)
    args = parser.parse_args()
    total = 0
    for path in sorted(args.source.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
