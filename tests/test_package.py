"""Package-wide checks on the source of ``src/coil``."""
from __future__ import annotations

import ast
from pathlib import Path

import coil
from codelines import code_lines

SOURCE = Path(coil.__file__).parent


def _defined_names(statement: ast.stmt) -> list[str]:
    """The names a module-level statement binds by a def, a class or an assignment."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    targets = statement.targets if isinstance(statement, ast.Assign) else []
    if isinstance(statement, (ast.AnnAssign, ast.AugAssign)):
        targets = [statement.target]
    return [node.id for t in targets for node in ast.walk(t) if isinstance(node, ast.Name)]


def _referenced_names(statement: ast.stmt) -> set[str]:
    """The names a statement reads, as a bare name or as an attribute."""
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_private_module_name_is_used():
    """A module-level name that is private, or public but not exported by
    ``coil.__all__``, is dead code when nothing else in the package reads it;
    a reference from inside its own definition, or from a test, does not
    count."""
    statements = [
        (path.name, statement)
        for path in sorted(SOURCE.glob("*.py"))
        for statement in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    unused = []
    for module, statement in statements:
        for name in _defined_names(statement):
            if name.startswith("__") or name in coil.__all__:
                continue
            readers = (other for _, other in statements if other is not statement)
            if not any(name in _referenced_names(other) for other in readers):
                unused.append(f"{module}: {name}")
    assert unused == []


def test_codelines_counts_code_outside_docstrings_and_comments():
    """`tests/codelines.py` counts a line that holds code, however many lines
    a statement or a string spans, and no blank, comment or docstring line."""
    source = '''"""Module docstring,
over two lines."""
import os  # a trailing comment


# a comment line
class A:
    """Class docstring."""

    def f(self, x):
        """Function docstring."""
        text = """not a docstring,
        but a string over two lines"""
        return (x,
                text)
'''
    # import, class, def, the two string lines, the two return lines
    assert code_lines(source) == 7
    assert code_lines("") == 0
