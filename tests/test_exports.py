"""Every name the package exports is used by the package itself, so no
helper that only tests call stays in ``src``."""

import ast
from pathlib import Path

import toricdegen

# the paper's acceptance criterion 09 calls it; nothing in the pipeline does
CRITERION_ONLY = {"extend_support_function"}


def _referenced_names():
    """The names, attributes and imports the modules other than
    ``__init__`` read; a ``def`` or ``class`` statement is no reference."""
    names = set()
    for path in Path(toricdegen.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.add(node.module)
                names.update(alias.name for alias in node.names)
    return names


def test_every_export_is_referenced_in_the_package():
    assert CRITERION_ONLY <= set(toricdegen.__all__)
    unused = set(toricdegen.__all__) - _referenced_names() - CRITERION_ONLY
    assert not unused, sorted(unused)
