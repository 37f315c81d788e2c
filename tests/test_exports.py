"""Every name the package exports or defines at module level is used by the
package itself, so no helper that only tests call stays in ``src``, and no
module imports a name it never reads."""

import ast
from pathlib import Path

import toricdegen

# the paper's acceptance criterion 09 calls it; nothing in the pipeline does
CRITERION_ONLY = {"extend_support_function"}


def _modules():
    """Each module of the package by file name, parsed."""
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in Path(toricdegen.__file__).parent.glob("*.py")
    }


def _referenced_names():
    """The names, attributes and imports the modules other than
    ``__init__`` read; a ``def`` or ``class`` statement is no reference."""
    names = set()
    for name, tree in _modules().items():
        if name == "__init__.py":
            continue
        for node in ast.walk(tree):
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


# the benchmark's tracer looks ``determinant_fraction`` up by name, and
# acceptance criterion 09 calls ``extend_support_function``
UNREFERENCED = {"determinant_fraction"} | CRITERION_ONLY


def test_every_module_level_definition_is_referenced_in_the_package():
    defined = {
        node.name
        for tree in _modules().values()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    unused = defined - _referenced_names() - UNREFERENCED
    assert not unused, sorted(unused)


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for name, tree in _modules().items():
        if name == "__init__.py":
            continue  # it imports to export
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{name}: {alias}" for alias in sorted(imported - read)]
    assert not unused, unused
