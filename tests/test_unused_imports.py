"""Every name a library module imports is used in that module.

The package's __init__ is exempt: its imports are the public re-exports.
"""

import ast
import os

import pytest

import lieform

PACKAGE = os.path.dirname(lieform.__file__)
MODULES = sorted(
    name for name in os.listdir(PACKAGE) if name.endswith(".py") and name != "__init__.py"
)


def imported_names(tree):
    """The names the module's import statements bind, with their line numbers."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def used_names(tree):
    """Every name the module reads, including those in quoted annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "returns", None) or getattr(node, "annotation", None)
        for part in ast.walk(annotation) if annotation is not None else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                quoted = ast.parse(part.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    used = used_names(tree)
    unused = sorted((line, name) for name, line in imported_names(tree).items() if name not in used)
    assert unused == [], "%s imports names it never uses: %s" % (module, unused)
