"""Every name a library module imports is used in that module.

The package's __init__ is exempt: its imports are the public re-exports.
Those re-exports must in turn be used outside the tests, so a helper that
only tests call lives in tests/support.py rather than in the library.
"""

import ast
import os

import pytest

import lieform

PACKAGE = os.path.dirname(lieform.__file__)
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = sorted(
    name for name in os.listdir(PACKAGE) if name.endswith(".py") and name != "__init__.py"
)


def parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read())


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
    tree = parse(os.path.join(PACKAGE, module))
    used = used_names(tree)
    unused = sorted((line, name) for name, line in imported_names(tree).items() if name not in used)
    assert unused == [], "%s imports names it never uses: %s" % (module, unused)


def test_every_export_is_used_outside_the_tests():
    # a library module counts when it reads the name; a bench/ or tools/
    # script also when it names it in a string, as the tracer names the
    # functions it wraps
    library = [(os.path.join(PACKAGE, module), False) for module in MODULES]
    scripts = [
        (os.path.join(REPO, folder, name), True)
        for folder in ("bench", "tools")
        for name in sorted(os.listdir(os.path.join(REPO, folder)))
        if name.endswith(".py")
    ]
    used = set()
    for path, strings in library + scripts:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    unused = sorted(set(lieform.__all__) - used)
    assert unused == [], "exported but used only by tests: %s" % unused
