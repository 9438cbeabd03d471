"""Every name a library module imports is used in that module.

The package's __init__ is exempt: its imports are the public re-exports.
Those re-exports, and the public methods and properties of the exported
classes, must in turn be used outside the tests, so a helper that only
tests call lives in tests/support.py rather than in the library.
"""

import ast
import os
import types

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


def public_members(cls):
    """The public methods and properties a class defines itself."""
    kinds = (types.FunctionType, property, staticmethod, classmethod)
    return [
        name for name, value in vars(cls).items() if not name.startswith("_") and isinstance(value, kinds)
    ]


def test_every_export_is_used_outside_the_tests():
    """Each export, and each public method or property of an exported class, has a user outside the tests.

    A library module uses an export when it reads the name, and a method
    or property when it reads it as an attribute.  A bench/ or tools/
    script uses either when it names it at all, in a string too, as the
    tracer names the functions it wraps.  A method is matched by its
    attribute name alone, so a name two classes share counts as used for
    both: DerivationAlgebra.contains would pass through Subspace.contains.
    """
    library = [(os.path.join(PACKAGE, module), False) for module in MODULES]
    scripts = [
        (os.path.join(REPO, folder, name), True)
        for folder in ("bench", "tools")
        for name in sorted(os.listdir(os.path.join(REPO, folder)))
        if name.endswith(".py")
    ]
    used, attributes = set(), set()
    for path, script in library + scripts:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
                attributes.add(name)
            elif script and isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            used.add(name)
            if script:
                attributes.add(name)
    unused = sorted(set(lieform.__all__) - used)
    exported = [getattr(lieform, name) for name in lieform.__all__]
    classes = [x for x in exported if isinstance(x, type) and not issubclass(x, Exception)]
    unused += sorted(
        "%s.%s" % (cls.__name__, member)
        for cls in classes
        for member in public_members(cls)
        if member not in attributes
    )
    assert unused == [], "exported but used only by tests: %s" % unused
