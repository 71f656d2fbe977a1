"""No public API that only tests call.

Every public module-level function and class in ``src/entrocl`` must be
referenced, as a name or an attribute, by the package's own code outside its
definition and ``__init__.py``, or by the benchmark under ``bench/``. A name
that only tests and demos use is a name to delete.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "entrocl"

# names kept public though nothing in src/ or bench/ calls them, and why
EXEMPT = {
    # the independent numerical oracle that tests check tensor.backward against
    "finite_difference_gradient",
}


def top_level_definitions(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def referenced_names(node):
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
    return names


def unreferenced_public_names():
    """``module.name`` of every public definition with no reference outside itself."""
    sources = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    sources += sorted((ROOT / "bench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    # (file, name of the top-level definition or None, names it references)
    statements = [(path, getattr(node, "name", None), referenced_names(node))
                  for path, tree in trees.items() for node in tree.body]
    unused = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for definition in top_level_definitions(tree):
            name = definition.name
            if name.startswith("_") or name in EXEMPT:
                continue
            if not any(name in names and (where, owner) != (path, name)
                       for where, owner, names in statements):
                unused.append(f"{path.stem}.{name}")
    return unused


def test_every_public_name_has_a_caller_outside_the_tests():
    assert unreferenced_public_names() == []


def test_exempt_names_still_exist():
    # an exemption outliving its name would hide the next one
    defined = {definition.name for path in PACKAGE.glob("*.py")
               for definition in top_level_definitions(ast.parse(path.read_text(encoding="utf-8")))}
    assert EXEMPT <= defined
