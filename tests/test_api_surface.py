"""No public API that only tests call.

Every public module-level function and class in ``src/entrocl``, and every
public method or property of a public class, must be referenced, as a name or
an attribute, by the package's own code outside its definition and
``__init__.py``, or by the benchmark under ``bench/``. A name that only tests
and demos use is a name to delete.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "entrocl"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

# names kept public though nothing in src/ or bench/ calls them, and why
EXEMPT = {
    # the independent numerical oracle that tests check tensor.backward against
    "finite_difference_gradient",
}


def public_definitions(tree):
    """The name of each public top-level function and class, and ``Class.method``
    for each public method of a public class."""
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name
            if isinstance(node, ast.ClassDef):
                yield from (f"{node.name}.{member.name}" for member in node.body
                            if isinstance(member, FUNCTIONS) and not member.name.startswith("_"))


def statements(tree):
    """(owner, names referenced) of each top-level statement, where a class's
    methods are statements of their own, owned by ``Class.method``."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            yield getattr(node, "name", None), referenced_names(node)
            continue
        for part in (*node.decorator_list, *node.bases, *node.keywords, *node.body):
            owner = f"{node.name}.{part.name}" if isinstance(part, FUNCTIONS) else node.name
            yield owner, referenced_names(part)


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
    # (file, owner of the statement, names it references)
    references = [(path, owner, names) for path, tree in trees.items()
                  for owner, names in statements(tree)]
    unused = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for qualified in public_definitions(tree):
            if qualified in EXEMPT:
                continue
            name = qualified.rpartition(".")[2]
            # a definition's own statements, a class's methods included, are not callers
            if not any(name in names and not (where == path and
                                              f"{owner}.".startswith(f"{qualified}."))
                       for where, owner, names in references):
                unused.append(f"{path.stem}.{qualified}")
    return unused


def test_every_public_name_has_a_caller_outside_the_tests():
    assert unreferenced_public_names() == []


def test_exempt_names_still_exist():
    # an exemption outliving its name would hide the next one
    defined = {name for path in PACKAGE.glob("*.py")
               for name in public_definitions(ast.parse(path.read_text(encoding="utf-8")))}
    assert EXEMPT <= defined
