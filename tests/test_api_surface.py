"""No public API that only tests call.

Every public module-level function and class in ``src/entrocl``, and every
public method or property of a public class, must be referenced, as a name or
an attribute, by the package's own code outside its definition and
``__init__.py``, or by the benchmark under ``bench/``. A name that only tests
and demos use is a name to delete. So is a defaulted parameter of such a
function or method that no call there passes: a constant that only tests set.
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


def caller_trees():
    """The parsed package, less ``__init__.py``, and benchmark files, by path."""
    sources = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    sources += sorted((ROOT / "bench").glob("*.py"))
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}


def unreferenced_public_names():
    """``module.name`` of every public definition with no reference outside itself."""
    trees = caller_trees()
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


def public_functions(tree):
    """(qualified name, definition, whether a call passes its first parameter
    implicitly) of each public function and each public method of a public class."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS) and not node.name.startswith("_"):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for member in node.body:
                if isinstance(member, FUNCTIONS) and not member.name.startswith("_"):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in member.decorator_list)
                    yield f"{node.name}.{member.name}", member, not static


def defaulted_parameters(node, bound):
    """Each defaulted parameter of the function ``node`` by name: its position among
    the arguments a call passes, or None if it is keyword-only."""
    positional = [*node.args.posonlyargs, *node.args.args]
    first = len(positional) - len(node.args.defaults)
    defaulted = {arg.arg: i - bound for i, arg in enumerate(positional) if i >= first}
    defaulted.update({arg.arg: None for arg, default in
                      zip(node.args.kwonlyargs, node.args.kw_defaults) if default is not None})
    return defaulted


def unpassed_parameters():
    """``module.function(parameter)`` of every defaulted parameter of a public
    function that no call in src/ or bench/ passes. A function referenced other
    than as the callee of a call, a ``RUN_ARTIFACTS`` writer say, or the argument
    of ``functools.partial``, is handed around as a value and counts as called
    with every parameter."""
    trees = caller_trees()
    calls, values = {}, set()  # callee name -> [(positional count, keywords)]
    for tree in trees.values():
        callees = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callees.add(id(node.func))
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                starred = any(isinstance(arg, ast.Starred) for arg in node.args)
                keywords = {kw.arg for kw in node.keywords}
                count = float("inf") if starred or None in keywords else len(node.args)
                calls.setdefault(name, []).append((count, keywords))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in callees:
                values.add(node.id if isinstance(node, ast.Name) else node.attr)
    unpassed = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for qualified, node, bound in public_functions(tree):
            if qualified in EXEMPT or node.name in values:
                continue
            found = calls.get(node.name, [])
            for name, position in defaulted_parameters(node, bound).items():
                if not any(name in keywords or None in keywords
                           or (position is not None and position < count)
                           for count, keywords in found):
                    unpassed.append(f"{path.stem}.{qualified}({name})")
    return unpassed


def test_every_public_name_has_a_caller_outside_the_tests():
    assert unreferenced_public_names() == []


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    assert unpassed_parameters() == []


def test_exempt_names_still_exist():
    # an exemption outliving its name would hide the next one
    defined = {name for path in PACKAGE.glob("*.py")
               for name in public_definitions(ast.parse(path.read_text(encoding="utf-8")))}
    assert EXEMPT <= defined
