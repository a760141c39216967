"""Every name of the package has a caller in the program.

A public module-level name or public method defined in
``src/crosscap_calc`` must be referenced somewhere in ``src/`` or
``perfbench/`` outside its own definition: as a name, an attribute, an
imported name or a string constant (the benchmark's tracer wraps
functions it names in strings).  A private module-level function, class
or constant (one leading underscore, not a dunder) must be referenced in
``src/`` outside its own definition, so no helper outlives its last
caller.  A method counts as used only through an attribute or a string,
never a bare name, so a local variable that shares its name cannot hide
it.  A name that only tests use is test code living in the package.  The
scan matches names, not bindings, so it can only miss an unused
definition that shares its name with a used one of the same kind, never
flag a used one.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "crosscap_calc"
CALLER_DIRS = (ROOT / "src", ROOT / "perfbench")
PRIVATE_CALLER_DIRS = (ROOT / "src",)


def _references(node: ast.AST, bare_names: bool = True) -> Counter:
    """Names read anywhere under ``node``; without ``bare_names``, only
    attributes, imported names and string constants."""
    found: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            if bare_names:
                found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found[sub.value] += 1
    return found


def _module_level_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a function, a class or
    the plain-name targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _public_definitions(tree: ast.Module):
    """(label, name, defining node, is a method) for each public
    module-level name and each public method of a module-level class."""
    for node in tree.body:
        for name in _module_level_names(node):
            if not name.startswith("_"):
                yield name, name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item, True


def _private_definitions(tree: ast.Module):
    """(label, name, defining node, False) for each private module-level
    function, class or constant; dunders such as ``__version__`` are
    the interpreter's, not helpers."""
    for node in tree.body:
        for name in _module_level_names(node):
            if name.startswith("_") and not name.startswith("__"):
                yield name, name, node, False


def _unreferenced(
    modules: dict[str, ast.Module], callers: list[ast.Module], definitions=_public_definitions
) -> list[str]:
    """``module.label`` of each definition in ``modules`` that no caller
    tree references outside the definition itself."""
    total = {True: Counter(), False: Counter()}
    for tree in callers:
        for bare_names in (True, False):
            total[bare_names] += _references(tree, bare_names)
    unused = []
    for stem, tree in modules.items():
        for label, name, node, is_method in definitions(tree):
            bare_names = not is_method
            own = _references(node, bare_names)[name]
            if total[bare_names][name] - own <= 0:
                unused.append(f"{stem}.{label}")
    return unused


def unreferenced_names(definitions=_public_definitions, caller_dirs=CALLER_DIRS) -> list[str]:
    def parse(path: Path) -> ast.Module:
        return ast.parse(path.read_text(encoding="utf-8"))

    modules = {path.stem: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    callers = [parse(path) for base in caller_dirs for path in sorted(base.rglob("*.py"))]
    return _unreferenced(modules, callers, definitions)


def test_the_scan_sees_definitions_and_their_callers():
    tree = ast.parse(
        "class A:\n"
        "    def used(self): return self.unused_here()\n"
        "    def unused_here(self): return 0\n"
        "def lonely(n): return lonely(n - 1)\n"
        "X = A().used()\n"
    )
    labels = {label: node for label, _name, node, _m in _public_definitions(tree)}
    assert set(labels) == {"A", "A.used", "A.unused_here", "lonely", "X"}
    refs = _references(tree)
    # a recursive call sits inside its own definition, so it is no caller
    assert refs["lonely"] - _references(labels["lonely"])["lonely"] == 0
    assert refs["unused_here"] - _references(labels["A.unused_here"])["unused_here"] == 1
    assert refs["X"] == 0  # a binding is not a reference
    assert _unreferenced({"m": tree}, [tree]) == ["m.lonely", "m.X"]


def test_a_local_variable_does_not_hide_an_unused_method():
    tree = ast.parse(
        "class A:\n"
        "    def rank(self): return 0\n"
        "    def size(self): return 1\n"
        "def count(items):\n"
        "    rank = len(items)\n"
        "    return rank + A().size()\n"
        "count([])\n"
    )
    # the local ``rank`` is a bare name: it uses no method, only a name
    assert _references(tree)["rank"] == 1
    assert _references(tree, bare_names=False)["rank"] == 0
    assert _unreferenced({"m": tree}, [tree]) == ["m.A.rank"]


def test_every_public_name_has_a_caller_in_the_program():
    assert unreferenced_names() == []


def test_the_private_scan_skips_dunders_methods_and_public_names():
    tree = ast.parse(
        "__version__ = '1'\n"
        "_CAP = 3\n"
        "class _Helper:\n"
        "    def _step(self): return _CAP\n"
        "def _orphan(n): return _orphan(n - 1)\n"
        "def public(): return _Helper()\n"
    )
    labels = [label for label, _name, _node, _m in _private_definitions(tree)]
    assert labels == ["_CAP", "_Helper", "_orphan"]
    # a private helper whose only caller is itself is an orphan
    assert _unreferenced({"m": tree}, [tree], _private_definitions) == ["m._orphan"]


def test_every_private_name_has_a_caller_in_src():
    assert unreferenced_names(_private_definitions, PRIVATE_CALLER_DIRS) == []
