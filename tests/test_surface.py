"""Every public name of the package has a caller in the program.

A public module-level name or public method defined in
``src/crosscap_calc`` must be referenced somewhere in ``src/`` or
``perfbench/`` outside its own definition: as a name, an attribute, an
imported name or a string constant (the benchmark's tracer wraps
functions it names in strings).  A method counts as used only through
an attribute or a string, never a bare name, so a local variable that
shares its name cannot hide it.  A name that only tests use is test
code living in the package.  The scan matches names, not bindings, so
it can only miss an unused definition that shares its name with a used
one of the same kind, never flag a used one.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "crosscap_calc"
CALLER_DIRS = (ROOT / "src", ROOT / "perfbench")


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


def _public_definitions(tree: ast.Module):
    """(label, name, defining node, is a method) for each public
    module-level name and each public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item, True


def _unreferenced(modules: dict[str, ast.Module], callers: list[ast.Module]) -> list[str]:
    """``module.label`` of each public definition in ``modules`` that no
    caller tree references outside the definition itself."""
    total = {True: Counter(), False: Counter()}
    for tree in callers:
        for bare_names in (True, False):
            total[bare_names] += _references(tree, bare_names)
    unused = []
    for stem, tree in modules.items():
        for label, name, node, is_method in _public_definitions(tree):
            bare_names = not is_method
            own = _references(node, bare_names)[name]
            if total[bare_names][name] - own <= 0:
                unused.append(f"{stem}.{label}")
    return unused


def unreferenced_names() -> list[str]:
    def parse(path: Path) -> ast.Module:
        return ast.parse(path.read_text(encoding="utf-8"))

    modules = {path.stem: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    callers = [parse(path) for base in CALLER_DIRS for path in sorted(base.rglob("*.py"))]
    return _unreferenced(modules, callers)


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
