"""Every public name of the package has a caller in the program.

A public module-level name or public method defined in
``src/crosscap_calc`` must be referenced somewhere in ``src/`` or
``perfbench/`` outside its own definition: as a name, an attribute, an
imported name or a string constant (the benchmark's tracer wraps
functions it names in strings).  A name that only tests use is test
code living in the package.  The scan matches bare names, so it can
only miss an unused definition that shares its name with a used one,
never flag a used one.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "crosscap_calc"
CALLER_DIRS = (ROOT / "src", ROOT / "perfbench")


def _references(node: ast.AST) -> Counter:
    """Names read anywhere under ``node``."""
    found: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found[sub.value] += 1
    return found


def _public_definitions(tree: ast.Module):
    """(label, name, defining node) for each public module-level name and
    each public method of a module-level class."""
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
                yield name, name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item


def unreferenced_names() -> list[str]:
    total: Counter = Counter()
    for base in CALLER_DIRS:
        for path in sorted(base.rglob("*.py")):
            total += _references(ast.parse(path.read_text(encoding="utf-8")))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for label, name, node in _public_definitions(tree):
            if total[name] - _references(node)[name] <= 0:
                unused.append(f"{path.stem}.{label}")
    return unused


def test_the_scan_sees_definitions_and_their_callers():
    tree = ast.parse(
        "class A:\n"
        "    def used(self): return self.unused_here()\n"
        "    def unused_here(self): return 0\n"
        "def lonely(n): return lonely(n - 1)\n"
        "X = A().used()\n"
    )
    labels = {label: node for label, _name, node in _public_definitions(tree)}
    assert set(labels) == {"A", "A.used", "A.unused_here", "lonely", "X"}
    refs = _references(tree)
    # a recursive call sits inside its own definition, so it is no caller
    assert refs["lonely"] - _references(labels["lonely"])["lonely"] == 0
    assert refs["unused_here"] - _references(labels["A.unused_here"])["unused_here"] == 1
    assert refs["X"] == 0  # a binding is not a reference


def test_every_public_name_has_a_caller_in_the_program():
    assert unreferenced_names() == []
