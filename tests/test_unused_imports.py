"""Every imported name in the package and its tests is used, and every
private helper of the package is called from somewhere in it.

Two stdlib ast scans.  A name bound by an import statement counts as used
when it is loaded anywhere in the same module.  The package __init__
re-exports its imports, and "from __future__" imports bind nothing, so both
are skipped.  A private (_name) function, method or class counts as used
when its name is loaded, or read as an attribute, somewhere in the package
outside its own definition; the match is by name alone, so a helper that
shares its name with a used one goes unnoticed.
"""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "equibord").glob("*.py"))
SOURCES = sorted(
    [p for p in PACKAGE if p.name != "__init__.py"] + list((ROOT / "tests").glob("*.py"))
)


def _unused_imports(path: pathlib.Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for name, line in sorted(bound.items(), key=lambda kv: kv[1])
        if name not in used
    ]


def test_no_unused_imports():
    unused = [entry for path in SOURCES for entry in _unused_imports(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def _references(node) -> Counter:
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute) or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    )


def test_no_unreferenced_private_helpers():
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in PACKAGE}
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    dead = [
        f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}"
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.endswith("__")
        and everywhere[node.name] == _references(node)[node.name]
    ]
    assert not dead, "private helpers nothing references:\n" + "\n".join(dead)
