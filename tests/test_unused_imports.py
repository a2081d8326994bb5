"""Every imported name in the package and its tests is used, every
private helper of the package is called from somewhere in it, and the
tests' reference module stays independent of the package and has no dead
reference.

Stdlib ast scans.  A name bound by an import statement counts as used
when it is loaded anywhere in the same module.  The package __init__
re-exports its imports, and "from __future__" imports bind nothing, so both
are skipped.  A private (_name) function, method or class counts as used
when its name is loaded, or read as an attribute, somewhere in the package
outside its own definition; the match is by name alone, so a helper that
shares its name with a used one goes unnoticed.  tests/reference.py may
import the stdlib only, and each of its top-level functions and classes
must be imported from it, or read as an attribute of it, in some test
module.
"""

import ast
import pathlib
import sys
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


def test_the_reference_module_imports_only_the_stdlib_and_every_reference_is_used():
    tree = ast.parse((ROOT / "tests" / "reference.py").read_text(encoding="utf-8"))
    imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    imported |= {"." * n.level + (n.module or "") for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert {m.split(".")[0] for m in imported} <= sys.stdlib_module_names, imported
    used = set()
    for test in (ROOT / "tests").glob("test_*.py"):
        for n in ast.walk(ast.parse(test.read_text(encoding="utf-8"))):
            if isinstance(n, ast.ImportFrom) and n.module == "reference" and not n.level:
                used |= {a.name for a in n.names}
            elif isinstance(n, ast.Attribute) and getattr(n.value, "id", None) == "reference":
                used.add(n.attr)
    defined = {n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    assert defined and not defined - used, f"references no test module uses: {sorted(defined - used)}"
