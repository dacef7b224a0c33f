"""Every imported name in the package and the tests is used.

An AST scan: a module fails when it imports a name that it never reads as a
Name, as the base of an attribute chain, or inside a string annotation.
``__future__`` imports and names a module lists in ``__all__`` are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import cltlab

SRC = Path(cltlab.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of a module-level __all__."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(
                e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)
            )
    return names


def _annotations(tree: ast.Module) -> list[ast.expr]:
    """The annotation expressions of every argument, return and annotated assignment."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            out.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            out.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            out.append(node.annotation)
    return out


def _used(tree: ast.Module) -> set[str]:
    """Every Name the module reads, also inside quoted annotations."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used


def unused_imports(path: Path) -> list[str]:
    """path:name of each name the module imports and never uses."""
    tree = ast.parse(path.read_text(), str(path))
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [a.asname or a.name.split(".")[0] for a in node.names if a.name != "*"]
    seen = _used(tree) | _exported(tree)
    return [f"{path.name}:{name}" for name in bound if name not in seen]


def test_no_unused_imports():
    files = sorted(SRC.rglob("*.py")) + sorted(TESTS.glob("*.py"))
    stray = [entry for path in files for entry in unused_imports(path)]
    assert stray == [], "unused imports: " + ", ".join(stray)
