"""Every imported name in the package and the tests is used, and a bounds run
loads no module it does not need.

An AST scan: a module fails when it imports a name that it never reads as a
Name, as the base of an attribute chain, or inside a string annotation.
``__future__`` imports and names a module lists in ``__all__`` are exempt.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


# Modules a bounds run on these families must not load: numpy.ma (about
# 16 ms, which np.unique imports through np.ma.is_masked) and scipy.special
# (0.17-0.29 s, with the numpy.f2py and numpy.testing it pulls in).
UNNEEDED_MODULES = ("numpy.ma", "scipy.special")


@pytest.mark.parametrize("family", ("rho_mixing_chain", "rademacher_iid"))
def test_bounds_run_loads_no_unneeded_module(family, tmp_path):
    argv = ["bounds", "--model", family, "--n-grid", "32", "--out", str(tmp_path)]
    code = (
        "import contextlib, io, sys; from cltlab.cli import main\n"
        f"with contextlib.redirect_stdout(io.StringIO()): rc = main({argv!r})\n"
        f"print(rc, *[m for m in {UNNEEDED_MODULES!r} if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == ["0"]
