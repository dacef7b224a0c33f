"""Every public definition in the package has a caller inside the package.

Code that only tests call lives in tests/helpers.py, not in src/.  The scan
is by name: a module-level function or class counts as reached when some
module under src/cltlab names it as a Name, an attribute, an imported name,
or a key of the CLI command table.  A method counts only through an
attribute or an imported name, so a local variable that shares its name
does not reach it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import cltlab

SRC = Path(cltlab.__file__).resolve().parent

# module:qualified name -> why it stays in the package although no package
# module calls it
ALLOWED_UNREACHED = {
    "numerics.py:SeedLineage.generator": "the stream reference the tests compare "
    "generators() against; the benchmark's tracer wraps it",
    "io.py:read_batch": "the reader for the batch format the CLI writes",
    "distances.py:DistanceReport.transfer_holds": "the README's Python example calls it",
}


def _trees() -> dict[str, ast.Module]:
    return {
        str(path.relative_to(SRC)): ast.parse(path.read_text(), str(path))
        for path in sorted(SRC.rglob("*.py"))
    }


def _definitions(tree: ast.Module) -> list[tuple[str, str]]:
    """(qualified name, name) of the public module-level defs and their methods."""
    defs = []
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds) or node.name.startswith("_"):
            continue
        defs.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            defs.extend(
                (f"{node.name}.{item.name}", item.name)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not item.name.startswith("_")
            )
    return defs


def _command_keys(tree: ast.Module) -> set[str]:
    """The string keys of the `commands` table that cli.main dispatches on."""
    keys = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "commands" for t in node.targets)
            and isinstance(node.value, ast.Dict)
        ):
            keys.update(k.value for k in node.value.keys if isinstance(k, ast.Constant))
    return keys


def _references(trees: dict[str, ast.Module]) -> tuple[set[str], set[str]]:
    """(bare names, names reached through an attribute, an import or the CLI table)."""
    bare, qualified = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                bare.add(node.id)
            elif isinstance(node, ast.Attribute):
                qualified.add(node.attr)
            elif isinstance(node, ast.alias):
                qualified.add(node.name.rsplit(".", 1)[-1])
    return bare, qualified | _command_keys(trees["cli.py"])


def unreached() -> list[str]:
    """module:qualified name of each public definition no package module names."""
    trees = _trees()
    bare, qualified = _references(trees)
    return [
        f"{module}:{dotted}"
        for module, tree in trees.items()
        for dotted, name in _definitions(tree)
        if name not in qualified and ("." in dotted or name not in bare)
    ]


def test_every_public_definition_has_a_caller_in_the_package():
    stray = [q for q in unreached() if q not in ALLOWED_UNREACHED]
    assert stray == [], "move these to tests/helpers.py or delete them: " + ", ".join(stray)


def test_allowlist_holds_only_unreached_definitions():
    # an allowed definition that gained a caller no longer needs its entry
    assert len(ALLOWED_UNREACHED) == 3
    assert set(ALLOWED_UNREACHED) <= set(unreached())
