"""Every public definition in the package has a caller inside the package.

Code that only tests call lives in tests/helpers.py, not in src/.  The scan
is by name: a module-level function or class counts as reached when some
module under src/cltlab names it as a Name, an attribute, an imported name,
or a key of the CLI command table.  A method counts only through an
attribute or an imported name, so a local variable that shares its name
does not reach it.

Every defaulted parameter is passed by some package call, too: an option
only tests set, or a dataclass field only tests fill, belongs in the tests.
That scan is by name as well: a call to the name of a public function,
method or dataclass (or to cls inside a class) passes a parameter by
keyword, by position, or through * or ** unpacking.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Optional

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


# ---------------------------------------------------------------------------
# parameters

# module:qualified name:parameter -> why its default stays although no
# package call passes it
ALLOWED_UNPASSED = {
    "cli.py:main:argv": "the console entry point runs main() with sys.argv",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
        for d in node.decorator_list
    )


def _is_init_field(stmt: ast.stmt) -> bool:
    """An annotated class-body assignment the dataclass constructor takes."""
    if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
        return False
    v = stmt.value
    return not (
        isinstance(v, ast.Call)
        and getattr(v.func, "id", None) == "field"
        and any(k.arg == "init" and getattr(k.value, "value", True) is False for k in v.keywords)
    )


def _function_defaults(fn: ast.FunctionDef, skip: int) -> list[tuple[str, Optional[int]]]:
    """(parameter, positional index after the first skip) of each defaulted parameter."""
    positional = fn.args.posonlyargs + fn.args.args
    first_default = len(positional) - len(fn.args.defaults)
    out = [(a.arg, i - skip) for i, a in enumerate(positional) if i >= first_default]
    out.extend(
        (a.arg, None)
        for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
        if d is not None
    )
    return out


def _defaulted(tree: ast.Module) -> list[tuple[str, str, str, Optional[int]]]:
    """(qualified name, called name, parameter, positional index) of each default.

    Public module-level functions, public methods (self or cls not counted),
    and the defaulted init fields of public dataclasses, which are set by a
    call to the class.
    """
    out = []
    for node in tree.body:
        if getattr(node, "name", "_").startswith("_"):
            continue
        if isinstance(node, ast.FunctionDef):
            out.extend((node.name, node.name, a, i) for a, i in _function_defaults(node, 0))
        if not isinstance(node, ast.ClassDef):
            continue
        if _is_dataclass(node):
            fields = [s for s in node.body if _is_init_field(s)]
            out.extend(
                (node.name, node.name, s.target.id, i)
                for i, s in enumerate(fields)
                if s.value is not None
            )
        for item in node.body:
            if not isinstance(item, ast.FunctionDef) or item.name.startswith("_"):
                continue
            static = any(getattr(d, "id", None) == "staticmethod" for d in item.decorator_list)
            out.extend(
                (f"{node.name}.{item.name}", item.name, a, i)
                for a, i in _function_defaults(item, 0 if static else 1)
            )
    return out


def _calls(trees: dict[str, ast.Module]) -> dict[str, list[ast.Call]]:
    """Package calls by the name they call: a Name, an attribute, or cls in a class."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
            elif isinstance(node, ast.ClassDef):
                calls.setdefault(node.name, []).extend(
                    c
                    for c in ast.walk(node)
                    if isinstance(c, ast.Call) and getattr(c.func, "id", None) == "cls"
                )
    return calls


def _passes(call: ast.Call, param: str, index: Optional[int]) -> bool:
    """Whether call passes param by keyword, by position, or through * or ** unpacking."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    if index is None:
        return False
    return len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)


def unpassed() -> list[str]:
    """module:qualified name:parameter of each default no package call overrides."""
    trees = _trees()
    calls = _calls(trees)
    return [
        f"{module}:{qualified}:{param}"
        for module, tree in trees.items()
        for qualified, called, param, index in _defaulted(tree)
        if not any(_passes(c, param, index) for c in calls.get(called, []))
    ]


def test_every_default_is_overridden_by_some_package_call():
    stray = [q for q in unpassed() if q not in ALLOWED_UNPASSED]
    assert stray == [], "make these required or delete them: " + ", ".join(stray)


def test_parameter_allowlist_holds_only_unpassed_defaults():
    assert len(ALLOWED_UNPASSED) == 1
    assert set(ALLOWED_UNPASSED) <= set(unpassed())
