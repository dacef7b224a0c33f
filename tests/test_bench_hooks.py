"""The traced benchmark's counter hooks still fit the functions they wrap.

`benchmarks/traced_cli.py` counts work by reading named arguments of a few
layer functions (HOOKS).  A rename in src/ would leave a hook unattached and
zero its counter without any error, so each hook target is checked here: it
must exist in its layer and take every argument its hooks read.  The span
names that `benchmarks/run.py` turns into per-layer metrics must likewise
name a function of their layer or a method of a traced class.  A traced
run of simulate, distance, bounds and verify-ce must also exit 0, count the
replicates the benchmark expects, and repeat its counters exactly.
"""

from __future__ import annotations

import ast
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cltlab.io import BATCH_HEADER_BYTES

ROOT = Path(__file__).resolve().parents[1]
TRACED_CLI = ROOT / "benchmarks" / "traced_cli.py"
RUN_PY = ROOT / "benchmarks" / "run.py"


def _load_traced_cli():
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


traced_cli = _load_traced_cli()


def _targets(layer_module, name: str) -> list:
    """The layer function, or every class method of that name in the layer."""
    found = getattr(layer_module, name, None)
    if inspect.isfunction(found):
        return [found]
    return [
        getattr(obj, name)
        for obj in vars(layer_module).values()
        if inspect.isclass(obj)
        and obj.__module__.startswith(layer_module.__name__)
        and name in vars(obj)
    ]


# Span names that layer_metrics reads but the tracer no longer records, each
# with why it may stay until the benchmark itself changes.
STALE_SPAN_NAMES = {
    "ratefit.fit_replicated": (
        "folded into ratefit.fit; run.py adds its calls into ratefit.fits, which "
        "still counts one call per ratefit, and the next benchmark refresh drops the name"
    ),
    "models.increment_matrix": (
        "gone from src/: simulate and verify-ce take their increment rows from "
        "statistic_range's sink, so models.path_rows and models.increment_matrix_self_s "
        "read 0 until the next benchmark refresh re-points or drops them"
    ),
}


@pytest.mark.parametrize("hook_name", sorted(traced_cli.HOOKS))
def test_hook_target_takes_the_arguments_it_reads(hook_name):
    layer, name = hook_name.split(".")
    targets = _targets(traced_cli.LAYER_MODULES[layer], name)
    if hook_name in STALE_SPAN_NAMES:
        assert not targets, f"{hook_name}: allowlisted as stale, but its layer defines it"
        return
    assert targets, f"{hook_name}: no function or method {name!r} in the {layer} layer"
    read = set()
    for hook in traced_cli.HOOKS[hook_name]:
        if hook is not None:
            read |= set(re.findall(r'args\["(\w+)"\]', inspect.getsource(hook)))
    assert read, f"{hook_name}: its hooks read no argument"
    for target in targets:
        params = inspect.signature(target).parameters
        assert read <= set(params), f"{hook_name}: {target.__qualname__} lacks {read - set(params)}"


@pytest.mark.parametrize("method", traced_cli.MODEL_METHODS)
def test_traced_model_method_is_defined(method):
    # the tracer wraps a method only on the classes whose own namespace holds it
    classes = traced_cli._all_subclasses(traced_cli.Model)
    defined = any(method in vars(cls) for cls in classes)
    if f"models.{method}" in STALE_SPAN_NAMES:
        assert not defined, f"{method!r} is allowlisted as stale, but a model class defines it"
        return
    assert defined, f"no model class defines {method!r}"


def _layer_metric_span_names() -> set[str]:
    """The span names read through tot(...), self_s[...] and calls[...]."""
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    body = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "layer_metrics"
    )
    names = set()
    for node in ast.walk(body):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "tot":
            names |= {a.value for a in node.args if isinstance(a, ast.Constant)}
        elif (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("self_s", "calls")
            and isinstance(node.slice, ast.Constant)
        ):
            names.add(node.slice.value)
    return names


def _installed_span_names() -> set[str]:
    """Every span name the tracer wraps: layer functions and traced methods.

    install() rebinds module attributes, so it runs in a fresh interpreter.
    """
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import traced_cli; "
        "t = traced_cli.Tracer(); traced_cli.install(t); print(json.dumps(t.names))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(TRACED_CLI.parent)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


def test_layer_metric_span_names_are_traced():
    read = _layer_metric_span_names() - {"startup.import"}  # the import root span
    assert {"models.statistic_range", "ratefit.fit", "numerics.generator"} <= read
    unresolved = read - _installed_span_names()
    assert unresolved == set(STALE_SPAN_NAMES), (
        f"span names no function or traced method carries: "
        f"{sorted(unresolved - set(STALE_SPAN_NAMES))}; "
        f"allowlisted names that are traced after all: {sorted(set(STALE_SPAN_NAMES) - unresolved)}"
    )


TRACED_GRID = (64, 128)
TRACED_REPS = 300
TRACED_RUNS = {
    "simulate": ("simulate", "--model", "ce_lowerbound"),
    "distance": ("distance", "--model", "rademacher_iid"),
    "bounds": ("bounds", "--model", "ce_lowerbound"),
    "verify-ce": ("verify-ce",),
}


def _traced_counters(tmp_path: Path, argv: tuple, tag: str) -> dict:
    trace = tmp_path / f"{tag}.json"
    grid = ",".join(str(n) for n in TRACED_GRID)
    cmd = [sys.executable, str(TRACED_CLI), str(trace), *argv, "--n-grid", grid,
           "--reps", str(TRACED_REPS), "--seed", "0", "--out", str(tmp_path / tag)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(cmd, env=env, cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(trace.read_text(encoding="utf-8"))["counters"]


@pytest.mark.parametrize("command", sorted(TRACED_RUNS))
def test_traced_run_counts_repeat(tmp_path, command):
    argv = TRACED_RUNS[command]
    first = _traced_counters(tmp_path, argv, "first")
    assert _traced_counters(tmp_path, argv, "second") == first
    # the benchmark counts R x |grid| replicates for a drawing command and
    # none for bounds, all through Model.statistic_values
    drawn = 0 if command == "bounds" else TRACED_REPS * len(TRACED_GRID)
    assert first.get("models.replicates", 0) == drawn
    # the increment rows of simulate and of verify-ce's moment table come
    # from statistic_range's sink, and the path_rows hook's method is gone
    assert first.get("models.path_rows", 0) == 0
    if command == "simulate":
        # one statistic vector and one increment matrix per grid point
        batch_bytes = sum(2 * BATCH_HEADER_BYTES + 8 * TRACED_REPS * (1 + n) for n in TRACED_GRID)
        assert first["io.batch_bytes"] == first["io.bytes_hashed"] == batch_bytes
