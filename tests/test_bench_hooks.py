"""The traced benchmark's counter hooks still fit the functions they wrap.

`benchmarks/traced_cli.py` counts work by reading named arguments of a few
layer functions (HOOKS).  A rename in src/ would leave a hook unattached and
zero its counter without any error, so each hook target is checked here: it
must exist in its layer and take every argument its hooks read.
"""

from __future__ import annotations

import importlib.util
import inspect
import re
from pathlib import Path

import pytest

TRACED_CLI = Path(__file__).resolve().parents[1] / "benchmarks" / "traced_cli.py"


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


@pytest.mark.parametrize("hook_name", sorted(traced_cli.HOOKS))
def test_hook_target_takes_the_arguments_it_reads(hook_name):
    layer, name = hook_name.split(".")
    targets = _targets(traced_cli.LAYER_MODULES[layer], name)
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
    assert any(method in vars(cls) for cls in classes), f"no model class defines {method!r}"
