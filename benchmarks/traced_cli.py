"""Run one `cltlab` CLI command with its layers traced.

Usage: python3 benchmarks/traced_cli.py TRACE_JSON CLTLAB_ARGS...

Wraps the public functions of numerics, models, distances, bounds, ratefit,
io and cli, plus the model methods that carry each layer's work, in spans;
calls `cltlab.cli.main`; and writes the spans and counters to TRACE_JSON when
the command ends.  Nothing under src/ changes.  `cli` binds names with
`from .distances import ...`, so each wrapper is installed wherever a module
holds the original function, not only where it is defined.

A span is [name index, parent span index or -1, start, end] in
perf_counter seconds, and `names` maps a name index to a name such as
`models.statistic_range`.  The root spans are `startup.import`, which covers
`import cltlab.cli`, and `cli.main`.  Counters are incremented at the same
boundaries.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter
from typing import Callable

_import_t0 = time.perf_counter()
import cltlab.cli  # noqa: E402
_import_t1 = time.perf_counter()

from cltlab import bounds, distances, io, models, numerics, ratefit  # noqa: E402
from cltlab.distances import EmpiricalSample  # noqa: E402
from cltlab.models import Model  # noqa: E402
from cltlab.numerics import SeedLineage  # noqa: E402

# The seven layers, keyed by the module that defines a function.
LAYER_MODULES = {
    "numerics": numerics,
    "models": models,
    "distances": distances,
    "bounds": bounds,
    "ratefit": ratefit,
    "io": io,
    "cli": cltlab.cli,
}

# Model methods that carry the models layer's work, wrapped on every family
# class that defines them.  sample_path is left inside increment_matrix so
# that the per-path route shows as increment_matrix self time.
MODEL_METHODS = (
    "statistic_values",
    "statistic_range",
    "increment_matrix",
    "statistic_normalizer",
    "moments",
    "psi_closed_form",
    "sup_moment_ratio",
    "sum_abs_moments",
    "u_exact",
    "prefix_states_chunk",
)

# Scalar helpers evaluated per quadrature point or twice per stream; the span
# of their caller covers them, and a span each would cost more than the work.
SCALAR_HELPERS = {
    "splitmix64",
    "normal_cdf",
    "normal_pdf",
    "normal_quantile",
    "normal_abs_moment",
    "integral_of_phi",
    "branch_abs_moment",
    "gaussian_min_profile",
}


class Tracer:
    """In-memory spans and counters; written out once, when the command ends."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack = [-1]

    def record(self, name: str, start: float, end: float) -> None:
        self.spans.append([self._name_index(name), self._stack[-1], start, end])

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        """fn inside a span; hooks see the bound arguments before and after."""
        sig = inspect.signature(fn) if (before or after) else None
        idx = self._name_index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                if before is not None:
                    before(self.counters, bound.arguments)
                args, kwargs = bound.args, bound.kwargs
            rec = [idx, stack[-1], clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if after is not None:
                after(self.counters, bound.arguments)
            return result

        return traced

    def dump(self, path: str) -> None:
        doc = {"names": self.names, "spans": self.spans, "counters": dict(self.counters)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# -- counters at span boundaries ----------------------------------------------


def _count_replicates(counters: Counter, args: dict) -> None:
    counters["models.replicates"] += args["replicates"]
    counters["models.increments"] += args["replicates"] * int(args["self"].spec.n)


def _count_path_rows(counters: Counter, args: dict) -> None:
    counters["models.path_rows"] += args["replicates"]


def _count_sorted(counters: Counter, args: dict) -> None:
    counters["distances.values_sorted"] += len(args["values"])


def _count_breakdowns(counters: Counter, args: dict) -> None:
    counters["bounds.evals"] += len(args["breakdowns"])


def _count_candidates(counters: Counter, args: dict) -> None:
    evaluate = args["evaluate"]

    def counted(a: float):
        counters["bounds.a_candidates"] += 1
        return evaluate(a)

    args["evaluate"] = counted
    counters["bounds.a_chosen"] += 1


def _count_batch_bytes(counters: Counter, args: dict) -> None:
    counters["io.batch_bytes"] += os.path.getsize(args["path"])


def _count_hashed(counters: Counter, args: dict) -> None:
    counters["io.bytes_hashed"] += os.path.getsize(args["path"])


HOOKS = {
    "models.statistic_values": (None, _count_replicates),
    "models.increment_matrix": (None, _count_path_rows),
    "distances.from_values": (None, _count_sorted),
    "bounds.breakdowns_to_csv": (None, _count_breakdowns),
    "bounds.minimize_over_a": (_count_candidates, None),
    "io.write_batch": (None, _count_batch_bytes),
    "io.sha256_file": (None, _count_hashed),
}


# -- installation -------------------------------------------------------------


def _module_layer(module_name: str) -> str | None:
    for layer, module in LAYER_MODULES.items():
        if module_name == module.__name__ or module_name.startswith(module.__name__ + "."):
            return layer
    return None


def _all_subclasses(cls: type) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out += _all_subclasses(sub)
    return out


def install(tracer: Tracer) -> None:
    def wrapped(name: str, fn: Callable) -> Callable:
        return tracer.wrap(name, fn, *HOOKS.get(name, (None, None)))

    wrappers: dict[int, Callable] = {}  # id of an original function -> its wrapper
    cltlab_modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "cltlab"]
    for module in cltlab_modules:
        for attr, value in vars(module).items():
            layer = _module_layer(getattr(value, "__module__", None) or "")
            if (
                inspect.isfunction(value)
                and layer is not None
                and not attr.startswith("_")
                and attr not in SCALAR_HELPERS
                and id(value) not in wrappers
            ):
                wrappers[id(value)] = wrapped(f"{layer}.{value.__name__}", value)
    # rebind every name that holds an original, wherever it was imported
    for module in cltlab_modules:
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                setattr(module, attr, wrappers[id(value)])

    SeedLineage.generator = wrapped("numerics.generator", SeedLineage.generator)
    for cls in _all_subclasses(Model):
        for method in MODEL_METHODS:
            if method in vars(cls):
                setattr(cls, method, wrapped(f"models.{method}", vars(cls)[method]))
    from_values = vars(EmpiricalSample)["from_values"].__func__
    EmpiricalSample.from_values = classmethod(wrapped("distances.from_values", from_values))


def main(trace_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.record("startup.import", _import_t0, _import_t1)
    install(tracer)
    try:
        return cltlab.cli.main(argv)
    finally:
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
