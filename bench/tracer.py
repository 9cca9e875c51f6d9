"""Outside-in layer tracer for the latticemix package.

The tracer changes no file of the package.  It wraps every public function
of each layer module (plus a few named private ones) and, while installed,
rebinds every module attribute in the package that holds the same function
object.  ``from .kernels import averaged_kernel_analytic`` copies the binding
into ``experiments`` and ``cli``, so patching ``kernels`` alone would miss
those calls.

Spans are aggregated in memory per function and read out once at the end:
calls, span time, self time (span time minus the time of child spans), the
exceptions that leave a layer, and a work count computed from each call's
inputs (or, for output writers, from the bytes written).
"""

from __future__ import annotations

import importlib
import math
import os
import sys
from time import perf_counter

LAYERS = ("spectral", "kernels", "distances", "classical", "oscsums",
          "experiments", "cli", "output")

# Private functions traced as spans of their own.
PRIVATE_SPANS = {"kernels": ("_save_checkpoint",)}


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _simpson_nodes(length: float, dt: float) -> int:
    intervals = max(2, int(math.ceil(length / dt)))
    return intervals + intervals % 2 + 1


def _analytic_terms(args, kwargs, result):
    return math.prod(n * n for n in _arg(args, kwargs, 0, "lattice").dims)


def _quadrature_nodes(args, kwargs, result):
    return _simpson_nodes(_arg(args, kwargs, 1, "T"), _arg(args, kwargs, 2, "dt"))


def _shifts(args, kwargs, result):
    return _arg(args, kwargs, 0, "kernel").lattice.size - 1


def _grid_points(args, kwargs, result):
    return int(_arg(args, kwargs, 4, "count"))


def _curve_nodes(args, kwargs, result):
    dt = _arg(args, kwargs, 4, "dt")
    nodes, prev = 0, 0.0
    for horizon in _arg(args, kwargs, 3, "T_grid"):
        nodes += _simpson_nodes(float(horizon) - prev, dt)
        prev = float(horizon)
    return nodes


def _written_bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


def checkpoint_saves(args, kwargs) -> int:
    """Checkpoint writes averaged_kernel_analytic makes for these inputs."""
    lattice = _arg(args, kwargs, 0, "lattice")
    if not _arg(args, kwargs, 3, "checkpoint") or lattice.d != 2:
        return 0
    block = _arg(args, kwargs, 2, "block_size", 256)
    every = _arg(args, kwargs, 4, "checkpoint_every", 4)
    blocks = math.ceil(lattice.dims[0] ** 2 / block)
    return (blocks - 1) // every


# Work counted per call, keyed by "<layer>.<function>".
WORK = {
    "kernels.averaged_kernel_analytic": _analytic_terms,
    "kernels.averaged_kernel_quadrature": _quadrature_nodes,
    "distances.pairwise_column_distance": _shifts,
    "spectral.cycle_amplitude_grid": _grid_points,
    "oscsums.product_integral_curve": _curve_nodes,
    "output.write_csv": _written_bytes,
    "output.write_json": _written_bytes,
    "output.write_svg": _written_bytes,
}


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


class Tracer:
    """Aggregated spans of every traced function; install/uninstall rebinds."""

    def __init__(self, package: str = "latticemix"):
        self.stats: dict[str, list] = {}   # key -> [calls, span_s, self_s, work]
        self.errors = {layer: 0 for layer in LAYERS}
        self.checkpoint_saves = 0
        self._stack: list[list] = []        # [layer, child seconds] per open span
        self._bindings: list[tuple] = []
        modules = [importlib.import_module(f"{package}.{layer}") for layer in LAYERS]
        package_modules = [m for name, m in sys.modules.items()
                           if name == package or name.startswith(package + ".")]
        for layer, module in zip(LAYERS, modules):
            targets = dict(_public_functions(module))
            for name in PRIVATE_SPANS.get(layer, ()):
                targets[name] = getattr(module, name)
            for name, fn in targets.items():
                wrapper = self._wrap(layer, f"{layer}.{name}", fn)
                for holder in package_modules:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._bindings.append((holder, attr, fn, wrapper))

    def _wrap(self, layer: str, key: str, fn):
        record = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        stack = self._stack
        errors = self.errors
        work = WORK.get(key)
        count_saves = key == "kernels.averaged_kernel_analytic"

        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if len(stack) < 2 or stack[-2][0] != layer:
                    errors[layer] += 1
                raise
            finally:
                span = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += span
                record[0] += 1
                record[1] += span
                record[2] += span - frame[1]
            if work is not None:
                record[3] += work(args, kwargs, result)
            if count_saves:
                self.checkpoint_saves += checkpoint_saves(args, kwargs)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        return traced

    def install(self) -> None:
        for holder, attr, _, wrapper in self._bindings:
            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original, _ in self._bindings:
            setattr(holder, attr, original)

    def summary(self) -> dict:
        return {
            "functions": {key: {"calls": r[0], "span_s": r[1], "self_s": r[2], "work": r[3]}
                          for key, r in sorted(self.stats.items())},
            "errors": dict(self.errors),
            "checkpoint_saves": self.checkpoint_saves,
        }

