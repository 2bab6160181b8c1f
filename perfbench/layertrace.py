"""Spans around the public functions of each ``inflap`` module.

The package modules bind each other's functions with ``from .x import y``,
so a function is replaced in every ``inflap`` namespace that holds it
(``solver.fe_hessian``, ``adapt.refine``, ``cli.write_vtu``, ...), not only
in its home module.  Spans are kept in memory; a layer's self time is the
time of its spans minus the time of their child spans.

Besides times and call counts, a few quantities are computed from the
values the wrapped calls return (``COMPUTED``); they are counts of work, not
times.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import weakref
from collections import Counter, defaultdict

LAYERS = {
    "mesh": ("build_initial_mesh", "refine", "uniform_refine"),
    "hessian": ("hessian_operator", "fe_hessian"),
    "solver": ("fixed_point_solve", "default_initializer", "assemble_step",
               "load_vector", "apply_dirichlet", "solve_linear"),
    "estimator": ("estimate",),
    "adapt": ("adaptive_solve", "mark", "transfer"),
    "fespace": ("l2_error", "h1_semi_error", "l2_norm"),
    "bench": ("convergence_study", "write_csv", "write_vtu"),
    "cli": ("main",),
}

# name -> unit of the quantities computed from returned values
COMPUTED = {
    "solver.iterations": "count",
    "solver.unconverged": "count",
    "solver.system_dofs": "count",
    "solver.matrix_nnz_max": "count",
    "solver.load_vector.calls_per_mesh": "ratio",
    "mesh.triangles_out": "count",
    "adapt.cycles": "count",
    "adapt.marked_fraction": "ratio",
    "bench.write_vtu.bytes": "bytes",
}


def layer_metrics():
    """Every per-layer metric name with its unit, in a fixed order."""
    units = {}
    for module, functions in LAYERS.items():
        for function in functions:
            units[f"{module}.{function}.self_s"] = "s"
            units[f"{module}.{function}.calls"] = "count"
    units.update(COMPUTED)
    return units


def _argument(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Install with ``install()``, run the workload, then ``uninstall()``."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent span index or -1]
        self._stack = []
        self._restore = []
        self._counts = Counter()
        self._meshes = weakref.WeakSet()
        self._hooks = {
            "solver.fixed_point_solve": self._on_solve,
            "solver.apply_dirichlet": self._on_dirichlet,
            "solver.load_vector": self._on_load_vector,
            "mesh.refine": self._on_mesh,
            "mesh.uniform_refine": self._on_mesh,
            "adapt.adaptive_solve": self._on_adaptive,
            "adapt.mark": self._on_mark,
            "bench.write_vtu": self._on_vtu,
        }

    def install(self):
        for module in LAYERS:
            importlib.import_module(f"inflap.{module}")
        namespaces = [namespace for name, namespace in list(sys.modules.items())
                      if name == "inflap" or name.startswith("inflap.")]
        for module, functions in LAYERS.items():
            home = sys.modules[f"inflap.{module}"]
            for function in functions:
                original = getattr(home, function)
                wrapper = self._wrap(f"{module}.{function}", original)
                for namespace in namespaces:
                    for attribute, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, attribute, wrapper)
                            self._restore.append((namespace, attribute, original))

    def uninstall(self):
        for namespace, attribute, original in reversed(self._restore):
            setattr(namespace, attribute, original)
        self._restore.clear()

    def _wrap(self, name, original):
        hook = self._hooks.get(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(result, args, kwargs)
            return result

        return wrapper

    # ---------------------------------------------- computed from return values

    def _on_solve(self, report, args, kwargs):
        self._counts["solver.iterations"] += report.iterations
        self._counts["solver.unconverged"] += not report.converged

    def _on_dirichlet(self, result, args, kwargs):
        matrix = result[0]
        self._counts["solver.system_dofs"] += matrix.shape[0]
        self._counts["solver.matrix_nnz_max"] = max(
            self._counts["solver.matrix_nnz_max"], matrix.nnz)

    def _on_load_vector(self, result, args, kwargs):
        mesh = _argument(args, kwargs, 0, "mesh")
        if mesh not in self._meshes:
            self._meshes.add(mesh)
            self._counts["load_vector.meshes"] += 1

    def _on_mesh(self, mesh, args, kwargs):
        self._counts["mesh.triangles_out"] += mesh.triangle_count

    def _on_adaptive(self, result, args, kwargs):
        self._counts["adapt.cycles"] += len(result[2].records)

    def _on_mark(self, marked, args, kwargs):
        self._counts["mark.marked"] += len(marked)
        self._counts["mark.candidates"] += len(_argument(args, kwargs, 0, "indicators").eta)

    def _on_vtu(self, result, args, kwargs):
        self._counts["bench.write_vtu.bytes"] += os.path.getsize(
            _argument(args, kwargs, 2, "path"))

    # ----------------------------------------------------------------- summary

    def summary(self):
        """Per-layer self time and calls, plus the computed quantities."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time, calls = defaultdict(float), Counter()
        for (name, start, end, parent), children in zip(self.spans, child_time):
            self_time[name] += end - start - children
            calls[name] += 1

        metrics = {}
        for module, functions in LAYERS.items():
            for function in functions:
                name = f"{module}.{function}"
                metrics[f"{name}.self_s"] = self_time[name]
                metrics[f"{name}.calls"] = calls[name]
        counts = self._counts
        for name in COMPUTED:
            metrics[name] = counts[name]
        meshes = counts["load_vector.meshes"]
        metrics["solver.load_vector.calls_per_mesh"] = (
            calls["solver.load_vector"] / meshes if meshes else 0.0)
        candidates = counts["mark.candidates"]
        metrics["adapt.marked_fraction"] = (
            counts["mark.marked"] / candidates if candidates else 0.0)
        return metrics
