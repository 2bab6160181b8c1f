"""The benchmark workloads: the public ``inflap`` call each one times and
the check of its outputs.

``prepare`` returns a pair ``(call, check)``.  ``call()`` is the timed
region: it starts at the first API call and ends with the returned result.
``check(result)`` runs afterwards, untimed, and returns the L2 error of the
final solution together with a list of problems (empty when the output is
correct).  Every public function is looked up through its module at call
time, so the tracing wrappers in ``layertrace.py`` see the call.

A solve that returns ``converged=False`` always reports
``iterations == max_iterations``, so an iteration count below the limit
proves convergence without wrapping ``fixed_point_solve``.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

import inflap
import inflap.adapt
import inflap.bench
import inflap.cli
import inflap.mesh
from inflap.adapt import AdaptiveConfig
from inflap.solver import SolverConfig

NAMES = ("classical-cli", "aronsson-converged", "aronsson-adaptive")

CLI_MAX_ITERS = 100     # the `inflap solve` default for --max-iters
BOUNDARY_TOL = 1e-12


def _finest_eoc_problems(eoc, low, high):
    if eoc is None or not low <= eoc <= high:
        return [f"finest L2 EOC {eoc} outside [{low}, {high}]"]
    return []


def _classical_cli(tiny, scratch):
    levels = 2 if tiny else 6
    argv = ["solve", "--problem", "classical", "--levels", str(levels),
            "--tau", "1000", "--out", scratch]

    def call():
        return inflap.cli.main(argv)

    def check(code):
        problems = [] if code == 0 else [f"exit code {code}"]
        with open(os.path.join(scratch, "classical_eoc.csv"), newline="") as stream:
            rows = list(csv.DictReader(stream))
        vtus = [n for n in os.listdir(scratch) if n.endswith(".vtu")]
        if len(rows) != levels or len(vtus) != levels:
            problems.append(f"{len(rows)} CSV rows and {len(vtus)} VTU files, "
                            f"expected {levels} of each")
        problems += _finest_eoc_problems(float(rows[-1]["l2_eoc"]), 1.8, 2.2)
        if any(int(row["iterations"]) >= CLI_MAX_ITERS for row in rows):
            problems.append("a level stopped at the iteration limit")
        return float(rows[-1]["l2_error"]), problems

    return call, check


def _aronsson_converged(tiny, scratch):
    levels = 2 if tiny else 5
    config = SolverConfig(increment_tol_factor=0.01)

    def call():
        return inflap.bench.convergence_study("aronsson", levels, tau=1.0,
                                              solver_config=config)

    def check(table):
        rows = table.rows
        problems = [] if len(rows) == levels else [f"{len(rows)} rows, expected {levels}"]
        problems += _finest_eoc_problems(rows[-1].l2_eoc, 1.55, 2.05)
        if any(row.iterations >= config.max_iterations for row in rows):
            problems.append("a level stopped at the iteration limit")
        return rows[-1].l2_error, problems

    return call, check


def _aronsson_adaptive(tiny, scratch):
    # The solver stop is pinned to the seed's default, so the inputs stay
    # fixed if the library default changes.
    config = AdaptiveConfig(estimator_tol=0.5 if tiny else 0.03, theta=0.5, tau=0.1,
                            max_cycles=80, dof_budget=200_000,
                            solver=SolverConfig(increment_tol_factor=10.0))

    def call():
        problem = inflap.bench.registry()["aronsson"].data
        return inflap.adapt.adaptive_solve(problem, inflap.mesh.build_initial_mesh(4),
                                           config)

    def check(result):
        report, final_mesh, history = result
        last = history.records[-1]
        problems = []
        if not report.converged or any(r.iterations >= config.solver.max_iterations
                                       for r in history.records):
            problems.append("a cycle stopped at the iteration limit")
        if not last.estimator <= config.estimator_tol:
            problems.append(f"final estimator {last.estimator} above "
                            f"{config.estimator_tol}")
        problems += conformity_problems(final_mesh)
        return last.l2_error, problems

    return call, check


_PREPARE = dict(zip(NAMES, (_classical_cli, _aronsson_converged, _aronsson_adaptive)))


def prepare(name, tiny, scratch):
    """Return ``(call, check)`` for workload ``name``; ``tiny`` selects smoke sizes."""
    call, check = _PREPARE[name](tiny, scratch)

    def checked(result):
        l2, problems = check(result)
        if l2 is None or not math.isfinite(l2):
            problems.append(f"L2 error {l2} is not finite")
        return l2, problems

    return call, checked


def conformity_problems(mesh):
    """Conformity of a triangulation of [-1, 1]^2 from edge multiplicities.

    ``inflap.mesh.conformity_errors`` tests every vertex against every edge,
    which takes minutes at the adaptive run's 63k triangles.  This check is
    linear in the mesh size: with positive areas summing to 4, a mesh is
    conforming exactly when no edge has more than two triangles and every
    edge with one triangle lies on the boundary of the square (a hanging
    vertex leaves the long edge one-sided inside the domain).
    """
    coords, tris = mesh.vertex_coords, mesh.triangle_vertices
    a, b, c = coords[tris[:, 0]], coords[tris[:, 1]], coords[tris[:, 2]]
    ab, ac = b - a, c - a
    areas = 0.5 * (ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0])
    problems = []
    if (areas <= 0.0).any():
        problems.append(f"{int((areas <= 0.0).sum())} triangles with non-positive area")
    if abs(areas.sum() - 4.0) > 1e-9:
        problems.append(f"total area {areas.sum()!r} differs from 4")

    edges = np.sort(np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]]),
                    axis=1)
    keys, counts = np.unique(edges[:, 0] * len(coords) + edges[:, 1], return_counts=True)
    if (counts > 2).any():
        problems.append(f"{int((counts > 2).sum())} edges shared by more than two triangles")
    single = keys[counts == 1]
    p, q = coords[single // len(coords)], coords[single % len(coords)]
    on_side = np.zeros(len(single), dtype=bool)
    for axis in (0, 1):
        for side in (-1.0, 1.0):
            on_side |= ((np.abs(p[:, axis] - side) <= BOUNDARY_TOL)
                        & (np.abs(q[:, axis] - side) <= BOUNDARY_TOL))
    if not on_side.all():
        problems.append(f"{int((~on_side).sum())} one-sided edges inside the domain")
    return problems
