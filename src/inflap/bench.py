"""Benchmark registry, uniform convergence studies and file output.

CSV files carry full double precision (17 significant digits) so repeated
runs are bit-comparable; VTU output is plain ASCII XML readable by the
usual VTK-based viewers.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .adapt import AdaptiveHistory
from .errors import DivergenceError, InvalidArgumentError, SolverFailure
from .estimator import IndicatorField, estimate
from .fespace import FEFunction, SpaceP0Tensor, h1_semi_error, l2_error
from .mesh import Triangulation, build_initial_mesh, uniform_refine
from .solver import ProblemData, SolverConfig, fixed_point_solve

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class BenchmarkProblem:
    name: str
    data: ProblemData
    description: str
    adaptive_tau: float


def _classical_f(x, y):
    return np.full(np.shape(x), 2.0)


def _classical_exact(x, y):
    return x * x + y * y


def _classical_gradient(x, y):
    return 2.0 * x, 2.0 * y


def _aronsson_f(x, y):
    return np.zeros(np.shape(x))


def _aronsson_exact(x, y):
    return np.abs(x) ** (4.0 / 3.0) - np.abs(y) ** (4.0 / 3.0)


def _aronsson_gradient(x, y):
    # the one-third powers vanish on the axes, matching the zero convention
    return ((4.0 / 3.0) * np.sign(x) * np.abs(x) ** (1.0 / 3.0),
            -(4.0 / 3.0) * np.sign(y) * np.abs(y) ** (1.0 / 3.0))


def registry() -> dict[str, BenchmarkProblem]:
    """Built-in benchmark problems with known solutions."""
    classical = BenchmarkProblem(
        name="classical",
        data=ProblemData(f=_classical_f, g=_classical_exact,
                         exact_solution=_classical_exact,
                         exact_gradient=_classical_gradient, tau=1000.0),
        description="smooth solution |x|^2 of the inhomogeneous problem with f = 2",
        # large tau is only stable on quasi-uniform meshes; adaptive runs
        # need the relaxation, so the adaptive default is much smaller
        adaptive_tau=1.0)
    aronsson = BenchmarkProblem(
        name="aronsson",
        data=ProblemData(f=_aronsson_f, g=_aronsson_exact,
                         exact_solution=_aronsson_exact,
                         exact_gradient=_aronsson_gradient, tau=1.0),
        description=("Aronsson solution |x|^(4/3) - |y|^(4/3) of the homogeneous "
                     "problem, singular derivatives on the axes"),
        adaptive_tau=0.1)
    return {p.name: p for p in (classical, aronsson)}


@dataclass
class EOCRow:
    level: int
    h: float
    dofs: int
    l2_error: Optional[float] = None
    l2_eoc: Optional[float] = None
    h1_error: Optional[float] = None
    h1_eoc: Optional[float] = None
    estimator: Optional[float] = None
    estimator_eoc: Optional[float] = None
    iterations: int = 0
    converged: bool = False


@dataclass
class EOCTable:
    problem: str
    rows: list[EOCRow] = field(default_factory=list)


def _eoc(coarse, fine, h_coarse, h_fine):
    if coarse is None or fine is None or coarse <= 0 or fine <= 0:
        return None
    return float(np.log(coarse / fine) / np.log(h_coarse / h_fine))


def convergence_study(problem, levels: int, tau: Optional[float] = None,
                      solver_config: Optional[SolverConfig] = None,
                      initial_n: int = 4, hessian_trace: bool = False,
                      on_level: Optional[Callable] = None) -> EOCTable:
    """Uniform-refinement study recording errors, estimators and rates.

    Starts from the criss-cross mesh with ``initial_n`` squares per side
    and refines uniformly between levels; every level is solved from the
    Poisson initial guess so iteration counts are comparable across
    levels.  ``on_level(level, mesh, report, indicators)`` is called after
    each solve.  A solver failure aborts the study and carries the rows
    finished so far in its ``partial_table`` attribute.
    """
    if levels < 1:
        raise InvalidArgumentError("levels must be at least 1")
    if isinstance(problem, str):
        try:
            problem = registry()[problem]
        except KeyError:
            raise InvalidArgumentError(f"unknown benchmark problem {problem!r}") from None
    data = problem.data if tau is None else replace(problem.data, tau=tau)

    table = EOCTable(problem=problem.name)
    mesh = build_initial_mesh(initial_n)
    previous_row = None
    for level in range(levels):
        try:
            report = fixed_point_solve(mesh, data, solver_config)
        except (SolverFailure, DivergenceError) as failure:
            failure.partial_table = table
            raise
        # self-consistent pair, see the note in adapt.adaptive_solve
        indicators = estimate(mesh, report.solution, report.solution, data.f, data.tau,
                              hessian_trace=hessian_trace)
        if not report.converged:
            logger.warning("level %d: fixed-point solve did not converge in %d iterations",
                           level, report.iterations)
        row = EOCRow(level=level, h=float(mesh.diameters.max()),
                     dofs=mesh.vertex_count, iterations=report.iterations,
                     converged=report.converged, estimator=indicators.eta_total)
        if data.exact_solution is not None:
            row.l2_error = l2_error(report.solution, data.exact_solution)
        if data.exact_gradient is not None:
            row.h1_error = h1_semi_error(report.solution, data.exact_gradient)
        if previous_row is not None:
            row.l2_eoc = _eoc(previous_row.l2_error, row.l2_error, previous_row.h, row.h)
            row.h1_eoc = _eoc(previous_row.h1_error, row.h1_error, previous_row.h, row.h)
            row.estimator_eoc = _eoc(previous_row.estimator, row.estimator,
                                     previous_row.h, row.h)
        table.rows.append(row)
        logger.info("level %d: h %.4e, dofs %d, iterations %d", level, row.h,
                    row.dofs, row.iterations)
        if on_level is not None:
            on_level(level, mesh, report, indicators)
        previous_row = row
        if level + 1 < levels:
            mesh = uniform_refine(mesh)
    return table


# ----------------------------------------------------------------- CSV output

_EOC_COLUMNS = ("level", "h", "dofs", "l2_error", "l2_eoc", "h1_error",
                "h1_eoc", "estimator", "estimator_eoc", "iterations", "converged")
_HISTORY_COLUMNS = ("cycle", "dofs", "triangles", "estimator", "estimator_l1",
                    "iterations", "converged", "l2_error", "h1_error")


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):      # bool included: 1 / 0
        return str(int(value))
    return format(float(value), ".17g")


def write_csv(table, path) -> None:
    """Write an EOC table or adaptive history with full precision."""
    if isinstance(table, EOCTable):
        columns, records = _EOC_COLUMNS, table.rows
    elif isinstance(table, AdaptiveHistory):
        columns, records = _HISTORY_COLUMNS, table.records
    else:
        raise InvalidArgumentError("write_csv expects an EOCTable or AdaptiveHistory")
    try:
        with open(path, "w", newline="") as stream:
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(columns)
            for record in records:
                writer.writerow([_cell(getattr(record, name)) for name in columns])
    except OSError as failure:
        raise OSError(f"cannot write CSV to {path}: {failure}") from failure


# ----------------------------------------------------------------- VTU output

def _ascii(values, per_line=6):
    values = np.asarray(values).reshape(-1)
    if values.dtype.kind in "iu":
        parts = [str(int(v)) for v in values]
    else:
        parts = [format(float(v), ".17g") for v in values]
    lines = [" ".join(parts[i:i + per_line]) for i in range(0, len(parts), per_line)]
    return "\n          ".join(lines)


def write_vtu(mesh: Triangulation, fields, path) -> None:
    """ASCII XML unstructured-grid file with triangle cells.

    P1 functions become point data, tensor fields become four-component
    cell data, indicator fields and plain per-triangle arrays become
    scalar cell data; per-vertex arrays become point data.
    """
    point_data: list[tuple[str, np.ndarray, int]] = []
    cell_data: list[tuple[str, np.ndarray, int]] = []
    nv, nt = mesh.vertex_count, mesh.triangle_count
    for name, value in dict(fields or {}).items():
        if isinstance(value, FEFunction):
            if isinstance(value.space, SpaceP0Tensor):
                cell_data.append((name, value.coefficients, 4))
            else:
                point_data.append((name, value.coefficients, 1))
        elif isinstance(value, IndicatorField):
            cell_data.append((name, value.eta, 1))
        else:
            array = np.asarray(value, dtype=float).reshape(-1)
            if len(array) == nt:
                cell_data.append((name, array, 1))
            elif len(array) == nv:
                point_data.append((name, array, 1))
            else:
                raise InvalidArgumentError(
                    f"field {name!r} matches neither vertex nor triangle count")

    points = np.column_stack([mesh.vertex_coords, np.zeros(nv)])
    chunks = [
        '<?xml version="1.0"?>',
        '<VTKFile type="UnstructuredGrid" version="0.1" byte_order="LittleEndian">',
        '  <UnstructuredGrid>',
        f'    <Piece NumberOfPoints="{nv}" NumberOfCells="{nt}">',
        '      <Points>',
        '        <DataArray type="Float64" NumberOfComponents="3" format="ascii">',
        '          ' + _ascii(points),
        '        </DataArray>',
        '      </Points>',
        '      <Cells>',
        '        <DataArray type="Int64" Name="connectivity" format="ascii">',
        '          ' + _ascii(mesh.triangle_vertices),
        '        </DataArray>',
        '        <DataArray type="Int64" Name="offsets" format="ascii">',
        '          ' + _ascii(3 * np.arange(1, nt + 1)),
        '        </DataArray>',
        '        <DataArray type="UInt8" Name="types" format="ascii">',
        '          ' + _ascii(np.full(nt, 5, dtype=np.int64)),
        '        </DataArray>',
        '      </Cells>',
    ]

    def data_block(tag, entries):
        if not entries:
            return [f'      <{tag}>', f'      </{tag}>']
        block = [f'      <{tag}>']
        for name, array, comps in entries:
            block.append(f'        <DataArray type="Float64" Name="{name}" '
                         f'NumberOfComponents="{comps}" format="ascii">')
            block.append('          ' + _ascii(array))
            block.append('        </DataArray>')
        block.append(f'      </{tag}>')
        return block

    chunks += data_block("PointData", point_data)
    chunks += data_block("CellData", cell_data)
    chunks += ['    </Piece>', '  </UnstructuredGrid>', '</VTKFile>', '']
    try:
        with open(path, "w") as stream:
            stream.write("\n".join(chunks))
    except OSError as failure:
        raise OSError(f"cannot write VTU to {path}: {failure}") from failure
