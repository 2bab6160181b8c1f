"""Benchmark registry, uniform convergence studies and file output.

CSV files carry full double precision (17 significant digits) so repeated
runs are bit-comparable.  VTU output is VTK's XML format with every array
stored as base64-encoded binary data, so it is lossless too, and ParaView
and VTK read it.
"""

from __future__ import annotations

import base64
import csv
import re
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Optional

import numpy as np

from .adapt import AdaptiveHistory, CycleRecord, solve_and_measure
from .errors import InvalidArgumentError, is_positive_integer
from .estimator import IndicatorField
from .fespace import FEFunction
from .mesh import Triangulation, build_initial_mesh, uniform_refine
from .solver import ProblemData, SolverConfig

# Squares per side of the default criss-cross start mesh of convergence_study
# and of both CLI subcommands.
INITIAL_N = 4


@dataclass(frozen=True)
class BenchmarkProblem:
    name: str
    data: ProblemData
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
    # the cube roots vanish on the axes, matching the zero convention
    return (4.0 / 3.0) * np.cbrt(x), -(4.0 / 3.0) * np.cbrt(y)


def registry() -> dict[str, BenchmarkProblem]:
    """Built-in benchmark problems with known solutions."""
    classical = BenchmarkProblem(
        name="classical",
        data=ProblemData(f=_classical_f, g=_classical_exact,
                         exact_solution=_classical_exact,
                         exact_gradient=_classical_gradient, tau=1000.0),
        # large tau is only stable on quasi-uniform meshes; adaptive runs
        # need the relaxation, so the adaptive default is much smaller
        adaptive_tau=1.0)
    aronsson = BenchmarkProblem(
        name="aronsson",
        data=ProblemData(f=_aronsson_f, g=_aronsson_exact,
                         exact_solution=_aronsson_exact,
                         exact_gradient=_aronsson_gradient, tau=1.0),
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
    residual: Optional[float] = None


@dataclass
class EOCTable:
    problem: str
    rows: list[EOCRow] = field(default_factory=list)


def _eoc(coarse, fine, h_coarse, h_fine):
    if coarse is None or fine is None or coarse <= 0 or fine <= 0:
        return None
    return float(np.log(coarse / fine) / np.log(h_coarse / h_fine))


def convergence_study(problem: str, levels: int, tau: Optional[float] = None,
                      solver_config: Optional[SolverConfig] = None,
                      initial_n: int = INITIAL_N, on_level: Optional[Callable] = None) -> EOCTable:
    """Uniform-refinement study recording errors, estimators and rates.

    ``problem`` names an entry of ``registry()``.  Starts from the
    criss-cross mesh with ``initial_n`` squares per side and refines
    uniformly between levels; every level is solved from the Poisson
    initial guess so iteration counts are comparable across levels.
    ``on_level(level, mesh, report, indicators)`` is called after each
    solve.  Each level is one ``adapt.solve_and_measure`` pass, which logs
    it and, on a solver failure, hands the table of the finished levels to
    ``SolverFailure.partial``.  A level's report and indicators are released
    before the next mesh is solved, so one mesh generation is alive at a time.
    """
    if not is_positive_integer(levels):
        raise InvalidArgumentError("levels must be a positive integer")
    benchmark = registry().get(problem) if isinstance(problem, str) else None
    if benchmark is None:
        raise InvalidArgumentError(f"unknown benchmark problem {problem!r}")
    data = benchmark.data if tau is None else replace(benchmark.data, tau=tau)

    table = EOCTable(problem=problem)
    mesh = build_initial_mesh(initial_n)
    previous_row = None
    for level in range(levels):
        report, indicators, measured = solve_and_measure(
            mesh, data, solver_config, None, table, f"level {level}")
        row = EOCRow(level=level, h=float(mesh.diameters.max()), **measured)
        if previous_row is not None:
            row.l2_eoc = _eoc(previous_row.l2_error, row.l2_error, previous_row.h, row.h)
            row.h1_eoc = _eoc(previous_row.h1_error, row.h1_error, previous_row.h, row.h)
            row.estimator_eoc = _eoc(previous_row.estimator, row.estimator,
                                     previous_row.h, row.h)
        table.rows.append(row)
        if on_level is not None:
            on_level(level, mesh, report, indicators)
        # the next solve holds only the next mesh
        del report, indicators
        previous_row = row
        if level + 1 < levels:
            mesh = uniform_refine(mesh)
    return table


# ----------------------------------------------------------------- CSV output

def _cell(value):
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):      # bool included: 1 / 0
        return str(int(value))
    return format(float(value), ".17g")


def write_csv(table, path) -> None:
    """Write an EOC table or adaptive history with full precision.

    One column per field of ``EOCRow`` or ``CycleRecord``, in field order.
    """
    if isinstance(table, EOCTable):
        record_type, records = EOCRow, table.rows
    elif isinstance(table, AdaptiveHistory):
        record_type, records = CycleRecord, table.records
    else:
        raise InvalidArgumentError("write_csv expects an EOCTable or AdaptiveHistory")
    columns = [column.name for column in fields(record_type)]
    try:
        with open(path, "w", newline="") as stream:
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(columns)
            for record in records:
                writer.writerow([_cell(getattr(record, name)) for name in columns])
    except OSError as failure:
        raise OSError(f"cannot write CSV to {path}: {failure}") from failure


# ----------------------------------------------------------------- VTU output

def _binary(values, dtype) -> str:
    """One inline binary array: base64 of a UInt32 byte count and the raw bytes.

    ``dtype`` is the little-endian type the ``DataArray`` declares; the
    header and the data are encoded as one base64 string, as VTK reads
    uncompressed arrays.
    """
    data = np.ascontiguousarray(values, dtype=dtype).tobytes()
    return base64.b64encode(len(data).to_bytes(4, "little") + data).decode("ascii")


# the characters XML 1.0 cannot hold; a parser reads a literal tab, newline
# or carriage return in an attribute as a space, so those are escaped
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
                          "\t": "&#9;", "\n": "&#10;", "\r": "&#13;"})


def _attribute(text) -> str:
    """``text`` escaped for a double-quoted XML attribute (see ``write_vtu``)."""
    text = str(text)
    if _NOT_XML.search(text):
        raise InvalidArgumentError(f"{text!r} holds a character XML cannot store")
    return text.translate(_ESCAPES)


def write_vtu(mesh: Triangulation, fields, path) -> None:
    """XML unstructured-grid file with triangle cells and binary arrays.

    Every ``DataArray`` is ``format="binary"``: one base64 string of a
    little-endian UInt32 byte count followed by the array's raw
    little-endian bytes in its declared type (``Float64`` points and
    fields, ``Int64`` connectivity and offsets, ``UInt8`` cell types), so
    the decoded arrays are bit for bit the ones in memory.

    P1 functions and (nv,) arrays become point data.  Indicator fields
    and arrays whose first axis has one entry per triangle become cell
    data with one component per remaining entry, so an (nt, 2, 2)
    recovered Hessian writes as four-component cell data.  A P1 function
    or indicator field of another mesh, an indicator field without one
    ``eta`` per triangle, an array matching neither count,
    an (n,) array on a mesh with n vertices and n triangles, or a field
    name with a character XML 1.0 cannot hold raises
    ``InvalidArgumentError``, before the file is opened.
    """
    point_data: list[tuple[str, np.ndarray, int]] = []
    cell_data: list[tuple[str, np.ndarray, int]] = []
    nv, nt = mesh.vertex_count, mesh.triangle_count
    for name, value in dict(fields or {}).items():
        if isinstance(value, (FEFunction, IndicatorField)) and value.mesh is not mesh:
            raise InvalidArgumentError(f"field {name!r} lives on another mesh")
        if isinstance(value, FEFunction):
            point_data.append((name, value.coefficients, 1))
        elif isinstance(value, IndicatorField):
            if np.shape(value.eta) != (nt,):
                raise InvalidArgumentError(f"field {name!r} needs one eta per triangle")
            cell_data.append((name, value.eta, 1))
        else:
            array = np.asarray(value, dtype=float)
            if array.shape == (nt,) and nt == nv:
                raise InvalidArgumentError(
                    f"field {name!r} could be vertex or triangle data: pass an FEFunction "
                    "for point data or an (nt, 1) array for cell data")
            if array.ndim and len(array) == nt:
                cell_data.append((name, array, array.size // nt))
            elif array.shape == (nv,):
                point_data.append((name, array, 1))
            else:
                raise InvalidArgumentError(
                    f"field {name!r} matches neither vertex nor triangle count")

    def data_array(vtk_type, values, dtype, name=None, components=None):
        attributes = f'type="{vtk_type}"'
        if name is not None:
            attributes += f' Name="{_attribute(name)}"'
        if components is not None:
            attributes += f' NumberOfComponents="{components}"'
        return [f'        <DataArray {attributes} format="binary">',
                '          ' + _binary(values, dtype),
                '        </DataArray>']

    points = np.column_stack([mesh.vertex_coords, np.zeros(nv)])
    chunks = [
        '<?xml version="1.0"?>',
        '<VTKFile type="UnstructuredGrid" version="0.1" byte_order="LittleEndian">',
        '  <UnstructuredGrid>',
        f'    <Piece NumberOfPoints="{nv}" NumberOfCells="{nt}">',
        '      <Points>',
        *data_array("Float64", points, "<f8", components=3),
        '      </Points>',
        '      <Cells>',
        *data_array("Int64", mesh.triangle_vertices, "<i8", "connectivity"),
        *data_array("Int64", 3 * np.arange(1, nt + 1), "<i8", "offsets"),
        *data_array("UInt8", np.full(nt, 5, dtype=np.uint8), "u1", "types"),
        '      </Cells>',
    ]
    for tag, entries in (("PointData", point_data), ("CellData", cell_data)):
        chunks.append(f'      <{tag}>')
        for name, array, components in entries:
            chunks += data_array("Float64", array, "<f8", name, components)
        chunks.append(f'      </{tag}>')
    chunks += ['    </Piece>', '  </UnstructuredGrid>', '</VTKFile>', '']
    try:
        with open(path, "w") as stream:
            stream.write("\n".join(chunks))
    except OSError as failure:
        raise OSError(f"cannot write VTU to {path}: {failure}") from failure
