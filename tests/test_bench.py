import csv
import hashlib
import logging
import re
import weakref
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from inflap import (AdaptiveConfig, AdaptiveHistory, DivergenceError, EOCTable,
                    IndicatorField, InvalidArgumentError, SolverConfig, SolverFailure,
                    adaptive_solve, build_initial_mesh, convergence_study, estimate,
                    fixed_point_solve, refine, registry, write_csv, write_vtu)
from inflap.adapt import CycleRecord
from inflap.cli import main
from inflap.hessian import fe_hessian
from inflap.solver import PHASES
import inflap
import inflap.adapt
import inflap.bench
import inflap.cli
import inflap.estimator
import inflap.solver

from conftest import VTK_TYPES, decode_vtu_array, interpolate, oracle_meshes


# -------------------------------------------------------------------- registry

def test_registry_contents():
    problems = registry()
    assert set(problems) >= {"classical", "aronsson"}

    classical = problems["classical"].data
    assert classical.exact_solution(1.0, 1.0) == pytest.approx(2.0)
    assert float(classical.f(0.123, -0.4)) == pytest.approx(2.0)
    assert classical.tau == 1000.0

    aronsson = problems["aronsson"].data
    assert aronsson.exact_solution(1.0, 0.0) == pytest.approx(1.0)
    assert aronsson.exact_solution(0.0, 1.0) == pytest.approx(-1.0)
    for t in np.linspace(-1.0, 1.0, 7):
        assert aronsson.exact_solution(t, t) == pytest.approx(0.0)
    assert np.all(np.asarray(aronsson.f(np.linspace(-1, 1, 5),
                                        np.linspace(-1, 1, 5))) == 0.0)
    gx, gy = aronsson.exact_gradient(0.0, 0.5)
    assert gx == pytest.approx(0.0)
    assert aronsson.tau == 1.0
    assert problems["aronsson"].adaptive_tau == pytest.approx(0.1)


# ------------------------------------------------------------------ EOC tables

@pytest.fixture(scope="module")
def small_study():
    return convergence_study("classical", 3, tau=1000.0)


def test_study_shape(small_study):
    rows = small_study.rows
    assert len(rows) == 3
    assert rows[0].l2_eoc is None and rows[0].h1_eoc is None
    for coarse, fine in zip(rows, rows[1:]):
        assert fine.h == pytest.approx(0.5 * coarse.h)
        assert fine.dofs > coarse.dofs


def test_study_eoc_arithmetic(small_study):
    rows = small_study.rows
    for coarse, fine in zip(rows, rows[1:]):
        recomputed = np.log(coarse.l2_error / fine.l2_error) / \
            np.log(coarse.h / fine.h)
        assert fine.l2_eoc == pytest.approx(recomputed, abs=1e-12)
        recomputed = np.log(coarse.estimator / fine.estimator) / \
            np.log(coarse.h / fine.h)
        assert fine.estimator_eoc == pytest.approx(recomputed, abs=1e-12)


def test_study_keeps_one_mesh_generation_alive(monkeypatch):
    # each level's mesh is gone, with its solution and indicators, before the
    # next level's Hessian operator is built
    seen = []
    real_operator = inflap.solver.hessian_operator

    def watching(mesh):
        assert [ref() for ref in seen] == [None] * len(seen)
        seen.append(weakref.ref(mesh))
        return real_operator(mesh)

    monkeypatch.setattr(inflap.solver, "hessian_operator", watching)
    convergence_study("aronsson", 3, initial_n=2)
    assert len(seen) == 3


def test_study_rejects_unknown_problem():
    with pytest.raises(InvalidArgumentError):
        convergence_study("nonexistent", 2)


def test_study_takes_a_registry_name_not_a_problem():
    with pytest.raises(InvalidArgumentError):
        convergence_study(registry()["classical"], 2)


# ------------------------------------------------------------------------- CSV

def test_csv_header_only_for_empty_table(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(EOCTable(problem="classical"), path)
    text = path.read_text()
    assert text == ("level,h,dofs,l2_error,l2_eoc,h1_error,h1_eoc,"
                    "estimator,estimator_eoc,iterations,converged,residual\n")


def test_csv_roundtrip_bit_exact(small_study, tmp_path):
    path = tmp_path / "study.csv"
    write_csv(small_study, path)
    with open(path, newline="") as stream:
        rows = list(csv.DictReader(stream))
    assert len(rows) == len(small_study.rows)
    for parsed, row in zip(rows, small_study.rows):
        assert int(parsed["level"]) == row.level
        assert float(parsed["h"]) == row.h
        assert float(parsed["l2_error"]) == row.l2_error
        assert float(parsed["estimator"]) == row.estimator
        assert parsed["l2_eoc"] == "" or float(parsed["l2_eoc"]) == row.l2_eoc
        assert parsed["converged"] == "1"
    assert rows[0]["l2_eoc"] == ""


def test_csv_adaptive_history(tmp_path):
    history = AdaptiveHistory(records=[
        CycleRecord(cycle=0, dofs=41, triangles=64, estimator=1.25,
                    estimator_l1=5.5, iterations=2, converged=True,
                    l2_error=0.1, h1_error=None, residual=0.5)])
    path = tmp_path / "history.csv"
    write_csv(history, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("cycle,dofs,triangles,estimator,estimator_l1,"
                        "iterations,converged,l2_error,h1_error,residual")
    assert lines[1] == "0,41,64,1.25,5.5,2,1,0.10000000000000001,,0.5"  # empty h1_error


def test_unconverged_solves_reach_the_csvs(tmp_path, caplog):
    # one iteration against an unreachable tolerance stops every solve early
    solver = SolverConfig(max_iterations=1, increment_tol_factor=1e-12)
    with caplog.at_level(logging.WARNING, logger="inflap"):
        table = convergence_study("aronsson", 2, solver_config=solver)
        _, _, history = adaptive_solve(registry()["aronsson"].data, build_initial_mesh(4),
                                       AdaptiveConfig(estimator_tol=1e-9, max_cycles=2,
                                                      solver=solver))
    for payload, name in ((table, "eoc.csv"), (history, "history.csv")):
        write_csv(payload, tmp_path / name)
        with open(tmp_path / name, newline="") as stream:
            rows = list(csv.DictReader(stream))
        assert len(rows) == 2
        assert [row["converged"] for row in rows] == ["0", "0"]
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    for where in ("level 0", "level 1", "cycle 0", "cycle 1"):
        assert any(message.startswith(f"{where}: fixed-point solve did not converge")
                   for message in warnings)
    # the run ends at its cycle budget above its estimator tolerance, and says so
    missed = [r.getMessage() for r in caplog.records
              if r.name == "inflap.adapt" and r.levelno == logging.WARNING
              and r.getMessage().startswith("adaptive run stopped")]
    last = history.records[-1]
    assert missed == [f"adaptive run stopped after 2 cycles at {last.dofs} dofs with "
                      f"estimator {last.estimator:.4e} above its tolerance 1e-09"]


def test_levels_and_cycles_log_their_factorizations_and_lu_solves(monkeypatch, caplog):
    reports = []
    real_solve = inflap.adapt.fixed_point_solve

    def recording(*args, **kwargs):
        reports.append(real_solve(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(inflap.adapt, "fixed_point_solve", recording)
    solver = SolverConfig(increment_tol_factor=0.01)
    with caplog.at_level(logging.INFO, logger="inflap"):
        convergence_study("aronsson", 2, solver_config=solver)
        adaptive_solve(registry()["aronsson"].data, build_initial_mesh(4),
                       AdaptiveConfig(estimator_tol=1e-9, max_cycles=2, solver=solver))
    lines = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    assert len(lines) == len(reports) == 4
    assert max(sum(report.linear_iterations) for report in reports) > 0
    for line, report in zip(lines, reports):
        counts, seconds = line.split(", seconds ")
        assert counts.endswith(f"float64 fallbacks {report.fallbacks}, factorizations "
                               f"{report.factorizations}, refinement LU solves "
                               f"{sum(report.linear_iterations)}, residual "
                               f"{report.residuals[-1]:.4e}")
        assert len(report.residuals) == report.iterations + 1
        # the solve's phases, then the estimate's and the error norms'
        words = seconds.split()
        assert words[::2] == [*PHASES, "estimate", "errors"]
        assert all(float(value) >= 0.0 for value in words[1::2])
    assert [line.split(":")[0] for line in lines] == ["level 0", "level 1",
                                                      "cycle 0", "cycle 1"]


def test_levels_and_cycles_share_one_measurement(caplog):
    # level 0 and cycle 0 solve the same mesh from the same Poisson start
    with caplog.at_level(logging.INFO, logger="inflap"):
        table = convergence_study("aronsson", 1, tau=0.1)
        _, _, history = adaptive_solve(registry()["aronsson"].data, build_initial_mesh(4),
                                       AdaptiveConfig(estimator_tol=1e9, tau=0.1))
    row, record = table.rows[0], history.records[0]
    for name in ("dofs", "estimator", "iterations", "converged", "l2_error", "h1_error",
                 "residual"):
        assert getattr(row, name) == getattr(record, name), name
    lines = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    assert len(lines) == 2
    # the adaptive run meets its tolerance, so it warns of nothing
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
    assert lines[0].startswith("level 0: ") and lines[1].startswith("cycle 0: ")
    # equal but for the phase times
    counts = [line.split(", seconds ")[0] for line in lines]
    assert counts[0].removeprefix("level 0: ") == counts[1].removeprefix("cycle 0: ")


def test_csv_rejects_unknown_payload(tmp_path):
    with pytest.raises(InvalidArgumentError):
        write_csv([1, 2, 3], tmp_path / "bad.csv")


# ------------------------------------------------------------------------- VTU

def test_vtu_geometry_roundtrip(tmp_path):
    mesh = build_initial_mesh(2)
    path = tmp_path / "mesh.vtu"
    write_vtu(mesh, {}, path)
    root = ET.parse(path).getroot()
    piece = root.find(".//Piece")
    assert int(piece.get("NumberOfPoints")) == mesh.vertex_count
    assert int(piece.get("NumberOfCells")) == mesh.triangle_count

    points = decode_vtu_array(piece.find("./Points/DataArray"))
    assert np.array_equal(points[:, :2], mesh.vertex_coords)
    arrays = {a.get("Name"): a for a in piece.find("./Cells")}
    connectivity = decode_vtu_array(arrays["connectivity"]).reshape(-1, 3)
    assert np.array_equal(connectivity, mesh.triangle_vertices)
    offsets = decode_vtu_array(arrays["offsets"])
    assert np.array_equal(offsets, 3 * np.arange(1, mesh.triangle_count + 1))
    types = decode_vtu_array(arrays["types"])
    assert types.dtype == np.uint8 and len(types) == mesh.triangle_count
    assert np.all(types == 5)


def test_vtu_field_lengths(tmp_path):
    mesh = build_initial_mesh(2)
    u = interpolate(mesh, lambda x, y: x * y)
    tensor = fe_hessian(u)
    indicator = estimate(u, lambda x, y: np.ones(np.shape(x)))
    path = tmp_path / "fields.vtu"
    write_vtu(mesh, {"solution": u, "hess": tensor, "eta": indicator}, path)

    piece = ET.parse(path).getroot().find(".//Piece")
    point_arrays = {a.get("Name"): a for a in piece.find("./PointData")}
    cell_arrays = {a.get("Name"): a for a in piece.find("./CellData")}
    solution = decode_vtu_array(point_arrays["solution"])
    assert len(solution) == mesh.vertex_count
    assert np.array_equal(solution, u.coefficients)
    hess = decode_vtu_array(cell_arrays["hess"])
    assert int(cell_arrays["hess"].get("NumberOfComponents")) == 4
    assert np.array_equal(hess, tensor.reshape(-1, 4))
    eta = decode_vtu_array(cell_arrays["eta"])
    assert len(eta) == mesh.triangle_count
    assert np.array_equal(eta, indicator.eta)


SPECIAL_VALUES = np.array([0.0, -0.0, 1e-300, -2.5e300, np.pi, 1.0 / 3.0, np.inf, -np.inf,
                           np.nan, 5e-324, -5e-324])


def assert_same_bits(decoded, expected):
    assert (decoded.dtype, decoded.shape) == (expected.dtype, expected.shape)
    assert decoded.tobytes() == expected.tobytes()


def test_vtu_arrays_decode_bit_for_bit(tmp_path):
    # special, empty and single-entry arrays through the array encoder alone
    for values, vtk_type in [(SPECIAL_VALUES, "Float64"), (np.zeros(0), "Float64"),
                             (np.array([-0.0]), "Float64"), (np.array([5e-324]), "Float64"),
                             (np.arange(-7, 20), "Int64"), (np.zeros(0, dtype=np.int64), "Int64"),
                             (np.array([255], dtype=np.uint8), "UInt8")]:
        element = ET.Element("DataArray", type=vtk_type, format="binary")
        element.text = inflap.bench._binary(values, VTK_TYPES[vtk_type])
        assert_same_bits(decode_vtu_array(element), values)

    for k, mesh in enumerate(oracle_meshes()):
        nv, nt = mesh.vertex_count, mesh.triangle_count
        u = interpolate(mesh, lambda x, y: np.sin(3.0 * x) * y - 0.0)
        hess = fe_hessian(u)
        eta = estimate(u, lambda x, y: np.ones(np.shape(x)))
        fields = {"solution": u, "zero": -np.zeros(nv), "special": np.resize(SPECIAL_VALUES, nv),
                  "hess": hess, "eta": eta,
                  "special cells": np.resize(SPECIAL_VALUES[::-1], (nt, 3))}
        expected = {"PointData": {"solution": u.coefficients, "zero": fields["zero"],
                                  "special": fields["special"]},
                    "CellData": {"hess": hess.reshape(nt, 4), "eta": eta.eta,
                                 "special cells": fields["special cells"]}}
        path = tmp_path / f"mesh{k}.vtu"
        write_vtu(mesh, fields, path)

        piece = ET.parse(path).getroot().find(".//Piece")
        points = decode_vtu_array(piece.find("./Points/DataArray"))
        assert_same_bits(points, np.column_stack([mesh.vertex_coords, np.zeros(nv)]))
        cells = {a.get("Name"): decode_vtu_array(a) for a in piece.find("./Cells")}
        assert_same_bits(cells["connectivity"], mesh.triangle_vertices.reshape(-1))
        assert_same_bits(cells["offsets"], 3 * np.arange(1, nt + 1, dtype=np.int64))
        assert_same_bits(cells["types"], np.full(nt, 5, dtype=np.uint8))
        for tag, arrays in expected.items():
            decoded = {a.get("Name"): decode_vtu_array(a) for a in piece.find(tag)}
            assert decoded.keys() == arrays.keys()
            for name, values in arrays.items():
                assert_same_bits(decoded[name], values)


def test_vtu_field_names_are_escaped(tmp_path):
    mesh = build_initial_mesh(1)
    names = ['a"b', "u<0", "x&y", "<&'>"]
    path = tmp_path / "names.vtu"
    write_vtu(mesh, {name: np.arange(mesh.vertex_count, dtype=float) for name in names}, path)
    arrays = ET.parse(path).getroot().find(".//PointData")
    assert [a.get("Name") for a in arrays] == names


def test_vtu_field_names_keep_whitespace_and_reject_what_xml_cannot_hold(tmp_path):
    # a parser reads a literal tab, newline or CR in an attribute as a space
    mesh = build_initial_mesh(1)
    values = np.arange(mesh.vertex_count, dtype=float)
    names = ["a\tb", "a\nb", "a\rb", "\r\n"]
    path = tmp_path / "whitespace.vtu"
    write_vtu(mesh, {name: values for name in names}, path)
    arrays = ET.parse(path).getroot().find(".//PointData")
    assert [a.get("Name") for a in arrays] == names
    for name in ["a\x01b", "\x00", "a\x0bb", "\x1f", "\ud800", "\ufffe"]:
        refused = tmp_path / "refused.vtu"
        with pytest.raises(InvalidArgumentError):
            write_vtu(mesh, {"ok": values, name: values}, refused)
        assert not refused.exists()


# sha256 of the file below; the decode tests read by name, so only this pins
# the header layout (element and attribute order, indentation)
PINNED_VTU_SHA256 = "0657297df5ee0e61ed9bda38f12062f84ae03225f5350050a6812b7ceca38662"


def test_vtu_layout_is_pinned(tmp_path):
    # every field kind, with exactly representable values only
    mesh = build_initial_mesh(2)
    nv, nt = mesh.vertex_count, mesh.triangle_count
    eta = np.arange(nt) / 4.0
    indicators = IndicatorField(mesh, eta, float(eta.sum()), 1.0)
    fields = {"solution": interpolate(mesh, lambda x, y: x + 2.0 * y), "indicator": indicators,
              "hessian": np.arange(4 * nt).reshape(nt, 2, 2) / 8.0,
              "vertex ids": np.arange(nv), 'u<0 & "v"': -np.arange(nv) / 2.0}
    path = tmp_path / "pinned.vtu"
    write_vtu(mesh, fields, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_VTU_SHA256


def test_vtu_rejects_odd_field_length(tmp_path):
    mesh = build_initial_mesh(1)
    with pytest.raises(InvalidArgumentError):
        write_vtu(mesh, {"bad": np.zeros(17)}, tmp_path / "bad.vtu")
    with pytest.raises(InvalidArgumentError):
        write_vtu(mesh, {"bad": np.zeros((mesh.vertex_count, 2))}, tmp_path / "bad.vtu")
    # a P1 function or indicator field of another mesh
    other = interpolate(build_initial_mesh(2), lambda x, y: x + y)
    with pytest.raises(InvalidArgumentError):
        write_vtu(mesh, {"u": other}, tmp_path / "bad.vtu")
    ones = lambda x, y: np.ones(np.shape(x))
    with pytest.raises(InvalidArgumentError):
        write_vtu(mesh, {"eta": estimate(other, ones)}, tmp_path / "bad.vtu")
    # indicators of another mesh with the same triangle count (17 each)
    left, right = refine(build_initial_mesh(2), {3}), refine(build_initial_mesh(2), {0})
    assert left.triangle_count == right.triangle_count
    foreign = estimate(interpolate(left, lambda x, y: x + y), ones)
    with pytest.raises(InvalidArgumentError, match="another mesh"):
        write_vtu(right, {"eta": foreign}, tmp_path / "bad.vtu")
    # indicators of this mesh with 3 eta values for its 4 triangles
    short = IndicatorField(mesh, np.ones(3), 1.0, 1.0)
    with pytest.raises(InvalidArgumentError, match="one eta per triangle"):
        write_vtu(mesh, {"eta": short}, tmp_path / "bad.vtu")
    assert not (tmp_path / "bad.vtu").exists()


def test_vtu_rejects_a_flat_array_when_vertices_and_triangles_tie(tmp_path):
    # 8 vertices and 8 triangles: a flat raw array could be either, so it is
    # refused, while the typed fields and an (nt, 1) array keep their place
    mesh = refine(refine(build_initial_mesh(1), [0]), [0])
    assert mesh.vertex_count == mesh.triangle_count == 8
    with pytest.raises(InvalidArgumentError, match=r"FEFunction.*\(nt, 1\)"):
        write_vtu(mesh, {"v": np.arange(8.0)}, tmp_path / "bad.vtu")
    assert not (tmp_path / "bad.vtu").exists()

    u = interpolate(mesh, lambda x, y: x - 2.0 * y)
    indicator = estimate(u, lambda x, y: np.ones(np.shape(x)))
    column = np.arange(8.0)[:, None]
    path = tmp_path / "tie.vtu"
    write_vtu(mesh, {"u": u, "eta": indicator, "column": column}, path)
    piece = ET.parse(path).getroot().find(".//Piece")
    point_arrays = {a.get("Name"): a for a in piece.find("./PointData")}
    cell_arrays = {a.get("Name"): a for a in piece.find("./CellData")}
    assert point_arrays.keys() == {"u"} and cell_arrays.keys() == {"eta", "column"}
    assert np.array_equal(decode_vtu_array(point_arrays["u"]), u.coefficients)
    assert np.array_equal(decode_vtu_array(cell_arrays["eta"]), indicator.eta)
    assert np.array_equal(decode_vtu_array(cell_arrays["column"]), column.ravel())


# ------------------------------------------------------------------------- CLI

def test_cli_unknown_problem_exits_2(tmp_path, capsys):
    assert main(["solve", "--problem", "nonexistent",
                 "--out", str(tmp_path)]) == 2


def test_cli_missing_subcommand_exits_2():
    assert main([]) == 2
    assert main(["check"]) == 2     # no such subcommand


def test_cli_subcommands_list_shared_options_with_library_defaults(capsys):
    shared = {"--tau": None, "--tol-factor": SolverConfig().increment_tol_factor,
              "--max-iters": SolverConfig().max_iterations, "--initial-n": 4, "--out": None}
    adapt_only = {"--theta": AdaptiveConfig(1.0).theta,
                  "--max-cycles": AdaptiveConfig(1.0).max_cycles,
                  "--dof-budget": AdaptiveConfig(1.0).dof_budget}
    entries = {}
    for command in ("solve", "adapt"):
        assert main([command, "-h"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "--problem {aronsson,classical}" in text
        expected = shared if command == "solve" else {**shared, **adapt_only}
        entries[command] = {option: re.search(rf"{option} [A-Z_]+ (.*?\(default: (.*?)\))",
                                              text).groups()
                            for option in expected}
        assert {option: groups[1] for option, groups in entries[command].items()} == \
            {option: str(value) for option, value in expected.items()}
    assert all(entries["solve"][option] == entries["adapt"][option] for option in shared)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
@pytest.mark.parametrize("build", [lambda value: replace(registry()["classical"].data, tau=value),
                                   lambda value: SolverConfig(increment_tol_factor=value),
                                   lambda value: AdaptiveConfig(estimator_tol=value),
                                   lambda value: AdaptiveConfig(estimator_tol=1.0, tau=value)],
                         ids=["tau", "increment-tol-factor", "estimator-tol", "adaptive-tau"])
def test_settings_must_be_positive_and_finite(build, value):
    with pytest.raises(InvalidArgumentError):
        build(value)


@pytest.mark.parametrize("value", [2.5, 3.0, True, 0])
@pytest.mark.parametrize("build", [lambda value: SolverConfig(max_iterations=value),
                                   lambda value: AdaptiveConfig(estimator_tol=1.0,
                                                                max_cycles=value),
                                   lambda value: AdaptiveConfig(estimator_tol=1.0,
                                                                dof_budget=value),
                                   lambda value: convergence_study("classical", value,
                                                                   initial_n=1)],
                         ids=["max-iterations", "max-cycles", "dof-budget", "study-levels"])
def test_counts_must_be_positive_integers(build, value):
    # a float count would otherwise only fail mid-run, in range()
    with pytest.raises(InvalidArgumentError):
        build(value)
    build(np.int64(3))


@pytest.mark.parametrize("argv", [["solve", "--levels", "1", "--tol-factor", "nan"],
                                  ["solve", "--levels", "1", "--tau", "nan"],
                                  ["adapt", "--tol", "nan"],
                                  ["adapt", "--tol", "0.1", "--tau", "inf"],
                                  ["solve", "--levels", "0"],
                                  ["solve", "--levels", "1", "--tau", "-1"],
                                  ["adapt", "--tol", "0.1", "--theta", "2"]],
                         ids=["solve-tol-factor", "solve-tau", "adapt-tol", "adapt-tau",
                              "solve-levels", "solve-negative-tau", "adapt-theta"])
def test_cli_non_finite_settings_exit_2(tmp_path, argv):
    # a rejected argument leaves no output directory behind
    out = tmp_path / "new"
    assert main(argv + ["--problem", "classical", "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("argv", [["solve", "--problem", "classical", "--levels", "1"],
                                  ["adapt", "--problem", "aronsson", "--tol", "0.5"]],
                         ids=["solve", "adapt"])
def test_cli_unusable_output_directory_exits_2(tmp_path, capsys, argv):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(argv + ["--out", str(blocker / "sub")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_unwritable_csv_exits_2(tmp_path, capsys):
    (tmp_path / "classical_eoc.csv").mkdir()
    assert main(["solve", "--problem", "classical", "--levels", "1",
                 "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write CSV")


def fail_on_third_solve(monkeypatch, module, iteration=None):
    """Make ``module``'s ``fixed_point_solve`` raise on its third call, at ``iteration``.

    Returns the list of the meshes it was called with.
    """
    real_solve = module.fixed_point_solve
    solves = []

    def failing_on_third_solve(*args, **kwargs):
        solves.append(args[0])
        if len(solves) == 3:
            raise SolverFailure("linear solve failed: stub", iteration=iteration)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(module, "fixed_point_solve", failing_on_third_solve)
    return solves


def test_study_failure_carries_the_finished_levels(monkeypatch):
    solves = fail_on_third_solve(monkeypatch, inflap.adapt)
    with pytest.raises(SolverFailure) as info:
        convergence_study("classical", 4, tau=1000.0)
    partial = info.value.partial
    assert isinstance(partial, EOCTable) and partial.problem == "classical"
    assert [(row.level, row.dofs) for row in partial.rows] == \
        [(0, solves[0].vertex_count), (1, solves[1].vertex_count)]


def test_adaptive_failure_carries_the_finished_cycles(monkeypatch):
    solves = fail_on_third_solve(monkeypatch, inflap.adapt)
    with pytest.raises(SolverFailure) as info:
        adaptive_solve(registry()["aronsson"].data, build_initial_mesh(4),
                       AdaptiveConfig(estimator_tol=1e-6, tau=0.1))
    partial = info.value.partial
    assert isinstance(partial, AdaptiveHistory)
    assert [(record.cycle, record.dofs) for record in partial.records] == \
        [(0, solves[0].vertex_count), (1, solves[1].vertex_count)]


def test_failure_outside_a_driver_carries_nothing(monkeypatch):
    def poisoned(lu, rhs):
        return np.full_like(rhs, np.nan)

    mesh = build_initial_mesh(2)
    start = interpolate(mesh, lambda x, y: x + y)
    monkeypatch.setattr(inflap.solver.PermutedLU, "solve", poisoned)
    with pytest.raises(SolverFailure) as info:
        fixed_point_solve(mesh, registry()["classical"].data, initial=start)
    assert info.value.iteration == 1 and info.value.partial is None


def test_cli_solve_failure_keeps_the_finished_levels(tmp_path, monkeypatch, capsys):
    fail_on_third_solve(monkeypatch, inflap.adapt)
    assert main(["solve", "--problem", "classical", "--levels", "4", "--tau", "1000",
                 "--out", str(tmp_path)]) == 1
    # the failure has no iteration, as for a failed Poisson start
    assert capsys.readouterr().err == "error: level 2: linear solve failed: stub\n"
    lines = (tmp_path / "classical_eoc.csv").read_text().splitlines()
    assert lines[0].startswith("level,h,dofs,")
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1"]


def test_cli_adapt_failure_keeps_the_finished_cycles(tmp_path, monkeypatch, capsys):
    solves = fail_on_third_solve(monkeypatch, inflap.adapt, iteration=3)
    assert main(["adapt", "--problem", "aronsson", "--tol", "1e-6",
                 "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: cycle 2, iteration 3: linear solve failed: stub\n"
    with open(tmp_path / "aronsson_adapt_history.csv", newline="") as stream:
        rows = list(csv.DictReader(stream))
    assert [(row["cycle"], row["dofs"]) for row in rows] == \
        [("0", str(solves[0].vertex_count)), ("1", str(solves[1].vertex_count))]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["aronsson_adapt_history.csv"]


@pytest.mark.parametrize("argv, where", [
    (["solve", "--problem", "classical", "--levels", "2"], "level 0"),
    (["adapt", "--problem", "aronsson", "--tol", "0.5"], "cycle 0")], ids=["solve", "adapt"])
def test_cli_divergence_exits_1(tmp_path, monkeypatch, capsys, argv, where):
    # a DivergenceError is a SolverFailure, so both runners report it alike
    def diverging(*args, **kwargs):
        raise DivergenceError("increments grew tenfold over five iterations (stub)",
                              iteration=6)

    monkeypatch.setattr(inflap.adapt, "fixed_point_solve", diverging)
    assert main(argv + ["--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {where}, iteration 6: increments grew tenfold")
    assert list(tmp_path.iterdir()) == []


def test_cli_names_a_failed_poisson_start(tmp_path, monkeypatch, capsys):
    # a real failed solve: the first level's Poisson start gets a NaN
    # solution, so no fixed-point iteration is named
    def poisoned(lu, rhs):
        return np.full_like(rhs, np.nan)

    monkeypatch.setattr(inflap.solver.PermutedLU, "solve", poisoned)
    assert main(["solve", "--problem", "classical", "--levels", "2",
                 "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == \
        "error: level 0: linear solve reached relative residual inf (tolerance 1.0e-10)\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, tau", [
    (["solve", "--problem", "classical", "--levels", "1"], 1000.0),
    (["solve", "--problem", "aronsson", "--levels", "1"], 1.0),
    (["adapt", "--problem", "classical", "--tol", "1e9"], 1.0),
    (["adapt", "--problem", "aronsson", "--tol", "1e9"], 0.1)],
    ids=["solve-classical", "solve-aronsson", "adapt-classical", "adapt-aronsson"])
def test_cli_tau_defaults(tmp_path, monkeypatch, argv, tau):
    # without --tau, solve runs with ProblemData.tau and adapt with
    # BenchmarkProblem.adaptive_tau
    taus = []
    real_solve = inflap.adapt.fixed_point_solve

    def recording(mesh, problem, *args, **kwargs):
        taus.append(problem.tau)
        return real_solve(mesh, problem, *args, **kwargs)

    monkeypatch.setattr(inflap.adapt, "fixed_point_solve", recording)
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert taus == [tau]


def test_cli_solve_produces_outputs(tmp_path):
    out = tmp_path / "run"
    code = main(["solve", "--problem", "classical", "--levels", "2",
                 "--tau", "1000", "--out", str(out)])
    assert code == 0
    assert (out / "classical_eoc.csv").exists()
    for level in (0, 1):
        piece = ET.parse(out / f"classical_level{level}.vtu").getroot().find(".//Piece")
        solution = decode_vtu_array(piece.find("./PointData/DataArray"))
        assert len(solution) == int(piece.get("NumberOfPoints"))


def test_cli_adapt_produces_outputs(tmp_path):
    out = tmp_path / "run"
    code = main(["adapt", "--problem", "aronsson", "--tol", "0.6",
                 "--tau", "0.1", "--max-cycles", "12", "--out", str(out)])
    assert code == 0
    history = (out / "aronsson_adapt_history.csv").read_text().splitlines()
    assert len(history) >= 2
    final_estimate = float(history[-1].split(",")[3])
    assert final_estimate <= 0.6
    # the final VTU indicator comes from the same pair as the history
    piece = ET.parse(out / "aronsson_adapt_final.vtu").getroot().find(".//Piece")
    cell_arrays = {a.get("Name"): a for a in piece.find("./CellData")}
    eta = decode_vtu_array(cell_arrays["indicator"])
    assert np.sqrt((eta ** 2).sum()) == pytest.approx(final_estimate, rel=1e-13)


# sha256 of ``inflap adapt --problem aronsson --tol 0.3 --tau 0.1``'s final VTU
PINNED_ADAPT_VTU_SHA256 = "6533796e2a4e3b81768c09f23c4509c616e2e23e134c99482f60cc5c80c7bfc9"


def test_cli_adapt_estimates_once_per_cycle(tmp_path, monkeypatch):
    # the final VTU takes the last cycle's indicators from the history
    # instead of estimating the final solution again
    calls = []

    def counting(*args):
        calls.append(args)
        return estimate(*args)

    for module in (inflap, inflap.estimator, inflap.adapt, inflap.bench, inflap.cli):
        for name, value in list(vars(module).items()):
            if value is estimate:
                monkeypatch.setattr(module, name, counting)
    assert main(["adapt", "--problem", "aronsson", "--tol", "0.3", "--tau", "0.1",
                 "--out", str(tmp_path)]) == 0
    cycles = len((tmp_path / "aronsson_adapt_history.csv").read_text().splitlines()) - 1
    assert cycles == len(calls) == 18
    final = tmp_path / "aronsson_adapt_final.vtu"
    assert hashlib.sha256(final.read_bytes()).hexdigest() == PINNED_ADAPT_VTU_SHA256


def test_cli_estimator_trace_flag(tmp_path):
    # neither subcommand has an estimator switch
    assert main(["solve", "--problem", "aronsson", "--levels", "1",
                 "--estimator-hessian-trace", "--out", str(tmp_path)]) == 2
    assert main(["adapt", "--problem", "aronsson", "--tol", "0.5",
                 "--estimator-hessian-trace", "--out", str(tmp_path)]) == 2
    assert list(tmp_path.iterdir()) == []


def test_cli_respects_environment_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("INFLAP_OUT", str(tmp_path / "envout"))
    assert main(["solve", "--problem", "classical", "--levels", "1",
                 "--tau", "1000"]) == 0
    assert (tmp_path / "envout" / "classical_eoc.csv").exists()


def test_cli_log_level_shows_iterations(tmp_path, caplog):
    try:
        assert main(["--log-level", "DEBUG", "solve", "--problem", "classical",
                     "--levels", "1", "--tau", "1000", "--out", str(tmp_path)]) == 0
    finally:
        logging.getLogger("inflap").setLevel(logging.NOTSET)
    lines = [r.getMessage() for r in caplog.records if r.name == "inflap.solver"]
    assert lines and lines[0].startswith("iteration 1: increment")
    assert "linear residual" in lines[0] and "factorizations 1" in lines[0]
    assert "steady residual of its start" in lines[0]
    assert re.search(r"L\+U fill [1-9]\d*$", lines[0])
    assert any(r.name == "inflap.adapt" and r.levelno == logging.INFO
               for r in caplog.records)

