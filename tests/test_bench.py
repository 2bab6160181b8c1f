import csv
import logging
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from inflap import (AdaptiveConfig, AdaptiveHistory, CycleRecord, EOCTable,
                    FEFunction, InvalidArgumentError, SolverConfig,
                    SpaceP0Tensor, SpaceP1, adaptive_solve, build_initial_mesh,
                    convergence_study, estimate, interpolate, registry,
                    write_csv, write_vtu)
from inflap.cli import main


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


def test_study_rejects_unknown_problem():
    with pytest.raises(InvalidArgumentError):
        convergence_study("nonexistent", 2)


# ------------------------------------------------------------------------- CSV

def test_csv_header_only_for_empty_table(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(EOCTable(problem="classical"), path)
    text = path.read_text()
    assert text == ("level,h,dofs,l2_error,l2_eoc,h1_error,h1_eoc,"
                    "estimator,estimator_eoc,iterations,converged\n")


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
                    l2_error=0.1, h1_error=None)])
    path = tmp_path / "history.csv"
    write_csv(history, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("cycle,dofs,triangles,estimator,estimator_l1,"
                        "iterations,converged,l2_error,h1_error")
    assert lines[1] == "0,41,64,1.25,5.5,2,1,0.10000000000000001,"  # empty h1_error


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

    points = np.fromstring(piece.find("./Points/DataArray").text.replace("\n", " "),
                           sep=" ").reshape(-1, 3)
    assert np.array_equal(points[:, :2], mesh.vertex_coords)
    arrays = {a.get("Name"): a for a in piece.find("./Cells")}
    connectivity = np.fromstring(arrays["connectivity"].text.replace("\n", " "),
                                 sep=" ", dtype=np.int64).reshape(-1, 3)
    assert np.array_equal(connectivity, mesh.triangle_vertices)
    types = np.fromstring(arrays["types"].text.replace("\n", " "), sep=" ")
    assert np.all(types == 5)


def test_vtu_field_lengths(tmp_path):
    mesh = build_initial_mesh(2)
    u = interpolate(SpaceP1(mesh), lambda x, y: x * y)
    tensor = FEFunction(SpaceP0Tensor(mesh),
                        np.arange(4.0 * mesh.triangle_count))
    indicator = estimate(mesh, u, u, lambda x, y: np.ones(np.shape(x)), tau=1.0)
    path = tmp_path / "fields.vtu"
    write_vtu(mesh, {"solution": u, "hess": tensor, "eta": indicator}, path)

    piece = ET.parse(path).getroot().find(".//Piece")
    point_arrays = {a.get("Name"): a for a in piece.find("./PointData")}
    cell_arrays = {a.get("Name"): a for a in piece.find("./CellData")}
    solution = np.fromstring(point_arrays["solution"].text.replace("\n", " "), sep=" ")
    assert len(solution) == mesh.vertex_count
    assert np.array_equal(solution, u.coefficients)
    hess = np.fromstring(cell_arrays["hess"].text.replace("\n", " "), sep=" ")
    assert len(hess) == 4 * mesh.triangle_count
    assert int(cell_arrays["hess"].get("NumberOfComponents")) == 4
    eta = np.fromstring(cell_arrays["eta"].text.replace("\n", " "), sep=" ")
    assert len(eta) == mesh.triangle_count


def test_vtu_rejects_odd_field_length(tmp_path):
    mesh = build_initial_mesh(1)
    with pytest.raises(InvalidArgumentError):
        write_vtu(mesh, {"bad": np.zeros(17)}, tmp_path / "bad.vtu")


# ------------------------------------------------------------------------- CLI

def test_cli_unknown_problem_exits_2(tmp_path, capsys):
    assert main(["solve", "--problem", "nonexistent",
                 "--out", str(tmp_path)]) == 2


def test_cli_missing_subcommand_exits_2():
    assert main([]) == 2
    assert main(["check"]) == 2     # no such subcommand


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0])
@pytest.mark.parametrize("build", [lambda value: replace(registry()["classical"].data, tau=value),
                                   lambda value: SolverConfig(increment_tol_factor=value),
                                   lambda value: AdaptiveConfig(estimator_tol=value)],
                         ids=["tau", "increment-tol-factor", "estimator-tol"])
def test_settings_must_be_positive_and_finite(build, value):
    with pytest.raises(InvalidArgumentError):
        build(value)


@pytest.mark.parametrize("argv", [["solve", "--levels", "1", "--tol-factor", "nan"],
                                  ["solve", "--levels", "1", "--tau", "nan"],
                                  ["adapt", "--tol", "nan"],
                                  ["adapt", "--tol", "0.1", "--tau", "inf"]],
                         ids=["solve-tol-factor", "solve-tau", "adapt-tol", "adapt-tau"])
def test_cli_non_finite_settings_exit_2(tmp_path, argv):
    assert main(argv + ["--problem", "classical", "--out", str(tmp_path)]) == 2
    assert list(tmp_path.iterdir()) == []


def test_cli_solve_produces_outputs(tmp_path):
    out = tmp_path / "run"
    code = main(["solve", "--problem", "classical", "--levels", "2",
                 "--tau", "1000", "--out", str(out)])
    assert code == 0
    assert (out / "classical_eoc.csv").exists()
    assert (out / "classical_level0.vtu").exists()
    assert (out / "classical_level1.vtu").exists()


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
    eta = np.fromstring(cell_arrays["indicator"].text.replace("\n", " "), sep=" ")
    assert np.sqrt((eta ** 2).sum()) == pytest.approx(final_estimate, rel=1e-13)


def test_cli_estimator_trace_flag(tmp_path):
    base, traced = tmp_path / "base", tmp_path / "traced"
    args = ["solve", "--problem", "aronsson", "--levels", "2", "--tau", "1"]
    assert main(args + ["--out", str(base)]) == 0
    assert main(args + ["--estimator-hessian-trace", "--out", str(traced)]) == 0
    column = lambda p: [line.split(",")[7] for line in
                        (p / "aronsson_eoc.csv").read_text().splitlines()[1:]]
    # the trace term moves the interior residual, so the estimators differ
    assert column(base) != column(traced)


def test_cli_respects_environment_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("INFLAP_OUT", str(tmp_path / "envout"))
    assert main(["solve", "--problem", "classical", "--levels", "1",
                 "--tau", "1000"]) == 0
    assert (tmp_path / "envout" / "classical_eoc.csv").exists()


def test_cli_determinism(tmp_path):
    args = ["solve", "--problem", "classical", "--levels", "3", "--tau", "1000"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    csv_a = (out_a / "classical_eoc.csv").read_bytes()
    csv_b = (out_b / "classical_eoc.csv").read_bytes()
    assert csv_a == csv_b


def test_cli_log_level_shows_iterations(tmp_path, caplog):
    try:
        assert main(["--log-level", "DEBUG", "solve", "--problem", "classical",
                     "--levels", "1", "--tau", "1000", "--out", str(tmp_path)]) == 0
    finally:
        logging.getLogger("inflap").setLevel(logging.NOTSET)
    lines = [r.getMessage() for r in caplog.records if r.name == "inflap.solver"]
    assert lines and lines[0].startswith("iteration 1: increment")
    assert "linear residual" in lines[0] and "factorizations 1" in lines[0]
    assert any(r.name == "inflap.bench" and r.levelno == logging.INFO
               for r in caplog.records)

