"""End-to-end acceptance suite.

Each criterion prints one PASS/FAIL line (run pytest -s to see them inline);
the diagnostic at the end prints its measurements and gates nothing.
The heavy studies are shared through session fixtures; the adaptive
efficiency comparison is the long pole at about 16 s (2 vCPU, BLAS on one
thread).
"""

import time

import numpy as np
import pytest

from inflap import (AdaptiveConfig, FEFunction, adaptive_solve, build_initial_mesh,
                    convergence_study, estimate, refine, registry, uniform_refine)
from inflap.cli import main
from inflap.fespace import gradients
from inflap.hessian import fe_hessian
from inflap.solver import Discretisation, apply_dirichlet, assemble_step, solve_linear
from conftest import (brute_conformity_errors, brute_saddle, integrate, interpolate,
                      min_angle_degrees, row_major_edge_table, weighted_residuals)

CLASSICAL = registry()["classical"].data
ARONSSON = registry()["aronsson"].data


def report(number, name, passed, detail):
    print(f"\nACCEPTANCE {number} ({name}): {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="module")
def classical_table():
    start = time.perf_counter()
    table = convergence_study("classical", 5, tau=1000.0)
    table.elapsed = time.perf_counter() - start
    return table


@pytest.fixture(scope="module")
def aronsson_table():
    start = time.perf_counter()
    table = convergence_study("aronsson", 5, tau=1.0)
    table.elapsed = time.perf_counter() - start
    return table


def test_criterion_1_classical_optimal_rates(classical_table):
    final = classical_table.rows[-1]
    ok = 1.8 <= final.l2_eoc <= 2.2 and 0.85 <= final.h1_eoc <= 1.15
    report(1, "classical optimal rates", ok,
           f"L2 EOC {final.l2_eoc:.3f} (window [1.8, 2.2]), "
           f"H1 EOC {final.h1_eoc:.3f} (window [0.85, 1.15]), "
           f"runtime {classical_table.elapsed:.1f}s")


def test_criterion_2_classical_iteration_counts(classical_table):
    counts = [row.iterations for row in classical_table.rows]
    ok = max(counts) <= 8
    note = "" if max(counts) <= 5 else " (exceeds the nominal 5)"
    report(2, "classical linearisation speed", ok,
           f"iterations per level {counts}, hard bound 8{note}")


def test_criterion_3_aronsson_suboptimal_rates(aronsson_table):
    final = aronsson_table.rows[-1]
    ok = 1.55 <= final.l2_eoc <= 2.05 and 0.6 <= final.h1_eoc <= 1.0
    report(3, "singular benchmark rates", ok,
           f"L2 EOC {final.l2_eoc:.3f} (window [1.55, 2.05]), "
           f"H1 EOC {final.h1_eoc:.3f} (window [0.6, 1.0]), "
           f"runtime {aronsson_table.elapsed:.1f}s")


def test_criterion_4_aronsson_iteration_bound(aronsson_table):
    counts = {1.0: [row.iterations for row in aronsson_table.rows]}
    counts[10.0] = [row.iterations
                    for row in convergence_study("aronsson", 5, tau=10.0).rows]
    ok = all(max(c) <= 20 for c in counts.values())
    report(4, "singular linearisation bound", ok,
           f"iterations tau=1 {counts[1.0]}, tau=10 {counts[10.0]}, bound 20")


def test_criterion_5_adaptive_efficiency():
    # uniform refinement until the estimator is first reached at >= 50k
    # dofs fixes the target E*; the adaptive run must reach E* with at most
    # half the dofs (the reference experiment reports a ratio near 0.22)
    start = time.perf_counter()
    captured = []
    convergence_study("aronsson", 7, tau=1.0,
                      on_level=lambda level, mesh, rep, ind:
                      captured.append((mesh.vertex_count, ind.eta_total)))
    uniform_dofs, target = next((dofs, eta) for dofs, eta in captured
                                if dofs >= 50_000)

    config = AdaptiveConfig(estimator_tol=target, theta=0.5, tau=0.1,
                            max_cycles=80, dof_budget=200_000)
    _, final_mesh, history = adaptive_solve(ARONSSON, build_initial_mesh(4),
                                            config)
    last = history.records[-1]
    elapsed = time.perf_counter() - start
    ok = last.estimator <= target and last.dofs <= 0.5 * uniform_dofs
    report(5, "adaptive efficiency", ok,
           f"uniform {uniform_dofs} dofs at estimator {target:.4e}; adaptive "
           f"{last.dofs} dofs at {last.estimator:.4e}; ratio "
           f"{last.dofs / uniform_dofs:.3f} (need <= 0.5), runtime {elapsed:.0f}s")


def test_criterion_6_hessian_property_suite():
    meshes = [build_initial_mesh(1), uniform_refine(build_initial_mesh(2)),
              refine(build_initial_mesh(2), {1, 4, 9})]
    worst_affine = 0.0
    for mesh in meshes:
        u = interpolate(mesh, lambda x, y: 0.7 - 1.3 * x + 0.4 * y)
        worst_affine = max(worst_affine,
                           np.abs(fe_hessian(u)).max())

    mesh = refine(build_initial_mesh(2), {2, 8, 11})
    rng = np.random.default_rng(42)
    worst_consistency = 0.0
    for _ in range(20):
        v = FEFunction(mesh, rng.standard_normal(mesh.vertex_count))
        lhs = integrate(fe_hessian(v), mesh)
        grad = gradients(v)
        rhs = np.zeros((2, 2))
        table = row_major_edge_table(mesh)
        for e in table["boundary_edge_ids"]:
            owner = table["edge_triangles"][e, 0]
            rhs += table["edge_lengths"][e] * np.outer(grad[owner],
                                                       table["edge_normals"][e])
        worst_consistency = max(worst_consistency, np.abs(lhs - rhs).max())

    worst_iterate = 0.0
    for small in (build_initial_mesh(1), uniform_refine(build_initial_mesh(1)),
                  refine(uniform_refine(build_initial_mesh(1)), {0, 5})):
        assert small.triangle_count <= 32
        disc = Discretisation(small, CLASSICAL)
        u = interpolate(small, lambda x, y: x * x + y * y)
        matrix, rhs_vec = apply_dirichlet(disc, *disc.system(u, CLASSICAL.tau)[:2])
        eliminated = solve_linear(matrix, rhs_vec)
        saddle, rhs_for, _ = brute_saddle(small, u.coefficients, CLASSICAL.f,
                                          CLASSICAL.g, CLASSICAL.tau)
        h_prev = fe_hessian(u)
        coupled = np.linalg.solve(saddle, rhs_for(h_prev))[:small.vertex_count]
        worst_iterate = max(worst_iterate, np.abs(eliminated - coupled).max())

    ok = worst_affine <= 1e-12 and worst_consistency <= 1e-12 \
        and worst_iterate <= 1e-10
    report(6, "hessian properties", ok,
           f"affine {worst_affine:.2e} (<=1e-12), consistency "
           f"{worst_consistency:.2e} (<=1e-12), eliminated-vs-coupled "
           f"{worst_iterate:.2e} (<=1e-10)")


def test_criterion_7_estimator_property_suite(classical_table):
    mesh = build_initial_mesh(2)
    affine = interpolate(mesh, lambda x, y: 1.0 + x - 2.0 * y)
    zero_field = estimate(affine, lambda x, y: np.zeros(np.shape(x)))
    zero_ok = zero_field.eta_total <= 1e-12

    eoc = classical_table.rows[-1].estimator_eoc
    eoc_ok = abs(eoc - 1.0) <= 0.25

    rng = np.random.default_rng(7)
    u = FEFunction(mesh, rng.standard_normal(mesh.vertex_count))
    two = lambda x, y: np.full(np.shape(x), 2.0)
    field = estimate(u, two)
    interior, jumps = weighted_residuals(u, two)
    partition_gap = abs(np.sum(field.eta ** 2) - np.sum(interior ** 2) - np.sum(jumps ** 2))
    partition_ok = partition_gap <= 1e-13 * np.sum(field.eta ** 2)

    ok = zero_ok and eoc_ok and partition_ok
    report(7, "estimator properties", ok,
           f"zero case {zero_field.eta_total:.2e} (<=1e-12), estimator EOC "
           f"{eoc:.3f} (1 +- 0.25), partition gap {partition_gap:.2e}")


def test_criterion_8_mesh_suite():
    start = time.perf_counter()
    mesh = build_initial_mesh(2)
    rng = np.random.default_rng(2024)
    worst_angle = 90.0
    worst_area = 0.0
    for call in range(1000):
        marked = [int(rng.integers(mesh.triangle_count))]
        mesh = refine(mesh, marked)
        worst_area = max(worst_area, abs(mesh.areas.sum() - 4.0))
        if call % 100 == 99:
            worst_angle = min(worst_angle, min_angle_degrees(mesh))
            assert not brute_conformity_errors(mesh)
    worst_angle = min(worst_angle, min_angle_degrees(mesh))
    problems = brute_conformity_errors(mesh)

    generations = build_initial_mesh(2)
    for _ in range(8):
        count = max(1, generations.triangle_count // 5)
        marked = rng.choice(generations.triangle_count, size=count,
                            replace=False)
        generations = refine(generations, marked)
        worst_angle = min(worst_angle, min_angle_degrees(generations))
        worst_area = max(worst_area, abs(generations.areas.sum() - 4.0))
    problems += brute_conformity_errors(generations)

    ok = not problems and worst_area <= 1e-10 and worst_angle >= 22.5 - 1e-9
    report(8, "mesh suite", ok,
           f"{mesh.triangle_count} triangles after 1000 random refinements, "
           f"{len(problems)} conformity violations, area defect "
           f"{worst_area:.2e} (<=1e-10), min angle {worst_angle:.2f} deg "
           f"(>=22.5), runtime {time.perf_counter() - start:.0f}s")


def test_criterion_9_cli_determinism(tmp_path):
    solve_args = ["solve", "--problem", "classical", "--levels", "3",
                  "--tau", "1000"]
    adapt_args = ["adapt", "--problem", "aronsson", "--tol", "0.5",
                  "--tau", "0.1", "--max-cycles", "10"]
    outputs = {}
    for tag in ("first", "second"):
        solve_dir = tmp_path / f"solve_{tag}"
        adapt_dir = tmp_path / f"adapt_{tag}"
        assert main(solve_args + ["--out", str(solve_dir)]) == 0
        assert main(adapt_args + ["--out", str(adapt_dir)]) == 0
        outputs[tag] = ((solve_dir / "classical_eoc.csv").read_bytes(),
                        (adapt_dir / "aronsson_adapt_history.csv").read_bytes())
    ok = outputs["first"] == outputs["second"]
    report(9, "CLI determinism", ok,
           "identical invocations produced bit-identical CSV outputs"
           if ok else "CSV outputs differ between identical runs")


def test_diagnostic_interpolant_steady_residual():
    # Report only (ROADMAP item 13(a)), it gates nothing: the steady residual
    # R(I_h u) of the exact solution's interpolant on uniform levels 2-5,
    # its rate in h and the share of |R|^2 on the vertices within 2 h of an
    # axis, where the Aronsson solution is singular.  Classical is the
    # control: its quadratic solution makes R round-off.
    for name, problem in (("aronsson", ARONSSON), ("classical", CLASSICAL)):
        mesh, previous = uniform_refine(uniform_refine(build_initial_mesh(4))), None
        for level in range(2, 6):
            disc = Discretisation(mesh, problem)
            u = interpolate(mesh, problem.exact_solution)
            squared = disc.residual(u, assemble_step(disc, u)) ** 2
            norm = np.sqrt(squared.sum())
            detail = f"{name} level {level}, {mesh.vertex_count} dofs: |R(I_h u)| {norm:.3e}"
            if name == "aronsson":
                near = np.abs(mesh.vertex_coords).min(axis=1) <= 2.0 * mesh.diameters.max()
                rate = f"{np.log2(previous / norm):.2f}" if previous else "--"
                detail += (f", rate {rate}, {squared[near].sum() / squared.sum():.1%} of "
                           f"|R|^2 on the {near.mean():.1%} of vertices within 2h of an axis")
            print(f"\nDIAGNOSTIC 13(a): {detail}")
            mesh, previous = uniform_refine(mesh), norm
