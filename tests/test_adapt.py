import weakref
from dataclasses import replace

import numpy as np
import pytest

import inflap.solver
from inflap import (AdaptiveConfig, InvalidArgumentError, SolverConfig,
                    adaptive_solve, build_initial_mesh, estimate,
                    fixed_point_solve, mark, refine, registry, transfer)
from inflap.estimator import IndicatorField
from conftest import brute_conformity_errors, centroids, interpolate

ARONSSON = registry()["aronsson"].data


def indicator_stub(eta):
    # marking reads the indicators alone, so the stub has no mesh
    eta = np.asarray(eta, dtype=float)
    return IndicatorField(mesh=None, eta=eta, interior=eta.copy(), jumps=np.zeros(0),
                          global_estimate=float(eta.sum()),
                          eta_total=float(np.sqrt((eta ** 2).sum())))


# --------------------------------------------------------------------- marking

def test_mark_theta_one_takes_all_positive():
    marked = mark(indicator_stub([2.0, 0.0, 1.0, 0.0]), theta=1.0)
    assert list(marked) == [0, 2]


def test_mark_uniform_indicators():
    for count in (16, 17):
        marked = mark(indicator_stub(np.ones(count)), theta=0.5)
        assert len(marked) == int(np.ceil(0.25 * count))


def test_mark_greedy_prefix():
    # squared indicators (9, 1, 0, 0) with theta^2 = 0.9: the first element
    # already carries 9/10 of the mass
    marked = mark(indicator_stub([3.0, 1.0, 0.0, 0.0]), theta=np.sqrt(0.9))
    assert list(marked) == [0]


def test_mark_nothing_when_zero():
    assert mark(indicator_stub(np.zeros(6)), theta=0.5).size == 0


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_mark_rejects_non_finite_indicators(value):
    # a NaN made the cumulative sum NaN, and every element was marked
    indicators = estimate(interpolate(build_initial_mesh(2), ARONSSON.g), ARONSSON.f)
    eta = indicators.eta.copy()
    eta[3] = value
    with pytest.raises(InvalidArgumentError, match="finite"):
        mark(replace(indicators, eta=eta), theta=0.5)


def test_mark_rejects_bad_theta():
    with pytest.raises(InvalidArgumentError):
        mark(indicator_stub([1.0]), theta=0.0)


# -------------------------------------------------------------------- transfer

def test_transfer_is_exact_prolongation():
    mesh = build_initial_mesh(2)
    u = interpolate(mesh, lambda x, y: x * x - 0.5 * y)
    fine = refine(mesh, {0, 3, 8})
    moved = transfer(u, fine)
    nv = mesh.vertex_count
    assert np.array_equal(moved.coefficients[:nv], u.coefficients)
    pairs = fine.new_vertex_parents
    expected = 0.5 * (u.coefficients[pairs[:, 0]] + u.coefficients[pairs[:, 1]])
    assert np.array_equal(moved.coefficients[nv:], expected)


def test_transfer_rejects_unrelated_mesh():
    mesh = build_initial_mesh(2)
    u = interpolate(mesh, lambda x, y: x)
    with pytest.raises(InvalidArgumentError):
        transfer(u, build_initial_mesh(3))


def test_transfer_rejects_a_refinement_of_another_mesh():
    # two refinements with 14 vertices and 17 triangles each, apart only at vertex 13
    a, b = refine(build_initial_mesh(2), {0}), refine(build_initial_mesh(2), {3})
    assert (a.vertex_count, a.triangle_count) == (b.vertex_count, b.triangle_count)
    assert np.flatnonzero((a.vertex_coords != b.vertex_coords).any(axis=1)).tolist() == [13]
    g = lambda x, y: x * x + 3 * y
    fine = refine(a, {0})
    exact = interpolate(fine, g).coefficients
    assert np.abs(transfer(interpolate(a, g), fine).coefficients - exact).max() <= 0.0625
    with pytest.raises(InvalidArgumentError, match="not a refinement"):
        transfer(interpolate(b, g), fine)


# -------------------------------------------------------------- adaptive driver

def test_adaptive_stops_immediately_for_huge_tolerance():
    mesh = build_initial_mesh(2)
    config = AdaptiveConfig(estimator_tol=1e9, tau=0.1)
    report, final, history = adaptive_solve(ARONSSON, mesh, config)
    assert len(history.records) == 1
    assert final.triangle_count == mesh.triangle_count


def test_adaptive_config_validation():
    with pytest.raises(InvalidArgumentError):
        AdaptiveConfig(estimator_tol=0.1, theta=1.5)
    with pytest.raises(InvalidArgumentError):
        AdaptiveConfig(estimator_tol=-1.0)


def test_adaptive_aronsson_run():
    config = AdaptiveConfig(estimator_tol=0.3, theta=0.5, tau=0.1,
                            max_cycles=40)
    report, final, history = adaptive_solve(ARONSSON, build_initial_mesh(4),
                                            config)
    records = history.records
    assert records[-1].estimator <= 0.3
    # the history keeps the last cycle's indicators, on the final mesh
    assert history.indicators.mesh is final
    assert history.indicators.eta_total == records[-1].estimator
    # dof counts never decrease and the final mesh is conforming
    assert all(a.dofs <= b.dofs for a, b in zip(records, records[1:]))
    assert not brute_conformity_errors(final)
    # true errors are tracked and improve overall
    assert records[-1].l2_error < records[0].l2_error
    assert records[-1].h1_error < records[0].h1_error


def test_adaptive_solve_keeps_one_mesh_generation_alive(monkeypatch):
    # each refined mesh is gone, with its solution, indicators and marking,
    # before the next mesh's Hessian operator is built; the caller's frame
    # holds the initial mesh
    seen = []
    real_operator = inflap.solver.hessian_operator

    def watching(mesh):
        assert [ref() for ref in seen[1:]] == [None] * len(seen[1:])
        seen.append(weakref.ref(mesh))
        return real_operator(mesh)

    monkeypatch.setattr(inflap.solver, "hessian_operator", watching)
    config = AdaptiveConfig(estimator_tol=1e-3, theta=0.5, tau=0.1, max_cycles=6)
    _, final, history = adaptive_solve(ARONSSON, build_initial_mesh(4), config)
    assert len(seen) == len(history.records) == 6
    assert seen[-1]() is final


def test_adaptive_trajectory_is_pinned():
    # bulk marking has exact ties, so a last-bit change of the step matrix
    # can show as another mesh sequence; the dofs were measured with the COO
    # operator and sparse-product assembly of conftest.py, and the split
    # step M_P + T / tau with the tau-free jump residual keeps them; the
    # final L2 error was measured with that split step and the float32
    # reverse Cuthill-McKee + minimum-degree LU of solve_linear, refined in
    # float64
    config = AdaptiveConfig(estimator_tol=0.1, theta=0.5, tau=0.1, max_cycles=80,
                            solver=SolverConfig(increment_tol_factor=10.0))
    report, mesh, history = adaptive_solve(ARONSSON, build_initial_mesh(4), config)
    assert [record.dofs for record in history.records] == [
        41, 47, 50, 55, 69, 81, 95, 103, 112, 118, 143, 167, 198, 231, 239, 278,
        328, 369, 464, 513, 618, 725, 855, 985, 1104, 1273, 1456, 1753, 2022,
        2373, 2725, 3081, 3609]
    assert history.records[-1].l2_error == 0.020875503733801752


def test_adaptive_estimator_monotone_from_resolved_base():
    # from a base mesh resolving the axes the estimator history of the
    # singular benchmark is nonincreasing within the 5 percent slack
    config = AdaptiveConfig(estimator_tol=0.12, theta=0.5, tau=0.1,
                            max_cycles=60)
    _, _, history = adaptive_solve(ARONSSON, build_initial_mesh(8), config)
    values = [r.estimator for r in history.records]
    assert len(values) > 10
    assert all(b <= 1.05 * a for a, b in zip(values, values[1:]))


def test_adaptive_classical_estimator_monotone():
    classical = registry()["classical"]
    config = AdaptiveConfig(estimator_tol=0.5, theta=0.5,
                            tau=classical.adaptive_tau, max_cycles=30)
    _, _, history = adaptive_solve(classical.data, build_initial_mesh(4), config)
    values = [r.estimator for r in history.records]
    assert all(b <= 1.05 * a for a, b in zip(values, values[1:]))


def test_refinement_concentrates_on_axes():
    # top decile of indicators sits on elements touching an axis after two
    # cycles
    from dataclasses import replace
    problem = replace(ARONSSON, tau=0.1)
    mesh = build_initial_mesh(4)
    guess = None
    for _ in range(2):
        report = fixed_point_solve(mesh, problem, initial=guess)
        indicators = estimate(report.solution, problem.f)
        fine = refine(mesh, mark(indicators, 0.5))
        guess = transfer(report.solution, fine)
        mesh = fine
    report = fixed_point_solve(mesh, problem, initial=guess)
    indicators = estimate(report.solution, problem.f)
    count = max(1, int(np.ceil(0.1 * mesh.triangle_count)))
    top = np.argsort(indicators.eta)[::-1][:count]
    for k in top:
        xs = mesh.vertex_coords[mesh.triangle_vertices[k], 0]
        ys = mesh.vertex_coords[mesh.triangle_vertices[k], 1]
        assert xs.min() <= 0.0 <= xs.max() or ys.min() <= 0.0 <= ys.max()


def test_final_adaptive_mesh_grades_toward_axes():
    # refinement is densest and deepest along the singular set
    config = AdaptiveConfig(estimator_tol=0.1, theta=0.5, tau=0.1,
                            max_cycles=60)
    _, final, _ = adaptive_solve(ARONSSON, build_initial_mesh(4), config)
    centers = centroids(final)
    distance = np.minimum(np.abs(centers[:, 0]), np.abs(centers[:, 1]))
    near = final.diameters[distance < 0.1]
    far = final.diameters[distance > 0.5]
    assert near.mean() < 0.75 * far.mean()
    assert near.min() <= 0.6 * far.min()
