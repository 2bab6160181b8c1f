import numpy as np
import pytest

from inflap import FEFunction, build_initial_mesh, estimate, refine, uniform_refine
from inflap.estimator import _interior_edges, interior_residual_norms, jump_residuals
from conftest import (interpolate, lower_corner_order, outer_diffusion_tensor, oracle_meshes,
                      pair_jump_residuals, row_major_edge_table, weighted_residuals)

ZERO = lambda x, y: np.zeros(np.shape(x))
TWO = lambda x, y: np.full(np.shape(x), 2.0)


def test_interior_residual_vanishes_for_zero_f():
    # piecewise-affine iterates have no broken second derivatives, so the
    # homogeneous problem leaves nothing in the interior part
    mesh = build_initial_mesh(2)
    norms = interior_residual_norms(mesh, ZERO)
    assert np.all(norms == 0.0)


def test_interior_residual_for_constant_f():
    mesh = refine(build_initial_mesh(2), {3})
    norms = interior_residual_norms(mesh, TWO)
    assert np.allclose(norms, 2.0 * np.sqrt(mesh.areas), rtol=1e-13)


def test_jump_residual_vanishes_for_affine():
    mesh = uniform_refine(build_initial_mesh(2))
    u = interpolate(mesh, lambda x, y: 3.0 * x - 2.0 * y + 0.5)
    assert np.abs(jump_residuals(u)).max() <= 1e-13


def test_jump_residual_hand_value_on_unit_mesh():
    # U = interpolate(|x|^2) on the 4-triangle mesh: element gradients are
    # (0,-2), (2,0), (0,2), (-2,0); working through the averages, normals
    # and tensor jumps by hand gives J = sqrt(2) on every interior edge,
    # each of length sqrt(2), so J |e| = 2
    mesh = build_initial_mesh(1)
    u = interpolate(mesh, lambda x, y: x * x + y * y)
    values = jump_residuals(u)
    assert len(values) == 4
    assert np.allclose(values, 2.0, rtol=1e-13)


@pytest.mark.parametrize("mesh", oracle_meshes(), ids=["uniform", "random-local", "axis-graded"])
def test_interior_edges_visit_every_oracle_edge_once(mesh):
    plus, slot, minus = _interior_edges(mesh)
    assert np.all(plus < minus)
    visited = sorted(zip(plus.tolist(), minus.tolist()))
    table = row_major_edge_table(mesh)
    expected = sorted(map(tuple, table["edge_triangles"][table["interior_edge_ids"]].tolist()))
    assert visited == expected
    # local edge slot of plus is the edge the two share, listed in the
    # order of the corners (plus, slot)
    edges = table["triangle_edges"][plus, slot]
    assert np.array_equal(table["edge_triangles"][edges], np.column_stack([plus, minus]))
    assert np.array_equal(edges, lower_corner_order(table))


@pytest.mark.parametrize("mesh", oracle_meshes(), ids=["uniform", "random-local", "axis-graded"])
def test_jump_residual_is_bit_identical_to_the_pair_formula_at_one_function(mesh):
    # at the pair (u, u) the two 1/tau terms of the relaxed formula cancel:
    # the tau-free residual is that formula at tau = inf bit for bit, and
    # agrees with it at finite tau to rounding
    rng = np.random.default_rng(mesh.triangle_count)
    u = interpolate(mesh, lambda x, y: np.abs(x) ** (4 / 3) - np.abs(y) ** (4 / 3))
    u = FEFunction(mesh, u.coefficients + 1e-3 * rng.standard_normal(mesh.vertex_count))
    values = jump_residuals(u)
    assert np.array_equal(values, pair_jump_residuals(u, u, np.inf))
    for tau in (0.1, 1.0, 1000.0):
        relaxed = pair_jump_residuals(u, u, tau)
        assert np.abs(values - relaxed).max() <= 1e-14 * np.abs(relaxed).max()


def test_jump_residual_large_tau_limit():
    # the residual is the tensor-jump pairing with P alone, which the
    # relaxed formula approaches as tau -> infinity
    mesh = uniform_refine(build_initial_mesh(1))
    rng = np.random.default_rng(4)
    u = FEFunction(mesh, rng.standard_normal(mesh.vertex_count))

    from inflap.fespace import gradients
    table = row_major_edge_table(mesh)
    interior = lower_corner_order(table)
    plus, minus = table["edge_triangles"][interior].T
    normals = table["edge_lengths"][interior, None] * table["edge_normals"][interior]
    grad = gradients(u)
    tensors = outer_diffusion_tensor(u, np.inf)
    averaged = 0.5 * (tensors[plus] + tensors[minus])
    tensor_jump = (grad[plus] - grad[minus])[:, :, None] * normals[:, None, :]
    tau_free = -np.einsum("erc,erc->e", averaged, tensor_jump)

    assert np.allclose(jump_residuals(u), tau_free, rtol=1e-13, atol=1e-13)
    assert np.allclose(pair_jump_residuals(u, u, 1e12), tau_free, rtol=1e-10, atol=1e-10)


def test_estimate_zero_case():
    mesh = refine(build_initial_mesh(2), {0, 4})
    u = interpolate(mesh, lambda x, y: 2.0 - x + 0.25 * y)
    field = estimate(u, ZERO)
    assert field.global_estimate <= 1e-12
    assert field.eta_total <= 1e-12
    assert np.abs(field.eta).max() <= 1e-12


def test_estimate_is_nonnegative_and_aggregates_match():
    mesh = refine(build_initial_mesh(2), {1, 6, 10})
    rng = np.random.default_rng(12)
    u = FEFunction(mesh, rng.standard_normal(mesh.vertex_count))
    field = estimate(u, TWO)
    interior, jumps = weighted_residuals(u, TWO)
    assert interior.min() >= 0.0
    assert jumps.min() >= 0.0
    assert field.eta.min() >= 0.0
    assert field.global_estimate == pytest.approx(interior.sum() + jumps.sum(), rel=1e-13)


def test_edge_partition_identity():
    # the half-and-half edge split keeps the summed squared indicators equal
    # to the full squared residual, exactly
    mesh = refine(build_initial_mesh(2), {2, 9})
    rng = np.random.default_rng(21)
    for _ in range(5):
        u = FEFunction(mesh, rng.standard_normal(mesh.vertex_count))
        field = estimate(u, TWO)
        interior, jumps = weighted_residuals(u, TWO)
        lhs = np.sum(field.eta ** 2)
        rhs = np.sum(interior ** 2) + np.sum(jumps ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-13)


def test_classical_estimator_decreases_with_eoc_one():
    from inflap import convergence_study
    table = convergence_study("classical", 4, tau=1000.0)
    values = [row.estimator for row in table.rows]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert table.rows[-1].estimator_eoc == pytest.approx(1.0, abs=0.25)
