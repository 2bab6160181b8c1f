import numpy as np
import pytest

from inflap import (FEFunction, SpaceP1, build_initial_mesh, estimate,
                    fe_hessian, interpolate, jump_residuals, refine,
                    tensor_trace, uniform_refine)
from inflap.estimator import interior_residual_norms

ZERO = lambda x, y: np.zeros(np.shape(x))
TWO = lambda x, y: np.full(np.shape(x), 2.0)


def test_interior_residual_vanishes_for_zero_f():
    # piecewise-affine iterates have no broken second derivatives, so the
    # homogeneous problem leaves nothing in the interior part
    mesh = build_initial_mesh(2)
    u = interpolate(SpaceP1(mesh), lambda x, y: x * x - y)
    norms = interior_residual_norms(mesh, u, ZERO, tau=1.0)
    assert np.all(norms == 0.0)


def test_interior_residual_for_constant_f():
    mesh = refine(build_initial_mesh(2), {3})
    u = interpolate(SpaceP1(mesh), lambda x, y: x + y)
    norms = interior_residual_norms(mesh, u, TWO, tau=1.0)
    assert np.allclose(norms, 2.0 * np.sqrt(mesh.areas), rtol=1e-13)


def test_interior_residual_hessian_trace_variant():
    # on the unit criss-cross mesh H[x^2 + y^2] is 2 I on every element, so
    # the trace contribution is exactly 4 / tau
    mesh = build_initial_mesh(1)
    u = interpolate(SpaceP1(mesh), lambda x, y: x * x + y * y)
    assert np.allclose(tensor_trace(fe_hessian(u)), 4.0, atol=1e-13)
    norms = interior_residual_norms(mesh, u, TWO, tau=1.0, hessian_trace=True)
    assert np.allclose(norms, 6.0 * np.sqrt(mesh.areas), rtol=1e-13)
    norms = interior_residual_norms(mesh, u, TWO, tau=2.0, hessian_trace=True)
    assert np.allclose(norms, 4.0 * np.sqrt(mesh.areas), rtol=1e-13)


def test_jump_residual_vanishes_for_affine():
    mesh = uniform_refine(build_initial_mesh(2))
    u = interpolate(SpaceP1(mesh), lambda x, y: 3.0 * x - 2.0 * y + 0.5)
    assert np.abs(jump_residuals(mesh, u, u, tau=1.0)).max() <= 1e-13


def test_jump_residual_hand_value_on_unit_mesh():
    # U = interpolate(|x|^2) on the 4-triangle mesh: element gradients are
    # (0,-2), (2,0), (0,2), (-2,0); working through the averages, normals
    # and tensor jumps by hand gives J = sqrt(2) on every interior edge
    mesh = build_initial_mesh(1)
    u = interpolate(SpaceP1(mesh), lambda x, y: x * x + y * y)
    values = jump_residuals(mesh, u, u, tau=1.0)
    assert np.allclose(values, np.sqrt(2.0), rtol=1e-13)


def test_jump_residual_large_tau_limit():
    # for tau -> infinity only the tensor-jump pairing survives
    mesh = uniform_refine(build_initial_mesh(1))
    space = SpaceP1(mesh)
    rng = np.random.default_rng(4)
    u_prev = FEFunction(space, rng.standard_normal(space.dof_count))
    u_next = FEFunction(space, rng.standard_normal(space.dof_count))

    from inflap.fespace import gradients
    from inflap.solver import diffusion_tensor
    interior = mesh.interior_edge_ids
    plus = mesh.edge_triangles[interior, 0]
    minus = mesh.edge_triangles[interior, 1]
    normals = mesh.edge_normals[interior]
    grad_next = gradients(u_next)
    tau = 1e12
    tensors = diffusion_tensor(u_prev, tau)
    averaged = 0.5 * (tensors[plus] + tensors[minus])
    tensor_jump = (grad_next[plus] - grad_next[minus])[:, :, None] * normals[:, None, :]
    second_term = -np.einsum("erc,erc->e", averaged, tensor_jump)

    assert np.allclose(jump_residuals(mesh, u_prev, u_next, tau), second_term,
                       rtol=1e-10, atol=1e-10)


def test_estimate_zero_case():
    mesh = refine(build_initial_mesh(2), {0, 4})
    u = interpolate(SpaceP1(mesh), lambda x, y: 2.0 - x + 0.25 * y)
    field = estimate(mesh, u, u, ZERO, tau=1.0)
    assert field.global_estimate <= 1e-12
    assert field.eta_total <= 1e-12
    assert np.abs(field.eta).max() <= 1e-12


def test_estimate_is_nonnegative_and_aggregates_match():
    mesh = refine(build_initial_mesh(2), {1, 6, 10})
    space = SpaceP1(mesh)
    rng = np.random.default_rng(12)
    u_prev = FEFunction(space, rng.standard_normal(space.dof_count))
    u_next = FEFunction(space, rng.standard_normal(space.dof_count))
    field = estimate(mesh, u_prev, u_next, TWO, tau=0.7)
    assert field.interior.min() >= 0.0
    assert field.jumps.min() >= 0.0
    assert field.eta.min() >= 0.0
    assert field.global_estimate == pytest.approx(
        field.interior.sum() + field.jumps.sum(), rel=1e-13)


def test_edge_partition_identity():
    # the half-and-half edge split keeps the summed squared indicators equal
    # to the full squared residual, exactly
    mesh = refine(build_initial_mesh(2), {2, 9})
    space = SpaceP1(mesh)
    rng = np.random.default_rng(21)
    for _ in range(5):
        u_prev = FEFunction(space, rng.standard_normal(space.dof_count))
        u_next = FEFunction(space, rng.standard_normal(space.dof_count))
        field = estimate(mesh, u_prev, u_next, TWO, tau=2.0)
        lhs = np.sum(field.eta ** 2)
        rhs = np.sum(field.interior ** 2) + np.sum(field.jumps ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-13)


def test_estimate_convexity_in_second_iterate():
    # with the first iterate frozen the residual pair is affine in the
    # second iterate, so the estimate obeys the triangle inequality along
    # convex combinations
    mesh = build_initial_mesh(2)
    space = SpaceP1(mesh)
    rng = np.random.default_rng(9)
    u_prev = FEFunction(space, rng.standard_normal(space.dof_count))
    a = FEFunction(space, rng.standard_normal(space.dof_count))
    b = FEFunction(space, rng.standard_normal(space.dof_count))
    lam = 0.3
    mix = FEFunction(space, lam * a.coefficients + (1 - lam) * b.coefficients)
    est = lambda u: estimate(mesh, u_prev, u, ZERO, tau=1.0).eta_total
    assert est(mix) <= lam * est(a) + (1 - lam) * est(b) + 1e-12


def test_classical_estimator_decreases_with_eoc_one():
    from inflap import convergence_study
    table = convergence_study("classical", 4, tau=1000.0)
    values = [row.estimator for row in table.rows]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert table.rows[-1].estimator_eoc == pytest.approx(1.0, abs=0.25)
