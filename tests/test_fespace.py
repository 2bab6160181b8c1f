from math import factorial

import numpy as np
import pytest

from inflap import (EvaluationError, FEFunction, InvalidArgumentError,
                    build_initial_mesh, h1_semi_error, l2_error, refine, uniform_refine)
from inflap.fespace import gradients, l2_norm, physical_points, triangle_rule
from conftest import (affine_gradient, batched_physical_points, bit_oracle_meshes,
                      einsum_gradients, integrate, interpolate, kernel_functions,
                      kernel_meshes, row_sum_l2_norm)


# ------------------------------------------------------------------ quadrature

@pytest.mark.parametrize("order", [4, 6])
def test_quadrature_weights(order):
    rule = triangle_rule(order)
    assert rule.weights.min() > 0
    assert abs(rule.weights.sum() - 1.0) <= 1e-14
    assert np.allclose(rule.points.sum(axis=1), 1.0, atol=1e-14)


@pytest.mark.parametrize("order", [4, 6])
def test_quadrature_monomial_exactness(order):
    # reference triangle (0,0), (1,0), (0,1): integral of x^m y^n has the
    # closed form m! n! / (m + n + 2)!
    rule = triangle_rule(order)
    x, y = rule.points[:, 1], rule.points[:, 2]
    for m in range(order + 1):
        for n in range(order + 1 - m):
            approx = 0.5 * np.sum(rule.weights * x ** m * y ** n)
            exact = factorial(m) * factorial(n) / factorial(m + n + 2)
            assert abs(approx - exact) <= 1e-14


def test_rule_lookup():
    assert triangle_rule(3) is triangle_rule(4) and len(triangle_rule(4).weights) == 6
    with pytest.raises(InvalidArgumentError):
        triangle_rule(7)


# --------------------------------------------------------------- interpolation

def test_interpolate_squared_norm():
    mesh = build_initial_mesh(2)
    u = interpolate(mesh, lambda x, y: x * x + y * y)
    corner = np.flatnonzero((mesh.vertex_coords == [1.0, 1.0]).all(axis=1))[0]
    assert u.coefficients[corner] == pytest.approx(2.0)
    assert np.allclose(u.coefficients, (mesh.vertex_coords ** 2).sum(axis=1))


def test_interpolate_zero():
    mesh = build_initial_mesh(1)
    u = interpolate(mesh, lambda x, y: np.zeros(np.shape(x)))
    assert np.all(u.coefficients == 0.0)


def test_interpolate_aronsson_boundary_data():
    mesh = build_initial_mesh(2)
    g = lambda x, y: np.abs(x) ** (4 / 3) - np.abs(y) ** (4 / 3)
    u = interpolate(mesh, g)
    coords = mesh.vertex_coords
    at = lambda x, y: u.coefficients[
        np.flatnonzero((coords == [x, y]).all(axis=1))[0]]
    assert at(1.0, 0.0) == pytest.approx(1.0)
    assert at(1.0, 1.0) == pytest.approx(0.0)


def test_interpolate_rejects_nonfinite():
    mesh = build_initial_mesh(1)
    with pytest.raises(EvaluationError):
        interpolate(mesh, lambda x, y: np.where(x > 0, np.inf, 1.0))


def test_fefunction_validates_length():
    mesh = build_initial_mesh(1)
    with pytest.raises(InvalidArgumentError):
        FEFunction(mesh, np.zeros(7))


# ------------------------------------------------------------------- gradients

def test_gradient_of_coordinate():
    mesh = build_initial_mesh(2)
    u = interpolate(mesh, lambda x, y: x + 0.0 * y)
    assert np.allclose(gradients(u), [1.0, 0.0], atol=1e-14)


def test_gradient_of_constant_is_exactly_zero():
    mesh = build_initial_mesh(3)
    u = interpolate(mesh, lambda x, y: np.full(np.shape(x), 0.7))
    assert np.all(gradients(u) == 0.0)


def test_gradient_against_affine_solve_oracle():
    # triangle 0 of the unit criss-cross mesh has vertices (-1,-1), (1,-1),
    # (0,0); the 3x3 interpolation system gives the gradient (0, -2) there
    mesh = build_initial_mesh(1)
    u = interpolate(mesh, lambda x, y: x * x + y * y)
    grad = gradients(u)
    assert grad[0] == pytest.approx([0.0, -2.0])
    for k in range(mesh.triangle_count):
        oracle = affine_gradient(mesh, k, u.coefficients)
        assert grad[k] == pytest.approx(oracle, abs=1e-13)
    # random coefficients on a locally refined mesh
    mesh = refine(build_initial_mesh(2), {1, 6})
    rng = np.random.default_rng(8)
    u = FEFunction(mesh, rng.standard_normal(mesh.vertex_count))
    grad = gradients(u)
    for k in range(mesh.triangle_count):
        oracle = affine_gradient(mesh, k, u.coefficients)
        assert grad[k] == pytest.approx(oracle, abs=1e-12)


@pytest.mark.parametrize("name", list(kernel_meshes()))
def test_component_kernels_are_bit_identical_to_row_major_oracles(name):
    for u in kernel_functions(kernel_meshes()[name]):
        grad = gradients(u)
        assert grad.shape == (u.mesh.triangle_count, 2) and grad.T.flags.c_contiguous
        assert np.array_equal(grad, einsum_gradients(u))
        assert l2_norm(u) == row_sum_l2_norm(u)


@pytest.mark.parametrize("name", list(bit_oracle_meshes()))
def test_physical_points_are_bit_identical_to_batched_corner_product(name):
    mesh = bit_oracle_meshes()[name]
    for order in (4, 6):
        rule = triangle_rule(order)
        reference = batched_physical_points(mesh, rule)
        for points, expected in zip(physical_points(mesh, rule), (reference[..., 0],
                                                                  reference[..., 1])):
            assert points.flags.c_contiguous
            assert np.array_equal(points, expected)


def test_affine_reproduction_at_quadrature_points():
    mesh = uniform_refine(build_initial_mesh(2))
    g = lambda x, y: 0.3 - 1.7 * x + 0.9 * y
    u = interpolate(mesh, g)
    rule = triangle_rule(6)
    from inflap.fespace import values_at
    assert np.abs(values_at(u, rule) - g(*physical_points(mesh, rule))).max() <= 1e-13


# ---------------------------------------------------------------------- errors

def test_l2_error_of_exactly_represented_function():
    mesh = build_initial_mesh(2)
    g = lambda x, y: 1.0 + 2.0 * x - 0.5 * y
    u = interpolate(mesh, g)
    assert l2_error(u, g) <= 1e-12
    assert h1_semi_error(u, lambda x, y: (np.full(np.shape(x), 2.0),
                                          np.full(np.shape(x), -0.5))) <= 1e-12


def test_l2_error_zero_vs_one():
    mesh = build_initial_mesh(1)
    u = FEFunction(mesh, np.zeros(mesh.vertex_count))
    assert l2_error(u, lambda x, y: np.ones(np.shape(x))) == pytest.approx(2.0)


def test_l2_error_against_dense_quadrature_oracle():
    # 1024^2-point tensor Gauss grid per element through the Duffy map
    mesh = build_initial_mesh(2)
    exact = lambda x, y: x * x + y * y
    u = interpolate(mesh, exact)

    nodes, weights = np.polynomial.legendre.leggauss(1024)
    nodes = 0.5 * (nodes + 1.0)
    weights = 0.5 * weights
    uu, vv = np.meshgrid(nodes, nodes, indexing="ij")
    wgrid = (np.outer(weights, weights) * (1.0 - uu)).ravel()
    lam1 = uu.ravel()
    lam2 = (vv * (1.0 - uu)).ravel()
    lam0 = 1.0 - lam1 - lam2
    total = 0.0
    values = u.coefficients[mesh.triangle_vertices]
    for k in range(mesh.triangle_count):
        p = mesh.vertex_coords[mesh.triangle_vertices[k]]
        x = lam0 * p[0, 0] + lam1 * p[1, 0] + lam2 * p[2, 0]
        y = lam0 * p[0, 1] + lam1 * p[1, 1] + lam2 * p[2, 1]
        uh = lam0 * values[k, 0] + lam1 * values[k, 1] + lam2 * values[k, 2]
        total += 2.0 * mesh.areas[k] * np.sum(wgrid * (uh - exact(x, y)) ** 2)
    oracle = np.sqrt(total)

    ours = l2_error(u, exact)
    assert ours == pytest.approx(oracle, abs=1e-10)
    assert ours == pytest.approx(0.3496029493900505, abs=1e-12)  # frozen from the oracle


def test_error_norms_are_absolutely_homogeneous():
    mesh = build_initial_mesh(2)
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal(mesh.vertex_count)
    zero = lambda x, y: np.zeros(np.shape(x))
    zero_grad = lambda x, y: (np.zeros(np.shape(x)), np.zeros(np.shape(x)))
    for scale in (-3.0, 0.25):
        base = l2_error(FEFunction(mesh, coeffs), zero)
        scaled = l2_error(FEFunction(mesh, scale * coeffs), zero)
        assert scaled == pytest.approx(abs(scale) * base, rel=1e-13)
        base_h1 = h1_semi_error(FEFunction(mesh, coeffs), zero_grad)
        scaled_h1 = h1_semi_error(FEFunction(mesh, scale * coeffs), zero_grad)
        assert scaled_h1 == pytest.approx(abs(scale) * base_h1, rel=1e-13)


def test_l2_norm_matches_l2_error_against_zero():
    mesh = uniform_refine(build_initial_mesh(1))
    rng = np.random.default_rng(11)
    u = FEFunction(mesh, rng.standard_normal(mesh.vertex_count))
    zero = lambda x, y: np.zeros(np.shape(x))
    assert l2_norm(u) == pytest.approx(l2_error(u, zero), rel=1e-12)


# ------------------------------------------------------------------ integrate

def test_integrate_constants_and_monomials():
    mesh = build_initial_mesh(2)
    assert integrate(lambda x, y: np.ones(np.shape(x)), mesh) == pytest.approx(4.0)
    assert integrate(lambda x, y: x + 0.0 * y, mesh) == pytest.approx(0.0, abs=1e-14)
    assert integrate(lambda x, y: x * x, mesh) == pytest.approx(4.0 / 3.0)


def test_integrate_fe_functions():
    mesh = build_initial_mesh(2)
    u = interpolate(mesh, lambda x, y: np.full(np.shape(x), 1.5))
    assert integrate(u, mesh) == pytest.approx(6.0)
    tensor = np.tile([[1.0, 2.0], [3.0, 4.0]], (mesh.triangle_count, 1, 1))
    mats = integrate(tensor, mesh)
    assert np.allclose(mats, 4.0 * np.array([[1.0, 2.0], [3.0, 4.0]]))
