"""Lowest-order finite element spaces, interpolation, quadrature and norms.

The trial space is continuous piecewise-affine (one degree of freedom per
vertex).  Recovered second derivatives live in the space of elementwise
constant 2x2 tensors whose coefficients are stored element-major and
row-major within the element: (K0.a11, K0.a12, K0.a21, K0.a22, K1.a11,
...).

Scalar fields passed into this module are callables ``f(x, y)`` that
accept numpy arrays and broadcast; gradient fields return an ``(gx, gy)``
pair with the same convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, InvalidArgumentError
from .mesh import Triangulation


@dataclass(frozen=True)
class QuadratureRule:
    """Barycentric nodes with weights normalised to sum to one.

    An integral over a triangle K is evaluated as
    ``area(K) * sum_q weights[q] * f(points[q])``, so the rule is exact
    for polynomials up to degree ``order``.
    """

    points: np.ndarray
    weights: np.ndarray
    order: int


def _make_rule(points, weights, order):
    points = np.array(points, dtype=float)
    weights = np.array(weights, dtype=float)
    points.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(points, weights, order)


def _orbit3(a, w):
    lam = [(1 - 2 * a, a, a), (a, 1 - 2 * a, a), (a, a, 1 - 2 * a)]
    return lam, [w] * 3


def _orbit6(a, b, w):
    c = 1.0 - a - b
    lam = [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]
    return lam, [w] * 6


def _symmetric_rule(order, orbits):
    points, weights = [], []
    for lam, w in orbits:
        points += lam
        weights += w
    return _make_rule(points, weights, order)


# Symmetric rules; the degree 4 and 6 constants solve the moment equations
# of the classical 6 and 12 point rules to well below double precision.
_RULES = {
    1: _make_rule([[1 / 3, 1 / 3, 1 / 3]], [1.0], 1),
    2: _make_rule([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]],
                  [1 / 3, 1 / 3, 1 / 3], 2),
    4: _symmetric_rule(4, [
        _orbit3(0.4459484909159648863183, 0.223381589678011465695),
        _orbit3(0.09157621350977074345957, 0.1099517436553218676383),
    ]),
    6: _symmetric_rule(6, [
        _orbit3(0.2492867451709104212916, 0.1167862757263793660253),
        _orbit3(0.06308901449150222834033, 0.05084490637020681692094),
        _orbit6(0.3103524510337844054166, 0.05314504984481694735325,
                0.08285107561837357519355),
    ]),
}


def triangle_rule(order: int) -> QuadratureRule:
    """Smallest built-in rule exact for polynomials of the given degree."""
    for available in sorted(_RULES):
        if available >= order:
            return _RULES[available]
    raise InvalidArgumentError(f"no quadrature rule of order {order}")


class SpaceP1:
    """Continuous piecewise-affine scalar functions; dofs are vertex values."""

    def __init__(self, mesh: Triangulation):
        self.mesh = mesh
        self.dof_count = mesh.vertex_count
        self.boundary_dofs = np.flatnonzero(mesh.vertex_on_boundary)
        self.boundary_dofs.setflags(write=False)


class SpaceP0Tensor:
    """Elementwise constant 2x2 tensors with row-major component order."""

    components = 4

    def __init__(self, mesh: Triangulation):
        self.mesh = mesh
        self.dof_count = self.components * mesh.triangle_count


class FEFunction:
    """Coefficient vector over one of the spaces above."""

    def __init__(self, space, coefficients):
        coeffs = np.array(coefficients, dtype=float).reshape(-1)
        if coeffs.shape != (space.dof_count,):
            raise InvalidArgumentError(
                f"expected {space.dof_count} coefficients, got {coeffs.shape[0]}")
        if not np.isfinite(coeffs).all():
            raise EvaluationError("non-finite coefficient in FE function")
        coeffs.setflags(write=False)
        self.space = space
        self.coefficients = coeffs

    def __repr__(self):
        kind = type(self.space).__name__
        return f"FEFunction({kind}, {self.space.dof_count} dofs)"


def evaluate_field(fn, x, y):
    """Evaluate a scalar callable on arrays, enforcing finite output."""
    values = np.asarray(fn(x, y), dtype=float)
    values = np.broadcast_to(values, np.shape(x))
    if not np.isfinite(values).all():
        raise EvaluationError("field evaluated to a non-finite value")
    return values


def interpolate(space: SpaceP1, g) -> FEFunction:
    """Vertex (Lagrange) interpolant of a scalar field."""
    if not isinstance(space, SpaceP1):
        raise InvalidArgumentError("interpolation is defined for SpaceP1")
    coords = space.mesh.vertex_coords
    return FEFunction(space, evaluate_field(g, coords[:, 0], coords[:, 1]))


def gradients(u: FEFunction) -> np.ndarray:
    """Elementwise constant gradient of a P1 function, shape (nt, 2)."""
    mesh = u.space.mesh
    values = u.coefficients[mesh.triangle_vertices]
    return np.einsum("tid,ti->td", mesh.basis_gradients, values)


def tensor_values(u: FEFunction) -> np.ndarray:
    """(nt, 2, 2) view of a tensor-valued coefficient vector."""
    nt = u.space.mesh.triangle_count
    return u.coefficients.reshape(nt, 2, 2)


def tensor_trace(u: FEFunction) -> np.ndarray:
    mats = tensor_values(u)
    return mats[:, 0, 0] + mats[:, 1, 1]


def physical_points(mesh: Triangulation, rule: QuadratureRule) -> np.ndarray:
    """Quadrature nodes mapped to every element, shape (nt, nq, 2)."""
    corners = mesh.vertex_coords[mesh.triangle_vertices]
    return np.einsum("qi,tid->tqd", rule.points, corners)


def values_at(u: FEFunction, rule: QuadratureRule) -> np.ndarray:
    """P1 function values at the quadrature nodes of every element."""
    values = u.coefficients[u.space.mesh.triangle_vertices]
    return values @ rule.points.T


def l2_error(u: FEFunction, exact, quad: QuadratureRule | None = None) -> float:
    """Elementwise quadrature of ||u - exact|| in the L2 norm."""
    rule = quad if quad is not None else triangle_rule(6)
    mesh = u.space.mesh
    pts = physical_points(mesh, rule)
    diff = values_at(u, rule) - evaluate_field(exact, pts[..., 0], pts[..., 1])
    return float(np.sqrt(mesh.areas @ ((diff ** 2) @ rule.weights)))


def h1_semi_error(u: FEFunction, exact_gradient, quad: QuadratureRule | None = None) -> float:
    """L2 norm of the elementwise gradient error."""
    rule = quad if quad is not None else triangle_rule(6)
    mesh = u.space.mesh
    pts = physical_points(mesh, rule)
    gx, gy = exact_gradient(pts[..., 0], pts[..., 1])
    gx = np.broadcast_to(np.asarray(gx, dtype=float), pts[..., 0].shape)
    gy = np.broadcast_to(np.asarray(gy, dtype=float), pts[..., 0].shape)
    if not (np.isfinite(gx).all() and np.isfinite(gy).all()):
        raise EvaluationError("gradient field evaluated to a non-finite value")
    grad = gradients(u)
    sq = (grad[:, 0, None] - gx) ** 2 + (grad[:, 1, None] - gy) ** 2
    return float(np.sqrt(mesh.areas @ (sq @ rule.weights)))


def integrate(field, mesh: Triangulation, quad: QuadratureRule | None = None):
    """Integral over the whole mesh of a callable or FE function.

    Callables and P1 functions integrate to a float; tensor fields
    integrate componentwise to a (2, 2) array.
    """
    rule = quad if quad is not None else triangle_rule(4)
    if isinstance(field, FEFunction):
        if isinstance(field.space, SpaceP0Tensor):
            mats = tensor_values(field)
            return np.einsum("t,trc->rc", mesh.areas, mats)
        return float(mesh.areas @ (values_at(field, rule) @ rule.weights))
    pts = physical_points(mesh, rule)
    vals = evaluate_field(field, pts[..., 0], pts[..., 1])
    return float(mesh.areas @ (vals @ rule.weights))


def l2_norm(u: FEFunction) -> float:
    """Exact L2 norm of a P1 function (elementwise mass matrix identity)."""
    mesh = u.space.mesh
    v = u.coefficients[mesh.triangle_vertices]
    s = v.sum(axis=1)
    return float(np.sqrt(np.sum(mesh.areas / 12.0 * (s * s + (v * v).sum(axis=1)))))
