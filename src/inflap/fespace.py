"""P1 finite element functions, quadrature and norms.

The trial space is continuous piecewise-affine (one degree of freedom per
vertex); an ``FEFunction`` holds its mesh and its vertex values.

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
    ``area(K) * sum_q weights[q] * f(points[q])``.
    """

    points: np.ndarray
    weights: np.ndarray


def _orbit3(a, w):
    lam = [(1 - 2 * a, a, a), (a, 1 - 2 * a, a), (a, a, 1 - 2 * a)]
    return lam, [w] * 3


def _orbit6(a, b, w):
    c = 1.0 - a - b
    lam = [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]
    return lam, [w] * 6


def _symmetric_rule(orbits):
    points, weights = [], []
    for lam, w in orbits:
        points += lam
        weights += w
    points = np.array(points, dtype=float)
    weights = np.array(weights, dtype=float)
    points.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(points, weights)


# Symmetric rules; the degree 4 and 6 constants solve the moment equations
# of the classical 6 and 12 point rules to well below double precision.
_RULES = {
    4: _symmetric_rule([
        _orbit3(0.4459484909159648863183, 0.223381589678011465695),
        _orbit3(0.09157621350977074345957, 0.1099517436553218676383),
    ]),
    6: _symmetric_rule([
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


class FEFunction:
    """Vertex values of a continuous piecewise-affine function on ``mesh``."""

    def __init__(self, mesh: Triangulation, coefficients):
        coeffs = np.array(coefficients, dtype=float).reshape(-1)
        if coeffs.shape != (mesh.vertex_count,):
            raise InvalidArgumentError(
                f"expected {mesh.vertex_count} coefficients, got {coeffs.shape[0]}")
        if not np.isfinite(coeffs).all():
            raise EvaluationError("non-finite coefficient in FE function")
        coeffs.setflags(write=False)
        self.mesh = mesh
        self.coefficients = coeffs

    def __repr__(self):
        return f"FEFunction({self.mesh.vertex_count} dofs)"


def evaluate_field(fn, x, y):
    """Evaluate a scalar callable on arrays, enforcing finite output."""
    values = np.asarray(fn(x, y), dtype=float)
    values = np.broadcast_to(values, np.shape(x))
    if not np.isfinite(values).all():
        raise EvaluationError("field evaluated to a non-finite value")
    return values


def _corner_values(u: FEFunction) -> np.ndarray:
    """Values of ``u`` at the three vertices of every element, shape (3, nt)."""
    return u.coefficients[u.mesh.triangle_vertices.T]


def gradients(u: FEFunction) -> np.ndarray:
    """Elementwise constant gradient of a P1 function, shape (nt, 2).

    Computed per component as ``(b0 v0 + b1 v1) + b2 v2`` on contiguous
    vectors; the result is the (nt, 2) view of a (2, nt) array, so
    ``gradients(u).T`` is the component-major gradient.
    """
    b = u.mesh.basis_components
    v = _corner_values(u)
    return ((b[:, 0] * v[0] + b[:, 1] * v[1]) + b[:, 2] * v[2]).T


def physical_points(mesh: Triangulation, rule: QuadratureRule):
    """Quadrature nodes mapped to every element, as the pair of (nt, nq) arrays (x, y).

    Each coordinate is one (nt, 3) @ (3, nq) product of the corner values
    with the barycentric nodes.
    """
    coords, tris = mesh.vertex_coords, mesh.triangle_vertices
    return tuple(coords[:, c][tris] @ rule.points.T for c in range(2))


def values_at(u: FEFunction, rule: QuadratureRule) -> np.ndarray:
    """P1 function values at the quadrature nodes of every element."""
    values = u.coefficients[u.mesh.triangle_vertices]
    return values @ rule.points.T


def l2_error(u: FEFunction, exact) -> float:
    """Elementwise quadrature (order 6) of ||u - exact|| in the L2 norm."""
    rule = triangle_rule(6)
    mesh = u.mesh
    diff = values_at(u, rule) - evaluate_field(exact, *physical_points(mesh, rule))
    return float(np.sqrt(mesh.areas @ ((diff ** 2) @ rule.weights)))


def h1_semi_error(u: FEFunction, exact_gradient) -> float:
    """L2 norm of the elementwise gradient error (order-6 quadrature)."""
    rule = triangle_rule(6)
    mesh = u.mesh
    x, y = physical_points(mesh, rule)
    gx, gy = exact_gradient(x, y)
    gx = np.broadcast_to(np.asarray(gx, dtype=float), x.shape)
    gy = np.broadcast_to(np.asarray(gy, dtype=float), x.shape)
    if not (np.isfinite(gx).all() and np.isfinite(gy).all()):
        raise EvaluationError("gradient field evaluated to a non-finite value")
    grad = gradients(u)
    sq = (grad[:, 0, None] - gx) ** 2 + (grad[:, 1, None] - gy) ** 2
    return float(np.sqrt(mesh.areas @ (sq @ rule.weights)))


def l2_norm(u: FEFunction) -> float:
    """Exact L2 norm of a P1 function (elementwise mass matrix identity)."""
    v = _corner_values(u)
    s = (v[0] + v[1]) + v[2]
    squares = (v[0] * v[0] + v[1] * v[1]) + v[2] * v[2]
    return float(np.sqrt(np.sum(u.mesh.areas / 12.0 * (s * s + squares))))
