"""Conforming triangular meshes of the square [-1, 1]^2.

A mesh starts from a criss-cross pattern (each grid square is cut into
four triangles by its two diagonals) and grows by newest-vertex bisection
with iterative conforming closure.  The criss-cross start assigns every
refinement edge to the hypotenuse of a right isosceles triangle, which
makes the initial edge assignment compatible, so the closure always
terminates and every descendant is again right isosceles.

A triangle K = (a, b, c) has its refinement edge ab opposite c and edge m
opposite vertex m, at flat corner 3 K + m; ``corner_across`` pairs the two
corners of each interior edge.  ``refine`` marks bisected edges at both
corners, a triangle's marks give the code m0 + 2 m1 + 4 m2, and
``_CHILDREN[code]`` lists its children as slots into (a, b, c, mid0, mid1,
mid2), mid m the midpoint of edge m.  A bisection puts the midpoint in slot
2 of both halves, whose refinement edges are edge 1 (first half) and edge
0 (second), split again by the same rule.  Codes 1-3 have no children:
``refine``'s closure bisects their refinement edges until none is left.

``Triangulation`` objects are immutable: ``refine`` and ``uniform_refine``
return new instances, and all arrays are marked read-only, so meshes can
be shared freely between threads.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError, is_positive_integer

# Dyadic refinement of [-1, 1]^2 keeps boundary coordinates exactly at +-1,
# so boundary membership only needs a tiny absolute tolerance.
BOUNDARY_TOL = 1e-14
COVERAGE_TOL = 1e-10

# the children of a triangle by its bisection code (see the module docstring)
_CHILDREN = {
    0b000: [(0, 1, 2)],                                  # (a, b, c)
    0b100: [(2, 0, 5), (1, 2, 5)],                       # (c, a, mid2), (b, c, mid2)
    0b110: [(5, 2, 4), (0, 5, 4), (1, 2, 5)],            # first half split again
    0b101: [(2, 0, 5), (5, 1, 3), (2, 5, 3)],            # second half split again
    0b111: [(5, 2, 4), (0, 5, 4), (5, 1, 3), (2, 5, 3)],  # both halves split again
}
_CHILD_COUNTS = np.array([len(_CHILDREN.get(code, ())) for code in range(8)])
_CHILD_SLOTS = np.array([(_CHILDREN.get(code, []) + [(0, 0, 0)] * 4)[:4]   # padded to four
                         for code in range(8)])
_CHILD_KEPT = np.arange(4) < _CHILD_COUNTS[:, None]
# the criss-cross cut of a grid square (c00, c10, c11, c01, center)
_CRISS_CROSS = np.array([(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)])


class Triangulation:
    """Conforming triangulation of the square [-1, 1]^2.

    Triangles are stored in the order the caller gives, and that order is
    an input contract: vertices run counterclockwise, and the refinement
    edge joins local vertices 0 and 1, so the vertex opposite it (the
    newest vertex of the bisection genealogy) sits in slot 2 and edge 2,
    opposite vertex 2, is the refinement edge.
    ``build_initial_mesh``, ``refine`` and ``uniform_refine`` emit that
    order.  Coordinates must be finite and vertex ids integers.  With
    ``validate`` the mesh must conform to the square
    (``conformity_errors``).

    Attributes
    ----------
    vertex_coords : (nv, 2) float array
    vertex_on_boundary : (nv,) bool array
    triangle_vertices : (nt, 3) int array
    areas, diameters : per-triangle geometry
    basis_components : (2, 3, nt) float array, component d of the gradient of hat
        function m on element K at [d, m, K]; the edge e_m opposite vertex m has
        |e_m| n_{K,m} = -2 |K| grad phi_m^K, n_{K,m} its unit normal out of K
    corner_across : (nt, 3) int array, the only adjacency, from one sort of the edge keys:
        the flat corner 3 K' + m' across edge m of K (K' the neighbor, m' the edge's slot
        in it), or -1 on the boundary
    new_vertex_parents : (k, 2) int array of endpoint ids (in the parent mesh) of the
        bisected edges that created the k newest vertices, or None for a root mesh
    """

    def __init__(self, vertex_coords, triangle_vertices, new_vertex_parents=None,
                 validate=True):
        coords = np.array(vertex_coords, dtype=float)
        tris = np.array(triangle_vertices)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise InvalidArgumentError("vertex_coords must have shape (nv, 2)")
        if tris.ndim != 2 or tris.shape[1] != 3:
            raise InvalidArgumentError("triangle_vertices must have shape (nt, 3)")
        nv, nt = len(coords), len(tris)
        if nt == 0:
            raise InvalidArgumentError("mesh needs at least one triangle")
        if not np.isfinite(coords).all():
            raise InvalidArgumentError("vertex coordinates must be finite")
        # a float id would be truncated, a boolean one read as 0 or 1
        if tris.dtype.kind not in "iu":
            raise InvalidArgumentError("triangle_vertices must hold integer vertex ids")
        tris = tris.astype(np.int64, copy=False)
        if tris.min() < 0 or tris.max() >= nv:
            raise InvalidArgumentError("triangle vertex id out of range")

        self.vertex_coords = coords
        self.vertex_on_boundary = np.abs(np.abs(coords).max(axis=1) - 1.0) <= BOUNDARY_TOL
        self.triangle_vertices = tris
        self.new_vertex_parents = (None if new_vertex_parents is None
                                   else np.array(new_vertex_parents, dtype=np.int64))

        # component-major (3, nt) corner coordinates, so every quantity
        # below is a few operations on contiguous vectors
        x = coords[:, 0][tris.T]
        y = coords[:, 1][tris.T]
        ex = x[[2, 0, 1]] - x[[1, 2, 0]]                   # local edge i opposite vertex i
        ey = y[[2, 0, 1]] - y[[1, 2, 0]]
        self.areas = 0.5 * ((x[1] - x[0]) * (y[2] - y[0]) - (y[1] - y[0]) * (x[2] - x[0]))
        if self.areas.min() <= 0.0:
            raise InvalidArgumentError("triangles must be counterclockwise with positive area")
        self.diameters = np.sqrt(ex * ex + ey * ey).max(axis=0)
        self.basis_components = np.stack([-ey, ex]) / (2.0 * self.areas)

        self._build_edge_table()
        if validate:
            problems = conformity_errors(self)
            if problems:
                raise InvalidArgumentError(problems[0])
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    # ------------------------------------------------------------------ build

    def _build_edge_table(self):
        tris = self.triangle_vertices
        nt, nv = len(tris), len(self.vertex_coords)
        # local edge i joins the two vertices after vertex i; its key is
        # (smaller id) * nv + larger id, listed triangle-major, so equal
        # neighbouring keys after one sort are the two sides of an edge
        after, last = tris[:, [1, 2, 0]], tris[:, [2, 0, 1]]
        keys = (np.minimum(after, last) * nv + np.maximum(after, last)).reshape(-1)
        order = np.argsort(keys)
        keys = keys[order]
        paired = keys[1:] == keys[:-1]
        if (paired[1:] & paired[:-1]).any():
            raise InvalidArgumentError("an edge is shared by more than two triangles")

        # the two corners 3 * triangle + local slot of an edge point at each other
        one, other = order[:-1][paired], order[1:][paired]
        across = np.full(3 * nt, -1, dtype=np.int64)
        across[one] = other
        across[other] = one
        self.corner_across = across.reshape(nt, 3)

    # ------------------------------------------------------------------ sizes

    @property
    def vertex_count(self):
        return len(self.vertex_coords)

    @property
    def triangle_count(self):
        return len(self.triangle_vertices)

    def __repr__(self):
        return f"Triangulation(vertices={self.vertex_count}, triangles={self.triangle_count})"


def build_initial_mesh(n: int) -> Triangulation:
    """Criss-cross mesh of [-1, 1]^2 with n x n grid squares.

    Each square is split into four triangles by adding its center, so the
    mesh has 4*n^2 triangles and (n+1)^2 + n^2 vertices.  Refinement edges
    are the square sides (the longest edge of each triangle), in local
    slots 0 and 1, an assignment that is compatible for newest-vertex
    bisection.
    """
    if not is_positive_integer(n):
        raise InvalidArgumentError("n must be a positive integer")
    n = int(n)
    ticks = np.linspace(-1.0, 1.0, n + 1)
    gx, gy = np.meshgrid(ticks, ticks, indexing="xy")
    corners = np.column_stack([gx.ravel(), gy.ravel()])
    mids = 0.5 * (ticks[:-1] + ticks[1:])
    cx, cy = np.meshgrid(mids, mids, indexing="xy")
    centers = np.column_stack([cx.ravel(), cy.ravel()])
    coords = np.vstack([corners, centers])

    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    c00 = (j * (n + 1) + i).ravel()
    c01 = c00 + (n + 1)
    center = (n + 1) ** 2 + (j * n + i).ravel()
    square = np.stack([c00, c00 + 1, c01 + 1, c01, center], axis=1)
    tris = square[:, _CRISS_CROSS].reshape(-1, 3)
    return Triangulation(coords, tris)


def refine(mesh: Triangulation, marked) -> Triangulation:
    """Bisect every marked triangle and close the mesh conformingly.

    Marked triangles are bisected through their refinement edge; any
    neighbor sharing a bisected edge is bisected as well, repeatedly,
    until no hanging vertex remains.  The children's refinement edges
    follow the newest-vertex rule.  ``marked`` is a flat collection of
    integer triangle ids (an array, list, set or range); anything else
    raises ``InvalidArgumentError``.  The input mesh is returned unchanged
    for an empty marking.  The mesh keeps no global edge numbering: the new
    vertices are numbered by the (smaller, larger) endpoint ids of their
    edges, in the order ``new_vertex_parents`` lists them.
    """
    try:
        marked = np.asarray(list(marked))
    except (TypeError, ValueError):             # not iterable, or ragged
        marked = np.empty((0, 0))
    if marked.ndim != 1 or (marked.size and marked.dtype.kind not in "iu"):
        raise InvalidArgumentError("marked must be a flat collection of integer triangle ids")
    if marked.size == 0:
        return mesh
    if marked.min() < 0 or marked.max() >= mesh.triangle_count:
        raise InvalidArgumentError("marked set contains an unknown triangle id")

    # Closure: mark the refinement edge, corner 3 K + 2, of every marked
    # triangle K, then of every triangle whose code has no children, at both
    # its corners.  Marks only grow, so this terminates.
    across = mesh.corner_across.reshape(-1)
    corner_marked = np.zeros(len(across), dtype=bool)
    grow = marked.astype(np.int64)
    while len(grow):
        corners = 3 * grow + 2
        far = across[corners]
        corner_marked[np.concatenate([corners, far[far >= 0]])] = True
        grow = np.flatnonzero(_CHILD_COUNTS[_bisection_codes(corner_marked)] == 0)
    return _bisect(mesh, corner_marked)


def uniform_refine(mesh: Triangulation) -> Triangulation:
    """Split every triangle into four similar children (two bisection sweeps).

    Equivalent to marking all triangles and all their edges at once: each
    triangle is bisected through its refinement edge and both children are
    bisected again, so the triangle count exactly quadruples and, on the
    criss-cross family, diameters exactly halve.
    """
    return _bisect(mesh, np.ones(3 * mesh.triangle_count, dtype=bool))


def _bisection_codes(corner_marked):
    """The code m0 + 2 m1 + 4 m2 of each triangle's bisected edges."""
    return corner_marked.reshape(-1, 3) @ np.array([1, 2, 4])


def _bisect(mesh, corner_marked):
    nt, nv = mesh.triangle_count, mesh.vertex_count
    code = _bisection_codes(corner_marked)
    if not _CHILD_COUNTS[code].all():
        raise RuntimeError("bisection called without conforming closure")
    # each bisected edge once, from its corner with the lower across (-1 on
    # the boundary), numbered by its (smaller, larger) endpoint pair; the
    # corner across copies the midpoint
    tris = mesh.triangle_vertices
    across = mesh.corner_across.reshape(-1)
    listed = np.flatnonzero(corner_marked & (across < np.arange(3 * nt)))
    after, last = (tris[:, turn].reshape(-1)[listed] for turn in ([1, 2, 0], [2, 0, 1]))
    low, high = np.minimum(after, last), np.maximum(after, last)
    by_key = np.argsort(low * nv + high)
    listed, pairs = listed[by_key], np.column_stack([low, high])[by_key]
    midpoint_of = np.full(3 * nt, -1, dtype=np.int64)
    midpoint_of[listed] = nv + np.arange(len(listed))
    inner = listed[across[listed] >= 0]
    midpoint_of[across[inner]] = midpoint_of[inner]
    mids = 0.5 * (mesh.vertex_coords[pairs[:, 0]] + mesh.vertex_coords[pairs[:, 1]])
    coords = np.vstack([mesh.vertex_coords, mids])

    # each triangle's children, in table order, by one flat gather from its
    # six corners (a, b, c, mid0, mid1, mid2)
    corners = np.concatenate([tris, midpoint_of.reshape(nt, 3)], axis=1)
    slots = _CHILD_SLOTS[code] + 6 * np.arange(nt)[:, None, None]
    children = corners.reshape(-1)[slots][_CHILD_KEPT[code]]
    return Triangulation(coords, children, new_vertex_parents=pairs)


def conformity_errors(mesh: Triangulation) -> list[str]:
    """What keeps ``mesh`` from being a conforming triangulation of [-1, 1]^2.

    Linear in the mesh size, read from the mesh's ``corner_across``.  The
    constructor already rejects triangles without positive area and edges
    shared by more than two triangles.  Given those, the mesh conforms
    exactly when its vertices lie in the square and belong to triangles,
    its areas sum to 4 and every edge with one neighbor lies on a side of
    the square: a hanging vertex leaves the edge it sits on one-sided
    inside the domain.  Returns human-readable problems, empty for a
    conforming mesh.
    """
    problems = []
    coords = mesh.vertex_coords
    if np.abs(coords).max() > 1.0 + BOUNDARY_TOL:
        problems.append("vertex coordinates must lie in [-1, 1]^2")
    unused = np.bincount(mesh.triangle_vertices.reshape(-1), minlength=len(coords)) == 0
    if unused.any():
        problems.append(f"{int(unused.sum())} vertices belong to no triangle")
    if abs(mesh.areas.sum() - 4.0) > COVERAGE_TOL:
        problems.append("triangle areas do not cover the square")
    # edge m of K, one-sided where nothing lies across it, joins K's
    # vertices after m
    k, m = np.nonzero(mesh.corner_across < 0)
    tris = mesh.triangle_vertices
    pa = coords[tris[k, (m + 1) % 3]]
    pb = coords[tris[k, (m + 2) % 3]]
    on_side = np.zeros(len(k), dtype=bool)
    for axis in (0, 1):
        for side in (-1.0, 1.0):
            on_side |= ((np.abs(pa[:, axis] - side) <= BOUNDARY_TOL)
                        & (np.abs(pb[:, axis] - side) <= BOUNDARY_TOL))
    if not on_side.all():
        problems.append(f"{int((~on_side).sum())} edges with one neighbor do not lie "
                        "on the boundary")
    return problems
