"""Conforming triangular meshes of the square [-1, 1]^2.

A mesh starts from a criss-cross pattern (each grid square is cut into
four triangles by its two diagonals) and grows by newest-vertex bisection
with iterative conforming closure.  The criss-cross start assigns every
refinement edge to the hypotenuse of a right isosceles triangle, which
makes the initial edge assignment compatible, so the closure always
terminates and every descendant is again right isosceles.

A triangle (a, b, c) has its refinement edge ab opposite c and edge m
opposite vertex m.  Its bisected edges give the code m0 + 2 m1 + 4 m2, and
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
    newest vertex of the bisection genealogy) sits in slot 2 and
    ``triangle_edges[:, 2]`` holds the refinement edges.
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
        function i on element K at [d, i, K]
    basis_gradients : (nt, 3, 2) view of ``basis_components`` indexed [K, i, d]
    edge_vertices : (ne, 2) int array, endpoint ids with the smaller one first
    edge_triangles : (ne, 2) int array, adjacent triangle ids, the smaller one first
        (-1 in slot 1 on the boundary)
    corner_across : (nt, 3) int array, the flat corner 3 K' + m' across edge m of K
        (K' the neighbor, m' the edge's slot in it), or -1 on the boundary
    edge_normals : (ne, 2) unit normals pointing out of the first adjacent triangle
    edge_lengths : (ne,) float array
    triangle_edges : (nt, 3) int array, global edge id of the local edge opposite each vertex
    interior_edge_ids, boundary_edge_ids : index arrays into the edge table
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
        self.basis_gradients = self.basis_components.transpose(2, 1, 0)

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
        nt = len(tris)
        nv = len(self.vertex_coords)
        # local edge i joins the two vertices after vertex i; its key is
        # (smaller id) * nv + larger id, listed triangle-major
        after, last = tris[:, [1, 2, 0]], tris[:, [2, 0, 1]]
        keys = (np.minimum(after, last) * nv + np.maximum(after, last)).reshape(-1)
        order = np.argsort(keys)
        keys = keys[order]
        new = np.empty(3 * nt, dtype=bool)
        new[0] = True
        np.not_equal(keys[1:], keys[:-1], out=new[1:])
        first = np.flatnonzero(new)
        ne = len(first)
        counts = np.diff(first, append=3 * nt)
        if counts.max() > 2:
            raise InvalidArgumentError("an edge is shared by more than two triangles")

        triangle_edges = np.empty(3 * nt, dtype=np.int64)
        triangle_edges[order] = np.cumsum(new) - 1
        self.triangle_edges = triangle_edges.reshape(nt, 3)
        has_two = counts == 2
        # each side of an edge as the flat position 3 * triangle + local
        # slot, the smaller triangle id first
        corners = np.full((ne, 2), -1, dtype=np.int64)
        corners[:, 0] = order[first]
        one, other = corners[has_two, 0], order[first[has_two] + 1]
        corners[has_two, 0] = np.minimum(one, other)
        corners[has_two, 1] = np.maximum(one, other)
        self.edge_triangles = corners // 3                  # -1 // 3 == -1
        self.corner_across = np.full((nt, 3), -1, dtype=np.int64)
        self.corner_across.reshape(-1)[corners[has_two]] = corners[has_two, ::-1]
        self.edge_vertices = np.column_stack([keys[first] // nv, keys[first] % nv])
        self.interior_edge_ids = np.flatnonzero(has_two)
        self.boundary_edge_ids = np.flatnonzero(counts == 1)

        cx, cy = self.vertex_coords.T
        a, b = self.edge_vertices.T
        tx, ty = cx[b] - cx[a], cy[b] - cy[a]
        self.edge_lengths = np.sqrt(tx * tx + ty * ty)
        nx, ny = -ty / self.edge_lengths, tx / self.edge_lengths
        # (-ty, tx) points into the counterclockwise owner exactly when its
        # edge runs from a to b, i.e. its vertex after the edge's slot is a
        owner = corners[:, 0]
        after = np.take(tris.reshape(-1), owner - owner % 3 + (owner + 1) % 3)
        flip = np.where(after == a, -1.0, 1.0)
        self.edge_normals = np.column_stack([nx * flip, ny * flip])

    # ------------------------------------------------------------------ sizes

    @property
    def vertex_count(self):
        return len(self.vertex_coords)

    @property
    def triangle_count(self):
        return len(self.triangle_vertices)

    @property
    def edge_count(self):
        return len(self.edge_vertices)

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
    follow the newest-vertex rule.  ``marked`` holds integer triangle ids
    (an array, list, set or range); a boolean mask or float ids raise
    ``InvalidArgumentError``.  The input mesh is returned unchanged for an
    empty marking.
    """
    marked = np.asarray(list(marked))
    if marked.size == 0:
        return mesh
    if marked.dtype.kind not in "iu":
        raise InvalidArgumentError("marked must hold integer triangle ids")
    marked = np.unique(marked.astype(np.int64))
    if marked.min() < 0 or marked.max() >= mesh.triangle_count:
        raise InvalidArgumentError("marked set contains an unknown triangle id")

    edge_marked = np.zeros(mesh.edge_count, dtype=bool)
    ref_edge = mesh.triangle_edges[:, 2]
    edge_marked[ref_edge[marked]] = True
    # Closure: bisect the refinement edge of every triangle whose code has
    # no children.  Marks only grow, so this terminates.
    while True:
        childless = _CHILD_COUNTS[_bisection_codes(mesh, edge_marked)] == 0
        if not childless.any():
            break
        edge_marked[ref_edge[childless]] = True
    return _bisect(mesh, edge_marked)


def uniform_refine(mesh: Triangulation) -> Triangulation:
    """Split every triangle into four similar children (two bisection sweeps).

    Equivalent to marking all triangles and all their edges at once: each
    triangle is bisected through its refinement edge and both children are
    bisected again, so the triangle count exactly quadruples and, on the
    criss-cross family, diameters exactly halve.
    """
    return _bisect(mesh, np.ones(mesh.edge_count, dtype=bool))


def _bisection_codes(mesh, edge_marked):
    """The code m0 + 2 m1 + 4 m2 of each triangle's bisected edges."""
    m = edge_marked[mesh.triangle_edges]
    return m[:, 0] + 2 * m[:, 1] + 4 * m[:, 2]


def _bisect(mesh, edge_marked):
    nt, nv = mesh.triangle_count, mesh.vertex_count
    split = np.flatnonzero(edge_marked)
    midpoint_of = np.full(mesh.edge_count, -1, dtype=np.int64)
    midpoint_of[split] = nv + np.arange(len(split))
    pairs = mesh.edge_vertices[split]
    mids = 0.5 * (mesh.vertex_coords[pairs[:, 0]] + mesh.vertex_coords[pairs[:, 1]])
    coords = np.vstack([mesh.vertex_coords, mids])

    code = _bisection_codes(mesh, edge_marked)
    if not _CHILD_COUNTS[code].all():
        raise RuntimeError("bisection called without conforming closure")
    # each triangle's children, in table order, by one flat gather from its
    # six corners (a, b, c, mid0, mid1, mid2)
    corners = np.concatenate([mesh.triangle_vertices, midpoint_of[mesh.triangle_edges]],
                             axis=1)
    slots = _CHILD_SLOTS[code] + 6 * np.arange(nt)[:, None, None]
    children = corners.reshape(-1)[slots][_CHILD_KEPT[code]]
    return Triangulation(coords, children, new_vertex_parents=pairs)


def conformity_errors(mesh: Triangulation) -> list[str]:
    """What keeps ``mesh`` from being a conforming triangulation of [-1, 1]^2.

    Linear in the mesh size, read from the mesh's own edge table.  The
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
    ev = mesh.edge_vertices[mesh.boundary_edge_ids]
    pa = coords[ev[:, 0]]
    pb = coords[ev[:, 1]]
    on_side = np.zeros(len(ev), dtype=bool)
    for axis in (0, 1):
        for side in (-1.0, 1.0):
            on_side |= ((np.abs(pa[:, axis] - side) <= BOUNDARY_TOL)
                        & (np.abs(pb[:, axis] - side) <= BOUNDARY_TOL))
    if not on_side.all():
        problems.append(f"{int((~on_side).sum())} edges with one neighbor do not lie "
                        "on the boundary")
    return problems
