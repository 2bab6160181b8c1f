"""Conforming triangular meshes of the square [-1, 1]^2.

A mesh starts from a criss-cross pattern (each grid square is cut into
four triangles by its two diagonals) and grows by newest-vertex bisection
with iterative conforming closure.  The criss-cross start assigns every
refinement edge to the hypotenuse of a right isosceles triangle, which
makes the initial edge assignment compatible, so the closure always
terminates and every descendant is again right isosceles.

``Triangulation`` objects are immutable: ``refine`` and ``uniform_refine``
return new instances, and all arrays are marked read-only, so meshes can
be shared freely between threads.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError

# Dyadic refinement of [-1, 1]^2 keeps boundary coordinates exactly at +-1,
# so boundary membership only needs a tiny absolute tolerance.
BOUNDARY_TOL = 1e-14
COVERAGE_TOL = 1e-10

# Vertex permutation that moves the edge opposite local vertex r into the
# slot joining local vertices 0 and 1 (cyclic, so orientation is kept).
_NORMALIZE = np.array([[1, 2, 0], [2, 0, 1], [0, 1, 2]])


def _perp(v):
    """Rotate 2-vectors by +90 degrees (last axis holds x, y)."""
    out = np.empty_like(v)
    out[..., 0] = -v[..., 1]
    out[..., 1] = v[..., 0]
    return out


def _cross2(u, v):
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


class Triangulation:
    """Conforming triangulation of the square [-1, 1]^2.

    Triangles are stored with their refinement edge joining local
    vertices 0 and 1; the vertex opposite that edge (the newest vertex of
    the bisection genealogy) sits in slot 2, so ``refinement_edges`` is
    always 2 after construction.  Vertex order is counterclockwise.

    Attributes
    ----------
    vertex_coords : (nv, 2) float array
    vertex_on_boundary : (nv,) bool array
    triangle_vertices : (nt, 3) int array
    refinement_edges : (nt,) int array, local edge index opposite the newest vertex
    parents : (nt,) int array, id in the mesh this one was refined from (-1 for roots)
    areas, diameters, centroids : per-triangle geometry
    basis_gradients : (nt, 3, 2) gradients of the three hat functions
    edge_vertices : (ne, 2) int array, endpoint ids with the smaller one first
    edge_triangles : (ne, 2) int array, adjacent triangle ids (-1 in slot 1 on the boundary)
    edge_normals : (ne, 2) unit normals pointing out of the first adjacent triangle
    edge_lengths : (ne,) float array
    triangle_edges : (nt, 3) int array, global edge id of the local edge opposite each vertex
    interior_edge_ids, boundary_edge_ids : index arrays into the edge table
    new_vertex_parents : (k, 2) int array of endpoint ids (in the parent mesh) of the
        bisected edges that created the k newest vertices, or None for a root mesh
    """

    def __init__(self, vertex_coords, triangle_vertices, refinement_edges=None,
                 level=0, parents=None, new_vertex_parents=None, validate=True):
        coords = np.array(vertex_coords, dtype=float)
        tris = np.array(triangle_vertices, dtype=np.int64)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise InvalidArgumentError("vertex_coords must have shape (nv, 2)")
        if tris.ndim != 2 or tris.shape[1] != 3:
            raise InvalidArgumentError("triangle_vertices must have shape (nt, 3)")
        nv, nt = len(coords), len(tris)
        if nt == 0:
            raise InvalidArgumentError("mesh needs at least one triangle")
        if tris.min() < 0 or tris.max() >= nv:
            raise InvalidArgumentError("triangle vertex id out of range")

        if refinement_edges is None:
            ref = _longest_edges(coords, tris)
        else:
            ref = np.array(refinement_edges, dtype=np.int64)
            if ref.shape != (nt,) or ref.min() < 0 or ref.max() > 2:
                raise InvalidArgumentError("refinement_edges must be per-triangle local indices")
        tris = np.take_along_axis(tris, _NORMALIZE[ref], axis=1)

        self.vertex_coords = coords
        self.vertex_on_boundary = np.abs(np.abs(coords).max(axis=1) - 1.0) <= BOUNDARY_TOL
        self.triangle_vertices = tris
        self.refinement_edges = np.full(nt, 2, dtype=np.int64)
        self.level = int(level)
        if parents is None:
            self.parents = np.full(nt, -1, dtype=np.int64)
        else:
            self.parents = np.array(parents, dtype=np.int64)
        self.new_vertex_parents = (None if new_vertex_parents is None
                                   else np.array(new_vertex_parents, dtype=np.int64))

        p = coords[tris]                                   # (nt, 3, 2)
        edge_vec = p[:, [2, 0, 1], :] - p[:, [1, 2, 0], :]  # local edge i opposite vertex i
        self.areas = 0.5 * _cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        if self.areas.min() <= 0.0:
            raise InvalidArgumentError("triangles must be counterclockwise with positive area")
        lengths = np.sqrt((edge_vec ** 2).sum(axis=2))
        self.diameters = lengths.max(axis=1)
        self.centroids = p.mean(axis=1)
        self.basis_gradients = _perp(edge_vec) / (2.0 * self.areas[:, None, None])

        self._build_edge_table()
        if validate:
            self._validate_domain()
        for arr in (self.vertex_coords, self.vertex_on_boundary, self.triangle_vertices,
                    self.refinement_edges, self.parents, self.areas, self.diameters,
                    self.centroids, self.basis_gradients, self.edge_vertices,
                    self.edge_triangles, self.edge_normals, self.edge_lengths,
                    self.triangle_edges, self.interior_edge_ids, self.boundary_edge_ids):
            arr.setflags(write=False)
        if self.new_vertex_parents is not None:
            self.new_vertex_parents.setflags(write=False)

    # ------------------------------------------------------------------ build

    def _build_edge_table(self):
        tris = self.triangle_vertices
        nt = len(tris)
        nv = len(self.vertex_coords)
        pairs = np.sort(tris[:, [[1, 2], [2, 0], [0, 1]]].reshape(-1, 2), axis=1)
        # 1-D keys sort like the (smaller, larger) endpoint pairs and are
        # much cheaper to unique than rows
        keys, inverse = np.unique(pairs[:, 0] * nv + pairs[:, 1], return_inverse=True)
        edge_vertices = np.column_stack([keys // nv, keys % nv])
        ne = len(edge_vertices)
        counts = np.bincount(inverse, minlength=ne)
        if counts.max() > 2:
            raise InvalidArgumentError("an edge is shared by more than two triangles")

        self.triangle_edges = inverse.reshape(nt, 3)
        # Stable sort keeps triangle-major order, so the first triangle seen
        # per edge is the one with the smallest id.
        order = np.argsort(inverse, kind="stable")
        flat_tri = np.repeat(np.arange(nt, dtype=np.int64), 3)[order]
        first = np.searchsorted(inverse[order], np.arange(ne))
        edge_triangles = np.full((ne, 2), -1, dtype=np.int64)
        edge_triangles[:, 0] = flat_tri[first]
        has_two = counts == 2
        edge_triangles[has_two, 1] = flat_tri[first[has_two] + 1]

        a = self.vertex_coords[edge_vertices[:, 0]]
        b = self.vertex_coords[edge_vertices[:, 1]]
        tangent = b - a
        lengths = np.sqrt((tangent ** 2).sum(axis=1))
        normals = _perp(tangent) / lengths[:, None]
        outward = ((0.5 * (a + b) - self.centroids[edge_triangles[:, 0]]) * normals).sum(axis=1)
        normals[outward < 0.0] *= -1.0

        self.edge_vertices = edge_vertices
        self.edge_triangles = edge_triangles
        self.edge_normals = normals
        self.edge_lengths = lengths
        self.interior_edge_ids = np.flatnonzero(has_two)
        self.boundary_edge_ids = np.flatnonzero(counts == 1)

    def _validate_domain(self):
        if np.abs(self.vertex_coords).max() > 1.0 + BOUNDARY_TOL:
            raise InvalidArgumentError("vertex coordinates must lie in [-1, 1]^2")
        if abs(self.areas.sum() - 4.0) > COVERAGE_TOL:
            raise InvalidArgumentError("triangle areas do not cover the square")
        # A boundary edge (one adjacent triangle) must lie on a side of the
        # square; an interior edge with one neighbor is a hanging-node bug.
        ev = self.edge_vertices[self.boundary_edge_ids]
        pa = self.vertex_coords[ev[:, 0]]
        pb = self.vertex_coords[ev[:, 1]]
        on_side = np.zeros(len(ev), dtype=bool)
        for axis in (0, 1):
            for side in (-1.0, 1.0):
                on_side |= ((np.abs(pa[:, axis] - side) <= BOUNDARY_TOL)
                            & (np.abs(pb[:, axis] - side) <= BOUNDARY_TOL))
        if not on_side.all():
            raise InvalidArgumentError("edge with one neighbor does not lie on the boundary")

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
        return (f"Triangulation(level={self.level}, vertices={self.vertex_count}, "
                f"triangles={self.triangle_count})")


def _longest_edges(coords, tris):
    """Local index of the longest edge per triangle.

    Ties go to the edge whose opposite vertex has the smallest global id,
    which keeps the assignment deterministic.
    """
    p = coords[tris]
    edge_vec = p[:, [2, 0, 1], :] - p[:, [1, 2, 0], :]
    lengths = np.sqrt((edge_vec ** 2).sum(axis=2))
    longest = lengths.max(axis=1, keepdims=True)
    tied = lengths >= longest * (1.0 - 1e-12)
    candidates = np.where(tied, tris, np.iinfo(np.int64).max)
    return candidates.argmin(axis=1)


def build_initial_mesh(n: int) -> Triangulation:
    """Criss-cross mesh of [-1, 1]^2 with n x n grid squares.

    Each square is split into four triangles by adding its center, so the
    mesh has 4*n^2 triangles and (n+1)^2 + n^2 vertices.  Refinement edges
    are the square sides (the longest edge of each triangle), an
    assignment that is compatible for newest-vertex bisection.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
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
    i = i.ravel()
    j = j.ravel()
    c00 = j * (n + 1) + i
    c10 = c00 + 1
    c01 = c00 + (n + 1)
    c11 = c01 + 1
    center = (n + 1) ** 2 + j * n + i
    quarters = [(c00, c10, center), (c10, c11, center),
                (c11, c01, center), (c01, c00, center)]
    tris = np.empty((4 * n * n, 3), dtype=np.int64)
    for q, (u, v, w) in enumerate(quarters):
        tris[q::4, 0] = u
        tris[q::4, 1] = v
        tris[q::4, 2] = w
    return Triangulation(coords, tris)


def refine(mesh: Triangulation, marked) -> Triangulation:
    """Bisect every marked triangle and close the mesh conformingly.

    Marked triangles are bisected through their refinement edge; any
    neighbor sharing a bisected edge is bisected as well, repeatedly,
    until no hanging vertex remains.  Children record the id of the
    triangle they came from and their refinement edges follow the
    newest-vertex rule.  The input mesh is returned unchanged for an
    empty marking.
    """
    marked = np.unique(np.asarray(list(marked), dtype=np.int64))
    if marked.size == 0:
        return mesh
    if marked.min() < 0 or marked.max() >= mesh.triangle_count:
        raise InvalidArgumentError("marked set contains an unknown triangle id")

    edge_marked = np.zeros(mesh.edge_count, dtype=bool)
    ref_edge = mesh.triangle_edges[:, 2]
    edge_marked[ref_edge[marked]] = True
    # Closure: whenever any edge of a triangle is marked its refinement
    # edge must be marked too.  Marks only grow, so this terminates.
    while True:
        needs = edge_marked[mesh.triangle_edges].any(axis=1) & ~edge_marked[ref_edge]
        if not needs.any():
            break
        edge_marked[ref_edge[needs]] = True
    return _bisect(mesh, edge_marked)


def uniform_refine(mesh: Triangulation) -> Triangulation:
    """Split every triangle into four similar children (two bisection sweeps).

    Equivalent to marking all triangles and all their edges at once: each
    triangle is bisected through its refinement edge and both children are
    bisected again, so the triangle count exactly quadruples and, on the
    criss-cross family, diameters exactly halve.
    """
    return _bisect(mesh, np.ones(mesh.edge_count, dtype=bool))


def _bisect(mesh, edge_marked):
    tris = mesh.triangle_vertices
    te = mesh.triangle_edges
    nt = mesh.triangle_count
    nv = mesh.vertex_count

    split = np.flatnonzero(edge_marked)
    midpoint_of = np.full(mesh.edge_count, -1, dtype=np.int64)
    midpoint_of[split] = nv + np.arange(len(split))
    pairs = mesh.edge_vertices[split]
    mids = 0.5 * (mesh.vertex_coords[pairs[:, 0]] + mesh.vertex_coords[pairs[:, 1]])
    coords = np.vstack([mesh.vertex_coords, mids])

    m = edge_marked[te]
    if np.any((m[:, 0] | m[:, 1]) & ~m[:, 2]):
        raise RuntimeError("bisection called without conforming closure")
    case = np.zeros(nt, dtype=np.int64)
    case[m[:, 2] & ~m[:, 1] & ~m[:, 0]] = 1
    case[m[:, 2] & m[:, 1] & ~m[:, 0]] = 2
    case[m[:, 2] & ~m[:, 1] & m[:, 0]] = 3
    case[m[:, 2] & m[:, 1] & m[:, 0]] = 4
    n_children = np.array([1, 2, 3, 3, 4])[case]
    start = np.concatenate([[0], np.cumsum(n_children)])
    out = np.empty((start[-1], 3), dtype=np.int64)
    parents = np.repeat(np.arange(nt, dtype=np.int64), n_children)

    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    m0 = midpoint_of[te[:, 0]]
    m1 = midpoint_of[te[:, 1]]
    m2 = midpoint_of[te[:, 2]]

    def emit(mask, slot, cols):
        rows = start[:-1][mask] + slot
        out[rows, 0] = cols[0][mask]
        out[rows, 1] = cols[1][mask]
        out[rows, 2] = cols[2][mask]

    keep = case == 0
    emit(keep, 0, (a, b, c))
    # One bisection: the halves keep the parent's outer edges as their
    # refinement edges, with the midpoint as the newest vertex.
    only = case == 1
    emit(only, 0, (c, a, m2))
    emit(only, 1, (b, c, m2))
    # Refinement edge plus the edge opposite vertex 1: the first child is
    # bisected again through that edge.
    left = case == 2
    emit(left, 0, (m2, c, m1))
    emit(left, 1, (a, m2, m1))
    emit(left, 2, (b, c, m2))
    right = case == 3
    emit(right, 0, (c, a, m2))
    emit(right, 1, (m2, b, m0))
    emit(right, 2, (c, m2, m0))
    both = case == 4
    emit(both, 0, (m2, c, m1))
    emit(both, 1, (a, m2, m1))
    emit(both, 2, (m2, b, m0))
    emit(both, 3, (c, m2, m0))

    return Triangulation(coords, out, refinement_edges=np.full(len(out), 2, dtype=np.int64),
                         level=mesh.level + 1, parents=parents, new_vertex_parents=pairs)


def min_angle_degrees(mesh: Triangulation) -> float:
    """Smallest interior angle over all triangles, in degrees."""
    p = mesh.vertex_coords[mesh.triangle_vertices]
    edge_vec = p[:, [2, 0, 1], :] - p[:, [1, 2, 0], :]
    lengths = np.sqrt((edge_vec ** 2).sum(axis=2))
    small = np.inf
    for i in range(3):
        opposite = lengths[:, i]
        adj1 = lengths[:, (i + 1) % 3]
        adj2 = lengths[:, (i + 2) % 3]
        cos = (adj1 ** 2 + adj2 ** 2 - opposite ** 2) / (2.0 * adj1 * adj2)
        small = min(small, np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))).min())
    return float(small)


def conformity_errors(mesh: Triangulation, tol: float = 1e-12) -> list[str]:
    """Brute-force conformity check, intended as an independent oracle.

    Works directly from the triangle list (not the cached edge table):
    counts edge multiplicities with a dictionary, tests every vertex
    against every edge segment for hanging nodes, and checks orientation,
    coverage and that single-sided edges lie on the boundary of the
    square.  Returns a list of human-readable violations, empty when the
    mesh is conforming.
    """
    problems = []
    coords = mesh.vertex_coords
    tris = mesh.triangle_vertices

    seen: dict[tuple[int, int], int] = {}
    for verts in tris:
        v = [int(x) for x in verts]
        for i, j in ((v[0], v[1]), (v[1], v[2]), (v[2], v[0])):
            key = (i, j) if i < j else (j, i)
            seen[key] = seen.get(key, 0) + 1
    for key, count in seen.items():
        if count > 2:
            problems.append(f"edge {key} shared by {count} triangles")

    pa = coords[tris[:, 0]]
    signed = 0.5 * _cross2(coords[tris[:, 1]] - pa, coords[tris[:, 2]] - pa)
    for k in np.flatnonzero(signed <= 0.0):
        problems.append(f"triangle {k} has non-positive area {signed[k]:.3e}")
    total = signed.sum()
    if abs(total - 4.0) > COVERAGE_TOL:
        problems.append(f"total area {total!r} differs from 4")

    edges = np.array(sorted(seen.keys()), dtype=np.int64)
    a = coords[edges[:, 0]]
    d = coords[edges[:, 1]] - a
    dd = (d ** 2).sum(axis=1)
    chunk = max(1, int(2e6) // max(len(edges), 1))
    for lo in range(0, len(coords), chunk):
        pts = coords[lo:lo + chunk]
        rel = pts[:, None, :] - a[None, :, :]
        cross = rel[..., 0] * d[None, :, 1] - rel[..., 1] * d[None, :, 0]
        t = (rel * d[None, :, :]).sum(axis=2) / dd[None, :]
        near = (np.abs(cross) <= tol * np.sqrt(dd)[None, :]) & (t > tol) & (t < 1.0 - tol)
        ids = np.arange(lo, lo + len(pts))
        near &= (ids[:, None] != edges[None, :, 0]) & (ids[:, None] != edges[None, :, 1])
        for vi, ei in zip(*np.nonzero(near)):
            problems.append(f"vertex {lo + int(vi)} hangs on edge "
                            f"{tuple(int(x) for x in edges[ei])}")

    for key, count in seen.items():
        if count != 1:
            continue
        qa, qb = coords[key[0]], coords[key[1]]
        on_side = any(abs(qa[axis] - side) <= BOUNDARY_TOL
                      and abs(qb[axis] - side) <= BOUNDARY_TOL
                      for axis in (0, 1) for side in (-1.0, 1.0))
        if not on_side:
            problems.append(f"interior edge {key} has only one neighbor")
    return problems
