import numpy as np
import pytest

from inflap import (InvalidArgumentError, Triangulation, build_initial_mesh,
                    conformity_errors, refine, uniform_refine)
from inflap.mesh import _bisect
from conftest import (any_edge_closure, assert_bit_identical, bit_oracle_meshes,
                      brute_conformity_errors, centroids, five_case_bisect,
                      min_angle_degrees, oracle_meshes, perturbed_mesh,
                      quarter_loop_initial_mesh, row_major_edge_table, row_major_mesh_arrays)


def assert_same_mesh(ours, reference):
    """Every array of two meshes bit-identical, the bisection genealogy included."""
    for name in row_major_mesh_arrays(reference):
        assert_bit_identical(getattr(ours, name), getattr(reference, name), name)
    if reference.new_vertex_parents is None:
        assert ours.new_vertex_parents is None
    else:
        assert_bit_identical(ours.new_vertex_parents, reference.new_vertex_parents,
                             "new_vertex_parents")


def test_initial_mesh_counts_n1():
    mesh = build_initial_mesh(1)
    assert mesh.triangle_count == 4
    assert mesh.vertex_count == 5
    # four interior edges, each seen from both sides, and four boundary edges
    assert (mesh.corner_across >= 0).sum() == 8
    assert (mesh.corner_across == -1).sum() == 4


def test_initial_mesh_counts_n2():
    mesh = build_initial_mesh(2)
    assert mesh.triangle_count == 16
    assert mesh.vertex_count == 13


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_initial_mesh_covers_square(n):
    mesh = build_initial_mesh(n)
    assert mesh.areas.sum() == pytest.approx(4.0, abs=1e-10)
    assert not brute_conformity_errors(mesh)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
def test_initial_mesh_is_bit_identical_to_quarter_loop_oracle(n):
    assert_same_mesh(build_initial_mesh(n), quarter_loop_initial_mesh(n))


def test_initial_mesh_rejects_bad_n():
    with pytest.raises(InvalidArgumentError):
        build_initial_mesh(0)
    with pytest.raises(InvalidArgumentError):
        build_initial_mesh(-3)


def test_boundary_flags_match_coordinates():
    mesh = uniform_refine(build_initial_mesh(3))
    expected = np.abs(np.abs(mesh.vertex_coords).max(axis=1) - 1.0) <= 1e-14
    assert np.array_equal(mesh.vertex_on_boundary, expected)


def test_diameters_and_edge_lengths():
    # right triangle with legs of length one, outside the square checks
    tiny = Triangulation([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)],
                         validate=False)
    assert tiny.diameters == pytest.approx([np.sqrt(2.0)])
    # |e_m| = 2 |K| |grad phi_m|, edge 0 the hypotenuse
    lengths = 2.0 * tiny.areas * np.hypot(*tiny.basis_components[:, :, 0])
    assert lengths == pytest.approx([np.sqrt(2.0), 1.0, 1.0])

    mesh = build_initial_mesh(1)
    assert np.allclose(mesh.diameters, 2.0)


def test_entity_views():
    mesh = build_initial_mesh(1)
    assert list(mesh.vertex_on_boundary) == [True] * 4 + [False]
    assert mesh.new_vertex_parents is None
    # the refinement edge, opposite slot 2, is the longest edge of each
    # right isosceles triangle, also after local refinement
    for tested in (mesh, refine(build_initial_mesh(2), {1, 6})):
        p = tested.vertex_coords[tested.triangle_vertices]
        ex, ey = (p[:, 1] - p[:, 0]).T
        assert np.array_equal(np.sqrt(ex * ex + ey * ey), tested.diameters)
    # the one-sided edges are the sides of the square
    k, m = np.nonzero(mesh.corner_across == -1)
    ends = mesh.triangle_vertices[k[:, None], (m[:, None] + [1, 2]) % 3]
    assert len(k) == 4 and mesh.vertex_on_boundary[ends].all()


def test_refine_empty_marking_is_noop():
    mesh = build_initial_mesh(2)
    same = refine(mesh, set())
    assert same.triangle_count == mesh.triangle_count


def test_refine_unknown_id():
    mesh = build_initial_mesh(1)
    with pytest.raises(InvalidArgumentError):
        refine(mesh, {99})


@pytest.mark.parametrize("marked", [np.arange(4) == 3, [False, False, False, True],
                                    [2.7], np.array([3.0]), [[0, 1]], np.array([[0], [1]]),
                                    3, [[0], [1, 2]]],
                         ids=["mask", "mask-list", "float", "float-array", "nested",
                              "2-d", "scalar", "ragged"])
def test_refine_rejects_masks_and_float_ids(marked):
    # a mask would be read as ids 0 and 1, a float id truncated, nested
    # ids flattened
    with pytest.raises(InvalidArgumentError):
        refine(build_initial_mesh(1), marked)


@pytest.mark.parametrize("marked", [[3], range(3, 4), np.array([3], dtype=np.uint8)],
                         ids=["list", "range", "unsigned"])
def test_refine_accepts_integer_ids(marked):
    mesh = build_initial_mesh(1)
    expected = refine(mesh, {3})
    assert np.array_equal(refine(mesh, marked).triangle_vertices, expected.triangle_vertices)


def test_refine_all_of_initial_mesh():
    refined = refine(build_initial_mesh(1), {0, 1, 2, 3})
    assert refined.triangle_count >= 8
    assert refined.areas.sum() == pytest.approx(4.0, abs=1e-10)
    assert not brute_conformity_errors(refined)


def test_refine_single_triangle_conformity():
    # independent brute-force conformity oracle after a local refinement
    mesh = build_initial_mesh(2)
    refined = refine(mesh, {5})
    assert not brute_conformity_errors(refined)
    again = refine(refined, {0})
    assert not brute_conformity_errors(again)


def test_refine_records_genealogy():
    mesh = build_initial_mesh(1)
    refined = refine(mesh, {0})
    assert refined.new_vertex_parents is not None
    # triangle 0 is bisected through its refinement edge, so at least two
    # children lie inside it
    corners = mesh.vertex_coords[mesh.triangle_vertices[0]]
    vander = np.column_stack([np.ones(3), corners])
    barycentric = np.column_stack([np.ones(refined.triangle_count),
                                   centroids(refined)]) @ np.linalg.inv(vander)
    children = np.flatnonzero((barycentric > 0.0).all(axis=1))
    assert len(children) >= 2


def test_uniform_refine_quadruples_and_halves():
    mesh = build_initial_mesh(1)
    fine = uniform_refine(mesh)
    assert fine.triangle_count == 4 * mesh.triangle_count
    assert fine.diameters.max() == pytest.approx(0.5 * mesh.diameters.max())
    assert not brute_conformity_errors(fine)
    # quadrupling holds on locally refined meshes as well
    local = refine(mesh, {0})
    fine2 = uniform_refine(local)
    assert fine2.triangle_count == 4 * local.triangle_count


@pytest.mark.parametrize("seed", range(4))
def test_refine_is_bit_identical_to_five_case_oracle(seed):
    # 20 % random marking reaches every code of bisected edges
    # (m0 + 2 m1 + 4 m2: kept, the refinement edge alone, with edge 1,
    # with edge 0, all three)
    rng = np.random.default_rng(seed)
    mesh = build_initial_mesh(2)
    codes = set()
    for _ in range(8):
        marked = rng.choice(mesh.triangle_count, max(1, mesh.triangle_count // 5),
                            replace=False)
        edge_marked = any_edge_closure(mesh, marked)
        triangle_edges = row_major_edge_table(mesh)["triangle_edges"]
        codes.update((edge_marked[triangle_edges] @ [1, 2, 4]).tolist())
        refined = refine(mesh, marked)
        assert_same_mesh(refined, five_case_bisect(mesh, edge_marked))
        mesh = refined
    assert codes == {0b000, 0b100, 0b110, 0b101, 0b111}


@pytest.mark.parametrize("name", list(bit_oracle_meshes()))
def test_uniform_refine_is_bit_identical_to_five_case_oracle(name):
    mesh = bit_oracle_meshes()[name]
    edge_count = len(row_major_edge_table(mesh)["edge_vertices"])
    assert_same_mesh(uniform_refine(mesh),
                     five_case_bisect(mesh, np.ones(edge_count, dtype=bool)))


@pytest.mark.parametrize("grow", [lambda mesh: refine(mesh, [0, 5, 9]), uniform_refine],
                         ids=["refine", "uniform"])
def test_new_vertex_parents_ascend_by_endpoint_pair(grow):
    # midpoints are numbered by their edge's (smaller, larger) endpoint ids,
    # the order of the edge ids of earlier meshes, on which bit identity rests
    mesh = build_initial_mesh(2)
    for _ in range(3):
        mesh = grow(mesh)
        parents = mesh.new_vertex_parents
        assert np.all(parents[:, 0] < parents[:, 1])
        keys = parents[:, 0] * mesh.vertex_count + parents[:, 1]
        assert np.all(np.diff(keys) > 0)


@pytest.mark.parametrize("code", [0b001, 0b010, 0b011])
def test_bisect_rejects_a_marking_without_closure(code):
    # a bisected edge without the refinement edge leaves a hanging vertex;
    # each edge is marked at its corner in triangle 5 and the corner across
    mesh = build_initial_mesh(2)
    corners = 3 * 5 + np.array([m for m in range(3) if code >> m & 1])
    far = mesh.corner_across.reshape(-1)[corners]
    corner_marked = np.zeros(3 * mesh.triangle_count, dtype=bool)
    corner_marked[np.concatenate([corners, far[far >= 0]])] = True
    with pytest.raises(RuntimeError, match="closure"):
        _bisect(mesh, corner_marked)


def test_min_angle_across_generations():
    mesh = build_initial_mesh(2)
    rng = np.random.default_rng(3)
    for _ in range(8):
        count = max(1, mesh.triangle_count // 5)
        marked = rng.choice(mesh.triangle_count, size=count, replace=False)
        mesh = refine(mesh, marked)
        assert min_angle_degrees(mesh) >= 22.5 - 1e-9
        assert mesh.areas.sum() == pytest.approx(4.0, abs=1e-10)
        assert mesh.areas.min() > 0
    assert not brute_conformity_errors(mesh)


def test_refinement_determinism():
    def run():
        mesh = build_initial_mesh(2)
        rng = np.random.default_rng(17)
        for _ in range(30):
            marked = rng.choice(mesh.triangle_count, size=2, replace=False)
            mesh = refine(mesh, marked)
        return mesh

    a, b = run(), run()
    assert np.array_equal(a.vertex_coords, b.vertex_coords)
    assert np.array_equal(a.triangle_vertices, b.triangle_vertices)
    assert np.array_equal(a.new_vertex_parents, b.new_vertex_parents)
    assert np.array_equal(a.corner_across, b.corner_across)


def test_edge_table_matches_row_unique_oracle():
    # the edge table as built from np.unique over endpoint rows
    mesh = refine(uniform_refine(build_initial_mesh(3)), [0, 7, 19, 40])
    nt = mesh.triangle_count
    pairs = np.sort(mesh.triangle_vertices[:, [[1, 2], [2, 0], [0, 1]]].reshape(-1, 2),
                    axis=1)
    edge_vertices, inverse = np.unique(pairs, axis=0, return_inverse=True)
    inverse = inverse.reshape(nt, 3)
    edge_triangles = np.full((len(edge_vertices), 2), -1)
    for k in range(nt):
        for e in inverse[k]:
            edge_triangles[e, int(edge_triangles[e, 0] >= 0)] = k
    # the triangle across each edge of each triangle, -1 on the boundary
    sides = edge_triangles[inverse]
    other = np.where(sides[..., 0] == np.arange(nt)[:, None], sides[..., 1], sides[..., 0])
    assert np.array_equal(mesh.corner_across // 3, other)


def test_mesh_arrays_are_frozen():
    mesh = refine(build_initial_mesh(1), {0})
    for name in row_major_mesh_arrays(mesh):
        array = getattr(mesh, name)
        assert not array.flags.writeable, name
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 0
    with pytest.raises(ValueError):
        mesh.new_vertex_parents[0, 0] = 0


@pytest.mark.parametrize("name", list(bit_oracle_meshes()))
def test_mesh_arrays_are_bit_identical_to_row_major_oracle(name):
    mesh = bit_oracle_meshes()[name]
    for attribute, expected in row_major_mesh_arrays(mesh).items():
        assert_bit_identical(getattr(mesh, attribute), expected, attribute)
    # the corner across an interior edge holds the same oracle edge and
    # faces back
    table = row_major_edge_table(mesh)
    triangle_edges = table["triangle_edges"]
    across = mesh.corner_across
    inner = across >= 0
    assert np.array_equal(triangle_edges.reshape(-1)[across[inner]], triangle_edges[inner])
    assert np.array_equal(across.reshape(-1)[across[inner]], np.flatnonzero(inner))
    assert np.array_equal(~inner, np.isin(triangle_edges, table["boundary_edge_ids"]))


def turned_edge_vectors(mesh, m):
    """(ey_m, -ex_m) for the edge vector (ex_m, ey_m) from vertex m + 1 to vertex m + 2."""
    coords, tris = mesh.vertex_coords, mesh.triangle_vertices
    ex, ey = (coords[tris[:, (m + 2) % 3]] - coords[tris[:, (m + 1) % 3]]).T
    return np.stack([ey, -ex])


def dyadic_chain():
    """``build_initial_mesh(4)``, then one uniform and two local refinements."""
    rng = np.random.default_rng(5)
    meshes = [build_initial_mesh(4)]
    meshes.append(uniform_refine(meshes[-1]))
    for _ in range(2):
        mesh = meshes[-1]
        meshes.append(refine(mesh, rng.choice(mesh.triangle_count, mesh.triangle_count // 5,
                                              replace=False)))
    return meshes


@pytest.mark.parametrize("mesh, ulps", [(mesh, 0) for mesh in oracle_meshes() + dyadic_chain()]
                         + [(perturbed_mesh(), 4)],
                         ids=["uniform", "random-local", "axis-graded", "chain0", "chain1",
                              "chain2", "chain3", "perturbed"])
def test_scaled_hat_gradient_is_the_turned_edge_vector(mesh, ulps):
    # |e_m| n_{K,m} = -2 |K| grad phi_m^K; every area of a dyadic mesh is a
    # power of two, so there both sides agree bit for bit
    for m in range(3):
        turned = turned_edge_vectors(mesh, m)
        scaled = -2.0 * mesh.areas * mesh.basis_components[:, m, :]
        assert np.all(np.abs(scaled - turned) <= ulps * np.spacing(np.abs(turned)))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("validate", [True, False])
def test_constructor_rejects_non_finite_coordinates(value, validate):
    # a NaN vertex gives NaN areas, which pass both the sign and the
    # coverage check
    mesh = build_initial_mesh(2)
    coords = mesh.vertex_coords.copy()
    coords[np.flatnonzero(~mesh.vertex_on_boundary)[0], 0] = value
    with pytest.raises(InvalidArgumentError, match="finite"):
        Triangulation(coords, mesh.triangle_vertices, validate=validate)


@pytest.mark.parametrize("ids", [lambda t: t + 0.4, lambda t: t.astype(float),
                                 lambda t: (t + 0.0).tolist(), lambda t: t >= 0],
                         ids=["fractional", "whole-floats", "float-list", "mask"])
def test_constructor_rejects_non_integer_vertex_ids(ids):
    # a float id would be truncated, a boolean one read as 0 or 1
    mesh = build_initial_mesh(2)
    with pytest.raises(InvalidArgumentError, match="integer"):
        Triangulation(mesh.vertex_coords, ids(mesh.triangle_vertices))


@pytest.mark.parametrize("ids", [lambda t: t.tolist(), lambda t: t.astype(np.uint32),
                                 lambda t: t.astype(np.int32)],
                         ids=["list", "unsigned", "int32"])
def test_constructor_accepts_integer_vertex_ids(ids):
    mesh = build_initial_mesh(2)
    same = Triangulation(mesh.vertex_coords, ids(mesh.triangle_vertices))
    assert same.triangle_vertices.dtype == np.int64
    for name, expected in row_major_mesh_arrays(mesh).items():
        assert_bit_identical(getattr(same, name), expected, name)


@pytest.mark.parametrize("validate", [True, False])
def test_constructor_rejects_an_edge_of_three_triangles(validate):
    # three equal edge keys in a row after the sort
    coords = [(-1.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (0.0, 0.5)]
    tris = [(0, 1, 2), (1, 0, 3), (0, 1, 4)]
    with pytest.raises(InvalidArgumentError, match="more than two"):
        Triangulation(coords, tris, validate=validate)


def test_conformity_oracle_catches_hanging_vertex():
    # two triangles sharing an edge, plus a vertex planted mid-edge
    coords = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0), (0.0, 0.0)]
    tris = [(0, 1, 2), (0, 2, 3)]
    broken = Triangulation(coords, tris, validate=False)
    assert any("hangs" in problem for problem in brute_conformity_errors(broken))


_CORNERS = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0), (0.0, 0.0)]
_HANGING = {
    # the vertex planted mid-diagonal belongs to no triangle
    "isolated": [(0, 1, 2), (0, 2, 3)],
    # the vertex splits the diagonal on one side only
    "one-sided": [(0, 1, 4), (1, 2, 4), (0, 2, 3)],
}


@pytest.mark.parametrize("seed", range(4))
def test_conformity_check_agrees_with_oracle_on_local_refinements(seed):
    rng = np.random.default_rng(seed)
    mesh = build_initial_mesh(2)
    for _ in range(6):
        mesh = refine(mesh, rng.choice(mesh.triangle_count,
                                       max(1, mesh.triangle_count // 6), replace=False))
        assert conformity_errors(mesh) == [] == brute_conformity_errors(mesh)


@pytest.mark.parametrize("name", sorted(_HANGING))
def test_conformity_check_agrees_with_oracle_on_hanging_vertex(name):
    broken = Triangulation(_CORNERS, _HANGING[name], validate=False)
    assert conformity_errors(broken) and brute_conformity_errors(broken)


@pytest.mark.parametrize("coords, tris", [
    ([(-1.0, -1.0), (1.5, -1.0), (1.0, 1.0), (-1.0, 1.0)], [(0, 1, 2), (0, 2, 3)]),
    (_CORNERS[:4], [(0, 1, 2)]),
    (_CORNERS, _HANGING["isolated"]),
    (_CORNERS, _HANGING["one-sided"]),
], ids=["outside", "half-covered", "isolated", "one-sided"])
def test_constructor_raises_the_first_conformity_problem(coords, tris):
    problems = conformity_errors(Triangulation(coords, tris, validate=False))
    with pytest.raises(InvalidArgumentError) as info:
        Triangulation(coords, tris)
    assert str(info.value) == problems[0]
