import numpy as np
import pytest

from inflap import (InvalidArgumentError, Triangulation, build_initial_mesh,
                    conformity_errors, refine, uniform_refine)
from inflap.mesh import _bisect
from conftest import (any_edge_closure, assert_bit_identical, bit_oracle_meshes,
                      brute_conformity_errors, centroids, five_case_bisect,
                      min_angle_degrees, quarter_loop_initial_mesh, row_major_mesh_arrays)


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
    assert len(mesh.interior_edge_ids) == 4
    assert len(mesh.boundary_edge_ids) == 4


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
    assert sorted(tiny.edge_lengths) == pytest.approx([1.0, 1.0, np.sqrt(2.0)])

    mesh = build_initial_mesh(1)
    assert np.allclose(mesh.diameters, 2.0)


def test_entity_views():
    mesh = build_initial_mesh(1)
    assert list(mesh.vertex_on_boundary) == [True] * 4 + [False]
    assert mesh.new_vertex_parents is None
    # the refinement edge, opposite slot 2, is the longest edge of each
    # right isosceles triangle, also after local refinement
    for tested in (mesh, refine(build_initial_mesh(2), {1, 6})):
        assert np.array_equal(tested.edge_lengths[tested.triangle_edges[:, 2]],
                              tested.diameters)
    one_sided = np.flatnonzero(mesh.edge_triangles[:, 1] == -1)
    assert np.array_equal(one_sided, mesh.boundary_edge_ids)
    assert np.all(mesh.edge_triangles[mesh.interior_edge_ids] >= 0)
    assert np.linalg.norm(mesh.edge_normals, axis=1) == pytest.approx(1.0, abs=1e-12)


def test_refine_empty_marking_is_noop():
    mesh = build_initial_mesh(2)
    same = refine(mesh, set())
    assert same.triangle_count == mesh.triangle_count


def test_refine_unknown_id():
    mesh = build_initial_mesh(1)
    with pytest.raises(InvalidArgumentError):
        refine(mesh, {99})


@pytest.mark.parametrize("marked", [np.arange(4) == 3, [False, False, False, True],
                                    [2.7], np.array([3.0])],
                         ids=["mask", "mask-list", "float", "float-array"])
def test_refine_rejects_masks_and_float_ids(marked):
    # a mask would be read as ids 0 and 1, a float id truncated
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
        codes.update((edge_marked[mesh.triangle_edges] @ [1, 2, 4]).tolist())
        refined = refine(mesh, marked)
        assert_same_mesh(refined, five_case_bisect(mesh, edge_marked))
        mesh = refined
    assert codes == {0b000, 0b100, 0b110, 0b101, 0b111}


@pytest.mark.parametrize("name", list(bit_oracle_meshes()))
def test_uniform_refine_is_bit_identical_to_five_case_oracle(name):
    mesh = bit_oracle_meshes()[name]
    assert_same_mesh(uniform_refine(mesh),
                     five_case_bisect(mesh, np.ones(mesh.edge_count, dtype=bool)))


@pytest.mark.parametrize("code", [0b001, 0b010, 0b011])
def test_bisect_rejects_a_marking_without_closure(code):
    # a bisected edge without the refinement edge leaves a hanging vertex
    mesh = build_initial_mesh(2)
    edge_marked = np.zeros(mesh.edge_count, dtype=bool)
    edge_marked[mesh.triangle_edges[5, [m for m in range(3) if code >> m & 1]]] = True
    with pytest.raises(RuntimeError, match="closure"):
        _bisect(mesh, edge_marked)


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
    assert np.array_equal(a.edge_vertices, b.edge_vertices)


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
    assert np.array_equal(mesh.edge_vertices, edge_vertices)
    assert np.array_equal(mesh.triangle_edges, inverse)
    assert np.array_equal(mesh.edge_triangles, edge_triangles)


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
    # the corner across an interior edge holds the same edge and faces back,
    # and the smaller triangle id, which the normal points out of, comes first
    across = mesh.corner_across
    inner = across >= 0
    assert np.array_equal(mesh.triangle_edges.reshape(-1)[across[inner]],
                          mesh.triangle_edges[inner])
    assert np.array_equal(across.reshape(-1)[across[inner]], np.flatnonzero(inner))
    assert np.array_equal(~inner, np.isin(mesh.triangle_edges, mesh.boundary_edge_ids))
    sides = mesh.edge_triangles[mesh.interior_edge_ids]
    assert np.all(sides[:, 0] < sides[:, 1])


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
