import numpy as np
import pytest

from inflap import (InvalidArgumentError, Triangulation, build_initial_mesh,
                    conformity_errors, min_angle_degrees, refine,
                    uniform_refine)


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
    assert not conformity_errors(mesh)


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
    assert np.all(mesh.parents == -1)
    assert np.all(mesh.refinement_edges == 2)
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


def test_refine_all_of_initial_mesh():
    refined = refine(build_initial_mesh(1), {0, 1, 2, 3})
    assert refined.triangle_count >= 8
    assert refined.areas.sum() == pytest.approx(4.0, abs=1e-10)
    assert not conformity_errors(refined)


def test_refine_single_triangle_conformity():
    # independent brute-force conformity oracle after a local refinement
    mesh = build_initial_mesh(2)
    refined = refine(mesh, {5})
    assert not conformity_errors(refined)
    again = refine(refined, {0})
    assert not conformity_errors(again)


def test_refine_records_genealogy():
    mesh = build_initial_mesh(1)
    refined = refine(mesh, {0})
    assert refined.new_vertex_parents is not None
    children = np.flatnonzero(refined.parents == 0)
    assert len(children) >= 2


def test_uniform_refine_quadruples_and_halves():
    mesh = build_initial_mesh(1)
    fine = uniform_refine(mesh)
    assert fine.triangle_count == 4 * mesh.triangle_count
    assert fine.diameters.max() == pytest.approx(0.5 * mesh.diameters.max())
    assert not conformity_errors(fine)
    # quadrupling holds on locally refined meshes as well
    local = refine(mesh, {0})
    fine2 = uniform_refine(local)
    assert fine2.triangle_count == 4 * local.triangle_count


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
    assert not conformity_errors(mesh)


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
    assert np.array_equal(a.parents, b.parents)
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
    mesh = build_initial_mesh(1)
    with pytest.raises(ValueError):
        mesh.vertex_coords[0, 0] = 5.0


def test_conformity_oracle_catches_hanging_vertex():
    # two triangles sharing an edge, plus a vertex planted mid-edge
    coords = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0), (0.0, 0.0)]
    tris = [(0, 1, 2), (0, 2, 3)]
    broken = Triangulation(coords, tris, validate=False)
    assert any("hangs" in problem for problem in conformity_errors(broken))
