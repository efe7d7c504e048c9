import json

import numpy as np
import pytest
from oracles import hat_values

from hdivkit.mesh import (
    Mesh,
    MeshError,
    build_lshape,
    build_structured,
    load_mesh,
    mesh_from_dict,
    refine_uniform,
    save_mesh,
    vertex_patches,
)


def test_structured_counts():
    m = build_structured(1)
    assert (m.num_vertices, m.num_edges, m.num_triangles) == (4, 5, 2)
    m = build_structured(2)
    assert (m.num_vertices, m.num_edges, m.num_triangles) == (9, 16, 8)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_euler_formula(n):
    m = build_structured(n)
    assert m.num_vertices - m.num_edges + m.num_triangles == 1


def test_lshape_counts_and_corner_vertex():
    m = build_lshape(2)
    assert m.num_vertices - m.num_edges + m.num_triangles == 1
    assert m.num_triangles == 6 * 2 * 2
    # reentrant corner is a vertex
    assert np.min(np.linalg.norm(m.vertices, axis=1)) < 1e-14


def test_invalid_n():
    with pytest.raises(MeshError):
        build_structured(0)


def test_refine_counts_and_similarity():
    m = build_structured(2)
    r = refine_uniform(m)
    assert r.num_triangles == 4 * m.num_triangles
    assert abs(r.h_max - m.h_max / 2) < 1e-14
    assert abs(r.kappa - m.kappa) < 1e-12
    # labels inherited
    assert len(r.boundary_edges()) == 2 * len(m.boundary_edges())
    assert all(lab == "dirichlet" for lab in r.boundary_labels.values())


def test_refine_nesting():
    m = build_structured(2)
    r = refine_uniform(m)

    def contains(parent, xs_child):
        xs = m.triangle_coords(parent)
        B = np.column_stack([xs[1] - xs[0], xs[2] - xs[0]])
        lam = np.linalg.solve(B, (xs_child - xs[0]).T)
        return lam.min() > -1e-14 and (lam.sum(axis=0)).max() < 1 + 1e-14

    # triangle ordering is canonicalized, so search for the parent
    for k in range(r.num_triangles):
        xs_child = r.triangle_coords(k)
        assert any(contains(parent, xs_child) for parent in range(m.num_triangles))


def test_roundtrip_bytes(tmp_path):
    m = build_structured(3, labels="left-neumann")
    p1 = tmp_path / "m1.json"
    p2 = tmp_path / "m2.json"
    save_mesh(m, p1)
    save_mesh(load_mesh(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_missing_label_rejected():
    data = build_structured(1).to_dict()
    data["boundary"] = data["boundary"][:-1]
    with pytest.raises(MeshError, match="missing a label"):
        mesh_from_dict(data)


def test_degenerate_triangle_rejected():
    with pytest.raises(MeshError, match="degenerate"):
        Mesh(
            [[0, 0], [1, 0], [2, 0], [0, 1]],
            [[0, 1, 2], [0, 2, 3]],
            [],
        )


def test_hanging_node_rejected():
    # one triangle left of the diagonal, two on the right sharing the
    # diagonal's midpoint: the midpoint hangs on the unsplit diagonal
    hanging = {
        "vertices": [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]],
        "triangles": [[0, 2, 3], [0, 1, 4], [1, 2, 4]],
        "boundary": [
            {"edge": [0, 1], "label": "dirichlet"},
            {"edge": [1, 2], "label": "dirichlet"},
            {"edge": [2, 3], "label": "dirichlet"},
            {"edge": [0, 3], "label": "dirichlet"},
        ],
    }
    with pytest.raises(MeshError, match="hanging"):
        mesh_from_dict(hanging)
    # the properly split version is accepted
    ok = {
        "vertices": [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]],
        "triangles": [[0, 4, 3], [4, 2, 3], [0, 1, 4], [1, 2, 4]],
        "boundary": [
            {"edge": [0, 1], "label": "dirichlet"},
            {"edge": [1, 2], "label": "dirichlet"},
            {"edge": [2, 3], "label": "dirichlet"},
            {"edge": [0, 3], "label": "dirichlet"},
        ],
    }
    mesh_from_dict(ok)


def test_interior_edge_labeled_rejected():
    m = build_structured(1)
    data = m.to_dict()
    # diagonal (0, 3) is interior
    data["boundary"].append({"edge": [0, 3], "label": "dirichlet"})
    with pytest.raises(MeshError, match="interior"):
        mesh_from_dict(data)


def test_patch_center_vertex_cardinality():
    # hand count on the 8-triangle mesh with the lower-left -> upper-right
    # diagonal: the center vertex belongs to both triangles of the first and
    # last cells and one triangle of each off-diagonal cell = 6
    m = build_structured(2)
    patches = vertex_patches(m)
    center = [
        v
        for v in range(m.num_vertices)
        if np.allclose(m.vertices[v], [0.5, 0.5])
    ][0]
    assert patches[center].kind == "interior"
    assert len(patches[center].tris) == 6


def test_vertex_patches_cached_per_mesh():
    m = build_structured(2)
    patches = vertex_patches(m)
    assert vertex_patches(m) is patches
    child = refine_uniform(m)
    child_patches = vertex_patches(child)
    assert child_patches is not patches
    assert len(child_patches) == child.num_vertices
    assert sum(len(p.tris) for p in child_patches) == 3 * child.num_triangles
    assert vertex_patches(child) is child_patches
    assert vertex_patches(m) is patches


def test_patch_classification_and_multiplicity():
    m = build_structured(2)
    patches = vertex_patches(m)
    corner = [
        v for v in range(m.num_vertices) if np.allclose(m.vertices[v], [0, 0])
    ][0]
    assert patches[corner].kind == "dirichlet"
    assert sum(len(p.tris) for p in patches) == 3 * m.num_triangles


def test_patch_interface_vertex_is_dirichlet():
    m = build_structured(2, labels="left-neumann")
    patches = vertex_patches(m)
    # (0, 0) touches the bottom Dirichlet edge and the left Neumann edge
    corner = [
        v for v in range(m.num_vertices) if np.allclose(m.vertices[v], [0, 0])
    ][0]
    assert patches[corner].kind == "dirichlet"
    mid_left = [
        v for v in range(m.num_vertices) if np.allclose(m.vertices[v], [0, 0.5])
    ][0]
    assert patches[mid_left].kind == "neumann"


def test_partition_of_unity():
    rng = np.random.default_rng(7)
    m = build_structured(3)
    patches = vertex_patches(m)
    pts = rng.random((100, 2))
    hat_sum = np.zeros(len(pts))
    grad_sum = np.zeros((len(pts), 2))
    for k in range(m.num_triangles):
        xs = m.triangle_coords(k)
        B = np.column_stack([xs[1] - xs[0], xs[2] - xs[0]])
        lam = np.linalg.solve(B, (pts - xs[0]).T)
        inside = (lam[0] > 1e-9) & (lam[1] > 1e-9) & (lam[0] + lam[1] < 1 - 1e-9)
        for v in m.triangles[k]:
            hat_sum[inside] += hat_values(patches[v], m, k, pts[inside])
            grad_sum[inside] += patches[v].hat_grad(m, k)
    assert np.abs(hat_sum - 1).max() <= 1e-14
    assert np.abs(grad_sum).max() <= 1e-12


def test_orientation_signs_opposite():
    m = build_structured(3)
    for e in m.interior_edges():
        k0, k1 = m.edge_tris[e]
        s0 = m.tri_edge_sign[k0][list(m.tri_edges[k0]).index(e)]
        s1 = m.tri_edge_sign[k1][list(m.tri_edges[k1]).index(e)]
        assert s0 + s1 == 0


def test_interior_active_edges_contain_vertex():
    m = build_structured(3)
    for patch in vertex_patches(m):
        if patch.kind == "interior":
            for e in patch.active_edges:
                assert patch.vertex in m.edges[e]
