import json
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import (
    apply_labels_oracle,
    build_lshape_oracle,
    build_structured_oracle,
    check_hanging_nodes_oracle,
    hat_grad,
    hat_values,
    label_boundary_oracle,
    mesh_topology_oracle,
    refine_uniform_oracle,
    triangle_coords,
)

from hdivkit.mesh import (
    Mesh,
    MeshError,
    build_lshape,
    build_structured,
    load_mesh,
    _label_boundary,
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


@pytest.mark.parametrize("build", [build_structured, build_lshape])
@pytest.mark.parametrize("n", [0, 2.5, "3", None, True], ids=["zero", "float", "string", "none", "bool"])
def test_cell_count_that_is_no_integer_is_refused_in_one_line(build, n):
    # 2.5 ended in a numpy TypeError, "3" and None in a comparison TypeError,
    # and True built a one-cell mesh
    with pytest.raises(MeshError, match=r"^n must be an integer >= 1, got ") as err:
        build(n)
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("labels", [lambda m: m.edge_label, lambda m: list(enumerate(m.edge_label)),
                                    lambda m: dict(enumerate(m.edge_label)), lambda m: ["dirichlet"]],
                         ids=["own", "own-items", "by-index", "bare-label"])
def test_labels_not_keyed_by_edge_endpoints_are_refused(labels):
    # a mesh's own edge_label holds the labels by edge index: given back to
    # Mesh, as it is or keyed by index, they get the one-line refusal naming
    # the (a, b) -> label form
    m = build_structured(2)
    with pytest.raises(MeshError, match=r"^boundary_labels maps edges \(a, b\) -> label, not ") as err:
        Mesh(m.vertices, m.triangles, labels(m))
    assert "\n" not in str(err.value)


def test_refine_counts_and_similarity():
    m = build_structured(2)
    r = refine_uniform(m)
    assert r.num_triangles == 4 * m.num_triangles
    assert abs(r.h_max - m.h_max / 2) < 1e-14
    assert abs(r.kappa - m.kappa) < 1e-12
    # labels inherited
    assert len(r.boundary_edges()) == 2 * len(m.boundary_edges())
    assert np.array_equal(r.edge_label != "", r.edge_tris[:, 1] == -1)
    assert set(r.edge_label[r.boundary_edges()]) == {"dirichlet"}


def test_refine_nesting():
    m = build_structured(2)
    r = refine_uniform(m)

    def contains(parent, xs_child):
        xs = triangle_coords(m, parent)
        B = np.column_stack([xs[1] - xs[0], xs[2] - xs[0]])
        lam = np.linalg.solve(B, (xs_child - xs[0]).T)
        return lam.min() > -1e-14 and (lam.sum(axis=0)).max() < 1 + 1e-14

    # triangle ordering is canonicalized, so search for the parent
    for k in range(r.num_triangles):
        xs_child = triangle_coords(r, k)
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


def _labels(m):
    return [((int(a), int(b)), lab) for (a, b), lab in zip(m.edges, m.edge_label) if lab]


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda ls: ls + [((8, 0), "dirichlet")], "labeled edge (0, 8) does not exist"),
        (lambda ls: ls + [(("a", "b"), "dirichlet")], "labeled edge ('a', 'b') does not exist"),
        (lambda ls: ls + [((2.5, 1), "dirichlet")], "labeled edge (1, 2.5) does not exist"),
        (lambda ls: ls + [((0, 4), "neumann")], "edge (0, 4) is interior but carries a boundary label"),
        (lambda ls: [((0, 1), "robin")] + ls[1:], "unknown boundary label 'robin' on edge (0, 1)"),
        (lambda ls: ls + [((1, 0), "neumann")], "edge (0, 1) labeled twice"),
        (lambda ls: ls[1:], "boundary edge (0, 1) is missing a label"),
        # an earlier item's later check beats a later item's earlier one,
        # and an item's first failing check is the one reported
        (lambda ls: [((0, 1), "robin")] + ls[1:] + [((0, 8), "dirichlet")],
         "unknown boundary label 'robin' on edge (0, 1)"),
        (lambda ls: ls + [((4, 0), "robin")], "edge (0, 4) is interior but carries a boundary label"),
    ],
    ids=["missing-edge", "string-ends", "float-end", "interior", "unknown", "twice", "missing-label",
         "earlier-item-wins", "first-check-wins"],
)
def test_each_label_refusal_is_reached(edit, message):
    m = build_structured(2)
    assert _labels(m)[0] == ((0, 1), "dirichlet")
    with pytest.raises(MeshError) as err:
        Mesh(m.vertices, m.triangles, edit(_labels(m)))
    assert str(err.value) == message


def _label_corpus(m, seed):
    """The labels of ``m`` shuffled, with up to three faults: a reversed,
    dropped, doubled, relabelled, interior, absent or non-integer pair."""
    rng = np.random.default_rng(seed)
    labels = _labels(m)
    interior = [tuple(int(a) for a in m.edges[e]) for e in m.interior_edges()]
    for _ in range(rng.integers(4)):
        i = int(rng.integers(len(labels)))
        (a, b), lab = labels[i]
        kind = rng.integers(7)
        if kind == 0:
            labels[i] = ((b, a), lab)
        elif kind == 1:
            del labels[i]
        elif kind == 2:
            labels.insert(int(rng.integers(len(labels) + 1)), ((b, a), str(rng.choice(["dirichlet", "neumann"]))))
        elif kind == 3:
            labels[i] = ((a, b), "robin")
        elif kind == 4:
            labels[i] = (interior[rng.integers(len(interior))], lab)
        elif kind == 5:
            labels[i] = ((a, int(rng.choice([-1, a, m.num_vertices, m.num_vertices + 7]))), lab)
        else:
            labels[i] = (("a", "b"), lab)
    return [labels[j] for j in rng.permutation(len(labels))]


_REFUSALS = ("does not exist", "is interior", "unknown boundary label", "labeled twice", "missing a label")


def test_label_refusals_match_the_item_loop():
    # one searchsorted of the items' keys refuses what the loop over the
    # items refused, with its message, and labels what it labelled
    m = build_lshape(2, labels="left-neumann")
    refused = set()
    for seed in range(400):
        labels = _label_corpus(m, seed)
        try:
            want = apply_labels_oracle(m, labels)
        except MeshError as exc:
            with pytest.raises(MeshError) as err:
                Mesh(m.vertices, m.triangles, labels)
            assert str(err.value) == str(exc), seed
            refused.update(k for k in _REFUSALS if k in str(exc))
        else:
            assert Mesh(m.vertices, m.triangles, labels).edge_label.tolist() == want, seed
    assert refused == set(_REFUSALS)


def test_degenerate_triangle_rejected():
    with pytest.raises(MeshError, match="degenerate"):
        Mesh(
            [[0, 0], [1, 0], [2, 0], [0, 1]],
            [[0, 1, 2], [0, 2, 3]],
            [],
        )


@pytest.mark.parametrize("scale", [1e-9, 1e9])
def test_degeneracy_check_is_scale_free(scale):
    # twice the area is compared with the squared longest edge, so a valid
    # mesh builds at any size
    m = build_structured(4)
    labels = [(tuple(e), lab) for e, lab in zip(m.edges, m.edge_label) if lab]
    small = Mesh(scale * m.vertices, m.triangles, labels)
    assert small.num_triangles == m.num_triangles
    with pytest.raises(MeshError, match="degenerate"):
        Mesh(scale * np.array([[0, 0], [1, 0], [2, 0], [0, 1]]), [[0, 1, 2], [0, 2, 3]], [])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_vertex_rejected(bad):
    # checked before any geometry: no RuntimeWarning, and neither a fold
    # nor a degenerate triangle is blamed
    m = build_structured(2)
    labels = [(tuple(e), lab) for e, lab in zip(m.edges, m.edge_label) if lab]
    vertices = m.vertices.copy()
    vertices[4, 1] = bad
    with pytest.raises(MeshError, match=r"^vertex 4 has a non-finite coordinate"):
        Mesh(vertices, m.triangles, labels)


HANGING = {
    # one triangle left of the diagonal, two on the right sharing the
    # diagonal's midpoint: the midpoint hangs on the unsplit diagonal
    "diagonal": ([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]], [[0, 2, 3], [0, 1, 4], [1, 2, 4]],
                 "hanging node: vertex 4 lies inside edge (0, 2)"),
    # a triangle glued below half of the bottom edge (0, 1): Euler's count
    # still holds, so only the conformity check refuses it
    "outer": ([[0, 0], [2, 0], [1, 1], [1, 0], [0.5, -1]], [[0, 1, 2], [0, 4, 3]],
              "hanging node: vertex 3 lies inside edge (0, 1)"),
}


@pytest.mark.parametrize("vertices,triangles,message", HANGING.values(), ids=HANGING.keys())
def test_hanging_node_rejected(vertices, triangles, message):
    # by the constructor, whatever built the mesh, and by a mesh file
    labels = _label_boundary(vertices, triangles, "all-dirichlet")
    with pytest.raises(MeshError) as err:
        Mesh(vertices, triangles, labels)
    assert str(err.value) == message
    data = {"vertices": vertices, "triangles": triangles, "boundary": [{"edge": list(e), "label": lab}
                                                                      for e, lab in labels]}
    with pytest.raises(MeshError) as err:
        mesh_from_dict(data)
    assert str(err.value) == message
    # the properly split diagonal is accepted
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


@pytest.mark.parametrize("shift,message", [
    (0.0, "vertex 4 coincides with vertex 0, an end of boundary edge (0, 1)"),
    (1e-10, "vertex 4 coincides with vertex 0, an end of boundary edge (0, 1)"),
    (-1e-10, "hanging node: vertex 4 lies inside edge (0, 1)"),  # inside (0, 1), at t = 1e-10
    (1e-6, None),  # a slit that is open
], ids=["equal", "near", "near-inside", "apart"])
def test_coincident_boundary_vertex_rejected(shift, message):
    # vertex 4 doubles vertex 0: the square's diagonal (0, 2) and (4, 2) is a
    # slit, normal continuity across it is lost
    vertices, triangles = [[0, 0], [1, 0], [1, 1], [0, 1], [-shift, 0]], [[0, 1, 2], [4, 2, 3]]
    labels = _label_boundary(vertices, triangles, "all-dirichlet")
    if message is None:
        assert Mesh(vertices, triangles, labels).num_vertices == 5
        return
    with pytest.raises(MeshError) as err:
        Mesh(vertices, triangles, labels)
    assert str(err.value) == message
    with pytest.raises(MeshError) as err:
        mesh_from_dict({"vertices": vertices, "triangles": triangles,
                        "boundary": [{"edge": list(e), "label": lab} for e, lab in labels]})
    assert str(err.value) == message


def test_interior_edge_labeled_rejected():
    m = build_structured(1)
    data = m.to_dict()
    # diagonal (0, 3) is interior
    data["boundary"].append({"edge": [0, 3], "label": "dirichlet"})
    with pytest.raises(MeshError, match="interior"):
        mesh_from_dict(data)


@pytest.mark.parametrize("rule", ["all-dirichlet", "left-neumann"])
def test_label_rule_passed_to_mesh_is_one_line_error(rule):
    # a rule is a builder's argument; Mesh takes the labels of its edges
    m = build_structured(1)
    with pytest.raises(MeshError) as err:
        Mesh(m.vertices, m.triangles, rule)
    message = str(err.value)
    assert "\n" not in message and repr(rule) in message
    assert "maps edges (a, b) to labels" in message and "build_structured and build_lshape" in message


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
        xs = triangle_coords(m, k)
        B = np.column_stack([xs[1] - xs[0], xs[2] - xs[0]])
        lam = np.linalg.solve(B, (pts - xs[0]).T)
        inside = (lam[0] > 1e-9) & (lam[1] > 1e-9) & (lam[0] + lam[1] < 1 - 1e-9)
        for v in m.triangles[k]:
            hat_sum[inside] += hat_values(patches[v], m, k, pts[inside])
            grad_sum[inside] += hat_grad(patches[v], m, k)
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


def _shuffled(seed):
    """Vertices, triangles and labels of a refined L-shape with the vertex
    order, the triangle order and half of the orientations scrambled."""
    m = refine_uniform(build_lshape(1, labels="left-neumann"))
    rng = np.random.default_rng(seed)
    perm = rng.permutation(m.num_vertices)
    verts = np.empty_like(m.vertices)
    verts[perm] = m.vertices
    tris = perm[m.triangles][rng.permutation(m.num_triangles)]
    tris[::2] = tris[::2, ::-1]
    labels = [((int(perm[a]), int(perm[b])), lab) for (a, b), lab in zip(m.edges, m.edge_label) if lab]
    return verts, tris, labels


def _loaded(tmp):
    save_mesh(Mesh(*_shuffled(1)), tmp / "m.json")
    m = load_mesh(tmp / "m.json")
    return m, m.vertices, json.loads((tmp / "m.json").read_text())["triangles"]


@pytest.mark.parametrize(
    "make",
    [
        lambda tmp: build_structured(5, labels="left-neumann"),
        lambda tmp: build_lshape(3),
        lambda tmp: refine_uniform(build_lshape(1, labels="all-neumann")),
        lambda tmp: (Mesh(*_shuffled(0)),) + _shuffled(0)[:2],
        _loaded,
    ],
    ids=["structured", "lshape", "refined", "shuffled", "loaded"],
)
def test_topology_matches_the_edge_loop(tmp_path, make):
    m = make(tmp_path)
    m, verts, raw = m if isinstance(m, tuple) else (m, m.vertices, m.triangles)
    tris, edges, edge_tris, tri_edges, sign = mesh_topology_oracle(verts, raw)
    assert np.array_equal(m.triangles, tris)
    assert np.array_equal(m.edges, edges)
    assert np.array_equal(m.edge_tris, edge_tris)
    assert np.array_equal(m.tri_edges, tri_edges)
    assert np.array_equal(m.tri_edge_sign, sign)


@pytest.mark.parametrize("rule", ["all-dirichlet", "left-neumann", "all-neumann"])
def test_boundary_labels_match_the_pair_loop(rule):
    verts, tris, _ = _shuffled(2)
    assert _label_boundary(verts, tris, rule) == label_boundary_oracle(verts, tris, rule)


def _same_mesh(got, want):
    assert got.vertices.tobytes() == want.vertices.tobytes()
    for key in ("triangles", "edges"):
        assert np.array_equal(getattr(got, key), getattr(want, key)), key
    assert np.array_equal(got.edge_label, want.edge_label)


@pytest.mark.parametrize("rule", ["all-dirichlet", "left-neumann", "all-neumann"])
@pytest.mark.parametrize(
    "build,oracle", [(build_structured, build_structured_oracle), (build_lshape, build_lshape_oracle)],
    ids=["structured", "lshape"],
)
def test_generators_and_refinement_match_the_loops(build, oracle, rule):
    # the array generators and red refinement give the loops' meshes bit for
    # bit: vertices row by row, midpoints in the order the triangles' sides
    # ab, bc, ca first reach their edges, labels in the same order
    for n in [*range(1, 9), 16, 32]:
        m = build(n, labels=rule)
        _same_mesh(m, oracle(n, labels=rule))
        for _ in range(3 if n <= 2 else 1 if n <= 8 else 0):
            fine = refine_uniform(m)
            _same_mesh(fine, refine_uniform_oracle(m))
            m = fine


def test_refinement_of_a_jittered_mesh_matches_the_loop():
    from test_element_layer import jitter

    m = jitter(build_structured(3, labels="left-neumann"), 1)
    for _ in range(3):
        fine = refine_uniform(m)
        _same_mesh(fine, refine_uniform_oracle(m))
        m = fine


def test_edge_of_three_triangles_rejected():
    verts = [[0, 0], [1, 0], [0, 1], [1, 1], [-1, -1]]
    tris = [[0, 1, 2], [1, 3, 2], [0, 2, 4], [1, 2, 4]]
    with pytest.raises(MeshError, match=r"edge \(1, 2\) belongs to 3 triangles"):
        Mesh(verts, tris, [])
    with pytest.raises(ValueError, match="belongs to 3 triangles"):
        mesh_topology_oracle(verts, tris)


@pytest.mark.parametrize("m", [build_structured(5), build_lshape(2)], ids=["structured5", "lshape2"])
def test_edge_queries_take_an_index_or_an_array(m):
    e = np.arange(m.num_edges)
    t = np.array([0.0, 0.25, 1.0])
    vec, L, n, pts = m.edge_vector(e), m.edge_length(e), m.edge_normal(e), m.edge_points(e, t)
    assert (vec.shape, L.shape, n.shape, pts.shape) == ((len(e), 2), (len(e),), (len(e), 2), (len(e), 3, 2))
    for i in e:
        assert np.array_equal(m.edge_vector(i), vec[i])
        assert isinstance(m.edge_length(i), float) and m.edge_length(i) == L[i]
        assert m.edge_length(i) == float(np.linalg.norm(m.edge_vector(i)))
        assert np.array_equal(m.edge_normal(i), n[i])
        assert np.array_equal(m.edge_points(i, t), pts[i])
    # lower -> higher vertex, normal the tangent turned by -90 degrees
    assert np.array_equal(pts[:, 0], m.vertices[m.edges[:, 0]])
    assert np.allclose(pts[:, 2], m.vertices[m.edges[:, 1]], rtol=0, atol=1e-15)
    assert np.allclose(np.einsum("ed,ed->e", n, vec), 0.0, atol=1e-15)
    assert np.allclose(vec[:, 0] * n[:, 1] - vec[:, 1] * n[:, 0], -L, rtol=1e-14, atol=0)


def _fan(center, ring):
    """Triangles (center, ring[i], ring[i+1]) around a closed ring, Dirichlet
    on the ring's edges."""
    verts = [center] + list(ring)
    n = len(ring)
    tris = [(0, 1 + i, 1 + (i + 1) % n) for i in range(n)]
    return verts, tris, [((1 + i, 1 + (i + 1) % n), "dirichlet") for i in range(n)]


def test_folded_mesh_rejected():
    # the center of a four-triangle fan moved out past the edge (1, 2) of
    # its square: the triangles on the edge from the center to the corner
    # (1, 0) then lie on the same side of it
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    assert Mesh(*_fan((0.5, 0.5), square)).num_triangles == 4
    with pytest.raises(MeshError, match=r"folded at edge \(0, 2\): its triangles 0 \(0, 1, 2\) and 1 \(0, 3, 2\)"):
        Mesh(*_fan((1.5, 0.5), square))


def test_fan_winding_twice_rejected():
    # seven triangles of 4 pi / 7 each around one vertex: no edge folds, but
    # the fan covers its disc twice
    n = 7
    ring = [(np.cos(4 * np.pi * i / n), np.sin(4 * np.pi * i / n)) for i in range(n)]
    with pytest.raises(MeshError, match="wind 2 times around interior vertex 0"):
        Mesh(*_fan((0.0, 0.0), ring))


def test_jittered_structured32_folds_on_seed_16():
    from test_element_layer import jitter

    with pytest.raises(MeshError, match=r"folded at edge \(381, 414\).*\(381, 414, 415\)"):
        jitter(build_structured(32), 16)
    assert jitter(build_structured(32), 17).num_triangles == 2048


def _jittered_meshes():
    """Every jittered mesh the suite builds, by helper and seed."""
    from test_class_solves import _jitter_every_vertex
    from test_element_layer import jitter
    from test_hat_operators import jittered_mesh

    # the labels do not move a vertex
    out = [jitter(build_structured(n), seed) for n, seed in [(2, 3), (3, 1), (3, 3), (3, 5), (4, 3)]]
    out += [jitter(build_lshape(2), seed) for seed in (2, 3, 4, 6)]
    out += [_jitter_every_vertex(build_structured(3), 7)]
    return out + [jittered_mesh(3, seed) for seed in (2, 5)]


def test_the_suites_jittered_meshes_do_not_fold():
    # each helper moves interior vertices by up to 0.3 of the shortest edge
    # (every vertex by 0.1 in one helper); at these seeds no triangle inverts
    assert len(_jittered_meshes()) == 12


# off an edge's line, in units of its length: within the check's reach
# (1e-8) or beyond it
NEAR, FAR = [0.0, 1e-10, -1e-10, 1e-9, -1e-9], [1e-7, -1e-7, 1e-6, -1e-6, 1e-3]


def _conformity_case(m, rng):
    """(vertices, triangles, labels): ``m`` with vertices added at or near
    points of its edges, one of four ways.  ``inside``: at the midpoints of
    one to three interior edges, each splitting one triangle of its edge and
    leaving the neighbour whole; ``thirds``: the same at both thirds of one
    edge, numbered in either order; ``both``: at one midpoint, splitting both
    triangles, which conforms; ``outside``: at the midpoint of a boundary
    edge, as the corner of a triangle glued on half of it.  New boundary
    edges are labelled Dirichlet."""
    verts, tris = list(m.vertices), m.triangles.tolist()
    kind = str(rng.choice(["inside", "thirds", "both", "outside"]))

    def add(e, t, off):
        verts.append(m.edge_points(e, [t])[0] + off * m.edge_length(e) * m.edge_normal(e))
        return len(verts) - 1

    def split(k, e, *new):  # triangle k's side e through the new vertices
        a, b = (int(v) for v in m.edges[e])
        c = int(np.setdiff1d(m.triangles[k], m.edges[e])[0])
        fan = [a, *new, b]
        tris[k] = [fan[0], fan[1], c]
        tris.extend([u, w, c] for u, w in zip(fan[1:-1], fan[2:]))

    if kind == "outside":
        e = int(rng.choice(m.boundary_edges()))
        k, (a, b) = m.edge_tris[e, 0], m.edges[e]
        mid = add(e, 0.5, rng.choice(NEAR + FAR))
        outward = m.edge_normal(e) * m.tri_edge_sign[k, list(m.tri_edges[k]).index(e)]
        verts.append((m.vertices[a] + m.vertices[b]) / 2 + 0.5 * m.edge_length(e) * outward)
        tris.append([int(a), mid, len(verts) - 1])
    else:
        chosen, used = [], set()  # interior edges with no triangle in common
        for e in rng.permutation(m.interior_edges()):
            if not used & set(m.edge_tris[e].tolist()):
                chosen.append(e)
                used |= set(m.edge_tris[e].tolist())
        for e in chosen[: int(rng.integers(1, 4)) if kind == "inside" else 1]:
            if kind == "both":
                mid = add(e, 0.5, rng.choice(NEAR + FAR))
                for k in m.edge_tris[e]:
                    split(k, e, mid)
                continue
            k = m.edge_tris[e, rng.integers(2)]
            if kind == "inside":
                split(k, e, add(e, 0.5, rng.choice(NEAR)))
            else:
                thirds = [0, 0]
                for j in rng.permutation(2):  # the two thirds numbered in either order
                    thirds[j] = add(e, (j + 1) / 3, rng.choice(NEAR))
                split(k, e, *thirds)
    base = {tuple(e): lab for e, lab in zip(m.edges.tolist(), m.edge_label) if lab}
    labels = [(pair, base.get(pair, lab)) for pair, lab in _label_boundary(verts, tris, "all-dirichlet")]
    return np.array(verts), tris, labels


def _refusal(build):
    try:
        build()
    except MeshError as exc:
        return str(exc)


def _hanging_node_exact(verts, edges, edge_tris):
    """The hanging-node loop's message, or None, in exact arithmetic: its
    t and squared distance |rel|^2 - t^2 L^2 as fractions, for the vertices
    that floats put within 1e-6 L of the edge's line."""
    for a, b in edges[edge_tris[:, 1] == -1].tolist():
        rel, d = verts - verts[a], verts[b] - verts[a]
        t = rel @ d / (d @ d)
        for v in np.flatnonzero(np.sum((rel - t[:, None] * d) ** 2, axis=1) < 1e-12 * (d @ d)):
            if v in (a, b):
                continue
            (rx, ry), (dx, dy) = (Fraction(float(x)) for x in rel[v]), (Fraction(float(x)) for x in d)
            L2 = dx * dx + dy * dy
            t = (rx * dx + ry * dy) / L2
            if Fraction(1e-12) < t < Fraction(1 - 1e-12) and rx * rx + ry * ry - t * t * L2 < Fraction(1e-16) * L2:
                return f"hanging node: vertex {v} lies inside edge {(a, b)}"


def test_conformity_check_matches_the_hanging_node_loop():
    # every mesh is checked: Mesh refuses a vertex on a boundary edge
    # exactly when the loop over the boundary edges does in exact
    # arithmetic, naming the same edge and vertex, and so when the loop
    # itself does, but where its rounding decides; the meshes the suite
    # generates, refines and jitters all conform
    bases = [build_structured(2), build_structured(3, labels="left-neumann"), build_lshape(1),
             build_lshape(2, labels="all-neumann"), refine_uniform(build_structured(2)),
             refine_uniform(build_lshape(1, labels="left-neumann"))] + _jittered_meshes()
    rng = np.random.default_rng(0)
    refused, misjudged = 0, []
    for m in bases:
        check_hanging_nodes_oracle(m)
        for _ in range(12):
            verts, tris, labels = _conformity_case(m, rng)
            _, edges, edge_tris, _, _ = mesh_topology_oracle(verts, tris)
            exact = _hanging_node_exact(verts, edges, edge_tris)
            assert _refusal(lambda: Mesh(verts, tris, labels)) == exact
            loop = _refusal(lambda: check_hanging_nodes_oracle(SimpleNamespace(vertices=verts, edges=edges,
                                                                               edge_tris=edge_tris)))
            refused += exact is not None
            if loop != exact:
                misjudged.append((exact, loop))
    assert (refused, len(misjudged)) == (125, 3)
    # the loop's |rel|^2 - t^2 L^2 cancels to rounding noise above its
    # 1e-16 L^2 at a vertex on the edge: it missed the lowest of two such
    # vertices and named the next
    for exact, loop in misjudged:
        assert loop.split()[-2:] == exact.split()[-2:] and int(loop.split()[3]) > int(exact.split()[3])


VALID = {
    "structured4": lambda: build_structured(4),
    "lshape2": lambda: build_lshape(2, labels="left-neumann"),
    "refined-lshape1": lambda: refine_uniform(build_lshape(1)),
    "jittered-structured2": lambda: _jittered_meshes()[0],
}


@pytest.mark.parametrize("make", VALID.values(), ids=VALID.keys())
def test_fold_checks_leave_valid_geometry_bitwise(monkeypatch, make):
    m = make()
    monkeypatch.setattr(Mesh, "_check_folds", lambda self: None)
    unchecked = make()
    for key in ("vertices", "triangles", "edges", "edge_tris", "tri_edges", "X0", "B", "detB", "Binv", "h", "rho"):
        assert np.array_equal(getattr(m, key), getattr(unchecked, key)), key
