"""Patch systems once per class against the stacked patch layer.

``build_patch_problem`` assembles the multiplier system S, and the
stability surrogate its (bordered) stiffness K, once per class of patches
whose systems agree to the bit, and where classes repeat the layout keeps
them with their inverses (``PatchTables``); ``solve_stacked`` solves every
patch against its class matrix.  ``oracles.patch_layer_stacked_oracle``
keeps one S and one K per patch.  The two agree to 1e-13 relative in sigma
and in every stability ratio, on meshes where classes repeat and on
jittered ones where each patch is its own class.
"""

import numpy as np
import pytest

import oracles
from hdivkit import linsolve, local_solve
from hdivkit.elements import rtn_space
from hdivkit.linsolve import SingularSystemError, class_blocks, class_inverses, class_slots, solve_stacked
from hdivkit.local_solve import build_patch_problem, patch_data, patch_equilibrate, patch_layout, theta_field
from hdivkit.mesh import build_lshape, build_structured
from hdivkit.projector import projector_report, random_conforming_field
from test_element_layer import jitter

LABELS = ("all-dirichlet", "left-neumann", "all-neumann")
MESHES = {
    "structured4": lambda labels: build_structured(4, labels=labels),
    "lshape2": lambda labels: build_lshape(2, labels=labels),
    "jittered-structured3": lambda labels: jitter(build_structured(3, labels=labels), 1),
    "jittered-lshape2": lambda labels: jitter(build_lshape(2, labels=labels), 2),
}
CASES = [(p, "def31") for p in range(7)] + [(p, "def52") for p in range(1, 7)]


@pytest.fixture(scope="module")
def meshes():
    return {(name, labels): make(labels) for name, make in MESHES.items() for labels in LABELS}


@pytest.mark.parametrize("p,variant", CASES)
@pytest.mark.parametrize("labels", LABELS)
@pytest.mark.parametrize("mesh_name", list(MESHES))
def test_class_path_matches_stacked_oracle(meshes, mesh_name, labels, p, variant):
    m = meshes[mesh_name, labels]
    v = random_conforming_field(m, p + 1, seed=p)
    sig = projector_report(v, p, m, variant=variant)["sigma"]
    dofs, ratios = oracles.patch_layer_stacked_oracle(v, p, m, variant=variant)
    assert np.linalg.norm(sig.dofs - dofs) <= 1e-13 * np.linalg.norm(dofs)
    got = np.array(sig.info["projector"].stability_ratios)
    assert np.all(np.abs(got - ratios) <= 1e-13 * ratios)
    # the patches of a structured or L-shape mesh fall into 14 multiplier
    # classes; jittered, only two corner patches of lshape:2 stay alike
    n_cls = len({(g.nl, g.tris.shape[1], g.kernel, c) for g in patch_layout(m, p).groups
                 for c in g.cls.tolist()})
    assert n_cls >= m.num_vertices - 1 if mesh_name.startswith("jittered") else n_cls == 14


@pytest.mark.parametrize("p", [1, 3])
def test_kept_tables_are_the_distinct_oracle_systems(monkeypatch, p):
    # structured:32 has 1089 patches, but only 14 distinct multiplier
    # systems and 9 distinct surrogate systems: the layout keeps exactly
    # those, each its oracle systems to the bit, and a second report
    # assembles and inverts nothing
    m = build_structured(32)
    v = random_conforming_field(m, p + 1, seed=p)
    projector_report(v, p, m)
    tables = patch_layout(m, p).tables
    assert tables.keep == {"multiplier": True, "surrogate": True}
    theta = theta_field(v, p, m)
    data = patch_data(theta, v, p, m)
    calls = []

    def record(A, b, *args, **kw):
        calls.append(np.asarray(A))
        return solve_stacked(A, b, *args, **kw)

    monkeypatch.setattr(oracles, "solve_stacked", record)
    distinct = {"multiplier": set(), "surrogate": set()}
    for group in patch_layout(m, p).groups:
        problem = oracles.build_patch_problem_stacked_oracle(group, p, m, data)
        calls.clear()
        oracles.patch_stability_ratio_stacked_oracle(problem, np.zeros(problem.x0.shape), m)
        kcls = tables.surrogate(m, group.sig)[2]
        at = np.searchsorted(tables.signatures[group.sig].verts, group.verts)
        for kind, systems, cls in (("multiplier", problem.S, group.cls),
                                   ("surrogate", np.concatenate(calls), kcls[at])):
            kept = tables.systems[kind, group.sig][0]
            assert all(a.tobytes() == kept[c].tobytes() for a, c in zip(systems, cls))
            distinct[kind].update(a.tobytes() for a in systems)
    for kind in distinct:
        kept = {a.tobytes() for (k, _), (A, _) in tables.systems.items() if k == kind for a in A}
        assert kept == distinct[kind]
    assert [len(distinct["multiplier"]), len(distinct["surrogate"])] == [14, 9]
    assert sum(len(A) for A, _ in tables.systems.values()) == 23
    built = []
    for name in ("_multiplier_systems", "_surrogate_systems", "class_inverses"):
        real = getattr(local_solve, name)
        monkeypatch.setattr(local_solve, name, lambda *a, real=real, name=name: built.append(name) or real(*a))
    solves = []
    monkeypatch.setattr(local_solve, "solve_stacked", lambda *a, **kw: solves.append(a[3]) or solve_stacked(*a, **kw))
    projector_report(v, p, m)
    assert not built and solves and all(inv is not None for inv in solves)


KEEP_MESHES = {
    "structured8": lambda labels: build_structured(8, labels=labels),
    "lshape4": lambda labels: build_lshape(4, labels=labels),
}


@pytest.mark.parametrize("labels", LABELS)
@pytest.mark.parametrize("mesh_name", list(KEEP_MESHES))
def test_warm_calls_match_first_calls(mesh_name, labels):
    # the kept systems depend only on the mesh and p: a call that finds the
    # tables built by an earlier call on other data gives the bits of the
    # first call on a fresh copy of the mesh
    warm = KEEP_MESHES[mesh_name](labels)
    fresh = {variant: KEEP_MESHES[mesh_name](labels) for variant in ("def31", "def52")}
    for p, variant in [(p, "def31") for p in range(4)] + [(p, "def52") for p in range(1, 4)]:
        v = random_conforming_field(warm, p + 1, seed=p)
        if variant == "def31":
            projector_report(random_conforming_field(warm, p + 1, seed=p + 10), p, warm)
        assert patch_layout(warm, p).tables.keep == {"multiplier": True, "surrogate": True}
        got = projector_report(v, p, warm, variant=variant)
        want = projector_report(v, p, fresh[variant], variant=variant)
        assert np.array_equal(got["sigma"].dofs, want["sigma"].dofs)
        assert np.array_equal(got["stability_ratios"], want["stability_ratios"])


@pytest.mark.parametrize("mesh,keep", [
    (lambda: build_lshape(1), {"multiplier": False, "surrogate": False}),  # 7 and 7 classes, 8 patches
    (lambda: jitter(build_structured(8), 1), {"multiplier": False, "surrogate": False}),  # 81 of 81
    (lambda: build_structured(4), {"multiplier": False, "surrogate": True}),  # 14 and 9 of 25
    (lambda: build_lshape(2), {"multiplier": False, "surrogate": True}),  # 14 and 10 of 21
], ids=["lshape1", "jittered-structured8", "structured4", "lshape2"])
def test_tables_are_kept_only_where_patches_repeat(mesh, keep):
    # a kind is kept when its distinct systems number at most half the
    # patches; a kind not kept stores no system
    m = mesh()
    for p in (0, 2):
        projector_report(random_conforming_field(m, p + 1, seed=p), p, m)
        tables = patch_layout(m, p).tables
        assert tables.keep == keep
        assert {kind for kind, _ in tables.systems} == {kind for kind in keep if keep[kind]}


@pytest.mark.parametrize("p", [0, 2])
def test_kept_tables_do_not_depend_on_the_chunks(monkeypatch, p):
    # one patch per chunk keeps the same systems, and sigma and the
    # stability ratios keep their bits
    def run():
        m = build_structured(8, labels="left-neumann")
        rep = projector_report(random_conforming_field(m, p + 1, seed=p), p, m)
        layout = patch_layout(m, p)
        return len(layout.groups), layout.tables.systems, rep["sigma"].dofs, rep["stability_ratios"]

    n, tables, *want = run()
    monkeypatch.setattr(linsolve, "STACK_BYTES", 1)
    n_single, single, *got = run()
    assert n < n_single == 81
    assert tables.keys() == single.keys()
    for key, (A, inv) in tables.items():
        assert np.array_equal(A, single[key][0]) and np.array_equal(inv, single[key][1])
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_nan_in_a_kept_class_names_the_patch_vertex():
    # the kept inverse is applied without a factorization, and the residual
    # check still names the patch
    m = build_structured(8)
    p = 1
    v = random_conforming_field(m, p + 1, seed=1)
    theta = theta_field(v, p, m)
    data = patch_data(theta, v, p, m)
    group = max(patch_layout(m, p).groups, key=lambda g: len(g.verts))
    problem = build_patch_problem(group, theta, v, p, m, data=data)
    assert problem.inv is not None
    problem.b[5, 2] = np.nan
    with pytest.raises(SingularSystemError, match=rf"\(patch of vertex {group.verts[5]}\)"):
        patch_equilibrate(problem)


def test_singular_class_names_the_class():
    A = np.stack([np.eye(3), np.zeros((3, 3)), np.eye(3)])
    with pytest.raises(SingularSystemError, match=r"\(class 1 of vertex 7\)"):
        class_inverses(A, lambda c: f"class {c} of vertex {[3, 7, 9][c]}")


@pytest.mark.parametrize("p", range(7))
def test_multiplier_classes_match_the_full_numbering_key(meshes, p):
    # keying on the per-slot numbers gives the class ids of keying on the
    # p + 1 multiplier numbers of each slot
    for m in meshes.values():
        space = rtn_space(m, p)
        own = m.edge_tris[m.tri_edges, 0] == np.arange(m.num_triangles)[:, None]
        tri_cls = local_solve._class_ids(space.classes[0], own, space.edge_scale())
        for g in patch_layout(m, p).tables.signatures:
            assert np.array_equal(g.cls, local_solve._class_ids(tri_cls[g.tris], g.mult))


def test_solve_stacked_solves_each_system_against_its_class():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((3, 5, 5)) + 5 * np.eye(5)
    cls = np.array([2, 0, 2, 2, 1, 2, 0, 2])
    b = rng.standard_normal((len(cls), 5, 2))
    slot, width = class_slots(cls)
    assert width == 3
    x = solve_stacked(A, b, class_blocks(cls, slot, width))
    want = np.linalg.solve(A[cls], b)
    assert np.abs(x - want).max() <= 1e-14 * np.abs(want).max()
    # every system is checked against its class matrix, and named
    bad = b.copy()
    bad[6, 0, 1] = np.nan
    with pytest.raises(SingularSystemError, match=r"\(system 6\)"):
        solve_stacked(A, bad, class_blocks(cls, slot, width))
    # with the places fixed, a right-hand side's bits do not depend on the
    # others solved with it
    for i in range(len(cls)):
        one = solve_stacked(A, b[i:i + 1], class_blocks(cls[i:i + 1], slot[i:i + 1], width))
        assert np.array_equal(one[0], x[i])
    # one class per right-hand side: the plain stacked solve, to the bit
    assert np.array_equal(solve_stacked(A[cls], b), np.linalg.solve(A[cls], b))
    want = np.linalg.solve(A[cls], b[..., :1])[..., 0]
    own = np.arange(len(cls))
    assert np.array_equal(solve_stacked(A[cls], b[..., 0], class_blocks(own, *class_slots(own))), want)
