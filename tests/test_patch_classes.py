"""Patch systems once per class against the stacked patch layer.

``build_patch_problem`` assembles the multiplier system S, and the
stability surrogate its (bordered) stiffness K, once per class of patches
whose systems agree to the bit, and where classes repeat the layout keeps
them (``PatchTables``): the inverses and max|S| of the multiplier classes,
the systems and inverses of the surrogate's; ``solve_stacked`` solves
every patch against its class.  ``patch_equilibrate`` checks every
patch's multiplier residual from its own element columns.
``oracles.patch_layer_stacked_oracle`` keeps one S and one K per patch.
The two agree to 1e-13 relative in sigma and in every stability ratio, on
meshes where classes repeat and on jittered ones where each patch is its
own class.
"""

import re


import numpy as np
import pytest

import oracles
from hdivkit import linsolve, local_solve
from hdivkit.elements import rtn_space
from hdivkit.linsolve import SingularSystemError, class_inverses, solve_stacked
from hdivkit.local_solve import build_patch_problem, patch_data, patch_equilibrate, patch_layout, theta_field
from hdivkit.mesh import build_lshape, build_structured
from hdivkit.projector import project_hdiv, projector_report, random_conforming_field
from hdivkit.quadpolicy import QuadPolicy
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
    n_cls = len({(g.nl, g.nt, g.kernel, c) for g in patch_layout(m, p).signatures for c in g.cls.tolist()})
    assert n_cls >= m.num_vertices - 1 if mesh_name.startswith("jittered") else n_cls == 14


@pytest.mark.parametrize("p", [1, 3])
def test_kept_tables_are_the_distinct_oracle_systems(monkeypatch, p):
    # structured:32 has 1089 patches, but only 14 distinct multiplier
    # systems and 9 distinct surrogate systems: the layout keeps one entry
    # per class, the inverse of its oracle system (S S^-1 = I to 1e-10)
    # and max|S| to the bit for the multiplier kind, the oracle system to
    # the bit for the surrogate, and a second report assembles and inverts
    # nothing
    m = build_structured(32)
    v = random_conforming_field(m, p + 1, seed=p)
    projector_report(v, p, m)
    layout = patch_layout(m, p)
    tables = layout.tables
    assert tables.keep == {"multiplier": True, "surrogate": True}
    policy = QuadPolicy(p, m, v)
    theta = theta_field(policy)
    data = patch_data(theta, policy)
    calls = []

    def record(A, b, *args, **kw):
        calls.append(np.asarray(A))
        return solve_stacked(A, b, *args, **kw)

    monkeypatch.setattr(oracles, "solve_stacked", record)
    distinct = {"multiplier": {}, "surrogate": {}}  # per (signature, class): its oracle systems' bytes
    for group in oracles.signature_groups(layout):
        problem = oracles.build_patch_problem_stacked_oracle(group, p, m, data)
        calls.clear()
        oracles.patch_stability_ratio_stacked_oracle(problem, np.zeros(problem.x0.shape), m)
        kcls = oracles.surrogate_rows(layout, m, group.patches)[2]
        for kind, systems, cls in (("multiplier", problem.S, group.cls), ("surrogate", np.concatenate(calls), kcls)):
            kept, inv, size = _kept_systems(tables)[kind, group.sig]
            for a, c in zip(systems, cls):
                distinct[kind].setdefault((group.sig, c), set()).add(a.tobytes())
                # S S^-1 - I is what the residual of a solve sees
                assert np.abs(a @ inv[c] - np.eye(len(a))).max() <= 1e-10
                assert size[c].tobytes() == np.abs(a).max().tobytes()
                if kind == "multiplier":
                    assert kept is None
                else:
                    assert a.tobytes() == kept[c].tobytes()
    for kind in distinct:
        # one system per class, and distinct classes have distinct systems
        assert all(len(systems) == 1 for systems in distinct[kind].values())
        assert sorted(distinct[kind]) == sorted((sig, c) for (k, sig), (_, inv, _) in _kept_systems(tables).items()
                                                if k == kind for c in range(len(inv)))
        assert len({a for systems in distinct[kind].values() for a in systems}) == len(distinct[kind])
    assert [len(distinct["multiplier"]), len(distinct["surrogate"])] == [14, 9]
    assert sum(len(inv) for _, inv, _ in _kept_systems(tables).values()) == 23
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
    (lambda: build_lshape(1), {"multiplier": True, "surrogate": False}),  # 7 and 7 classes, 8 patches
    (lambda: jitter(build_structured(8), 1), {"multiplier": False, "surrogate": False}),  # 81 of 81
    (lambda: build_structured(4), {"multiplier": True, "surrogate": True}),  # 14 and 9 of 25
    (lambda: build_lshape(2), {"multiplier": True, "surrogate": True}),  # 14 and 10 of 21
], ids=["lshape1", "jittered-structured8", "structured4", "lshape2"])
def test_tables_are_kept_only_where_patches_repeat(mesh, keep):
    # a kind is kept when its distinct systems number at most half the
    # patches, the multiplier kind also when they number fewer than the
    # patches and their inverses fit KEEP_BYTES; a kind not kept stores
    # nothing, and the multiplier kind keeps no system
    m = mesh()
    for p in (0, 2):
        projector_report(random_conforming_field(m, p + 1, seed=p), p, m)
        tables = patch_layout(m, p).tables
        assert tables.keep == keep
        assert {kind for kind, _ in _kept_systems(tables)} == {kind for kind in keep if keep[kind]}
        assert all((A is None) == (kind == "multiplier") for (kind, _), (A, _, _) in _kept_systems(tables).items())


def _kept_systems(tables):
    """The class systems ``tables`` keeps, by (kind, signature): the values
    of its ``mesh.kept`` entries."""
    return {key: entry[-1] for key, entry in tables.systems.items()}


def _inverse_bytes(layout):
    return sum(8 * (int(g.cls.max()) + 1) * g.nl**2 for g in layout.signatures)


@pytest.mark.parametrize("labels", LABELS)
@pytest.mark.parametrize("p", [4, 5, 6])
def test_small_layouts_keep_their_multiplier_inverses(labels, p):
    # the high-degree layouts have more than one class per two patches
    # but fewer classes than patches, and inverses within the budget; a
    # jittered mesh, one class per patch, keeps nothing
    for mesh in (build_lshape(1, labels=labels), build_structured(4, labels=labels),
                 build_lshape(2, labels=labels)):
        layout = patch_layout(mesh, p)
        classes = sum(int(g.cls.max()) + 1 for g in layout.signatures)
        assert mesh.num_vertices / 2 < classes < mesh.num_vertices
        assert layout.tables.keep["multiplier"] and _inverse_bytes(layout) <= linsolve.KEEP_BYTES
    assert not patch_layout(jitter(build_structured(8, labels=labels), 1), p).tables.keep["multiplier"]


def test_a_big_repeating_layout_stays_kept():
    # structured:32 at p = 6 keeps its 14 multiplier classes by the half
    # rule, whatever their bytes
    layout = patch_layout(build_structured(32), 6)
    assert layout.tables.keep["multiplier"]
    assert sum(int(g.cls.max()) + 1 for g in layout.signatures) == 14


@pytest.mark.parametrize("p", [0, 2])
def test_kept_tables_do_not_depend_on_the_chunks(monkeypatch, p):
    # one patch per chunk keeps the same systems, and sigma and the
    # stability ratios keep their bits
    def run():
        m = build_structured(8, labels="left-neumann")
        rep = projector_report(random_conforming_field(m, p + 1, seed=p), p, m)
        layout = patch_layout(m, p)
        return len(layout.chunks), _kept_systems(layout.tables), rep["sigma"].dofs, rep["stability_ratios"]

    n, tables, *want = run()
    monkeypatch.setattr(linsolve, "STACK_BYTES", 1)
    n_single, single, *got = run()
    assert n < n_single == 81
    assert tables.keys() == single.keys()
    for key, kept in tables.items():
        assert all(a is b is None or np.array_equal(a, b) for a, b in zip(kept, single[key], strict=True))
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("mesh,n", [(build_lshape, 1), (build_lshape, 2), (build_structured, 4)],
                         ids=["lshape1", "lshape2", "structured4"])
def test_high_degree_keeping_does_not_depend_on_the_chunks_or_the_calls(monkeypatch, mesh, n):
    # the keep decision, the kept inverses and sigma's bits at p = 4..6
    # are those of one patch per chunk, and a warm call, after a call on
    # other data, gives the bits of the first call
    def run():
        m = mesh(n, labels="left-neumann")
        out = []
        for p in (4, 5, 6):
            v = random_conforming_field(m, p + 1, seed=p)
            first = project_hdiv(v, p, m).dofs
            project_hdiv(random_conforming_field(m, p + 1, seed=p + 10), p, m)
            assert np.array_equal(project_hdiv(v, p, m).dofs, first)
            tables = patch_layout(m, p).tables
            out.append((len(patch_layout(m, p).chunks), tables.keep, _kept_systems(tables), first))
        return out

    whole = run()
    monkeypatch.setattr(linsolve, "STACK_BYTES", 1)
    for (n_whole, keep, kept, want), (n_single, keep_single, kept_single, got) in zip(whole, run(), strict=True):
        assert n_whole < n_single
        assert keep == keep_single and keep["multiplier"]
        assert kept.keys() == kept_single.keys()
        for key, parts in kept.items():
            assert all(a is b is None or np.array_equal(a, b) for a, b in zip(parts, kept_single[key], strict=True))
        assert np.array_equal(got, want)


def _largest_run(chunk):
    """The index of the run of ``chunk`` with the most patches."""
    return max(range(len(chunk.runs)), key=lambda r: chunk.runs[r].n)


def test_nan_in_a_kept_class_names_the_patch_vertex():
    # the kept inverse is applied without a factorization, and the residual
    # check still names the patch
    m = build_structured(8)
    p = 1
    v = random_conforming_field(m, p + 1, seed=1)
    policy = QuadPolicy(p, m, v)
    theta = theta_field(policy)
    data = patch_data(theta, policy)
    layout = patch_layout(m, p)
    (chunk,) = layout.chunks
    problem = build_patch_problem(layout, chunk, data)
    r = _largest_run(chunk)
    run = chunk.runs[r]
    assert problem.systems[r][2] is not None
    problem.b[run.eqs.start + 5 * run.nl + 2] = np.nan
    vertex = layout.verts[chunk.patches][run.patches][5]
    with pytest.raises(SingularSystemError, match=rf"\(patch of vertex {vertex}\)"):
        patch_equilibrate(problem)


def _wrong_class_row(cls):
    """A row of a run's classes ``cls`` and another class of the run, one
    of whose rows comes first."""
    for i in range(len(cls)):
        seen = set(cls[:i].tolist()) - {int(cls[i])}
        if seen:
            return i, min(seen)
    raise AssertionError("the run has one class")


def _swapped_patch_chunk(chunk, r):
    # row i of run r filed under class c
    run = chunk.runs[r]
    i, c = _wrong_class_row(run.cls)
    cls = run.cls.copy()
    cls[i] = c
    runs = list(chunk.runs)
    runs[r] = run._replace(cls=cls)
    return chunk._replace(runs=runs), run.patches.start + i


@pytest.mark.parametrize("kept", [True, False])
def test_a_patch_under_the_wrong_class_names_its_vertex(kept):
    # the residual is formed from each patch's own element columns, not
    # from its class's system: a patch filed under another class of its
    # signature fails the check, on the kept and on the per-call path
    m = build_structured(8)
    p = 1
    v = random_conforming_field(m, p + 1, seed=1)
    policy = QuadPolicy(p, m, v)
    theta = theta_field(policy)
    data = patch_data(theta, policy)
    layout = patch_layout(m, p)
    layout.tables.keep["multiplier"] = kept
    (chunk,) = layout.chunks
    patch_equilibrate(build_patch_problem(layout, chunk, data))
    swapped, i = _swapped_patch_chunk(chunk, _largest_run(chunk))
    problem = build_patch_problem(layout, swapped, data)
    assert all((inv is not None) == kept for _, _, inv, _ in problem.systems)
    with pytest.raises(SingularSystemError, match=rf"\(patch of vertex {layout.verts[chunk.patches][i]}\)"):
        patch_equilibrate(problem)


def test_a_corrupted_kept_inverse_names_a_patch_of_its_class():
    m = build_structured(8)
    p = 1
    v = random_conforming_field(m, p + 1, seed=1)
    policy = QuadPolicy(p, m, v)
    theta = theta_field(policy)
    data = patch_data(theta, policy)
    layout = patch_layout(m, p)
    (chunk,) = layout.chunks
    problem = build_patch_problem(layout, chunk, data)
    r = _largest_run(chunk)
    run = chunk.runs[r]
    c = int(run.cls[7])
    S, cls, inv, size = problem.systems[r]
    inv = inv.copy()  # the layout's inverses stay intact
    inv[c] *= 1 + 1e-6
    problem.systems[r] = S, cls, inv, size
    with pytest.raises(SingularSystemError) as err:
        patch_equilibrate(problem)
    vertex = int(re.search(r"\(patch of vertex (\d+)\)", str(err.value)).group(1))
    assert vertex in layout.verts[chunk.patches][run.patches][run.cls == c]
    patch_equilibrate(build_patch_problem(layout, chunk, data))


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
        for g in oracles.signature_rows(patch_layout(m, p)):
            assert np.array_equal(g.cls, local_solve._class_ids(tri_cls[g.tris], g.mult))


@pytest.mark.parametrize("kept", [False, True], ids=["lu", "kept-inverse"])
def test_solve_stacked_solves_each_system_against_its_class(kept):
    rng = np.random.default_rng(4)
    A = rng.standard_normal((3, 5, 5)) + 5 * np.eye(5)
    inv = class_inverses(A, str) if kept else None
    cls = np.array([2, 0, 2, 2, 1, 2, 0, 2])
    b = rng.standard_normal((len(cls), 5, 2))
    x = solve_stacked(A, b, cls, inv)
    want = np.linalg.solve(A[cls], b)
    assert np.abs(x - want).max() <= 1e-14 * np.abs(want).max()
    # every system is checked against its class matrix, and named
    bad = b.copy()
    bad[6, 0, 1] = np.nan
    with pytest.raises(SingularSystemError, match=r"\(system 6\)"):
        solve_stacked(A, bad, cls, inv)
    # each row is, to the bit, its lone solve against its own class matrix
    # (or inverse), with one right-hand side column or two, so its bits do
    # not depend on the others solved with it
    x1 = solve_stacked(A, b[..., 0], cls, inv)
    for i, c in enumerate(cls):
        assert np.array_equal(solve_stacked(A, b[i:i + 1], cls[i:i + 1], inv)[0], x[i])
        for got, rhs in ((x[i], b[i]), (x1[i], b[i, :, :1])):
            lone = inv[c] @ rhs if kept else np.linalg.solve(A[c], rhs)
            assert np.array_equal(got, lone if got.ndim == 2 else lone[:, 0])
    # one class per right-hand side: the plain stacked solve, to the bit
    if not kept:
        assert np.array_equal(solve_stacked(A[cls], b), np.linalg.solve(A[cls], b))
        assert np.array_equal(solve_stacked(A[cls], b[..., 0]), np.linalg.solve(A[cls], b[..., :1])[..., 0])

