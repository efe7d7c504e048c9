"""The stacked projector against its element-by-element and patch-by-patch
loop in ``tests/oracles.py``.

``project_hdiv`` fits every element in stacked KKT solves over the
quadrature groups, lays the vertex patches out once per (mesh, p) in
signature groups and solves each group's KKT systems stacked; the oracle
keeps the per-element fit, the per-patch assembly with a dense
Bunch-Kaufman solve and the per-element scalar projection.  Up to p = 3 the
two agree to 1e-13 relative; above, to twice the oracle's own spread
between two exact rules (roundoff of the degree-p monomial evaluation,
which grows with p).
"""

import re

import numpy as np
import pytest

import oracles
from hdivkit import fields
from hdivkit.best_approx import error_report, local_best_constrained
from hdivkit.elements import rtn_space
from hdivkit.fields import FieldError
from hdivkit import linsolve, local_solve
from hdivkit.linsolve import STACK_BYTES, chunks, element_solve
from hdivkit.local_solve import (
    CompatibilityError,
    build_patch_problem,
    patch_data,
    patch_equilibrate,
    patch_layout,
    theta_field,
)
from hdivkit.mesh import Mesh, build_lshape, build_structured, refine_uniform, vertex_patches
from hdivkit.projections import ScalarPWField, project_scalar
from hdivkit.projector import check_field_compatibility, project_hdiv, projector_report, random_conforming_field
from hdivkit.quadpolicy import QuadPolicy
from hdivkit.quadrature import gauss01
from test_element_layer import jitter

LABELS = ("all-dirichlet", "left-neumann", "all-neumann")
MESHES = {
    "jittered-structured3": lambda labels: jitter(build_structured(3, labels=labels), 1),
    "jittered-lshape2": lambda labels: jitter(build_lshape(2, labels=labels), 2),
}
CASES = [(p, "def31") for p in range(5)] + [(p, "def52") for p in range(1, 5)]


@pytest.fixture(scope="module")
def meshes():
    return {(name, labels): make(labels) for name, make in MESHES.items() for labels in LABELS}


def stream_field():
    """curl of sin(pi x) sin(pi y): divergence-free, zero normal trace on the
    boundaries of the unit square and of the L-shape."""

    def v(pts):
        x, y = pts[:, 0], pts[:, 1]
        return np.pi * np.stack(
            [np.sin(np.pi * x) * np.cos(np.pi * y), -np.cos(np.pi * x) * np.sin(np.pi * y)], axis=1
        )

    return fields.AnalyticField("stream", v, lambda pts: np.zeros(len(pts)), divergence_free=True)


def oscillating_field():
    """(sin 40x, cos 40y): its divergence outruns the default rules, so the
    degree-doubling self-check flags elements (at p = 0, 1 the patch data
    becomes incompatible on structured:3 instead)."""
    return fields.AnalyticField(
        "oscillating",
        lambda pts: np.stack([np.sin(40 * pts[:, 0]), np.cos(40 * pts[:, 1])], axis=1),
        lambda pts: 40 * np.cos(40 * pts[:, 0]) - 40 * np.sin(40 * pts[:, 1]),
    )


def _rel(got, want):
    return np.linalg.norm(np.asarray(got) - want) / max(np.linalg.norm(want), 1e-300)


def _vertex(message):
    return int(re.search(r"patch of vertex (\d+)", message).group(1))


@pytest.mark.parametrize("field", ["discrete", "stream"])
@pytest.mark.parametrize("p,variant", CASES)
@pytest.mark.parametrize("labels", LABELS)
@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_projector_matches_loop_oracle(meshes, mesh_name, labels, p, variant, field):
    # the discrete field has degree p + 1 (a genuine fit) and zero Neumann
    # dofs; the stream field runs the analytic path with the self-check
    m = meshes[mesh_name, labels]
    v = random_conforming_field(m, p + 1, seed=p) if field == "discrete" else stream_field()
    stability = p <= 2  # the per-patch oracle surrogate loops over P_{p+2} nodes in Python
    sig = projector_report(v, p, m, variant=variant)["sigma"] if stability else project_hdiv(v, p, m, variant=variant)
    info = sig.info["projector"]
    want = oracles.project_hdiv_oracle(v, p, m, variant=variant, measure_stability=stability)
    tol = 1e-13
    if p > 3:
        spread = oracles.project_hdiv_oracle(v, p, m, variant=variant, extra=4)
        tol = max(tol, 2 * _rel(spread["dofs"], want["dofs"]), 2 * _rel(spread["theta"].coeffs, want["theta"].coeffs))
    assert _rel(sig.info["theta"].coeffs, want["theta"].coeffs) <= tol
    assert _rel(sig.dofs, want["dofs"]) <= tol
    assert np.abs(np.array(info.compat_defects) - want["compat_defects"]).max() <= 1e-13
    assert len(info.stability_ratios) == (m.num_vertices if stability else 0)
    if stability:
        # a ratio inherits the roundoff of s_a amplified by ||chi_a|| / ||s_a - chi_a||
        got, ref = np.array(info.stability_ratios), np.array(want["stability_ratios"])
        amp = np.array(want["stability_amplification"])
        assert np.all(np.abs(got - ref) <= tol * amp * np.maximum(ref, 1e-300) + 1e-300)
    assert info.commute_residual <= 1e-10
    assert abs(info.commute_scale - want["commute_scale"]) <= 1e-13 * want["commute_scale"]
    assert abs(info.commute_residual - want["commute_abs"] / want["commute_scale"]) <= 1e-13
    assert info.warnings == want["warnings"]


@pytest.mark.parametrize("p,variant", [(1, "def31"), (2, "def31"), (2, "def52"), (3, "def52")])
def test_projector_matches_loop_oracle_on_corner_wedges(p, variant):
    # lshape_singular takes radially weighted wedge rules at the corner
    m = build_lshape(2)
    v = fields.catalog("lshape_singular", {"alpha": 2 / 3})
    sig = projector_report(v, p, m, variant=variant)["sigma"]
    info = sig.info["projector"]
    want = oracles.project_hdiv_oracle(v, p, m, variant=variant, measure_stability=True)
    assert _rel(sig.info["theta"].coeffs, want["theta"].coeffs) <= 1e-13
    assert _rel(sig.dofs, want["dofs"]) <= 1e-13
    assert np.abs(np.array(info.compat_defects) - want["compat_defects"]).max() <= 1e-13
    amp = np.array(want["stability_amplification"])
    ref = np.array(want["stability_ratios"])
    assert np.all(np.abs(np.array(info.stability_ratios) - ref) <= 1e-13 * amp * ref + 1e-300)
    assert abs(info.commute_residual - want["commute_abs"] / want["commute_scale"]) <= 1e-13
    assert info.warnings == want["warnings"]


@pytest.mark.parametrize("p", [0, 2])
def test_stability_ratios_match_loop_oracle_at_a_bowtie_vertex(p):
    # vertex 0 joins two triangles at a point; its patch shares a
    # signature with the two-triangle fans of vertices 1 and 2 but has more
    # surrogate nodes, so the signature's rows have different node counts
    edges = [(0, 1), (1, 3), (3, 2), (2, 0), (0, 4), (4, 5)]
    labels = [(e, "dirichlet") for e in edges] + [((0, 5), "neumann")]
    m = Mesh([(0, 0), (1, 0), (0, 1), (1, 1), (-1, 0), (0, -1)], [(0, 1, 2), (1, 3, 2), (0, 4, 5)], labels)
    layout = patch_layout(m, p)
    assert oracles.signature_rows(layout)[oracles.patch_place(layout, 0)[0]].verts.tolist() == [0, 1, 2]
    v = random_conforming_field(m, p + 1, seed=p)
    got = np.array(projector_report(v, p, m)["sigma"].info["projector"].stability_ratios)
    want = oracles.project_hdiv_oracle(v, p, m, measure_stability=True)
    ref, amp = np.array(want["stability_ratios"]), np.array(want["stability_amplification"])
    assert np.all(np.abs(got - ref) <= 1e-13 * amp * ref)


def test_self_check_warnings_match_loop():
    m = build_structured(3)
    v = oscillating_field()
    for p in (2, 3):
        info = project_hdiv(v, p, m).info["projector"]
        want = oracles.project_hdiv_oracle(v, p, m)
        assert info.warnings and info.warnings == want["warnings"]
        got = []
        project_scalar(v.div, p, m, warnings=got)
        ref = []
        oracles.project_scalar_oracle(v.div, p, m, QuadPolicy(p, m, v), ref)
        assert got == ref == info.warnings


@pytest.mark.parametrize("p", [0, 1])
@pytest.mark.parametrize("k", [3, 10])
def test_perturbed_theta_names_the_loops_vertex(monkeypatch, p, k):
    # perturbing theta on one element breaks the mass of the patches of its
    # interior and Neumann vertices; both paths name the lowest of them
    import hdivkit.projector as projector

    m = build_structured(3, labels="all-neumann")
    v = random_conforming_field(m, p + 1, seed=4)
    dtheta = 1e-3 * np.random.default_rng(k).standard_normal(rtn_space(m, p).ref.dim)

    def perturb(theta):
        theta.coeffs[k] += dtheta

    def perturbed_fit(*args, **kwargs):
        theta = theta_field(*args, **kwargs)
        perturb(theta)
        return theta

    with pytest.raises(CompatibilityError) as want:
        oracles.project_hdiv_oracle(v, p, m, theta_hook=perturb)
    monkeypatch.setattr(projector, "theta_field", perturbed_fit)
    with pytest.raises(CompatibilityError) as got:
        project_hdiv(v, p, m)
    assert _vertex(str(got.value)) == _vertex(str(want.value)) == min(m.triangles[k])


def test_sigma_gathers_the_patch_fluxes():
    # the stacked path equals its own chunk fluxes placed on their
    # triangles one pair at a time, zero on the slot opposite the patch
    # vertex, summed per triangle and gathered, to the bit
    m = build_lshape(2, labels="left-neumann")
    v = stream_field()
    p = 2
    sig = project_hdiv(v, p, m)
    theta = sig.info["theta"]
    space = rtn_space(m, p)
    rows = np.zeros((m.num_triangles, 3, space.ref.dim))
    layout = patch_layout(m, p)
    for chunk in layout.chunks:
        x, _ = patch_equilibrate(build_patch_problem(layout, chunk, patch_data(theta, QuadPolicy(p, m, v))))
        for k, z, xk in zip(layout.tris[chunk.pairs], layout.local[chunk.pairs], x):
            rows[k, z] = np.where(np.arange(len(xk)) // (p + 1) == z, 0.0, xk)
    assert np.array_equal(sig.dofs, space.gather(rows[:, 0] + rows[:, 1] + rows[:, 2]))


SUM_MESHES = {
    "structured4": lambda labels: build_structured(4, labels=labels),
    "lshape2": lambda labels: build_lshape(2, labels=labels),
    "jittered-structured4": lambda labels: jitter(build_structured(4, labels=labels), 4),
}


@pytest.mark.parametrize("p,variant", [(p, "def31") for p in (0, 1, 2, 3, 6)] + [(p, "def52") for p in (1, 2, 3, 6)])
@pytest.mark.parametrize("labels", LABELS)
@pytest.mark.parametrize("mesh_name", sorted(SUM_MESHES))
def test_sigma_matches_the_patch_dof_sum(mesh_name, labels, p, variant):
    # gathering element rows gives the sigma of the patch dof numbering:
    # each patch's fluxes averaged into its patch dofs, zero-extended and
    # summed in ascending vertex order (``oracles.sum_patch_fields``)
    m = SUM_MESHES[mesh_name](labels)
    v = random_conforming_field(m, p + 1, seed=p)
    sig = project_hdiv(v, p, m, variant=variant)
    theta = sig.info["theta"]
    data = patch_data(theta, QuadPolicy(p, m, v))
    layout = patch_layout(m, p)
    parts = [part for chunk in layout.chunks
             for part in oracles.run_fluxes(layout, chunk,
                                            patch_equilibrate(build_patch_problem(layout, chunk, data))[0])]
    want = oracles.sum_patch_fields(parts, m, p)
    assert np.abs(sig.dofs - want).max() <= 1e-15 * np.abs(want).max()


def _check_multipliers(m, p, patch, mult, elem_map, nl):
    """Multipliers 0..nl-1: one per dof of each interior edge at the vertex,
    on both of its slots, one per dof of every other pinned slot, none on the
    free Dirichlet edges at the vertex."""
    ne = 3 * (p + 1)
    edges = np.repeat(m.tri_edges[patch.tris], p + 1, axis=1)
    active = elem_map[:, :ne] >= 0
    interior = m.edge_tris[edges, 1] >= 0
    assert np.array_equal(mult < 0, active & ~interior)
    assert sorted(set(mult[mult >= 0].tolist())) == list(range(nl))
    for lam in range(nl):
        t, j = np.nonzero(mult == lam)
        assert len(t) == (2 if active[t[0], j[0]] else 1)
        assert len(set(edges[t, j].tolist())) == 1 and len(set((j % (p + 1)).tolist())) == 1


@pytest.mark.parametrize("p", [0, 1, 3])
@pytest.mark.parametrize("labels", LABELS)
@pytest.mark.parametrize("budget", [STACK_BYTES, 30000], ids=["whole", "cut"])
def test_patch_layout_matches_patch_loop(monkeypatch, budget, labels, p):
    # a smaller budget cuts chunks across signatures
    monkeypatch.setattr(linsolve, "STACK_BYTES", budget)
    for m in (jitter(build_lshape(2, labels=labels), 2), refine_uniform(build_structured(2, labels=labels))):
        space = rtn_space(m, p)
        layout = patch_layout(m, p)
        assert layout is patch_layout(m, p)
        ndof, ne = space.ref.dim, 3 * (p + 1)
        sizes, seen = [], []
        for chunk in layout.chunks:
            # the sizing rule of ``linsolve.chunks``: per pair the element
            # columns and five arrays of the multiplier blocks, per patch
            # its system
            item = [8 * (run.nt * (ndof * (4 + ne) + 5 * ne * (ne + 1)) + run.nl**2)
                    for run in chunk.runs for _ in range(run.n)]
            assert len(item) == 1 or sum(item) <= budget
            sizes.append((sum(item), item[0]))
            assert [run.patches.start for run in chunk.runs] == list(np.cumsum([0] + [r.n for r in chunk.runs])[:-1])
            # the chunk numbers its equations from 0, patch after patch
            nls = [r.nl for r in chunk.runs for _ in range(r.n)]
            assert layout.eq[chunk.patches].tolist() == list(np.cumsum([0] + nls)[:-1])
            assert chunk.eqs == slice(0, sum(nls))
            verts = layout.verts[chunk.patches]
            tris, local, slots, cols = (a[chunk.pairs] for a in (layout.tris, layout.local, layout.slots, layout.cols))
            for run in chunk.runs:
                g, whole = oracles.signature_rows(layout)[run.sig], layout.signatures[run.sig]
                assert (run.nl, run.nt, run.kernel) == (g.nl, g.tris.shape[1], g.kernel)
                # a run is a range of its signature's patches
                row = chunk.patches.start + run.patches.start - whole.patches.start
                assert 0 <= row and row + run.n <= whole.n
                assert np.array_equal(verts[run.patches], g.verts[row:row + run.n])
                assert np.all(np.diff(verts[run.patches]) > 0)
                for r, a in enumerate(verts[run.patches]):
                    patch = vertex_patches(m)[a]
                    want = oracles.patch_space_oracle(patch, space)
                    pairs = slice(run.pairs.start + r * run.nt, run.pairs.start + (r + 1) * run.nt)
                    eq = run.eqs.start + r * run.nl
                    assert run.kernel == (patch.kind in ("interior", "neumann"))
                    assert np.array_equal(tris[pairs], patch.tris)
                    assert [patch.local_index[int(k)] for k in patch.tris] == list(local[pairs])
                    assert run.nl == run.nt * ndof - want.ndof
                    assert np.all((slots[pairs] < 0) | ((slots[pairs] >= eq) & (slots[pairs] < eq + run.nl)))
                    mult = np.where(slots[pairs] >= 0, slots[pairs] - eq, -1)
                    _check_multipliers(m, p, patch, mult, oracles.elem_maps(want), run.nl)
                    assert np.array_equal(mult, g.mult[row + r])
                    # the constant-divergence coefficient in place of a
                    # kernel patch's grounded multiplier 0
                    assert np.array_equal(cols[pairs, 1:], np.where(run.kernel & (mult == 0), -1, slots[pairs]))
                    assert np.all(cols[pairs, 0] == (eq if run.kernel else -1))
                    # the one-patch range reads the same pairs and equations
                    one = oracles.chunk_of(layout, a)
                    assert layout.verts[one.patches].tolist() == [a] and one.eqs == slice(eq, eq + run.nl)
                    assert np.array_equal(layout.slots[one.pairs], slots[pairs])
            seen += verts.tolist()
        assert sorted(seen) == list(range(m.num_vertices))
        # the chunks tile the layout's patches and pairs, in order
        for part in ("patches", "pairs"):
            cuts = [getattr(c, part) for c in layout.chunks]
            assert [c.start for c in cuts] == [0] + [c.stop for c in cuts[:-1]]
        assert layout.chunks[-1].patches.stop == len(layout.verts) and layout.chunks[-1].pairs.stop == len(layout.tris)
        assert np.array_equal(layout.vert, np.concatenate([np.repeat(layout.verts[c.patches][r.patches], r.nt)
                                                           for c in layout.chunks for r in c.runs]))
        for (full, _), (_, first) in zip(sizes, sizes[1:]):  # a chunk is cut only where it is full
            assert full + first > budget
        assert (len(layout.chunks) > 1) == (budget < STACK_BYTES)


AD, LN, AN = LABELS
BENCHMARK_LAYOUTS = [
    # the (mesh, labels, p, variant) of every ``project_hdiv`` and
    # ``projector_report`` template of the benchmark's ``project`` and
    # ``high-p`` workloads
    (("structured", 8, LN), 1, "def31"), (("structured", 8, AN), 0, "def31"), (("structured", 8, AN), 2, "def52"),
    (("structured", 8, AD), 1, "def31"), (("structured", 16, AD), 0, "def31"), (("lshape", 4, AD), 0, "def31"),
    (("lshape", 4, AD), 1, "def52"), (("lshape", 4, AD), 3, "def31"), (("lshape", 4, LN), 1, "def31"),
    (("lshape", 4, LN), 2, "def31"), (("lshape", 4, AN), 0, "def31"), (("lshape", 4, AN), 2, "def52"),
    (("structured", 4, AD), 4, "def31"), (("structured", 4, AD), 5, "def31"), (("structured", 4, AD), 6, "def31"),
    (("structured", 4, LN), 6, "def52"), (("lshape", 1, AD), 5, "def52"), (("lshape", 1, AD), 6, "def31"),
    (("lshape", 1, AN), 4, "def52"), (("lshape", 2, AD), 4, "def31"), (("lshape", 2, AD), 5, "def31"),
    (("lshape", 2, AD), 6, "def31"), (("lshape", 2, AD), 6, "def52"), (("lshape", 2, AN), 5, "def31"),
]


def _mesh(kind, n, labels):
    return (build_structured if kind == "structured" else build_lshape)(n, labels=labels)


def test_benchmark_meshes_run_whole_stacks(monkeypatch):
    # on meshes of the benchmark's size at p <= 6 each patch layout, the
    # corner wedges of a policy and each element_solve call are one stack
    for spec, p, _ in BENCHMARK_LAYOUTS:
        assert len(patch_layout(_mesh(*spec), p).chunks) == 1, (spec, p)
    groups = QuadPolicy(6, build_lshape(2), fields.catalog("lshape_singular")).groups()
    wedges = [g for g in groups if not g.shared]
    assert len(wedges) == 1 and len(wedges[0].tris) == 5
    space = rtn_space(build_structured(4), 6)
    cuts = []

    def spy(*args, **kw):
        cuts.append(chunks(*args, **kw))
        return cuts[-1]

    monkeypatch.setattr(linsolve, "chunks", spy)
    rng, tris = np.random.default_rng(0), np.arange(len(space))
    for r in (1, 4):
        element_solve(space, rng.standard_normal((len(tris), space.ref.dim, r)),
                      rng.standard_normal((len(tris), space.sdim, r)), tris)
    assert [len(c) for c in cuts] == [1, 1]


def _check_signature_groups(m, p, variant):
    """sigma and the stability ratios of ``projector_report`` on ``m`` equal,
    to the bit, those of the per-signature path."""
    # rtn_space(m, 7) would cost seconds: the stream field above p = 3
    v = random_conforming_field(m, p + 1, seed=p) if p <= 3 else stream_field()
    rep = projector_report(v, p, m, variant=variant)
    dofs, ratios = oracles.patch_layer_group_oracle(v, p, m, variant=variant)
    assert np.array_equal(rep["sigma"].dofs, dofs)
    assert np.array_equal(rep["stability_ratios"], ratios) and np.any(ratios > 0)


@pytest.mark.parametrize("spec,p,variant", BENCHMARK_LAYOUTS,
                         ids=[f"{k[0]}{k[1]}-{k[2]}-{p}-{v}" for k, p, v in BENCHMARK_LAYOUTS])
def test_one_pass_matches_the_signature_groups_on_benchmark_layouts(spec, p, variant):
    # one chunk holds every patch of these layouts
    _check_signature_groups(_mesh(*spec), p, variant)


@pytest.mark.parametrize("p", [0, 2])
@pytest.mark.parametrize("labels", LABELS)
@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_one_pass_matches_the_signature_groups_without_kept_systems(mesh_name, labels, p):
    # jittered: each call assembles the surrogate systems, and on
    # structured:3 the multiplier systems, of the classes present
    m = MESHES[mesh_name](labels)
    _check_signature_groups(m, p, "def31")
    assert patch_layout(m, p).tables.keep == {"multiplier": mesh_name.endswith("lshape2"), "surrogate": False}


@pytest.mark.parametrize("budget", [1, 30000])
@pytest.mark.parametrize("labels", LABELS)
def test_one_pass_matches_the_signature_groups_in_small_chunks(monkeypatch, budget, labels):
    # one patch per chunk, and chunks cut across signatures: the bits of
    # the whole-layout chunk
    _check_small_chunks(monkeypatch, lambda: build_structured(8, labels=labels), 1, budget)


@pytest.mark.parametrize("budget", [1, 30000])
@pytest.mark.parametrize("p", [0, 2])
@pytest.mark.parametrize("labels", LABELS)
@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_one_pass_matches_the_signature_groups_in_small_chunks_without_kept_systems(
        monkeypatch, mesh_name, labels, p, budget):
    # the per-call class systems, multiplier (jittered structured:3) and
    # surrogate, of the classes present in each run of small chunks, whose
    # equations and unknowns are numbered in their chunk
    kept = _check_small_chunks(monkeypatch, lambda: MESHES[mesh_name](labels), p, budget)
    assert kept == {"multiplier": mesh_name.endswith("lshape2"), "surrogate": False}


def _check_small_chunks(monkeypatch, mesh, p, budget):
    """sigma and the stability ratios of ``projector_report`` on a mesh cut
    into chunks of ``budget`` bytes equal, to the bit, those of the
    per-signature path and of the whole-layout chunk; returns which kinds
    of systems the layout keeps."""
    whole_mesh = mesh()
    whole = projector_report(random_conforming_field(whole_mesh, p + 1, seed=p), p, whole_mesh)
    monkeypatch.setattr(linsolve, "STACK_BYTES", budget)
    m = mesh()
    layout = patch_layout(m, p)
    assert len(layout.chunks) == m.num_vertices if budget == 1 else 1 < len(layout.chunks) < m.num_vertices
    assert budget == 1 or any(len(chunk.runs) > 1 for chunk in layout.chunks)
    _check_signature_groups(m, p, "def31")
    got = projector_report(random_conforming_field(m, p + 1, seed=p), p, m)
    assert np.array_equal(got["sigma"].dofs, whole["sigma"].dofs)
    assert np.array_equal(got["stability_ratios"], whole["stability_ratios"])
    return layout.tables.keep


@pytest.mark.parametrize("p", [4, 5])
@pytest.mark.parametrize("mesh", [lambda: build_structured(4, labels="left-neumann"),
                                  lambda: build_lshape(2, labels="all-neumann")], ids=["structured4", "lshape2"])
def test_stability_ratios_do_not_depend_on_the_chunks(monkeypatch, mesh, p):
    # the ratios are measured after the solve, signature by signature, so
    # no cut of the patch chunks moves their bits, not even above p = 3,
    # where a gemm's bits depend on its height
    ratios = []
    for budget in (STACK_BYTES, 1, 30000):
        monkeypatch.setattr(linsolve, "STACK_BYTES", budget)
        m = mesh()
        ratios.append(projector_report(random_conforming_field(m, p + 1, seed=3), p, m)["stability_ratios"])
        assert (len(patch_layout(m, p).chunks) > 1) == (budget < STACK_BYTES)
    assert all(np.array_equal(r, ratios[0]) for r in ratios[1:])


@pytest.mark.parametrize("p", [5, 6])
def test_stacks_of_patches_match_one_patch_per_chunk(monkeypatch, p):
    # one system per chunk is the reference: the stacked projection of
    # several patches per signature gives it to the bit (here the patches
    # of a class share factorizations, each in its place of its class's
    # blocks)
    _check_one_patch_per_chunk(monkeypatch, p, lambda: build_structured(4))


@pytest.mark.parametrize("p", [5, 6])
def test_jittered_stacks_of_patches_match_one_patch_per_chunk(monkeypatch, p):
    # without repeated patch systems: one system per block
    _check_one_patch_per_chunk(monkeypatch, p, lambda: jitter(build_structured(4), 3))


def _check_one_patch_per_chunk(monkeypatch, p, mesh):
    v = stream_field()
    whole = mesh()
    want = project_hdiv(v, p, whole).dofs
    monkeypatch.setattr(linsolve, "STACK_BYTES", 1)
    single = mesh()
    got = project_hdiv(v, p, single).dofs
    assert len(patch_layout(whole, p).chunks) < len(patch_layout(single, p).chunks) == single.num_vertices
    assert np.array_equal(got, want)


def test_stacks_of_corner_wedges_match_one_wedge_per_chunk(monkeypatch):
    # the wedge group of the singular corner, the patches and the element
    # solves in whole stacks against one item per chunk: sigma, theta and
    # E_glob to roundoff
    v, p = fields.catalog("lshape_singular"), 5

    def run():
        m = build_lshape(2)
        sigma = project_hdiv(v, p, m)
        wedges = [g for g in QuadPolicy(p, m, v).groups() if not g.shared]
        return len(wedges), sigma.dofs, sigma.info["theta"].coeffs, error_report(v, p, m).Eglob

    n, *want = run()
    monkeypatch.setattr(linsolve, "STACK_BYTES", 1)
    n_single, *got = run()
    assert n == 1 < n_single == 5
    for a, b in zip(got, want):
        assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max()


def test_patch_data_measures_every_patch_defect_once(monkeypatch):
    # patch_data measures and gates the mass defect of every patch in one
    # pass over the layout, with the bits of the per-signature measure;
    # building the patch problems measures it no more
    m = build_structured(4, labels="left-neumann")
    p = 2
    v = random_conforming_field(m, p + 1, seed=2)
    policy = QuadPolicy(p, m, v)
    theta = theta_field(policy)
    data = patch_data(theta, policy)
    layout = patch_layout(m, p)
    assert np.any(data.defect > 0)
    for group in oracles.signature_groups(layout):
        assert np.array_equal(data.defect[group.verts], oracles._group_mass_defects(group, data, m))
    calls = []
    measure = local_solve._mass_defects
    monkeypatch.setattr(local_solve, "_mass_defects", lambda *args: calls.append(1) or measure(*args))
    for chunk in layout.chunks:
        build_patch_problem(layout, chunk, data)
    assert not calls
    project_hdiv(v, p, m)
    assert len(calls) == 1


def test_single_patch_problem_matches_loop_assembly():
    # the chunk of one vertex patch gives its problem; its hybrid solution
    # equals a dense KKT solve of the loop assembly
    m = jitter(build_lshape(2, labels="left-neumann"), 2)
    v = random_conforming_field(m, 3, seed=1)
    p = 2
    theta = theta_field(QuadPolicy(p, m, v))
    data = oracles.patch_data_oracle(theta, v, p, m, QuadPolicy(p, m, v))
    got_data = patch_data(theta, QuadPolicy(p, m, v))
    for patch in vertex_patches(m):
        layout = patch_layout(m, p)
        prob = build_patch_problem(layout, oracles.chunk_of(layout, patch.vertex), got_data)
        want = oracles.build_patch_problem_oracle(patch, p, m, data)
        assert layout.verts[prob.chunk.patches].tolist() == [patch.vertex] and prob.layout.p == p
        for key in ("chi", "g"):  # per pair, in ascending triangle order
            got, ref = getattr(prob, key), np.array([getattr(want, key)[int(k)] for k in patch.tris])
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max(), key
        assert abs(got_data.defect[layout.verts[prob.chunk.patches]][0] - want.compat_defect) <= 1e-13
        x, _ = patch_equilibrate(prob)
        s_ref, _ = oracles.saddle_solve_dense(want.M, want.B, want.rhs, want.grhs, kernel=want.kernel)
        assert _rel(x, oracles.elem_rows(want.pspace, s_ref)) <= 1e-13


@pytest.mark.parametrize("variant", ["def31", "def52"])
def test_element_fit_is_a_slice_of_the_stacked_fit(variant):
    m = jitter(build_structured(3, labels="left-neumann"), 1)
    v = stream_field()
    p = 2
    q = p if variant == "def31" else p - 1
    theta = theta_field(QuadPolicy(p, m, v), variant)
    policy = QuadPolicy(q, m, v)
    for k in range(m.num_triangles):
        one = local_best_constrained(v, q, m, k)["coeffs"]
        assert _rel(one, theta.coeffs[k]) <= 1e-14
        assert _rel(one, oracles.elem_constrained_min_oracle(v, q, m, k, policy)) <= 1e-13


@pytest.mark.parametrize("p", [0, 1, 2])
def test_constrained_local_errors_match_element_loop(p):
    m = jitter(build_lshape(2, labels="left-neumann"), 2)
    v = stream_field()
    rep = error_report(v, p, m, include_constrained=True)
    policy = QuadPolicy(p, m, v)
    want = np.array([oracles.local_best_constrained_oracle(v, p, m, k, policy) for k in range(m.num_triangles)])
    assert _rel(rep.Eloc_constrained, want) <= 1e-12
    assert np.all(rep.Eloc_constrained >= rep.Eloc * (1 - 1e-12))
    for k in (0, 7):
        assert abs(local_best_constrained(v, p, m, k)["E_loc_c"] - want[k]) <= 1e-12 * want[k]


class _CornerDiv:
    """div of a field with the L-shape corner singularity, through the
    per-element interface: wedge rules at the corner."""

    singularity = fields.Singularity(center=(0.0, 0.0), gamma=-1 / 3)
    poly_degree = None

    def eval_element(self, k, pts):
        r = np.hypot(pts[:, 0], pts[:, 1])
        return r ** (-1 / 3) * (1 + pts[:, 0])


@pytest.mark.parametrize("p", [0, 2, 3])
def test_project_scalar_matches_element_loop(p):
    m = jitter(build_lshape(2, labels="left-neumann"), 2)
    f = lambda pts: np.exp(pts[:, 0]) * np.sin(3 * pts[:, 1])  # noqa: E731
    pw = ScalarPWField(m, p + 1, np.random.default_rng(p).standard_normal((m.num_triangles, (p + 2) * (p + 3) // 2)))
    for g in (f, pw, _CornerDiv()):
        got_w, ref_w = [], []
        got = project_scalar(g, p, m, warnings=got_w)
        pd = pw.p if g is pw else None
        policy = QuadPolicy(p, m)
        if pd is not None:
            policy.base_degree, policy.self_check = pd + p + 1, False
        policy.singularity = getattr(g, "singularity", None)
        want = oracles.project_scalar_oracle(g, p, m, policy, ref_w)
        assert _rel(got.coeffs, want.coeffs) <= 1e-13
        assert got_w == ref_w


def test_neumann_trace_check_in_one_field_call(exp_field):
    # same threshold and message as a loop over the Neumann edges
    m = build_structured(3, labels="left-neumann")
    neumann = np.flatnonzero(m.edge_label == "neumann")
    worst = 0.0
    for e in neumann:
        pts = m.vertices[m.edges[e, 0]] + np.outer(gauss01(8)[0], m.edge_vector(e))
        worst = max(worst, float(np.max(np.abs(exp_field.eval(pts) @ m.edge_normal(e)))))
    calls = []

    def counted(pts):
        calls.append(len(pts))
        return exp_field.eval(pts)

    with pytest.raises(FieldError, match=re.escape(f"|v.n| up to {worst:.2e}")):
        check_field_compatibility(QuadPolicy(1, m, fields.AnalyticField("exp", counted, exp_field.div)))
    assert calls == [8 * len(neumann)]
    check_field_compatibility(QuadPolicy(1, build_lshape(2, labels="all-neumann"), stream_field()))
