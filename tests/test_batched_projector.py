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
    # vertex 0 joins two triangles at a point; its patch shares a layout
    # group with the two-triangle fans of vertices 1 and 2 but has more
    # surrogate nodes, so the group's rows have different node counts
    edges = [(0, 1), (1, 3), (3, 2), (2, 0), (0, 4), (4, 5)]
    labels = [(e, "dirichlet") for e in edges] + [((0, 5), "neumann")]
    m = Mesh([(0, 0), (1, 0), (0, 1), (1, 1), (-1, 0), (0, -1)], [(0, 1, 2), (1, 3, 2), (0, 4, 5)], labels)
    layout = patch_layout(m, p)
    assert layout.groups[layout.where[0, 0]].verts.tolist() == [0, 1, 2]
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
        project_scalar(v.div, p, m, policy=QuadPolicy(p, field=v), warnings=got)
        ref = []
        oracles.project_scalar_oracle(v.div, p, m, QuadPolicy(p, field=v), ref)
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
    # the stacked path equals its own group fluxes placed on their
    # triangles one patch at a time, zero on the slot opposite the patch
    # vertex, summed per triangle and gathered, to the bit
    m = build_lshape(2, labels="left-neumann")
    v = stream_field()
    p = 2
    sig = project_hdiv(v, p, m)
    theta = sig.info["theta"]
    space = rtn_space(m, p)
    rows = np.zeros((m.num_triangles, 3, space.ref.dim))
    for group in patch_layout(m, p).groups:
        x, _ = patch_equilibrate(build_patch_problem(group, theta, v, p, m))
        for tris, local, xa in zip(group.tris, group.local, x):
            for k, z, xk in zip(tris, local, xa):
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
    data = patch_data(theta, v, p, m)
    parts = [(g, patch_equilibrate(build_patch_problem(g, theta, v, p, m, data=data))[0])
             for g in patch_layout(m, p).groups]
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
def test_patch_layout_matches_patch_loop(labels, p):
    for m in (jitter(build_lshape(2, labels=labels), 2), refine_uniform(build_structured(2, labels=labels))):
        space = rtn_space(m, p)
        layout = patch_layout(m, p)
        assert layout is patch_layout(m, p)
        seen, rows = [], {}
        for group in layout.groups:
            n, nt = group.tris.shape
            ndof, nl, ne = space.ref.dim, group.nl, 3 * (p + 1)
            # the sizing rule of ``linsolve.chunks``: the element columns, five
            # arrays of the multiplier blocks and the system of each patch
            item = 8 * (nt * (ndof * (4 + ne) + 5 * ne * (ne + 1)) + nl**2)
            assert n == 1 or n * item <= STACK_BYTES
            rows.setdefault((nl, nt, group.kernel), []).append((n, max(1, STACK_BYTES // item)))
            assert np.all(np.diff(group.verts) > 0)
            for r, a in enumerate(group.verts):
                patch = vertex_patches(m)[a]
                want = oracles.patch_space_oracle(patch, space)
                assert group.kernel == (patch.kind in ("interior", "neumann"))
                assert np.array_equal(group.tris[r], patch.tris)
                assert [patch.local_index[int(k)] for k in patch.tris] == list(group.local[r])
                assert nl == nt * ndof - want.ndof
                _check_multipliers(m, p, patch, group.mult[r], oracles.elem_maps(want), nl)
                one = layout.group_of(a)
                assert one.verts.tolist() == [a] and np.array_equal(one.mult[0], group.mult[r])
            seen += group.verts.tolist()
        assert sorted(seen) == list(range(m.num_vertices))
        for cut in rows.values():  # a signature is cut only where a chunk is full
            assert all(n == full for n, full in cut[:-1])


def test_benchmark_meshes_run_whole_stacks(monkeypatch):
    # on meshes of the benchmark's size at p <= 6 each patch signature, the
    # corner wedges of a policy and each element_solve call are one stack
    for m, p in ((build_structured(4), 6), (build_lshape(4), 3)):
        groups = patch_layout(m, p).groups
        assert len(groups) == len({(g.nl, g.tris.shape[1], g.kernel) for g in groups})
    groups = QuadPolicy(6, field=fields.catalog("lshape_singular")).groups(build_lshape(2))
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
    assert len(patch_layout(whole, p).groups) < len(patch_layout(single, p).groups) == single.num_vertices
    assert np.array_equal(got, want)


def test_stacks_of_corner_wedges_match_one_wedge_per_chunk(monkeypatch):
    # the wedge group of the singular corner, the patches and the element
    # solves in whole stacks against one item per chunk: sigma, theta and
    # E_glob to roundoff
    v, p = fields.catalog("lshape_singular"), 5

    def run():
        m = build_lshape(2)
        sigma = project_hdiv(v, p, m)
        wedges = [g for g in QuadPolicy(p, field=v).groups(m) if not g.shared]
        return len(wedges), sigma.dofs, sigma.info["theta"].coeffs, error_report(v, p, m).Eglob

    n, *want = run()
    monkeypatch.setattr(linsolve, "STACK_BYTES", 1)
    n_single, *got = run()
    assert n == 1 < n_single == 5
    for a, b in zip(got, want):
        assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max()


def test_patch_data_measures_every_patch_defect_once(monkeypatch):
    # patch_data measures and gates the mass defect of every patch once, with
    # the bits of the per-group measure; the patch problems read it
    m = build_structured(4, labels="left-neumann")
    p = 2
    v = random_conforming_field(m, p + 1, seed=2)
    theta = theta_field(v, p, m)
    data = patch_data(theta, v, p, m)
    groups = patch_layout(m, p).groups
    assert np.any(data.defect > 0)
    for group in groups:
        assert np.array_equal(data.defect[group.verts], local_solve._mass_defects(group, data, m))
    calls = []
    measure = local_solve._mass_defects
    monkeypatch.setattr(local_solve, "_mass_defects", lambda *args: calls.append(1) or measure(*args))
    for group in groups:
        problem = build_patch_problem(group, theta, v, p, m, data=data)
        assert np.array_equal(problem.compat_defect, data.defect[group.verts])
    assert not calls
    project_hdiv(v, p, m)
    assert len(calls) == len(groups)


def test_single_patch_problem_matches_loop_assembly():
    # the group of one vertex patch gives its one-row problem; its hybrid
    # solution equals a dense KKT solve of the loop assembly
    m = jitter(build_lshape(2, labels="left-neumann"), 2)
    v = random_conforming_field(m, 3, seed=1)
    p = 2
    theta = theta_field(v, p, m)
    data = oracles.patch_data_oracle(theta, v, p, m, QuadPolicy(p, field=v))
    for patch in vertex_patches(m):
        prob = build_patch_problem(patch_layout(m, p).group_of(patch.vertex), theta, v, p, m)
        want = oracles.build_patch_problem_oracle(patch, p, m, data)
        assert prob.group.verts.tolist() == [patch.vertex] and prob.p == p
        for key in ("chi", "g"):  # per triangle, in ascending triangle order
            got, ref = getattr(prob, key)[0], np.array([getattr(want, key)[int(k)] for k in patch.tris])
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max(), key
        assert abs(prob.compat_defect[0] - want.compat_defect) <= 1e-13
        x, _ = patch_equilibrate(prob)
        s_ref, _ = oracles.saddle_solve_dense(want.M, want.B, want.rhs, want.grhs, kernel=want.kernel)
        assert _rel(x[0], oracles.elem_rows(want.pspace, s_ref)) <= 1e-13


@pytest.mark.parametrize("variant", ["def31", "def52"])
def test_element_fit_is_a_slice_of_the_stacked_fit(variant):
    m = jitter(build_structured(3, labels="left-neumann"), 1)
    v = stream_field()
    p = 2
    q = p if variant == "def31" else p - 1
    theta = theta_field(v, p, m, variant=variant)
    policy = QuadPolicy(q, field=v)
    for k in range(m.num_triangles):
        one = local_best_constrained(v, q, m, k)["coeffs"]
        assert _rel(one, theta.coeffs[k]) <= 1e-14
        assert _rel(one, oracles.elem_constrained_min_oracle(v, q, m, k, policy)) <= 1e-13


@pytest.mark.parametrize("p", [0, 1, 2])
def test_constrained_local_errors_match_element_loop(p):
    m = jitter(build_lshape(2, labels="left-neumann"), 2)
    v = stream_field()
    rep = error_report(v, p, m, include_constrained=True)
    policy = QuadPolicy(p, field=v)
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
        policy = QuadPolicy(p, field=None)
        if pd is not None:
            policy.base_degree, policy.self_check = pd + p + 1, False
        policy.singularity = getattr(g, "singularity", None)
        want = oracles.project_scalar_oracle(g, p, m, policy, ref_w)
        assert _rel(got.coeffs, want.coeffs) <= 1e-13
        assert got_w == ref_w


def test_neumann_trace_check_in_one_field_call(exp_field):
    # same threshold and message as a loop over the Neumann edges
    m = build_structured(3, labels="left-neumann")
    neumann = m.edges_with_label("neumann")
    worst = 0.0
    for e in neumann:
        pts = m.vertices[m.edges[e, 0]] + np.outer(gauss01(8)[0], m.edge_vector(e))
        worst = max(worst, float(np.max(np.abs(exp_field.eval(pts) @ m.edge_normal(e)))))
    calls = []

    def counted(pts):
        calls.append(len(pts))
        return exp_field.eval(pts)

    with pytest.raises(FieldError, match=re.escape(f"|v.n| up to {worst:.2e}")):
        check_field_compatibility(fields.AnalyticField("exp", counted, exp_field.div), m)
    assert calls == [8 * len(neumann)]
    check_field_compatibility(stream_field(), build_lshape(2, labels="all-neumann"))
