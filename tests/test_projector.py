import dataclasses
import pickle
import warnings

import numpy as np
import pytest

import oracles
from hdivkit import fields
from hdivkit.best_approx import error_report, global_best
from hdivkit.fields import FieldError
from hdivkit.local_solve import CompatibilityError, build_patch_problem, patch_data, patch_layout, theta_field
from hdivkit.mesh import Mesh, build_lshape, build_structured, refine_uniform, vertex_patches
from hdivkit.model_problems import manufactured_sine, solve_ls_mixed, solve_mixed
from hdivkit.projector import (
    ConformingRTNField,
    check_field_compatibility,
    project_hdiv,
    projector_report,
    random_conforming_field,
)
from hdivkit.projections import BrokenRTNField, canonical_interp, project_scalar
from hdivkit.quadpolicy import QuadPolicy
from hdivkit.quadrature import UnsupportedDegreeError
from hdivkit.elements import rtn_space


@pytest.mark.parametrize("labels", ["all-dirichlet", "left-neumann"])
@pytest.mark.parametrize("p", [0, 1, 2])
def test_projection_property(labels, p):
    m = build_structured(2, labels=labels)
    vh = random_conforming_field(m, p, seed=p + 17)
    sig = project_hdiv(vh, p, m)
    err = np.linalg.norm(sig.dofs - vh.dofs) / np.linalg.norm(vh.dofs)
    assert err < 1e-10


@pytest.mark.parametrize("name", ["sine_divfree", "cubic", "lshape_singular"])
@pytest.mark.parametrize("p", [0, 1, 2])
def test_commuting_property(name, p, unit_square_2):
    v = fields.catalog(name)
    sig = project_hdiv(v, p, unit_square_2)
    assert sig.info["projector"].commute_residual < 1e-10
    assert sig.jump_residual() < 1e-11
    if v.divergence_free:
        assert np.linalg.norm(sig.div().coeffs) < 1e-11


@pytest.mark.parametrize("p", [1, 2, 3])
def test_commuting_property_def52(p, unit_square_2):
    for name in ("sine_divfree", "cubic"):
        v = fields.catalog(name)
        sig = project_hdiv(v, p, unit_square_2, variant="def52")
        assert sig.info["projector"].commute_residual < 1e-10


def test_def52_needs_p1(unit_square_2, cubic_field):
    with pytest.raises(ValueError):
        project_hdiv(cubic_field, 0, unit_square_2, variant="def52")


def test_end_to_end_oracle(unit_square_2, cubic_field):
    # cubic field at p = 0: the projection error must match the brute-force
    # dense path at doubled quadrature degree
    m = unit_square_2
    p = 0
    sig = project_hdiv(cubic_field, p, m)
    policy = QuadPolicy(p, m, cubic_field)
    space = rtn_space(m, p)
    err2 = 0.0
    for k in range(m.num_triangles):
        el = oracles.element(space, k)
        tri, _, _ = policy.element_rules(el, key=("tri", k))
        pts = el.quad_points(tri)
        diff = cubic_field.eval(pts, elem=k) - sig.eval(pts, elem=k)
        err2 += el.norm_sq(diff, tri)
    err = np.sqrt(err2)
    ref_err, ref_sigma = oracles.projector_oracle(cubic_field, p, m)
    assert abs(err - ref_err) / ref_err < 1e-9
    assert np.abs(sig.dofs - ref_sigma.dofs).max() < 1e-9 * max(
        1.0, np.abs(ref_sigma.dofs).max()
    )


def test_linearity(unit_square_2):
    m = unit_square_2
    p = 1
    v1 = fields.catalog("sine_divfree")
    v2 = fields.catalog("cubic")
    combo = fields.AnalyticField(
        "combo",
        lambda pts: 2.0 * v1.eval(pts) - 0.5 * v2.eval(pts),
        lambda pts: 2.0 * v1.eval_div(pts) - 0.5 * v2.eval_div(pts),
    )
    s1 = project_hdiv(v1, p, m)
    s2 = project_hdiv(v2, p, m)
    sc = project_hdiv(combo, p, m)
    lin = 2.0 * s1.dofs - 0.5 * s2.dofs
    scale = max(np.abs(lin).max(), 1.0)
    assert np.abs(sc.dofs - lin).max() < 1e-10 * scale


class _Bumped:
    """Base field plus an RTN interior bubble supported in one element.

    A member with zero edge dofs has vanishing normal trace on the element
    boundary, so it is a legitimate (piecewise smooth) bump confined to K.
    """

    def __init__(self, base, space, k0, seed=0):
        self.base = base
        self.space = space
        self.k0 = k0
        rng = np.random.default_rng(seed)
        self.bump = BrokenRTNField(space.mesh, space.p)
        self.bump.coeffs[k0, 3 * (space.p + 1) :] = rng.standard_normal(2 * space.idim)
        self.poly_degree = None
        self.singularity = None
        self.is_discrete = False
        self.divergence_free = False

    def eval(self, pts, elem=None):
        out = self.base.eval(pts, elem=elem)
        if elem == self.k0:
            out = out + self.bump.eval(pts, elem=elem)
        return out

    def eval_div(self, pts, elem=None):
        out = self.base.eval_div(pts, elem=elem)
        if elem == self.k0:
            out = out + self.bump.eval_div(pts, elem=elem)
        return out


def test_locality(unit_square_2):
    # perturbing v inside one element changes the projection only on the
    # vertex-patch neighborhood of that element
    m = unit_square_2
    p = 1
    base = fields.catalog("cubic")
    k0 = 3
    space = rtn_space(m, p)
    pert = _Bumped(base, space, k0, seed=8)
    s_base = project_hdiv(base, p, m)
    s_pert = project_hdiv(pert, p, m)
    diff = np.abs(s_pert.dofs - s_base.dofs)
    from hdivkit.mesh import vertex_patches

    patches = vertex_patches(m)
    neighborhood = sorted(
        {int(kk) for a in m.triangles[k0] for kk in patches[a].tris}
    )
    allowed = np.zeros(space.ndof, dtype=bool)
    for k in neighborhood:
        allowed[space.dof_map[k]] = True
    assert diff.max() > 1e-8  # the perturbation is visible
    assert diff[~allowed].max() < 1e-12 * max(1.0, diff.max())


def test_incompatible_field_rejected(exp_field):
    m = build_structured(2, labels="left-neumann")
    # v = (e^x, e^y) has unit normal trace on the left edge
    with pytest.raises(FieldError):
        project_hdiv(exp_field, 1, m)


def _not_finite_in(fn, mesh, k):
    """``fn`` with NaN values inside the incircle of triangle k."""
    xs = mesh.vertices[mesh.triangles[k]]
    sides = np.linalg.norm(np.roll(xs, -1, axis=0) - xs, axis=1)
    center = np.roll(sides, -1) @ xs / sides.sum()  # the incenter: each vertex weighted by its opposite side
    radius = mesh.rho[k] / 2

    def out(pts):
        vals = np.array(fn(pts), float)
        vals[np.linalg.norm(pts - center, axis=1) < radius] = np.nan
        return vals

    return out


@pytest.mark.parametrize("run", [project_hdiv, error_report, projector_report])
@pytest.mark.parametrize("name,kind", [("cubic", "v"), ("cubic", "div v"), ("sine_divfree", "v")])
def test_non_finite_field_samples_are_a_field_error(run, name, kind):
    # a NaN sample is blamed on the field and its element, not on a solve;
    # a divergence-free field's div is never called, so only v can fail
    m = build_structured(4)
    v = fields.catalog(name)
    bad = _not_finite_in(v.v if kind == "v" else v.div, m, 5)
    v = dataclasses.replace(v, **{"v" if kind == "v" else "div": bad})
    with pytest.raises(FieldError, match=f"^{kind} is not finite at a point of element 5$"):
        run(v, 1, m)


@pytest.mark.parametrize("run", [project_hdiv, error_report, projector_report])
def test_non_finite_field_samples_on_a_neumann_edge_are_a_field_error(run):
    # the compatibility gate samples v on the Neumann edges, where a NaN
    # would pass its bound on |v.n|: v = (0, 1) is NaN on the left side only
    def v(pts):
        out = np.tile([0.0, 1.0], (len(pts), 1))
        out[pts[:, 0] == 0] = np.nan
        return out

    field = fields.AnalyticField("up", v, lambda pts: np.zeros(len(pts)), divergence_free=True)
    with pytest.raises(FieldError, match=r"^v is not finite at a point of Neumann edge \(0, 3\)$"):
        run(field, 1, build_structured(2, labels="left-neumann"))


def _random_neumann_field(kind):
    """A random discrete RTN_1 field on left-Neumann structured:2 whose
    Neumann edge dofs are not zero (up to 0.57 for the conforming one)."""
    m = build_structured(2, labels="left-neumann")
    space, rng = rtn_space(m, 1), np.random.default_rng(3)
    if kind == "conforming":
        return ConformingRTNField(m, 1, rng.standard_normal(space.ndof)), m
    return BrokenRTNField(m, 1, rng.standard_normal((m.num_triangles, space.ref.dim))), m


@pytest.mark.parametrize("run", [project_hdiv, error_report])
@pytest.mark.parametrize("kind", ["conforming", "broken"])
def test_discrete_field_with_a_neumann_flux_is_a_field_error(run, kind):
    # the edge dofs fix its normal trace on the Neumann edges: the field is
    # refused, where project_hdiv blamed the patch fit (CompatibilityError)
    # and error_report measured E_glob 0.401 against a local sum of 2e-14
    v, m = _random_neumann_field(kind)
    with pytest.raises(FieldError, match=r"^field has nonzero normal trace on Neumann edges \(edge dofs up to ") as err:
        run(v, 1, m)
    assert "\n" not in str(err.value)


@pytest.mark.parametrize(
    "build,n,labels,degree,p",
    [(build_structured, 8, "left-neumann", 1, 1), (build_structured, 8, "all-neumann", 0, 0),
     (build_lshape, 4, "left-neumann", 1, 1), (build_lshape, 4, "all-neumann", 1, 2),
     (build_lshape, 4, "left-neumann", 2, 2), (build_structured, 4, "left-neumann", 5, 5),
     (build_structured, 4, "left-neumann", 5, 6), (build_lshape, 1, "all-neumann", 3, 4),
     (build_lshape, 2, "all-neumann", 6, 6), (build_structured, 2, "all-neumann", 12, 12),
     (build_lshape, 1, "all-neumann", 12, 12)],
)
def test_discrete_members_on_neumann_meshes_pass_the_compatibility_check(build, n, labels, degree, p):
    # the benchmark's discrete inputs on meshes with Neumann edges: members
    # of degree ``degree`` projected or measured at degree p; at p = 12 the
    # sampled divergence mean read 2.4e-8 of its terms, above the 1e-8 bound,
    # where the edge dofs read it exactly
    m = build(n, labels=labels)
    for seed in range(3):
        check_field_compatibility(QuadPolicy(p, m, random_conforming_field(m, degree, seed=seed)))


@pytest.mark.parametrize("run", [check_field_compatibility, lambda policy: error_report(policy.field, 1, policy.mesh)])
def test_broken_field_whose_jumps_carry_a_mean_divergence_is_refused_on_all_neumann(run):
    # zero Neumann-edge dofs pass the trace check, but the two sides of the
    # interior edges disagree, and their fluxes sum to a nonzero mean
    m = build_structured(2, labels="all-neumann")
    rows = np.random.default_rng(5).standard_normal((m.num_triangles, rtn_space(m, 1).ref.dim))
    rows[:, :6].reshape(-1, 3, 2)[m.edge_label[m.tri_edges] == "neumann"] = 0.0
    with pytest.raises(FieldError, match="^divergence has nonzero mean on an all-Neumann boundary"):
        run(QuadPolicy(1, m, BrokenRTNField(m, 1, rows)))


def test_all_neumann_needs_zero_mean():
    m = build_structured(2, labels="all-neumann")
    v = fields.catalog("cubic")  # v.n != 0 on the boundary
    with pytest.raises(FieldError):
        check_field_compatibility(QuadPolicy(1, m, v))


@pytest.mark.parametrize("run", [project_hdiv, error_report, global_best])
def test_divergence_of_nonzero_mean_is_refused_on_all_neumann(run):
    # the gradient field's divergence, shifted by 1, has mean 1: no field
    # with zero normal trace has it, so the constraint is infeasible
    from test_hybrid_solve import gradient_field

    v = gradient_field()
    v = dataclasses.replace(v, div=lambda pts, div=v.div: div(pts) + 1)
    with pytest.raises(FieldError, match="^divergence has nonzero mean on an all-Neumann boundary"):
        run(v, 1, build_structured(4, labels="all-neumann"))


def test_all_neumann_projector_runs():
    # a conforming random sample on an all-Neumann mesh exercises the pinned
    # constant multiplier path on every patch and the global kernel logic
    m = build_structured(2, labels="all-neumann")
    p = 1
    vh = random_conforming_field(m, p, seed=2)
    sig = project_hdiv(vh, p, m)
    err = np.linalg.norm(sig.dofs - vh.dofs) / np.linalg.norm(vh.dofs)
    assert err < 1e-10


@pytest.mark.parametrize(
    "mesh",
    [
        lambda: build_structured(2, labels="all-neumann"),
        lambda: build_structured(8, labels="all-neumann"),
        lambda: build_lshape(1, labels="all-neumann"),
    ],
    ids=["structured:2", "structured:8", "lshape:1"],
)
def test_all_neumann_p0_reproduces_members(mesh):
    # one-triangle corner patches have patch mass (g, 1) at roundoff of two
    # cancelling terms; the gate must measure it against those terms
    m = mesh()
    vh = random_conforming_field(m, 0, seed=3)
    sig = project_hdiv(vh, 0, m)
    assert np.linalg.norm(sig.dofs - vh.dofs) / np.linalg.norm(vh.dofs) <= 1e-10


def _stream_field():
    """curl of sin(pi x) sin(2 pi y): divergence-free, zero normal trace on
    the unit square's boundary."""

    def v(pts):
        x, y = pts[:, 0], pts[:, 1]
        return np.pi * np.stack(
            [2 * np.sin(np.pi * x) * np.cos(2 * np.pi * y), -np.cos(np.pi * x) * np.sin(2 * np.pi * y)],
            axis=1,
        )

    return fields.AnalyticField("stream", v, lambda pts: np.zeros(len(pts)), divergence_free=True)


@pytest.mark.parametrize("p", range(6))
def test_all_neumann_divfree_field_projects(p):
    # on one-triangle corner patches both terms of the patch mass are
    # roundoff for a divergence-free field; the gate must not read that as
    # a defect
    m = build_structured(2, labels="all-neumann")
    sig = project_hdiv(_stream_field(), p, m)
    assert sig.info["projector"].commute_residual <= 1e-10


@pytest.mark.parametrize("p", [0, 1])
def test_perturbed_theta_breaks_patch_compatibility(p):
    m = build_structured(2, labels="all-neumann")
    vh = random_conforming_field(m, p, seed=4)
    theta = theta_field(QuadPolicy(p, m, vh))
    k = 3
    theta.coeffs[k] += 1e-3 * np.random.default_rng(p).standard_normal(theta.coeffs.shape[1])
    patches = [pa for pa in vertex_patches(m) if k in pa.tris]
    assert {pa.kind for pa in patches} == {"interior", "neumann"}
    for patch in patches:
        layout = patch_layout(m, p)
        with pytest.raises(CompatibilityError):
            build_patch_problem(layout, oracles.chunk_of(layout, patch.vertex), patch_data(theta, QuadPolicy(p, m, vh)))


def test_report_zero_for_members(unit_square_2):
    m = unit_square_2
    p = 1
    vh = random_conforming_field(m, p, seed=5)
    rep = projector_report(vh, p, m)
    assert max(r["lhs_sq"] for r in rep["records"]) < 1e-20 * np.linalg.norm(vh.dofs) ** 2


def _counting_field(name, mesh):
    """A fresh field and the number of points its v and div are called at: a
    catalog field, ``sine_flux``, the flux of ``manufactured_sine`` on
    ``mesh``, which has a divergence and no poly_degree, or ``gradient``,
    the gradient field of ``test_hybrid_solve``, whose divergence has zero
    mean on an all-Neumann square."""
    if name == "gradient":
        from test_hybrid_solve import gradient_field

        field = gradient_field()
    else:
        field = manufactured_sine(mesh).sigma if name == "sine_flux" else fields.catalog(name)
    count = {"v": 0, "div": 0}

    def counted(key, fn):
        def call(pts):
            count[key] += len(pts)
            return fn(pts)

        return call

    field.v, field.div = counted("v", field.v), counted("div", field.div)
    return field, count


@pytest.mark.parametrize(
    "name,mesh,p,variant",
    [
        ("sine_divfree", lambda: build_structured(4, labels="left-neumann"), 1, "def31"),
        ("lshape_singular", lambda: build_lshape(2), 2, "def52"),
        ("sine_flux", lambda: build_structured(4), 1, "def31"),
        ("sine_flux", lambda: build_lshape(2), 2, "def52"),
    ],
)
def test_report_samples_the_field_as_the_projection_does(name, mesh, p, variant):
    # the report measures on the projection's own quadrature: one sampling of
    # v and div v serves both, so it evaluates the field at exactly the points
    # project_hdiv does alone, and v once more on the degree-p policy where
    # def52's projection reads only div v there.  The div of a
    # divergence-free field is never called
    m = mesh()
    alone, alone_count = _counting_field(name, m)
    project_hdiv(alone, p, m, variant=variant)
    report, report_count = _counting_field(name, m)
    projector_report(report, p, m, variant=variant)
    assert alone_count["v"] > 0 and (alone_count["div"] == 0) == alone.divergence_free
    extra = _points(QuadPolicy(p, m, report).groups()) if variant == "def52" else 0
    assert report_count == {"v": alone_count["v"] + extra, "div": alone_count["div"]}


def _points(groups):
    return sum(g.w.size for g in groups)


@pytest.mark.parametrize(
    "name,mesh,p",
    [
        ("sine_divfree", lambda: build_structured(4), 1),
        ("lshape_singular", lambda: build_lshape(1), 2),
        ("sine_flux", lambda: build_structured(4), 1),
        ("sine_flux", lambda: build_lshape(1), 2),
        ("gradient", lambda: build_structured(4, labels="all-neumann"), 1),
    ],
    ids=["structured4", "lshape1", "structured4-flux", "lshape1-flux", "structured4-all-neumann"],
)
@pytest.mark.parametrize(
    "run,kw",
    [
        (error_report, {}),
        (error_report, {"include_constrained": True}),
        (project_hdiv, {"variant": "def31"}),
        (project_hdiv, {"variant": "def52"}),
        (projector_report, {"variant": "def31"}),
        (projector_report, {"variant": "def52"}),
    ],
    ids=["error_report", "error_report-constrained", "project-def31", "project-def52", "report-def31", "report-def52"],
)
def test_each_policy_samples_the_field_once(name, mesh, p, run, kw):
    # v and div v are each evaluated once at each point of each policy's
    # groups that reads them, plus div v once per point of the projection's
    # degree-doubling self-check.  The all-Neumann divergence-mean gate
    # reads the policy's div v; the trace gate reads v at 8 Gauss points of
    # each Neumann edge.  def52 adds the fit's degree p - 1 policy;
    # its projection alone reads only div v on the degree-p policy.  A
    # divergence-free field's div is never called, and v as often as ever
    m = mesh()
    v, count = _counting_field(name, m)
    run(v, p, m, **kw)
    policy = QuadPolicy(p, m, v)
    if name == "lshape_singular":
        assert any(not g.shared for g in policy.groups())  # corner wedges in play
    want = _points(policy.groups())
    fit = _points(QuadPolicy(p - 1, m, v).groups()) if kw.get("variant") == "def52" else 0
    check = _points(policy.check_groups()) if "variant" in kw and policy.self_check else 0
    v_want = (fit if run is project_hdiv and fit else want + fit) + 8 * np.sum(m.edge_label == "neumann")
    assert count == {"v": v_want, "div": 0 if v.divergence_free else want + fit + check}


def _raising_div(pts):
    raise AssertionError("the div of a divergence-free field was called")


def _declared_and_zero(name):
    """The catalog field declaring divergence_free with a div that raises,
    and the same field with its zero div, not declaring it."""
    field = fields.catalog(name)
    return dataclasses.replace(field, div=_raising_div), dataclasses.replace(field, divergence_free=False)


_DIVFREE_MESHES = [
    ("sine_divfree", lambda: build_structured(4, labels="left-neumann")),
    ("lshape_singular", lambda: build_lshape(2)),
]


@pytest.mark.parametrize("name,mesh", _DIVFREE_MESHES, ids=["structured4-left-neumann", "lshape2"])
@pytest.mark.parametrize(
    "variant,p", [("def31", p) for p in range(4)] + [("def52", p) for p in range(1, 4)]
)
def test_divergence_free_report_keeps_the_bits_without_div(name, mesh, variant, p):
    # a divergence-free field's divergence data are exact zeros and it gets
    # no self-check, whose moments would be zero on both rules: the
    # projection and its report keep every bit of the same field sampled
    # for its zero divergence (pickles keep every bit of floats and arrays)
    m = mesh()
    if name == "lshape_singular":
        assert any(not g.shared for g in QuadPolicy(p, m, fields.catalog(name)).groups())
    declared, zero = _declared_and_zero(name)
    out = []
    for v in (declared, zero):
        rep = projector_report(v, p, m, variant=variant)
        info = rep["sigma"].info["projector"]
        out.append(pickle.dumps((rep["sigma"].dofs, rep["commute_residual"], rep["stability_ratios"],
                                 rep["records"], info.compat_defects, info.warnings)))
    assert out[0] == out[1]


@pytest.mark.parametrize("name,mesh", _DIVFREE_MESHES, ids=["structured4-left-neumann", "lshape2"])
@pytest.mark.parametrize("p", range(4))
def test_divergence_free_error_report_keeps_the_bits_without_div(name, mesh, p):
    m = mesh()
    declared, zero = _declared_and_zero(name)
    out = []
    for v in (declared, zero):
        rep = error_report(v, p, m, include_constrained=True, include_pm1=True)
        out.append(pickle.dumps((rep.Eloc_l2, rep.Eloc_div, rep.Eloc, rep.Eglob_l2, rep.Eglob_div, rep.Eglob,
                                 rep.Eloc_constrained, rep.Eloc_pm1, rep.metadata["kkt_residual"],
                                 rep.metadata["v_norm"], rep.metadata["minimizer"].dofs)))
    assert out[0] == out[1]


def test_report_divfree_stability(unit_square_2, sine_field):
    rep = projector_report(sine_field, 1, unit_square_2)
    assert np.isfinite(rep["max_C_stab"])
    assert rep["max_C_stab"] < 50.0


def test_report_constant_stable_across_meshes(sine_field):
    # the measured per-element equivalence constant stays within a factor 2
    # across refinements
    maxes = []
    m = build_structured(2)
    for _ in range(3):
        rep = projector_report(sine_field, 1, m)
        maxes.append(rep["max_C_approx"])
        m = refine_uniform(m)
    assert max(maxes) / min(maxes) <= 2.0


@pytest.mark.parametrize("scale", [1e3, 1e-3])
def test_stability_ratios_scale_invariant(scale):
    # the ratio is dimensionless: on the mesh scaled by L with the field
    # v(x / L) every patch gives the unit mesh's value; the Dirichlet edges
    # clamp the surrogate by topology, whatever the edge length
    m = build_structured(4)
    v = fields.catalog("cubic")
    labels = [(tuple(e), lab) for e, lab in zip(m.edges, m.edge_label) if lab]
    big = Mesh(scale * m.vertices, m.triangles, labels)
    w = fields.AnalyticField("cubic", lambda x: v.eval(x / scale), lambda x: v.eval_div(x / scale) / scale)
    want = np.array(projector_report(v, 1, m)["stability_ratios"])
    got = np.array(projector_report(w, 1, big)["stability_ratios"])
    assert np.all(np.abs(got - want) <= 1e-10 * want)


@pytest.mark.parametrize("c", [1e-12, 1e-8, 1e8])
def test_stability_ratios_amplitude_invariant(c):
    # v -> c v scales s_a - chi_a and the surrogate's functional alike, so the
    # ratios must not move, nor drop to the exact-zero cutoff for small c
    m = build_structured(4, labels="left-neumann")
    v = fields.catalog("cubic")
    w = fields.AnalyticField("cubic", lambda x: c * v.eval(x), lambda x: c * v.eval_div(x), poly_degree=3)
    want = np.array(projector_report(v, 1, m)["stability_ratios"])
    got = np.array(projector_report(w, 1, m)["stability_ratios"])
    assert np.all(want > 0)
    assert np.all(np.abs(got - want) <= 1e-10 * want)


class _DiscretePlusSmooth:
    """d + eps * f for a conforming discrete d and an analytic f."""

    def __init__(self, d, f, eps):
        self.d, self.f, self.eps = d, f, eps

    def eval(self, pts, elem=None):
        return self.d.eval(pts, elem=elem) + self.eps * self.f.eval(pts)

    def eval_div(self, pts, elem=None):
        return self.d.eval_div(pts, elem=elem) + self.eps * self.f.eval_div(pts)


def test_stability_ratios_free_of_cancellation_near_discrete_data():
    # the projector reproduces d, so s_a - chi_a is eps times that of f and
    # the ratios do not depend on eps, while ||chi_a|| / ||s_a - chi_a||
    # grows like 1/eps; a functional formed as (g, w) + (chi_a, grad w)
    # loses that factor in roundoff (8e-7 drift at eps = 1e-5)
    m = build_structured(4)
    d = random_conforming_field(m, 1, seed=3)
    f = fields.catalog("sine_divfree")
    ref, tiny = (
        np.array(projector_report(_DiscretePlusSmooth(d, f, eps), 1, m)["stability_ratios"])
        for eps in (0.1, 1e-5)
    )
    live = ref > 0
    assert live.sum() == 21 and np.all(tiny[~live] == 0)
    assert np.max(np.abs(tiny - ref)[live] / ref[live]) <= 2.5e-7


def test_report_at_p3_emits_no_runtime_warning(sine_field):
    # the surrogate runs at degree p + 2 = 5 on the shared Lagrange numbering
    # without LagrangeSpace's warning for degrees above 4
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = projector_report(sine_field, 3, build_structured(2))
    assert len(rep["stability_ratios"]) == 9


def test_quadrature_degree_is_checked_before_any_work(monkeypatch):
    # the self-check's rules, of twice deg + p, are refused when the policy
    # is built, with the quad_degree asked for and the largest one this p
    # accepts; the calls that run no self-check accept it
    import hdivkit.projector as projector

    m = build_structured(2)
    v = manufactured_sine(m).sigma
    project_hdiv(v, 1, m, quad_degree=59)
    assert np.isfinite(error_report(v, 1, m, quad_degree=70).Eglob)
    assert np.all(np.isfinite(canonical_interp(v, 1, m, quad_degree=70).coeffs))
    monkeypatch.setattr(projector, "theta_field", lambda *args: pytest.fail("the projection started"))
    message = ("quad_degree=70 needs rules of degree 142 > 120 at p = 1 with the self-check; "
               "at this p quad_degree may be at most 59")
    for run in (project_hdiv, projector_report, lambda v, p, m, **kw: project_scalar(v.div, p, m, **kw)):
        with pytest.raises(UnsupportedDegreeError) as err:
            run(v, 1, m, quad_degree=70)
        assert str(err.value) == message
    # escalated rules near a singular corner that no quad_degree lowers
    with pytest.raises(UnsupportedDegreeError, match=r"degree 121 > 120 at p = 81; at this p none fits$"):
        QuadPolicy(81, build_lshape(1), fields.catalog("lshape_singular"), 10)


def test_project_scalar_checks_the_escalated_degree_before_sampling():
    # a scalar's declared singularity escalates its rules near the corner:
    # the policy is built with it, so the refusal names quad_degree before
    # f is sampled
    samples = []

    def f(pts):
        samples.append(len(pts))
        return np.ones(len(pts))

    f.singularity = fields.Singularity((0, 0), -1 / 3)
    with pytest.raises(UnsupportedDegreeError) as err:
        project_scalar(f, 21, build_lshape(2), quad_degree=10)
    assert str(err.value) == ("quad_degree=10 needs rules of degree 122 > 120 at p = 21 with the self-check; "
                              "at this p none fits")
    assert not samples


_M2 = build_structured(2)
_SINE = manufactured_sine(_M2)
# each public entry point at degree p and quadrature degree qd (None: its default)
_ENTRY_POINTS = {
    "error_report": lambda p, qd: error_report(_SINE.sigma, p, _M2, quad_degree=qd),
    "project_hdiv": lambda p, qd: project_hdiv(_SINE.sigma, p, _M2, quad_degree=qd),
    "projector_report": lambda p, qd: projector_report(_SINE.sigma, p, _M2, quad_degree=qd),
    "canonical_interp": lambda p, qd: canonical_interp(_SINE.sigma, p, _M2, quad_degree=qd),
    "project_scalar": lambda p, qd: project_scalar(_SINE.sigma.div, p, _M2, quad_degree=qd),
    "global_best": lambda p, qd: global_best(_SINE.sigma, p, _M2, quad_degree=qd),
    "solve_mixed": lambda p, qd: solve_mixed(_SINE, p),
    "solve_ls_mixed": lambda p, qd: solve_ls_mixed(_SINE, p, 1),
}


@pytest.mark.parametrize("entry,name,bad", [
    (entry, name, bad) for entry in _ENTRY_POINTS
    for name, bad in [("p", 1.5), ("p", -1), ("p", True), ("quad_degree", 3.5), ("quad_degree", -2),
                      ("quad_degree", False)]
    if name == "p" or not entry.startswith("solve")  # the solvers take no quad_degree
])
def test_a_bad_degree_is_one_line_naming_the_argument(entry, name, bad):
    # a fractional or negative degree, or a bool, is refused before any
    # work, not rounded, taken as 1, or left to fail inside the tables
    p, qd = (bad, None) if name == "p" else (1, bad)
    with pytest.raises(UnsupportedDegreeError) as err:
        _ENTRY_POINTS[entry](p, qd)
    assert str(err.value) == f"{name} must be a nonnegative integer, got {bad!r}"


def test_numpy_integer_degrees_are_degrees():
    v = _SINE.sigma
    a = error_report(v, np.int64(1), _M2, quad_degree=np.int32(8))
    b = error_report(v, 1, _M2, quad_degree=8)
    assert (a.Eglob, a.sum_Eloc_sq) == (b.Eglob, b.sum_Eloc_sq)
