import numpy as np
import pytest

import oracles
from hdivkit import fields
from hdivkit.fields import FieldError
from hdivkit.local_solve import CompatibilityError, build_patch_problem, theta_field
from hdivkit.mesh import build_lshape, build_structured, refine_uniform, vertex_patches
from hdivkit.projector import (
    check_field_compatibility,
    project_hdiv,
    projector_report,
    random_conforming_field,
)
from hdivkit.quadpolicy import QuadPolicy
from hdivkit.elements import rtn_space


@pytest.mark.parametrize("labels", ["all-dirichlet", "left-neumann"])
@pytest.mark.parametrize("p", [0, 1, 2])
def test_projection_property(labels, p):
    m = build_structured(2, labels=labels)
    vh = random_conforming_field(m, p, seed=p + 17)
    sig = project_hdiv(vh.as_field(), p, m)
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
    policy = QuadPolicy(p, field=cubic_field)
    space = rtn_space(m, p)
    err2 = 0.0
    for k in range(m.num_triangles):
        el = space.elements[k]
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
        el = space.elements[k0]
        self.coeffs = np.zeros(el.ndof)
        self.coeffs[el.n_edge_dofs():] = rng.standard_normal(el.idim * 2)
        self.poly_degree = None
        self.singularity = None
        self.is_discrete = False
        self.divergence_free = False

    def eval(self, pts, elem=None):
        out = self.base.eval(pts, elem=elem)
        if elem == self.k0:
            out = out + self.space.elements[elem].eval_coeffs(self.coeffs, pts)
        return out

    def eval_div(self, pts, elem=None):
        out = self.base.eval_div(pts, elem=elem)
        if elem == self.k0:
            out = out + self.space.elements[elem].eval_div_coeffs(self.coeffs, pts)
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
        allowed[space.element_dof_map(k)] = True
    assert diff.max() > 1e-8  # the perturbation is visible
    assert diff[~allowed].max() < 1e-12 * max(1.0, diff.max())


def test_incompatible_field_rejected(exp_field):
    m = build_structured(2, labels="left-neumann")
    # v = (e^x, e^y) has unit normal trace on the left edge
    with pytest.raises(FieldError):
        project_hdiv(exp_field, 1, m)


def test_all_neumann_needs_zero_mean():
    m = build_structured(2, labels="all-neumann")
    v = fields.catalog("cubic")  # v.n != 0 on the boundary
    with pytest.raises(FieldError):
        check_field_compatibility(v, m)


def test_all_neumann_projector_runs():
    # a conforming random sample on an all-Neumann mesh exercises the pinned
    # constant multiplier path on every patch and the global kernel logic
    m = build_structured(2, labels="all-neumann")
    p = 1
    vh = random_conforming_field(m, p, seed=2)
    sig = project_hdiv(vh.as_field(), p, m)
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
    sig = project_hdiv(vh.as_field(), 0, m)
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
    vh = random_conforming_field(m, p, seed=4).as_field()
    theta = theta_field(vh, p, m)
    k = 3
    theta.coeffs[k] += 1e-3 * np.random.default_rng(p).standard_normal(theta.coeffs.shape[1])
    patches = [pa for pa in vertex_patches(m) if k in pa.tris]
    assert {pa.kind for pa in patches} == {"interior", "neumann"}
    for patch in patches:
        with pytest.raises(CompatibilityError):
            build_patch_problem(patch, theta, vh, p, m)


def test_report_zero_for_members(unit_square_2):
    m = unit_square_2
    p = 1
    vh = random_conforming_field(m, p, seed=5)
    rep = projector_report(vh.as_field(), p, m)
    assert max(r["lhs_sq"] for r in rep["records"]) < 1e-20 * np.linalg.norm(vh.dofs) ** 2


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
