import numpy as np
import pytest

import oracles
from conftest import x2_field
from hdivkit import fields
from hdivkit.best_approx import local_best_constrained
from hdivkit.elements import rtn_space
from hdivkit.local_solve import (
    build_patch_problem,
    patch_data,
    patch_equilibrate,
    patch_layout,
    patch_stability_ratio,
    theta_field,
)
from hdivkit.mesh import vertex_patches
from hdivkit.projector import random_conforming_field
from hdivkit.quadpolicy import QuadPolicy
from hdivkit.quadrature import quad_rule


def _problem(patch, theta, v, p, m):
    """The problem of a vertex patch, alone in its chunk."""
    layout = patch_layout(m, p)
    return build_patch_problem(layout, oracles.chunk_of(layout, patch.vertex), patch_data(theta, QuadPolicy(p, m, v)))


def test_discrete_member_is_fixed_point(unit_square_2):
    m = unit_square_2
    for p in range(3):
        vb = oracles.random_broken_field(m, p, seed=p + 1)
        for k in range(m.num_triangles):
            theta = local_best_constrained(vb, p, m, k)["coeffs"]
            assert np.abs(theta - vb.coeffs[k]).max() < 1e-11


def test_euler_lagrange_hat_gradients(unit_square_2, cubic_field):
    # the minimizer matches the data against every constant direction, since
    # constants are divergence-free members
    m = unit_square_2
    patches = vertex_patches(m)
    p = 1
    space = rtn_space(m, p)
    rule = quad_rule(2 * p + 16)
    for k in range(m.num_triangles):
        theta = local_best_constrained(cubic_field, p, m, k)["coeffs"]
        el = oracles.element(space, k)
        pts = el.map_to_phys(rule.points)
        w = rule.weights * el.detB
        diff = el.eval_coeffs(theta, pts) - cubic_field.eval(pts)
        for v in m.triangles[k]:
            grad = oracles.hat_grad(patches[v], m, k)
            resid = float(np.sum(w * (diff @ grad)))
            scale = max(np.sqrt(np.sum(w * np.einsum("qd,qd->q", diff, diff))), 1e-30)
            assert abs(resid) <= 1e-10 * max(scale, 1.0)


def test_reduced_mode_needs_p1(ref_triangle_mesh, cubic_field):
    with pytest.raises(ValueError):
        theta_field(QuadPolicy(0, ref_triangle_mesh, cubic_field), "def52")


def test_element_kkt_vs_oracle(ref_triangle_mesh):
    # v = (x^2, 0) at p = 0 against the null-space oracle built from plain
    # high-order quadrature
    v = x2_field()
    theta = local_best_constrained(v, 0, ref_triangle_mesh, 0)["coeffs"]
    ref = oracles.element_kkt_oracle(
        ref_triangle_mesh, 0, 0, v.eval, v.eval_div
    )
    assert np.abs(theta - ref).max() < 1e-12


def test_patch_target_feasible_and_optimal(unit_square_2):
    # for a conforming discrete member, the interpolated target is feasible,
    # so the minimizer must coincide with it
    m = unit_square_2
    p = 1
    v = random_conforming_field(m, p, seed=9)
    theta = theta_field(QuadPolicy(p, m, v))
    for patch in vertex_patches(m):
        prob = _problem(patch, theta, v, p, m)
        x, _ = patch_equilibrate(prob)
        assert np.abs(x - prob.chi).max() < 1e-10


def test_zero_field_gives_zero(unit_square_2):
    zero = fields.AnalyticField(
        "zero",
        lambda pts: np.zeros((len(pts), 2)),
        lambda pts: np.zeros(len(pts)),
        poly_degree=0,
    )
    m = unit_square_2
    theta = theta_field(QuadPolicy(1, m, zero))
    assert np.abs(theta.coeffs).max() < 1e-14
    for patch in vertex_patches(m):
        prob = _problem(patch, theta, zero, 1, m)
        x, _ = patch_equilibrate(prob)
        assert np.abs(x).max() < 1e-13


def test_patch_compatibility_residual(unit_square_4, cubic_field):
    # the divergence data of every interior patch must have zero patch mean
    m = unit_square_4
    p = 1
    theta = theta_field(QuadPolicy(p, m, cubic_field))
    layout, data = patch_layout(m, p), patch_data(theta, QuadPolicy(p, m, cubic_field))
    for patch in vertex_patches(m):
        if patch.kind != "interior":
            continue
        chunk = oracles.chunk_of(layout, patch.vertex)
        assert data.defect[layout.verts[chunk.patches]][0] <= 1e-10


def test_patch_kkt_vs_oracle(unit_square_2, cubic_field):
    # interior vertex at order 0 against the independent null-space solve
    m = unit_square_2
    p = 0
    theta = theta_field(QuadPolicy(p, m, cubic_field))
    patches = [pa for pa in vertex_patches(m) if pa.kind == "interior"]
    patch = patches[0]
    prob = _problem(patch, theta, cubic_field, p, m)
    x, _ = patch_equilibrate(prob)
    s, ps = oracles.patch_oracle(m, patch, p, theta.coeffs, prob.chi, prob.g)
    ref = oracles.elem_rows(ps, s)
    assert np.abs(x - ref).max() < 1e-10 * max(1.0, np.abs(ref).max())


def test_zero_extension_conformity(unit_square_2, sine_field):
    # a single zero-extended patch field is conforming: its element rows
    # are the rows of their gathered dofs, so the two sides of every edge
    # agree, the flux vanishes on the patch boundary and on Neumann edges
    from hdivkit.mesh import build_structured
    from hdivkit.projector import ConformingRTNField

    m = build_structured(2, labels="left-neumann")
    p = 1
    theta = theta_field(QuadPolicy(p, m, sine_field))
    space = rtn_space(m, p)
    for patch in vertex_patches(m)[:6]:
        prob = _problem(patch, theta, sine_field, p, m)
        x, _ = patch_equilibrate(prob)
        rows = np.zeros((m.num_triangles, space.ref.dim))
        rows[prob.layout.tris[prob.chunk.pairs]] = x
        one = ConformingRTNField(m, p, space.gather(rows))
        scale = max(1.0, np.abs(x).max())
        assert np.abs(rows - one.element_coeffs(slice(None))).max() < 1e-12 * scale
        assert one.jump_residual() < 1e-11 * scale
        assert oracles.neumann_trace_residual(one) < 1e-12 * scale


def test_divergence_exactness(unit_square_2, cubic_field):
    m = unit_square_2
    p = 1
    theta = theta_field(QuadPolicy(p, m, cubic_field))
    space = rtn_space(m, p)
    for patch in vertex_patches(m):
        prob = _problem(patch, theta, cubic_field, p, m)
        x, _ = patch_equilibrate(prob)
        scale = max(np.abs(prob.g).max(), 1.0)
        want = prob.g
        if patch.kind in ("interior", "neumann"):  # data projected onto the compatible subspace
            kern = np.zeros_like(want)
            kern[:, 0] = np.sqrt(m.area[patch.tris])
            want = want - kern * np.sum(kern * want) / np.sum(kern * kern)
        for t_idx, k in enumerate(patch.tris):
            got = space.elements[k].Bdiv @ x[t_idx]
            assert np.abs(got - want[t_idx]).max() < 1e-11 * scale


def test_stability_ratios_finite(unit_square_2, sine_field):
    m = unit_square_2
    ratios = []
    for p in range(3):
        policy = QuadPolicy(p, m, sine_field)
        layout, data = patch_layout(m, p), patch_data(theta_field(policy), policy)
        x = np.empty((len(layout.tris), rtn_space(m, p).ref.dim))
        for patch in vertex_patches(m):
            chunk = oracles.chunk_of(layout, patch.vertex)
            x[chunk.pairs], _ = patch_equilibrate(build_patch_problem(layout, chunk, data))
        for r in patch_stability_ratio(layout, data, x, m):
            assert np.isfinite(r)
            ratios.append(r)
    assert max(ratios) < 1e3  # loose sanity bound; the value is only recorded
