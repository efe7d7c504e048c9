import numpy as np
import pytest
from oracles import dofs_of_refvals, rtn_primal_oracle, scalar_orthonormal_oracle

from hdivkit import polys
from hdivkit.elements import (
    ElementGeometryError,
    ElementRTN,
    element_matrices,
    piola_map,
    rtn_basis,
    rtn_dim,
    rtn_reference,
    rtn_space,
    scalar_basis,
)
from hdivkit.quadrature import gauss01, quad_rule

RNG = np.random.default_rng(42)


def random_triangle(rng, scale=1.0):
    while True:
        xs = rng.random((3, 2)) * scale
        B = np.column_stack([xs[1] - xs[0], xs[2] - xs[0]])
        det = np.linalg.det(B)
        if det < 0:
            xs[[1, 2]] = xs[[2, 1]]
            det = -det
        if det > 0.05 * scale**2:
            return xs


def test_dimensions():
    assert rtn_dim(0) == 3
    assert rtn_dim(1) == 8
    assert rtn_dim(2) == 15


@pytest.mark.parametrize("p", range(8))
def test_unisolvence_reference(p):
    el = rtn_basis(p)
    # dofs of the dual basis must give the identity
    rule = quad_rule(max(2 * p, 1))
    D = dofs_of_refvals(el, el.ref.eval, p + 2, rule) @ el.C
    assert np.abs(D - np.eye(el.ndof)).max() < 1e-10


@pytest.mark.parametrize("p", range(5))
def test_unisolvence_physical(p):
    coords = random_triangle(RNG)
    el = ElementRTN(coords, p)
    for k in range(el.ndof):
        c = np.zeros(el.ndof)
        c[k] = 1.0
        dof = el.dofs_of_field(
            lambda pts: el.eval_coeffs(c, pts),
            tri_rule=quad_rule(2 * p + 2),
            n1d=p + 3,
        )
        assert np.abs(dof - np.eye(el.ndof)[k]).max() < 1e-10


def test_divergence_lies_in_Pp():
    # project div of every basis member onto P_p and compare pointwise
    for p in range(4):
        el = rtn_basis(p)
        rule = quad_rule(2 * p + 6)
        pts = rule.points
        for k in range(el.ndof):
            c = np.zeros(el.ndof)
            c[k] = 1.0
            dv = el.eval_div_coeffs(c, pts)
            coef = el.scalar_moments(dv, rule)
            back = el.scalar_values(coef, pts)
            assert np.abs(dv - back).max() < 1e-12


def test_constant_field_reproduced():
    el = rtn_basis(0)
    dofs = el.dofs_of_field(
        lambda pts: np.tile([1.0, 0.0], (len(pts), 1)),
        tri_rule=quad_rule(2),
        n1d=3,
    )
    pts = RNG.random((20, 2)) * 0.4 + 0.1
    vals = el.eval_coeffs(dofs, pts)
    assert np.abs(vals - [1.0, 0.0]).max() < 1e-13


def test_p0_dual_member_unit_mean_flux():
    # the dof polynomials are orthonormal in arclength, so on unit-length
    # edges the lowest dual member has unit mean normal flux; other edges
    # carry exactly zero flux
    el = rtn_basis(0)
    t, w = gauss01(4)
    for slot_dual in range(3):
        c = np.zeros(3)
        c[slot_dual] = 1.0
        for slot in range(3):
            refpts = el._edge_ref_points(slot, t)
            vn = el.eval_coeffs(c, el.map_to_phys(refpts)) @ el.edge_normal[slot]
            flux = el.edge_len[slot] * float(np.sum(w * vn))
            if slot == slot_dual:
                if abs(el.edge_len[slot] - 1.0) < 1e-14:
                    assert abs(flux / el.edge_len[slot] - 1.0) < 1e-13
            else:
                assert abs(flux) < 1e-13


def test_piola_identity_map():
    vals = RNG.standard_normal((7, 2))
    out = piola_map([[0, 0], [1, 0], [0, 1]], vals)
    assert np.abs(out - vals).max() < 1e-15


def test_piola_scaling_divergence():
    # uniform scaling by 2: det B = 4, divergence scales by 1/4 in the
    # reference pullback convention
    coords = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    p = 1
    el_ref = rtn_basis(p)
    el = ElementRTN(coords, p)
    c = RNG.standard_normal(el.ndof)
    wx, wy = el.ref_poly_of(c)
    dx, _ = polys.poly_dx(wx, p + 1)
    dy, _ = polys.poly_dy(wy, p + 1)
    refpts = quad_rule(4).points
    ref_div = (dx + dy) @ polys.eval_monomials(p, refpts)
    phys_div = el.eval_div_coeffs(c, el.map_to_phys(refpts))
    assert np.abs(phys_div - ref_div / 4.0).max() < 1e-12


def test_piola_flux_invariance_random_maps():
    # normal flux across a mapped edge equals the reference flux up to the
    # orientation sign, measured by edge quadrature on both sides
    p = 2
    ref = rtn_basis(p)
    t, w = gauss01(10)
    for _ in range(5):
        coords = random_triangle(RNG)
        el = ElementRTN(coords, p)
        cref = RNG.standard_normal(ref.ndof)
        refvals_fn = lambda pts: np.einsum(
            "j,jnd->nd", ref.C @ cref, ref.ref.eval(pts)
        )
        for slot in range(3):
            la, lb = el.edge_dirs[slot]
            ra, rb = np.array([[0, 0], [1, 0], [0, 1]], float)[la], np.array(
                [[0, 0], [1, 0], [0, 1]], float
            )[lb]
            refpts = ra[None, :] + t[:, None] * (rb - ra)[None, :]
            # reference flux with the reference outward data on that segment
            rvec = rb - ra
            rlen = np.linalg.norm(rvec)
            rn = np.array([rvec[1], -rvec[0]]) / rlen
            vals_ref = refvals_fn(refpts)
            flux_ref = rlen * np.sum(w * (vals_ref @ rn))
            # physical flux of the Piola image across the mapped edge
            phys_pts = el.map_to_phys(refpts)
            vals_phys = el.piola_values(vals_ref[None, :, :])[0]
            pvec = coords[lb] - coords[la]
            plen = np.linalg.norm(pvec)
            pn = np.array([pvec[1], -pvec[0]]) / plen
            flux_phys = plen * np.sum(w * (vals_phys @ pn))
            assert abs(flux_phys - flux_ref) < 1e-12 * max(1.0, abs(flux_ref))


def test_element_matrices_spd_and_rank():
    for p in range(4):
        coords = random_triangle(RNG)
        mats = element_matrices(coords, p)
        M, B, W = mats["M"], mats["B"], mats["W"]
        assert np.linalg.eigvalsh(M).min() > 0
        assert np.abs(W - np.eye(len(W))).max() == 0
        # rank of the divergence coupling equals dim P_p
        s = np.linalg.svd(B, compute_uv=False)
        assert np.sum(s > 1e-10 * s[0]) == polys.tri_dim(p)


def test_div_x_against_constant():
    # phi = x on the reference triangle: (div phi, 1) = 2 |K| = 1
    el = rtn_basis(0)
    dofs = el.dofs_of_field(
        lambda pts: pts.copy(), tri_rule=quad_rule(2), n1d=3
    )
    rule = quad_rule(2)
    dv = el.eval_div_coeffs(dofs, rule.points)
    val = float(np.sum(rule.weights * el.detB * dv))
    assert abs(val - 1.0) < 1e-13


def test_piola_divergence_compatibility():
    # physical divergence two ways: mapped reference divergence vs finite
    # differences of the mapped field
    p = 2
    for _ in range(3):
        coords = random_triangle(RNG)
        el = ElementRTN(coords, p)
        c = RNG.standard_normal(el.ndof)
        pts = el.map_to_phys(quad_rule(3).points)
        eps = 1e-6 * el.h
        fd = (
            el.eval_coeffs(c, pts + [eps, 0])[:, 0]
            - el.eval_coeffs(c, pts - [eps, 0])[:, 0]
            + el.eval_coeffs(c, pts + [0, eps])[:, 1]
            - el.eval_coeffs(c, pts - [0, eps])[:, 1]
        ) / (2 * eps)
        dv = el.eval_div_coeffs(c, pts)
        scale = max(np.abs(dv).max(), 1.0)
        assert np.abs(fd - dv).max() < 1e-7 * scale


def test_orientation_error():
    with pytest.raises(ElementGeometryError):
        ElementRTN([[0, 0], [0, 1], [1, 0]], 1)  # clockwise
    with pytest.raises(ElementGeometryError):
        piola_map([[0, 0], [0, 1], [1, 0]], np.zeros((3, 2)))


@pytest.mark.parametrize("p", range(7))
def test_scalar_basis_gram(p):
    sb = scalar_basis(p)
    rule = quad_rule(2 * p)
    vals = sb.eval(rule.points)
    G = (vals * rule.weights) @ vals.T
    assert np.abs(G - np.eye(sb.dim)).max() <= 1e-12
    assert np.array_equal(sb.rows[0], np.eye(sb.dim)[0] * np.sqrt(2))


@pytest.mark.parametrize("p", range(5))
def test_scalar_basis_matches_rational_oracle(p):
    # both bases are graded, so they differ by an orthogonal matrix that is
    # block diagonal by degree
    new, old = polys.scalar_orthonormal(p), scalar_orthonormal_oracle(p)
    rule = quad_rule(2 * p)
    mono = polys.eval_monomials(p, rule.points) * np.sqrt(rule.weights)
    Q = (new @ mono) @ (old @ mono).T
    blocks = np.zeros_like(Q, dtype=bool)
    for d in range(p + 1):
        sl = slice(polys.tri_dim(d - 1) if d else 0, polys.tri_dim(d))
        blocks[sl, sl] = True
    assert np.abs(Q[~blocks]).max(initial=0.0) <= 1e-12
    Q[~blocks] = 0.0
    assert np.abs(Q @ Q.T - np.eye(len(Q))).max() <= 1e-12
    assert np.abs(new - Q @ old).max() <= 1e-12 * np.abs(old).max()


@pytest.mark.parametrize("p", range(5))
def test_rtn_primal_set_spans_rational_oracle(p):
    ref = rtn_reference(p)
    old_x, old_y = rtn_primal_oracle(p)
    rule = quad_rule(2 * p + 2)
    mono = polys.eval_monomials(p + 1, rule.points) * np.sqrt(rule.weights)
    new = np.hstack([ref.prim_x @ mono, ref.prim_y @ mono])
    old = np.hstack([old_x @ mono, old_y @ mono])
    # the new set is orthonormal, so the projection onto its span is new^T new
    assert np.abs(new @ new.T - np.eye(ref.dim)).max() <= 1e-12
    resid = old - (old @ new.T) @ new
    assert np.linalg.norm(resid, axis=1).max() <= 1e-12


def test_shared_edge_dofs_conforming(unit_square_2):
    # a global dof vector evaluated from both sides of an interior edge has
    # matching normal traces with no sign bookkeeping
    m = unit_square_2
    space = rtn_space(m, 2)
    dofs = RNG.standard_normal(space.ndof)
    t = np.linspace(0.1, 0.9, 7)
    for e in m.interior_edges():
        a, b = m.edges[e]
        pts = m.vertices[a][None, :] + t[:, None] * m.edge_vector(e)[None, :]
        n = m.edge_normal(e)
        k0, k1 = m.edge_tris[e]
        v0 = space.elements[k0].eval_coeffs(dofs[space.element_dof_map(k0)], pts) @ n
        v1 = space.elements[k1].eval_coeffs(dofs[space.element_dof_map(k1)], pts) @ n
        assert np.abs(v0 - v1).max() < 1e-12 * max(1.0, np.abs(v0).max())
