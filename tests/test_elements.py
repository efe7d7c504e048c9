import numpy as np
import pytest
from oracles import dofs_of_refvals, element, rtn_primal_oracle, scalar_orthonormal_oracle
from test_element_layer import jitter

from hdivkit import polys
from hdivkit.elements import (
    ElementGeometryError,
    piola_map,
    reference_dual,
    rtn_dim,
    rtn_reference,
    rtn_space,
    scalar_basis,
    scalar_moments,
    scalar_values,
)
from hdivkit.fields import AnalyticField
from hdivkit.mesh import build_lshape, one_triangle
from hdivkit.projections import BrokenRTNField, ScalarPWField, canonical_interp
from hdivkit.projector import ConformingRTNField, random_conforming_field
from hdivkit.quadpolicy import QuadGroup, QuadPolicy
from hdivkit.quadrature import gauss01, quad_rule

RNG = np.random.default_rng(42)
REF = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]


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
    el = rtn_space(one_triangle(REF), p).elements[0]
    # dofs of the dual basis must give the identity
    rule = quad_rule(max(2 * p, 1))
    D = dofs_of_refvals(el, el.ref.eval, p + 2, rule) @ el.C
    assert np.abs(D - np.eye(el.ndof)).max() < 1e-10


def unit_fields(mesh, p):
    """The basis functions of the one element of ``mesh`` as broken fields."""
    return [BrokenRTNField(mesh, p, unit[None]) for unit in np.eye(rtn_dim(p))]


def rule_group(mesh, rule):
    """A reference rule on the one element of ``mesh`` as a quadrature group."""
    pts = rule.points @ mesh.B[0].T + mesh.X0[0]
    return QuadGroup.at(mesh, np.array([0]), pts[None], rule.weights[None] * mesh.detB[0])


@pytest.mark.parametrize("p", range(5))
def test_unisolvence_physical(p):
    m = one_triangle(random_triangle(RNG))
    for k, field in enumerate(unit_fields(m, p)):
        dof = canonical_interp(field, p, m).coeffs[0]
        assert np.abs(dof - np.eye(rtn_dim(p))[k]).max() < 1e-10


def test_divergence_lies_in_Pp():
    # project div of every basis member onto P_p and compare pointwise
    m = one_triangle(REF)
    for p in range(4):
        group = rule_group(m, quad_rule(2 * p + 6))
        for field in unit_fields(m, p):
            dv = field.eval_div(group.pts[0], elem=0)
            back = scalar_values(m, p, group, scalar_moments(m, p, group, dv[None]))[0]
            assert np.abs(dv - back).max() < 1e-12


def test_constant_field_reproduced():
    m = one_triangle(REF)
    const = AnalyticField("const", lambda pts: np.tile([1.0, 0.0], (len(pts), 1)), lambda pts: np.zeros(len(pts)))
    out = canonical_interp(const, 0, m)
    pts = RNG.random((20, 2)) * 0.4 + 0.1
    vals = out.eval(pts, elem=0)
    assert np.abs(vals - [1.0, 0.0]).max() < 1e-13


def test_p0_dual_member_unit_mean_flux():
    # the dof polynomials are orthonormal in arclength, so on unit-length
    # edges the lowest dual member has unit mean normal flux; other edges
    # carry exactly zero flux
    m = one_triangle(REF)
    t, w = gauss01(4)
    for slot_dual, field in enumerate(unit_fields(m, 0)):
        for slot, e in enumerate(m.tri_edges[0]):
            vn = field.eval(m.edge_points(e, t), elem=0) @ m.edge_normal(e)
            flux = m.edge_length(e) * float(np.sum(w * vn))
            if slot == slot_dual:
                if abs(m.edge_length(e) - 1.0) < 1e-14:
                    assert abs(flux / m.edge_length(e) - 1.0) < 1e-13
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
    m = one_triangle(coords)
    el = rtn_space(m, p).elements[0]
    c = RNG.standard_normal(el.ndof)
    combo = el.C @ c  # the reference component polynomials of the field
    dx, _ = polys.poly_dx(combo @ el.ref.prim_x, p + 1)
    dy, _ = polys.poly_dy(combo @ el.ref.prim_y, p + 1)
    refpts = quad_rule(4).points
    ref_div = (dx + dy) @ polys.eval_monomials(p, refpts)
    phys_div = BrokenRTNField(m, p, c[None]).eval_div(2.0 * refpts, elem=0)
    assert np.abs(phys_div - ref_div / 4.0).max() < 1e-12


def test_piola_flux_invariance_random_maps():
    # normal flux across a mapped edge equals the reference flux up to the
    # orientation sign, measured by edge quadrature on both sides
    p = 2
    C_ref = reference_dual(p)
    t, w = gauss01(10)
    for _ in range(5):
        coords = random_triangle(RNG)
        el = rtn_space(one_triangle(coords), p).elements[0]
        cref = RNG.standard_normal(rtn_dim(p))
        refvals_fn = lambda pts: np.einsum(
            "j,jnd->nd", C_ref @ cref, rtn_reference(p).eval(pts)
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
            vals_phys = piola_map(coords, vals_ref)
            pvec = coords[lb] - coords[la]
            plen = np.linalg.norm(pvec)
            pn = np.array([pvec[1], -pvec[0]]) / plen
            flux_phys = plen * np.sum(w * (vals_phys @ pn))
            assert abs(flux_phys - flux_ref) < 1e-12 * max(1.0, abs(flux_ref))


def test_element_matrices_spd_and_rank():
    for p in range(4):
        el = rtn_space(one_triangle(random_triangle(RNG)), p).elements[0]
        M, B = el.M, el.Bdiv
        assert np.linalg.eigvalsh(M).min() > 0
        # rank of the divergence coupling equals dim P_p
        s = np.linalg.svd(B, compute_uv=False)
        assert np.sum(s > 1e-10 * s[0]) == polys.tri_dim(p)


def test_div_x_against_constant():
    # phi = x on the reference triangle: (div phi, 1) = 2 |K| = 1
    m = one_triangle(REF)
    ident = AnalyticField("x", lambda pts: pts.copy(), lambda pts: np.full(len(pts), 2.0))
    out = canonical_interp(ident, 0, m)
    rule = quad_rule(2)
    dv = out.eval_div(rule.points, elem=0)
    val = float(np.sum(rule.weights * m.detB[0] * dv))
    assert abs(val - 1.0) < 1e-13


def test_piola_divergence_compatibility():
    # physical divergence two ways: mapped reference divergence vs finite
    # differences of the mapped field
    p = 2
    for _ in range(3):
        m = one_triangle(random_triangle(RNG))
        field = BrokenRTNField(m, p, RNG.standard_normal((1, rtn_dim(p))))
        pts = rule_group(m, quad_rule(3)).pts[0]
        eps = 1e-6 * m.h[0]
        fd = (
            field.eval(pts + [eps, 0], elem=0)[:, 0]
            - field.eval(pts - [eps, 0], elem=0)[:, 0]
            + field.eval(pts + [0, eps], elem=0)[:, 1]
            - field.eval(pts - [0, eps], elem=0)[:, 1]
        ) / (2 * eps)
        dv = field.eval_div(pts, elem=0)
        scale = max(np.abs(dv).max(), 1.0)
        assert np.abs(fd - dv).max() < 1e-7 * scale


def _rel(got, want):
    return np.linalg.norm(np.asarray(got) - want) / max(np.linalg.norm(want), 1e-300)


@pytest.mark.parametrize("p", range(7))
def test_element_evaluation_matches_oracle(p):
    # eval / eval_div / eval_element through one-row quadrature groups of the
    # stacked tables against the per-element methods, at random points of
    # elements with both edge directions; a conforming field reads the rows
    # of its broken copy, so the two agree bit for bit
    m = jitter(build_lshape(2), 3)
    sig = random_conforming_field(m, p, seed=p)
    broken = sig.to_broken()
    scalar = ScalarPWField(m, p, RNG.standard_normal((m.num_triangles, polys.tri_dim(p))))
    space = rtn_space(m, p)
    for k in range(0, m.num_triangles, 5):
        el = element(space, k)
        ref = RNG.dirichlet(np.ones(3), 12)[:, 1:]
        pts = el.map_to_phys(ref)
        c = broken.coeffs[k]
        # the divergence sums D_ref c^ (c^ = T_k^{-1} c) through the scalar
        # basis, terms that cancel (an RT_0 divergence is their difference):
        # its roundoff is bounded by the sum of their magnitudes, not the value
        terms = np.abs(space.D_ref) @ np.abs(space.to_ref(c[None], [k])[0])
        div_scale = np.abs(scalar_basis(p).eval(ref)).T @ terms / el.detB
        for field in (sig, broken):
            assert _rel(field.eval(pts, elem=k), el.eval_coeffs(c, pts)) <= 1e-14
            assert np.all(np.abs(field.eval_div(pts, elem=k) - el.eval_div_coeffs(c, pts)) <= 1e-14 * div_scale)
        assert np.array_equal(sig.eval(pts, elem=k), broken.eval(pts, elem=k))
        assert np.array_equal(sig.eval_div(pts, elem=k), broken.eval_div(pts, elem=k))
        assert _rel(scalar.eval_element(k, pts), el.scalar_values(scalar.coeffs[k], pts)) <= 1e-14
        assert field.eval(pts[0], elem=k).shape == (1, 2)
    for g in QuadPolicy(p, field=sig).groups(m):
        assert np.array_equal(g.eval(sig), g.eval(broken))
        assert np.array_equal(g.eval(sig, div=True), g.eval(broken, div=True))
    assert np.array_equal(sig.div().coeffs, broken.div().coeffs)
    assert sig.norm() == broken.norm()


def test_orientation_error():
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
    field = ConformingRTNField(m, 2, RNG.standard_normal(rtn_space(m, 2).ndof))
    t = np.linspace(0.1, 0.9, 7)
    for e in m.interior_edges():
        a, b = m.edges[e]
        pts = m.vertices[a][None, :] + t[:, None] * m.edge_vector(e)[None, :]
        n = m.edge_normal(e)
        k0, k1 = m.edge_tris[e]
        v0 = field.eval(pts, elem=k0) @ n
        v1 = field.eval(pts, elem=k1) @ n
        assert np.abs(v0 - v1).max() < 1e-12 * max(1.0, np.abs(v0).max())


@pytest.mark.parametrize("labels", ["all-dirichlet", "left-neumann", "all-neumann"])
def test_gather_is_the_mean_of_the_two_sides(labels):
    # element rows read from conforming dofs with zero Neumann dofs gather
    # back to those dofs to the bit; rows whose sides differ gather to the
    # mean of the two sides, zero on Neumann edges
    m = jitter(build_lshape(2, labels=labels), 2)
    space = rtn_space(m, 2)
    dofs = random_conforming_field(m, 2, seed=3).dofs
    assert np.array_equal(space.gather(dofs[space.dof_map]), dofs)
    rows = RNG.standard_normal(space.dof_map.shape)
    got = space.gather(rows)
    want, count = np.zeros(space.ndof), np.zeros(space.ndof)
    for k, row in enumerate(rows):
        want[space.dof_map[k]] += row
        count[space.dof_map[k]] += 1
    want /= count
    want[space.neumann_edge_dofs()] = 0.0
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
    assert not np.any(got[space.neumann_edge_dofs()])
