from fractions import Fraction

import numpy as np
import pytest

import oracles
from conftest import x2_field
from hdivkit import fields
from hdivkit.elements import rtn_space, scalar_moments, scalar_values
from hdivkit.projections import (
    ScalarPWField,
    _scalar_values,
    canonical_interp,
    project_scalar,
)
from hdivkit.mesh import build_lshape, build_structured
from hdivkit.projector import ConformingRTNField, random_conforming_field
from hdivkit.quadpolicy import QuadGroup, QuadPolicy
from hdivkit.quadrature import gauss01, quad_rule
from test_element_layer import jitter


def test_project_scalar_reproduces_polynomials(ref_triangle_mesh):
    rng = np.random.default_rng(0)
    for p in range(4):
        f = ScalarPWField(ref_triangle_mesh, p, rng.standard_normal((1, (p + 1) * (p + 2) // 2)))
        back = project_scalar(f, p, ref_triangle_mesh)
        assert np.abs(back.coeffs - f.coeffs).max() < 1e-12


def test_project_scalar_mean_of_x(ref_triangle_mesh):
    out = project_scalar(lambda pts: pts[:, 0], 0, ref_triangle_mesh, quad_degree=6)
    # the constant basis function is sqrt(2) on the reference triangle, so
    # the coefficient is mean / sqrt(2) scaled by |K|^(1/2); compare values
    val = out.eval_element(0, [[0.3, 0.3]])
    assert abs(val[0] - 1 / 3) < 1e-13


def test_project_scalar_3x2_mean_and_misfit(ref_triangle_mesh):
    # frozen from exact monomial integrals: mean 1/2, misfit 0.175
    exact_misfit = oracles.exact_l2_misfit_const([(3, (2, 0))])
    assert exact_misfit == Fraction(7, 40)
    f = lambda pts: 3 * pts[:, 0] ** 2
    out = project_scalar(f, 0, ref_triangle_mesh, quad_degree=8)
    mean = out.eval_element(0, [[0.2, 0.2]])[0]
    assert abs(mean - 0.5) < 1e-13
    rule = quad_rule(8)
    resid = f(rule.points) - out.eval_element(0, rule.points)
    misfit = float(np.sum(rule.weights * resid**2))
    assert abs(misfit - 0.175) < 1e-13


def test_canonical_interp_reproduces_broken(unit_square_2):
    for p in range(3):
        vb = oracles.random_broken_field(unit_square_2, p, seed=p)
        out = canonical_interp(vb, p, unit_square_2)
        assert np.abs(out.coeffs - vb.coeffs).max() < 1e-12


def test_canonical_interp_x2_edge_fluxes(ref_triangle_mesh):
    # v = (x^2, 0) at order 0: fluxes (0, 1/3, 0) on {y=0}, hypotenuse, {x=0}
    m = ref_triangle_mesh
    out = canonical_interp(x2_field(), 0, m)
    t, w = gauss01(6)
    got = {}
    for e in range(m.num_edges):
        vn = out.eval(m.edge_points(e, t), elem=0) @ m.edge_normal(e)
        got[frozenset(map(tuple, m.vertices[m.edges[e]]))] = m.edge_length(e) * float(np.sum(w * vn))
    bottom = frozenset({(0.0, 0.0), (1.0, 0.0)})
    hyp = frozenset({(1.0, 0.0), (0.0, 1.0)})
    left = frozenset({(0.0, 0.0), (0.0, 1.0)})
    assert abs(got[bottom]) < 1e-13
    assert abs(got[hyp] - 1 / 3) < 1e-13
    assert abs(got[left]) < 1e-13


@pytest.mark.parametrize("p", range(5))
def test_commuting_identity_polynomial(p, unit_square_2):
    # a broken polynomial field of degree p+3 components: interpolate at
    # order p, then div I v must equal the broken projection of div v
    vb = oracles.random_broken_field(unit_square_2, p + 2, seed=p + 10)
    iv = canonical_interp(vb, p, unit_square_2)
    div_iv = iv.div()
    pi_div = project_scalar(vb.div(), p, unit_square_2)
    scale = max(np.linalg.norm(pi_div.coeffs), 1e-30)
    assert np.linalg.norm(div_iv.coeffs - pi_div.coeffs) / scale < 1e-11


@pytest.mark.parametrize("p", range(5))
def test_commuting_identity_catalog(p, unit_square_2):
    for name in ("sine_divfree", "cubic"):
        v = fields.catalog(name)
        iv = canonical_interp(v, p, unit_square_2)
        div_iv = iv.div()
        pi_div = project_scalar(v.div, p, unit_square_2)
        scale = max(
            np.linalg.norm(pi_div.coeffs), iv.norm() * (p + 1) / unit_square_2.h_max
        )
        assert np.linalg.norm(div_iv.coeffs - pi_div.coeffs) / scale < 1e-10


def test_projection_idempotent(unit_square_2):
    v = fields.catalog("cubic")
    for p in range(3):
        once = project_scalar(v.div, p, unit_square_2)
        twice = project_scalar(once, p, unit_square_2)
        assert np.abs(twice.coeffs - once.coeffs).max() < 1e-13


def test_best_approximation_property(ref_triangle_mesh):
    # || f - Pi f || <= || f - q || for random degree-p candidates q
    rng = np.random.default_rng(3)
    m = ref_triangle_mesh
    p = 2
    f = lambda pts: np.sin(3 * pts[:, 0]) * np.cos(2 * pts[:, 1])
    proj = project_scalar(f, p, m, quad_degree=20)
    rule = quad_rule(20)
    fv = f(rule.points)
    best = float(np.sum(rule.weights * (fv - proj.eval_element(0, rule.points)) ** 2))
    sdim = (p + 1) * (p + 2) // 2
    for _ in range(50):
        q = ScalarPWField(m, p, proj.coeffs + 0.1 * rng.standard_normal((1, sdim)))
        other = float(np.sum(rule.weights * (fv - q.eval_element(0, rule.points)) ** 2))
        assert other >= best - 1e-13


INTERP_MESHES = {
    "jittered-structured3": lambda: jitter(build_structured(3), 3),
    "lshape1": lambda: build_lshape(1),
    "lshape2": lambda: build_lshape(2),
}


@pytest.mark.parametrize("field", ["sine_divfree", "cubic", "lshape_singular"])
@pytest.mark.parametrize("mesh", INTERP_MESHES)
def test_canonical_interp_matches_element_loop(mesh, field):
    # the batched interpolant against the element-by-element oracle; the
    # singular field brings in the corner wedges and the Gauss-Jacobi edges
    m = INTERP_MESHES[mesh]()
    v = fields.catalog(field)
    for p in range(7):
        got = canonical_interp(v, p, m).coeffs
        want = oracles.canonical_interp_oracle(v, p, m).coeffs
        assert np.abs(got - want).max() <= 1e-13 * max(np.abs(want).max(), 1.0), p


@pytest.mark.parametrize("p", range(9))
def test_canonical_interp_reproduces_members_like_the_element_loop(p):
    # both paths reproduce a discrete member up to the evaluation floor,
    # which grows with p; the batched one no worse than twice the loop's
    m = jitter(build_structured(3), 3)
    for vh in (random_conforming_field(m, p, seed=p), oracles.random_broken_field(m, p, seed=p)):
        want = oracles.to_broken(vh).coeffs if isinstance(vh, ConformingRTNField) else vh.coeffs
        scale = np.abs(want).max()
        err = np.abs(canonical_interp(vh, p, m).coeffs - want).max() / scale
        err_loop = np.abs(oracles.canonical_interp_oracle(vh, p, m).coeffs - want).max() / scale
        assert err <= 2 * max(err_loop, 1e-15)


@pytest.mark.parametrize("p", [0, 2, 6])
@pytest.mark.parametrize(
    "mesh,field",
    [("lshape2", "lshape_singular"), ("jittered-structured3", "sine_divfree"), ("lshape1", "cubic"),
     ("jittered-structured3", "random_conforming")],
)
def test_edge_rules_are_the_element_rules(mesh, field, p):
    # every (triangle, slot) pair gets the 1D rule element_rules gives it,
    # to the bit; for an analytic field the pairs go by edge, the two sides
    # of an edge on one rule neighbours in one chunk, and a discrete one's
    # go by pair
    m = INTERP_MESHES[mesh]()
    v = random_conforming_field(m, p, seed=p) if field == "random_conforming" else fields.catalog(field)
    policy = QuadPolicy(p, m, v)
    by_edge = isinstance(v, fields.AnalyticField)
    assert by_edge == (field != "random_conforming")
    seen = np.zeros((m.num_triangles, 3), dtype=int)
    for tris, slots, t, w in policy.edge_rules():
        assert np.all(np.diff(m.tri_edges[tris, slots] if by_edge else 3 * tris + slots) >= 0)
        for k, j in zip(tris, slots):
            want_t, want_w = policy.element_rules(rtn_space(m, p).elements[k])[1][j]
            assert np.array_equal(t, want_t) and np.array_equal(w, want_w)
            seen[k, j] += 1
    assert np.all(seen == 1)


@pytest.mark.parametrize("p", [0, 3])
@pytest.mark.parametrize("mesh,field", [("structured16", "sine_divfree"), ("lshape2", "lshape_singular")])
def test_canonical_interp_samples_each_edge_once_per_rule(mesh, field, p):
    # a field evaluated at points gives both sides of an interior edge the
    # same samples: it is called once at the points of each (edge, rule),
    # twice where the two sides get different rules, as near a singular
    # corner; the interior moments add the points of the policy's groups
    m = build_structured(16) if mesh == "structured16" else build_lshape(2)
    v = fields.catalog(field)
    calls = []
    v.v = (lambda fn: lambda pts: calls.append(len(pts)) or fn(pts))(v.v)
    canonical_interp(v, p, m)
    policy, space = QuadPolicy(p, m, v), rtn_space(m, p)
    rules = {}  # edge -> its sides' rules, per element
    for k in range(m.num_triangles):
        for j, (t, _) in enumerate(policy.element_rules(space.elements[k])[1]):
            rules.setdefault(int(m.tri_edges[k, j]), set()).add(t.tobytes())
    edge_points = sum(len(t) // 8 for sides in rules.values() for t in sides)
    interior = sum(g.w.size for g in policy.groups()) if p >= 1 else 0
    assert sum(calls) == edge_points + interior
    twice = sum(len(sides) == 2 for sides in rules.values())
    assert twice == 0 if mesh == "structured16" else twice > 0
    if mesh == "structured16":  # 800 edges, not the 1536 (triangle, slot) pairs
        npts = len(policy.element_rules(space.elements[0])[1][0][0])
        assert edge_points == m.num_edges * npts and m.num_edges == 800 and m.num_triangles * 3 == 1536


def test_scalar_evaluation_builds_no_rtn_tables():
    # scalar values need only det B_k; they match the per-element oracle
    m, p = build_structured(4), 3
    rng = np.random.default_rng(5)
    f = ScalarPWField(m, p, rng.standard_normal((m.num_triangles, (p + 1) * (p + 2) // 2)))
    k = 9
    pts = rng.dirichlet(np.ones(3), 6) @ m.vertices[m.triangles[k]]
    group = QuadPolicy(p, m).groups()[0]
    vals, at_k = _scalar_values(f, m, group), f.eval_element(k, pts)
    assert ("rtn_space", p) not in m._cache
    assert np.array_equal(vals, scalar_values(m, p, group, f.coeffs[group.tris]))
    el = oracles.element(rtn_space(m, p), k)
    assert np.linalg.norm(at_k - el.scalar_values(f.coeffs[k], pts)) <= 1e-14 * np.linalg.norm(at_k)


def test_project_scalar_builds_no_rtn_tables():
    # scalar moments need only det B_k: a fresh mesh keeps no RTN space, and
    # the coefficients equal the moments over the policy's groups bit for bit
    def f(pts):
        return np.sin(3 * pts[:, 0]) * np.exp(pts[:, 1])

    p, m, other = 4, build_structured(4), build_structured(4)
    warnings = []
    got = project_scalar(f, p, m, warnings=warnings)
    assert ("rtn_space", p) not in m._cache
    want = np.empty_like(got.coeffs)
    for g in QuadPolicy(p, other).groups():
        want[g.tris] = scalar_moments(other, p, g, g.call(f))
    assert np.array_equal(got.coeffs, want) and warnings == []
