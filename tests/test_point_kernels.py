"""The point layer by components (``quadrature.xy``) against its stacked forms
in ``oracles``, to the bit: norms, point maps, edge points, moments and the
error evaluations built on them, on a dyadic mesh, a jittered one and an
L-shape whose corner-singular field adds wedge (non-shared) groups."""

import numpy as np
import pytest

import oracles
from hdivkit.elements import rtn_space
from hdivkit.fields import catalog
from hdivkit.mesh import build_lshape, build_structured
from hdivkit.model_problems import (
    LagrangeSpace,
    _flux_error,
    flux_error,
    h1_best_local_sum,
    manufactured_sine,
    potential_h1_error,
    solve_mixed,
)
from hdivkit.projections import canonical_interp
from hdivkit.projector import random_conforming_field
from hdivkit.quadpolicy import QuadGroup, QuadPolicy
from hdivkit.quadrature import quad_rule
from test_element_layer import jitter

MESHES = {
    "structured4": (lambda: build_structured(4), "sine_divfree", None),
    "jittered-structured4": (lambda: jitter(build_structured(4), 3), "sine_divfree", None),
    "lshape2": (lambda: build_lshape(2), "lshape_singular", {"alpha": 2 / 3}),
}
DEGREES = [0, 1, 2, 3, 6]


def _setup(name):
    build, field, params = MESHES[name]
    return build(), catalog(field, params)


@pytest.mark.parametrize("name", MESHES)
@pytest.mark.parametrize("p", DEGREES)
def test_quadrature_groups_match_stacked_oracles(name, p):
    mesh, v = _setup(name)
    policy = QuadPolicy(p, mesh, v)
    sigma = random_conforming_field(mesh, p, seed=p)
    space = rtn_space(mesh, p)
    wedges = 0
    for g, vvals, dvals in oracles.samples(policy):
        if g.shared:
            assert np.array_equal(g.pts, oracles.group_points_stacked_oracle(mesh, g))
        else:
            wedges += 1
            assert np.array_equal(g.ref, oracles.group_ref_stacked_oracle(mesh, g.tris, g.pts))
        svals = g.eval(sigma)
        for vals in (vvals, vvals - svals, svals, dvals - g.eval(sigma, div=True)):
            assert np.array_equal(g.norm_sq(vals), oracles.norm_sq_stacked_oracle(g, vals))
        assert np.array_equal(space.moments(g, vvals), oracles.moments_stacked_oracle(space, g, vvals))
    assert wedges == (name == "lshape2")


@pytest.mark.parametrize("name", MESHES)
@pytest.mark.parametrize("p", [d for d in DEGREES if d >= 1])
def test_interpolant_interior_dofs_match_stacked_oracle(name, p):
    mesh, v = _setup(name)
    for field in (v, random_conforming_field(mesh, p, seed=p)):
        got = canonical_interp(field, p, mesh).coeffs[:, 3 * (p + 1) :]
        assert np.array_equal(got, oracles.interior_interp_stacked_oracle(field, p, mesh))


@pytest.mark.parametrize("name", MESHES)
def test_point_maps_match_stacked_oracles(name):
    mesh, _ = _setup(name)
    for deg in (1, 9, 17):
        ref = quad_rule(deg).points
        assert np.array_equal(mesh.map_to_phys(ref), oracles.map_to_phys_stacked_oracle(mesh, ref))
    t = np.linspace(0.0, 1.0, 7)
    e = np.arange(mesh.num_edges)
    assert np.array_equal(mesh.edge_points(e, t), oracles.edge_points_stacked_oracle(mesh, e, t))
    assert np.array_equal(mesh.edge_points(3, t), oracles.edge_points_stacked_oracle(mesh, 3, t))
    tris = mesh.edge_tris[e, 0]
    pts = mesh.edge_points(e, t)
    group = QuadGroup.at(mesh, tris, pts, np.ones(pts.shape[:2]))
    assert np.array_equal(group.ref, oracles.group_ref_stacked_oracle(mesh, tris, pts))


@pytest.mark.filterwarnings("ignore:equispaced Lagrange nodes")
@pytest.mark.parametrize("name", MESHES)
@pytest.mark.parametrize("p", DEGREES)
def test_error_evaluation_matches_stacked_oracles(name, p):
    mesh, _ = _setup(name)
    prob = manufactured_sine(mesh)
    sigma_h = solve_mixed(prob, p)["sigma"]
    assert flux_error(prob, sigma_h) == oracles.flux_error_stacked_oracle(prob, sigma_h)
    div_error = _flux_error(prob, sigma_h, div=True)
    assert div_error == oracles.flux_error_stacked_oracle(prob, sigma_h, div=True)
    q = p + 1
    ls = LagrangeSpace(mesh, q)
    u_h = np.random.default_rng(p).standard_normal(ls.n_nodes)
    assert potential_h1_error(prob, ls, u_h) == oracles.potential_h1_error_stacked_oracle(prob, ls, u_h)
    assert h1_best_local_sum(prob, q) == oracles.h1_best_local_sum_stacked_oracle(prob, q)
