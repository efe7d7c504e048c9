"""Patch equilibration data from exact reference operators.

``hat_operators(q, p)`` holds the reference dofs of lambda_i Phi_j and the
moments of grad lambda_i . Phi_j; ``RTNSpace.to_ref`` / ``to_phys`` apply the
element dof scaling T_k.  The patch data built from them must match the
per-(patch, element) quadrature path kept in ``oracles``.
"""

import numpy as np
import pytest

import oracles
from hdivkit import fields
from hdivkit.elements import hat_operators, reference_dual, rtn_space
from hdivkit.local_solve import build_patch_problem, patch_data, patch_equilibrate, patch_layout, theta_field
from hdivkit.mesh import Mesh, build_lshape, build_structured, vertex_patches
from hdivkit.projections import interp_product_with_hat
from hdivkit.projector import random_conforming_field
from hdivkit.quadpolicy import QuadPolicy
from hdivkit.quadrature import TriangleRule, quad_rule


def jittered_mesh(n, seed, labels="left-neumann"):
    """structured:n with every interior vertex moved by up to 0.3 h."""
    m = build_structured(n, labels=labels)
    verts = m.vertices.copy()
    on_boundary = np.zeros(len(verts), dtype=bool)
    on_boundary[m.edges[m.boundary_edges()].ravel()] = True
    rng = np.random.default_rng(seed)
    verts[~on_boundary] += rng.uniform(-0.3, 0.3, (int((~on_boundary).sum()), 2)) / n
    labels = [(tuple(m.edges[e]), lab) for e, lab in m.boundary_labels.items()]
    return Mesh(verts, m.triangles, labels)


MESHES = {
    "structured3": lambda: build_structured(3, labels="left-neumann"),
    "lshape2": lambda: build_lshape(2, labels="left-neumann"),
    "jittered3": lambda: jittered_mesh(3, seed=5),
}
CASES = [("def31", p) for p in range(6)] + [("def52", p) for p in range(1, 6)]


def _tol(p):
    return 1e-13 if p <= 3 else 1e-11


@pytest.mark.parametrize("p", range(7))
def test_hats_sum_to_identity(p):
    H, G = hat_operators(p, p)
    assert np.abs(H.sum(axis=0) - np.eye(H.shape[1])).max() <= 1e-13
    assert np.abs(G.sum(axis=0)).max() <= 1e-13


@pytest.mark.parametrize("p", range(1, 7))
def test_hats_sum_to_embedding(p):
    # sum_i lambda_i = 1: the RTN_p dofs of the RTN_{p-1} dual basis
    H, G = hat_operators(p - 1, p)
    fine, coarse = oracles.reference_element(p), oracles.reference_element(p - 1)
    rule = quad_rule(2 * p)
    E = np.column_stack(
        [
            fine.dofs_of_field(lambda pts, j=j: coarse.eval_coeffs(np.eye(coarse.ndof)[j], pts),
                               tri_rule=rule, n1d=p + 2)
            for j in range(coarse.ndof)
        ]
    )
    assert np.abs(H.sum(axis=0) - E).max() <= 1e-13
    assert np.abs(G.sum(axis=0)).max() <= 1e-13
    # a degree p-1 normal trace has no degree-p Legendre moment (E itself
    # carries the roundoff of evaluating the bases through monomials)
    for slot in range(3):
        block = E[slot * (p + 1) : (slot + 1) * (p + 1), slot * p : (slot + 1) * p]
        assert np.abs(block - np.eye(p + 1, p)).max() <= _tol(p)


@pytest.mark.parametrize("p", range(4))
def test_dof_scaling_conjugates_the_reference_dual_basis(p):
    # C_k = C_ref T_k^{-1} on a mesh with general B_k and both edge directions
    m = jittered_mesh(3, seed=2)
    space = rtn_space(m, p)
    n = space.elements[0].ndof
    C_ref = reference_dual(p)
    for k, el in enumerate(space.elements):
        T_inv = space.to_ref(np.eye(n), np.full(n, k)).T
        assert np.abs(el.C - C_ref @ T_inv).max() <= 1e-13
    c = np.random.default_rng(p).standard_normal((m.num_triangles, n))
    assert np.abs(space.to_phys(space.to_ref(c)) - c).max() <= 1e-13


@pytest.fixture(scope="module")
def meshes():
    return {name: build() for name, build in MESHES.items()}


def _assert_matches_oracle(patch, theta, v, p, m, policy, tol):
    layout = patch_layout(m, p)
    prob = build_patch_problem(layout, oracles.chunk_of(layout, patch.vertex), patch_data(theta, policy))
    ref = oracles.patch_problem_oracle(patch, theta, v, p, m, policy)
    for key in ("chi", "g"):
        got = getattr(prob, key)  # pairs in ascending triangle order
        want = np.array([ref[key][int(k)] for k in patch.tris])
        assert np.abs(got - want).max() <= tol * np.abs(want).max(), (key, patch.vertex)
    # the solved patch field against the null-space solve of the loop
    # assembly on the same data
    s, ps = oracles.patch_oracle(m, patch, p, theta.coeffs, prob.chi, prob.g)
    want = oracles.elem_rows(ps, s)
    got = patch_equilibrate(prob)[0]
    assert np.abs(got - want).max() <= tol * np.abs(want).max(), ("s", patch.vertex)


@pytest.mark.parametrize("mesh_name", list(MESHES))
@pytest.mark.parametrize("variant,p", CASES)
def test_patch_problem_matches_quadrature_oracle(meshes, mesh_name, variant, p):
    # v of degree p + 2 makes theta a genuine fit (not v itself); its
    # Neumann-edge dofs vanish, as the left-neumann labels require
    m = meshes[mesh_name]
    v = random_conforming_field(m, p + 1, seed=p)
    policy = QuadPolicy(p, m, v)
    theta = theta_field(policy, variant)
    for patch in vertex_patches(m):
        _assert_matches_oracle(patch, theta, v, p, m, policy, _tol(p))


@pytest.mark.parametrize("variant,p", [("def31", 2), ("def52", 3)])
def test_interp_product_with_hat_matches_quadrature_oracle(meshes, variant, p):
    m = meshes["jittered3"]
    v = random_conforming_field(m, p + 1, seed=p)
    theta = theta_field(QuadPolicy(p, m, v), variant)
    for patch in vertex_patches(m):
        got = interp_product_with_hat(theta, patch, m, p)
        want = oracles.interp_product_with_hat_oracle(theta, patch, m, p)
        assert sorted(got) == sorted(want)
        scale = max(np.abs(c).max() for c in want.values())
        assert max(np.abs(got[k] - want[k]).max() for k in want) <= 1e-13 * scale


def _origin(m):
    return int(np.flatnonzero(np.all(m.vertices == 0, axis=1))[0])


@pytest.mark.parametrize("variant,p", [("def31", 1), ("def31", 2), ("def52", 2)])
def test_patch_problem_matches_oracle_on_corner_rules(variant, p):
    # the singular field takes wedge rules (physical points) at the corner
    m = build_lshape(1)
    v = fields.catalog("lshape_singular", {"alpha": 2 / 3})
    policy = QuadPolicy(p, m, v)
    theta = theta_field(policy, variant)
    at_corner = rtn_space(m, p).elements[int(vertex_patches(m)[_origin(m)].tris[0])]
    assert not isinstance(policy.element_rules(at_corner)[0], TriangleRule)
    for patch in vertex_patches(m):
        _assert_matches_oracle(patch, theta, v, p, m, policy, 1e-12)
