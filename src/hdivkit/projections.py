"""Broken piecewise fields and the elementwise L2 projections / RTN interpolant."""

from __future__ import annotations

import numpy as np

from . import polys
from .elements import edge_dof_values, hat_operators, rtn_space
from .quadpolicy import QuadPolicy
from .quadrature import gauss01


class ScalarPWField:
    """Piecewise polynomial scalar field in the per-element orthonormal basis.

    Coefficients have shape (num_triangles, dim P_p); since the basis is
    L2(K)-orthonormal, the global L2 norm is the plain 2-norm of the
    coefficient array.
    """

    def __init__(self, mesh, p, coeffs=None):
        self.mesh = mesh
        self.p = p
        self.sdim = polys.tri_dim(p)
        if coeffs is None:
            coeffs = np.zeros((mesh.num_triangles, self.sdim))
        self.coeffs = np.asarray(coeffs, float)

    def copy(self):
        return ScalarPWField(self.mesh, self.p, self.coeffs.copy())

    def norm(self):
        return float(np.linalg.norm(self.coeffs))

    def norm_element(self, k):
        return float(np.linalg.norm(self.coeffs[k]))

    def eval_element(self, k, pts):
        space = rtn_space(self.mesh, self.p)
        return space.elements[k].scalar_values(self.coeffs[k], pts)

    def __sub__(self, other):
        if other.p != self.p or other.mesh is not self.mesh:
            raise ValueError("fields live on different spaces")
        return ScalarPWField(self.mesh, self.p, self.coeffs - other.coeffs)


class BrokenRTNField:
    """Elementwise RTN_p field; normal traces may jump across edges."""

    def __init__(self, mesh, p, coeffs=None):
        self.mesh = mesh
        self.p = p
        self.space = rtn_space(mesh, p)
        if coeffs is None:
            coeffs = np.zeros((mesh.num_triangles, self.space.ref.dim))
        self.coeffs = np.asarray(coeffs, float)
        self.poly_degree = p + 1
        self.is_discrete = True
        self.singularity = None
        self.divergence_free = False

    def eval(self, pts, elem=None):
        if elem is None:
            raise ValueError("broken fields need an element index for evaluation")
        return self.space.elements[elem].eval_coeffs(self.coeffs[elem], pts)

    def eval_div(self, pts, elem=None):
        if elem is None:
            raise ValueError("broken fields need an element index for evaluation")
        return self.space.elements[elem].eval_div_coeffs(self.coeffs[elem], pts)

    eval_element = eval

    def element_coeffs(self, tris):
        """Element coefficient rows of a triangle or an array of triangles."""
        return self.coeffs[tris]

    def div(self) -> ScalarPWField:
        return ScalarPWField(self.mesh, self.p, (self.space.Bdiv @ self.coeffs[:, :, None])[:, :, 0])

    def norm(self):
        return float(np.sqrt(np.sum(self.coeffs * (self.space.M @ self.coeffs[:, :, None])[:, :, 0])))


def random_broken_field(mesh, p, seed=0, scale=1.0) -> BrokenRTNField:
    """Seeded broken RTN_p sample; normal traces jump across edges."""
    out = BrokenRTNField(mesh, p)
    rng = np.random.default_rng(seed)
    out.coeffs = scale * rng.standard_normal(out.coeffs.shape)
    return out


def _scalar_eval(f, mesh, k, pts):
    if isinstance(f, ScalarPWField):
        return f.eval_element(k, pts)
    if hasattr(f, "eval_element"):
        return f.eval_element(k, pts)
    return np.asarray(f(np.atleast_2d(pts)), float)


def project_scalar(f, p, mesh, *, policy=None, quad_degree=None, warnings=None):
    """Elementwise L2-orthogonal projection onto broken P_p.

    ``f`` is a plain evaluator pts -> values, an object with
    ``eval_element(k, pts)``, or a ScalarPWField.  The returned coefficients
    are the moments against the orthonormal element bases.
    """
    space = rtn_space(mesh, p)
    if policy is None:
        pd = f.p if isinstance(f, ScalarPWField) else getattr(f, "poly_degree", None)
        policy = QuadPolicy(p, field=None, degree=quad_degree)
        if pd is not None:
            policy.base_degree = pd + p + 1
            policy.self_check = False
        policy.singularity = getattr(f, "singularity", None)
    out = ScalarPWField(mesh, p)
    warn = warnings if warnings is not None else []
    for k, el in enumerate(space.elements):
        tri, _, chk = policy.element_rules(el, key=("tri", k))
        pts = el.quad_points(tri)
        vals = _scalar_eval(f, mesh, k, pts)
        out.coeffs[k] = el.scalar_moments(vals, tri)
        if chk is not None and policy.self_check:
            pts2 = el.quad_points(chk)
            ref = el.scalar_moments(_scalar_eval(f, mesh, k, pts2), chk)
            scale = max(np.linalg.norm(ref), 1e-300)
            err = np.linalg.norm(out.coeffs[k] - ref) / scale
            if err > 1e-9:
                warn.append(f"project_scalar element {k}: self-check defect {err:.2e}")
    return out


def project_face(g, p, mesh, e, *, npts=None):
    """L2 projection of an edge scalar onto the orthonormal edge polynomials.

    ``g`` maps physical points (n, 2) on the edge to values (n,).  Returns
    the p + 1 coefficients in the lower -> higher parametrization.
    """
    a, b = mesh.edges[e]
    pa, pb = mesh.vertices[a], mesh.vertices[b]
    L = mesh.edge_length(e)
    t, w = gauss01(npts if npts is not None else max(p + 6, 8))
    pts = pa[None, :] + t[:, None] * (pb - pa)[None, :]
    q = edge_dof_values(p, t, L)
    vals = np.asarray(g(pts), float)
    return (q * (w * L * vals)).sum(axis=1)


def canonical_interp(v, p, mesh, *, policy=None, quad_degree=None) -> BrokenRTNField:
    """Elementwise canonical RTN interpolant: matches edge normal moments of
    degree p and interior moments against vector P_{p-1}."""
    space = rtn_space(mesh, p)
    if policy is None:
        policy = QuadPolicy(p, field=v, degree=quad_degree)
    out = BrokenRTNField(mesh, p)
    for k, el in enumerate(space.elements):
        tri, edges, _ = policy.element_rules(el, key=("tri", k))
        out.coeffs[k] = el.dofs_of_field(
            lambda pts: v.eval(pts, elem=k),
            edge_rules=edges,
            tri_rule=tri,
            n1d=policy.n1d(),
        )
    return out


def hat_interpolants(theta: BrokenRTNField, p_target, tris=None) -> np.ndarray:
    """Degree-``p_target`` dofs of lambda_i * theta for the three local hat
    functions of each triangle in ``tris`` (default: all); shape
    (n, 3, ndof).  Exact reference operators conjugated by the dof scaling:
    chi = T_k H[i] T_k^{-1} theta_k.  When theta has degree p_target this is
    the canonical interpolant of the product; when theta has degree
    p_target - 1 the product lies in broken RTN_{p_target} and is reproduced.
    """
    mesh = theta.mesh
    tris = np.arange(mesh.num_triangles) if tris is None else np.asarray(tris, int)
    H, _ = hat_operators(theta.p, p_target)
    ref = theta.space.to_ref(theta.coeffs[tris], tris)
    chi = np.einsum("iab,kb->kia", H, ref).reshape(-1, H.shape[1])
    chi = rtn_space(mesh, p_target).to_phys(chi, np.repeat(tris, 3))
    return chi.reshape(len(tris), 3, -1)


def interp_product_with_hat(theta: BrokenRTNField, patch, mesh, p_target):
    """Degree-``p_target`` element dofs of psi_a * theta on the patch
    triangles (see ``hat_interpolants``); a dict triangle -> dof vector."""
    chi = hat_interpolants(theta, p_target, patch.tris)
    return {int(k): chi[t, patch.local_index[int(k)]] for t, k in enumerate(patch.tris)}
