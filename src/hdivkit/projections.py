"""Broken piecewise fields and the elementwise L2 projections / RTN interpolant."""

from __future__ import annotations

from functools import partial

import numpy as np

from . import polys
from .elements import edge_dof_values, hat_operators, rtn_space, scalar_moments, scalar_values
from .fields import AnalyticField
from .quadpolicy import QuadGroup, QuadPolicy
from .quadrature import xy


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

    def norm(self):
        return float(np.linalg.norm(self.coeffs))

    def values(self, group):
        """Values at a quadrature group's points; (n, nq)."""
        return scalar_values(self.mesh, self.p, group, self.coeffs[group.tris])

    def eval_element(self, k, pts):
        return self.values(QuadGroup.points_on(self.mesh, k, pts))[0]


class BrokenRTNField:
    """Elementwise RTN_p field; normal traces may jump across edges.

    Evaluation, divergence and norm read the element rows through
    ``element_coeffs``, so a field that stores its rows another way
    (``projector.ConformingRTNField``, through ``dof_map``) reuses them.
    """

    def __init__(self, mesh, p, coeffs=None):
        self.mesh = mesh
        self.p = p
        self.space = rtn_space(mesh, p)
        self.poly_degree = p + 1
        self.is_discrete = True
        self.singularity = None
        self.divergence_free = False
        self._store(coeffs)

    def _store(self, coeffs):
        if coeffs is None:
            coeffs = np.zeros((self.mesh.num_triangles, self.space.ref.dim))
        self.coeffs = np.asarray(coeffs, float)

    def element_coeffs(self, tris):
        """Element coefficient rows of a triangle or an array of triangles."""
        return self.coeffs[tris]

    def eval(self, pts, elem=None):
        return self.space.values(self._points(pts, elem), self.element_coeffs([elem]))[0]

    def eval_div(self, pts, elem=None):
        return self.space.div_values(self._points(pts, elem), self.element_coeffs([elem]))[0]

    def _points(self, pts, elem):
        if elem is None:
            raise ValueError("RTN fields are evaluated elementwise: pass elem")
        return QuadGroup.points_on(self.mesh, elem, pts)

    def div(self) -> ScalarPWField:
        return ScalarPWField(self.mesh, self.p, self.space.div(self.element_coeffs(slice(None))))

    def norm(self, ref=None):
        """The L2 norm, from the reference dofs ``ref`` of every element row
        where the caller holds them (``RTNSpace.to_ref``)."""
        y = self.space.to_ref(self.element_coeffs(slice(None))) if ref is None else ref
        return float(np.sqrt(np.sum(y * self.space.mass(y))))


def _scalar_values(f, mesh, group):
    """Values of a scalar field at a quadrature group's points: a ScalarPWField
    from its coefficients, an object with ``eval_element(k, pts)`` element by
    element, a plain evaluator in one call; (n, nq)."""
    if isinstance(f, ScalarPWField):
        return f.values(group)
    if hasattr(f, "eval_element"):
        return np.stack([f.eval_element(int(k), x) for x, k in zip(group.pts, group.tris)])
    return group.call(f)


def quadrature_self_check(coeffs, values_on, policy, warnings):
    """Degree-doubling self-check of the policy's scalar P_p moments ``coeffs``
    (nt, sdim): the same on its check groups, from ``values_on(group)``;
    every element whose moments move by more than 1e-9 relative gets a
    warning, in element order."""
    err = np.zeros(len(coeffs))
    for g in policy.check_groups():
        ref = scalar_moments(policy.mesh, policy.p, g, values_on(g))
        scale = np.maximum(np.linalg.norm(ref, axis=1), 1e-300)
        err[g.tris] = np.linalg.norm(coeffs[g.tris] - ref, axis=1) / scale
    warnings += [
        f"project_scalar element {k}: self-check defect {err[k]:.2e}" for k in np.flatnonzero(err > 1e-9)
    ]


def project_scalar(f, p, mesh, *, quad_degree=None, warnings=None):
    """Elementwise L2-orthogonal projection onto broken P_p, contracted over
    the quadrature groups of a fieldless policy fitted to ``quad_degree`` and f.

    ``f`` is a plain evaluator pts -> values, an object with
    ``eval_element(k, pts)``, or a ScalarPWField.  The returned coefficients
    are the moments against the orthonormal element bases, which need only
    det B_k, not the RTN tables; with the policy's self-check, elements
    whose moments move on the doubled rule are listed in ``warnings``.
    """
    pd = f.p if isinstance(f, ScalarPWField) else getattr(f, "poly_degree", None)
    policy = QuadPolicy(p, mesh, degree=quad_degree if pd is None else pd + p + 1, self_check=pd is None,
                        singularity=getattr(f, "singularity", None))
    return _project_scalar(f, policy, [] if warnings is None else warnings)


def _project_scalar(f, policy, warnings):
    """``project_scalar`` on the rules of ``policy``, whose field need not be f."""
    mesh, p = policy.mesh, policy.p
    out = ScalarPWField(mesh, p)
    for g in policy.groups():
        out.coeffs[g.tris] = scalar_moments(mesh, p, g, _scalar_values(f, mesh, g))
    if policy.self_check:
        quadrature_self_check(out.coeffs, partial(_scalar_values, f, mesh), policy, warnings)
    return out


def canonical_interp(v, p, mesh, *, quad_degree=None) -> BrokenRTNField:
    """Elementwise canonical RTN interpolant: matches edge normal moments of
    degree p and interior moments against vector P_{p-1}.  The edge moments
    are contracted over the edge rules of ``QuadPolicy(p, mesh, v, quad_degree)``,
    the interior ones over its quadrature groups, one component at a time."""
    return _canonical_interp(QuadPolicy(p, mesh, v, quad_degree, self_check=False))


def _canonical_interp(policy):
    """``canonical_interp`` on the rules of ``policy``."""
    v, p, mesh = policy.field, policy.p, policy.mesh
    out = BrokenRTNField(mesh, p)
    # a field evaluated at points, not per element, takes the same values on
    # both sides of an edge, whose pairs edge_rules keeps together: one sample per (edge, rule)
    once = isinstance(v, AnalyticField)
    for tris, slots, t, w in policy.edge_rules():
        e = mesh.tri_edges[tris, slots]
        first = np.diff(e, prepend=-1) != 0 if once else np.ones(len(e), dtype=bool)
        L = mesh.edge_length(e[first])
        g = QuadGroup.at(mesh, tris[first], mesh.edge_points(e[first], t), np.outer(L, w))
        vn = np.einsum("kqd,kd->kq", g.eval(v), mesh.edge_normal(e[first]))
        slot_dofs = slots[:, None] * (p + 1) + np.arange(p + 1)
        coeffs = np.einsum("kiq,kq->ki", edge_dof_values(p, t, L), g.w * vn)
        out.coeffs[tris[:, None], slot_dofs] = coeffs[np.cumsum(first) - 1]
    for g in policy.groups() if p >= 1 else ():
        # the orthonormal P_{p-1}(K) basis is the reference one over sqrt(det B_k)
        vals, w = g.eval(v), g.w / np.sqrt(mesh.detB[g.tris])[:, None]
        # contract takes each component as a strided view of one array: a
        # contiguous copy would reach another BLAS kernel and other bits
        weighted = np.empty(vals.shape)
        for dst, comp in zip(xy(weighted), xy(vals)):
            np.multiply(comp, w, out=dst)
        out.coeffs[g.tris, 3 * (p + 1) :] = np.hstack([g.contract(g.phi(p - 1), comp) for comp in xy(weighted)])
    return out


def hat_interpolants(theta: BrokenRTNField, p_target, tris=None, ref=None) -> np.ndarray:
    """Degree-``p_target`` dofs of lambda_i * theta for the three local hat
    functions of each triangle in ``tris`` (default: all); shape
    (n, 3, ndof).  Exact reference operators conjugated by the dof scaling:
    chi = T_k H[i] T_k^{-1} theta_k, from theta's reference dofs ``ref``
    of those triangles where the caller holds them.  When theta has degree
    p_target this is the canonical interpolant of the product; when theta
    has degree p_target - 1 the product lies in broken RTN_{p_target} and
    is reproduced.
    """
    mesh = theta.mesh
    tris = np.arange(mesh.num_triangles) if tris is None else np.asarray(tris, int)
    H, _ = hat_operators(theta.p, p_target)
    if ref is None:
        ref = theta.space.to_ref(theta.element_coeffs(tris), tris)
    chi = np.einsum("iab,kb->kia", H, ref).reshape(-1, H.shape[1])
    chi = rtn_space(mesh, p_target).to_phys(chi, np.repeat(tris, 3))
    return chi.reshape(len(tris), 3, -1)


def interp_product_with_hat(theta: BrokenRTNField, patch, mesh, p_target):
    """Degree-``p_target`` element dofs of psi_a * theta on the patch
    triangles (see ``hat_interpolants``); a dict triangle -> dof vector."""
    chi = hat_interpolants(theta, p_target, patch.tris)
    return {int(k): chi[t, patch.local_index[int(k)]] for t, k in enumerate(patch.tris)}
