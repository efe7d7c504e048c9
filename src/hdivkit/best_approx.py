"""Local- and global-best approximation errors in the weighted H(div) norm.

The elementwise error combines the unconstrained L2 distance to RTN_p(K)
with the scaled divergence oscillation (h_K / (p+1)) ||div v - Pi_p div v||;
the global error minimizes over the conforming space under the divergence
constraint, so its divergence part is identical to the local one by
construction.  Both use the same quadrature rules so measured equivalence
ratios are quadrature-consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

import numpy as np
import scipy.sparse as sp

from .elements import rtn_space
from .linsolve import SparseFactor, dense_solve
from .local_solve import elem_constrained_min
from .projector import ConformingRTNField, check_field_compatibility
from .quadpolicy import QuadPolicy


def _element_errors(el, vvals, dvvals, approx_vals, approx_div, tri, hscale):
    diff = vvals - approx_vals
    l2 = np.sqrt(el.norm_sq(diff, tri))
    dv = dvvals - approx_div
    div_part = hscale * np.sqrt(el.norm_sq(dv, tri))
    return l2, div_part


def local_best(v, p, mesh, k, *, policy=None, quad_degree=None):
    """Unconstrained local best approximation on element k.

    Returns dict with ``l2_part`` (distance to RTN_p(K)), ``div_part`` (the
    weighted divergence oscillation) and ``E_loc`` (their square sum root).
    """
    space = rtn_space(mesh, p)
    el = space.elements[k]
    if policy is None:
        policy = QuadPolicy(p, field=v, degree=quad_degree)
    tri, _, _ = policy.element_rules(el, key=("tri", k))
    pts = el.quad_points(tri)
    vvals = v.eval(pts, elem=k)
    dvvals = v.eval_div(pts, elem=k)
    b = el.rtn_moments(vvals, tri)
    c = dense_solve(el.M, b)
    g = el.scalar_moments(dvvals, tri)
    hscale = el.h / (p + 1)
    l2, div_part = _element_errors(
        el,
        vvals,
        dvvals,
        el.eval_coeffs(c, pts),
        el.scalar_values(g, pts),
        tri,
        hscale,
    )
    return {
        "l2_part": l2,
        "div_part": div_part,
        "E_loc": np.sqrt(l2**2 + div_part**2),
        "coeffs": c,
    }


def local_best_constrained(v, p, mesh, k, *, policy=None, quad_degree=None):
    """Divergence-constrained local best approximation on element k."""
    space = rtn_space(mesh, p)
    el = space.elements[k]
    if policy is None:
        policy = QuadPolicy(p, field=v, degree=quad_degree)
    theta = elem_constrained_min(v, p, mesh, k, policy=policy)
    tri, _, _ = policy.element_rules(el, key=("tri", k))
    pts = el.quad_points(tri)
    vvals = v.eval(pts, elem=k)
    dvvals = v.eval_div(pts, elem=k)
    g = el.scalar_moments(dvvals, tri)
    hscale = el.h / (p + 1)
    l2, div_part = _element_errors(
        el,
        vvals,
        dvvals,
        el.eval_coeffs(theta, pts),
        el.scalar_values(g, pts),
        tri,
        hscale,
    )
    return {
        "l2_part": l2,
        "div_part": div_part,
        "E_loc_c": np.sqrt(l2**2 + div_part**2),
        "coeffs": theta,
    }


def global_best(v, p, mesh, *, policy=None, quad_degree=None):
    """Global best approximation under the divergence constraint.

    Solves one sparse symmetric saddle system: conforming mass against the
    broken multiplier space, with the constant multiplier mode pinned when
    the boundary carries no Dirichlet edge.  Returns the error split and the
    minimizer.
    """
    check_field_compatibility(v, mesh)
    space = rtn_space(mesh, p)
    if policy is None:
        policy = QuadPolicy(p, field=v, degree=quad_degree)
    nt = mesh.num_triangles
    sdim = space.elements[0].sdim
    M, B, fidx = space.conforming_blocks()
    rhs = np.zeros(space.ndof)
    g = np.zeros(nt * sdim)
    vvals_all = {}
    for k, el in enumerate(space.elements):
        tri, _, _ = policy.element_rules(el, key=("tri", k))
        pts = el.quad_points(tri)
        vvals = v.eval(pts, elem=k)
        dvvals = v.eval_div(pts, elem=k)
        vvals_all[k] = (vvals, dvvals, tri, pts)
        rhs[space.element_dof_map(k)] += el.rtn_moments(vvals, tri)
        g[k * sdim : (k + 1) * sdim] = el.scalar_moments(dvvals, tri)
    rhs = rhs[fidx]
    if mesh.edges_with_label("dirichlet"):
        A = sp.bmat([[M, B.T], [B, None]], format="csc")
        b = np.concatenate([rhs, g])
    else:  # pure Neumann: pin the constant multiplier mode by a bordering column
        kernel = np.zeros(nt * sdim)
        kernel[::sdim] = np.sqrt([el.area for el in space.elements])
        g = g - kernel * (kernel @ g) / (kernel @ kernel)
        kcol = sp.csr_matrix(
            (kernel, (np.arange(nt * sdim), np.zeros(nt * sdim, dtype=int))),
            shape=(nt * sdim, 1),
        )
        A = sp.bmat(
            [[M, B.T, None], [B, None, kcol], [None, kcol.T, None]], format="csc"
        )
        b = np.concatenate([rhs, g, [0.0]])
    sol = SparseFactor(A).solve(b)
    sigma = ConformingRTNField(mesh, p)
    sigma.dofs[fidx] = sol[: len(fidx)]
    res = np.linalg.norm(A @ sol - b) / max(np.linalg.norm(b), 1e-300)
    l2_sq = 0.0
    div_sq = 0.0
    for k in range(nt):
        el = space.elements[k]
        vvals, dvvals, tri, pts = vvals_all[k]
        diff = vvals - sigma.eval(pts, elem=k)
        l2_sq += el.norm_sq(diff, tri)
        proj = el.scalar_values(el.scalar_moments(dvvals, tri), pts)
        dv = dvvals - proj
        div_sq += (el.h / (p + 1)) ** 2 * el.norm_sq(dv, tri)
    return {
        "Eglob_l2": np.sqrt(l2_sq),
        "Eglob_div": np.sqrt(div_sq),
        "Eglob": np.sqrt(l2_sq + div_sq),
        "minimizer": sigma,
        "kkt_residual": res,
    }


@dataclass
class ErrorReport:
    """Per-element and global best-approximation errors with their ratios."""

    p: int
    field_name: str
    mesh_id: str
    Eloc_l2: np.ndarray = None
    Eloc_div: np.ndarray = None
    Eloc: np.ndarray = None
    Eglob_l2: float = np.nan
    Eglob_div: float = np.nan
    Eglob: float = np.nan
    Eloc_constrained: np.ndarray = None
    Eloc_pm1: np.ndarray = None
    metadata: dict = dfield(default_factory=dict)

    @property
    def sum_Eloc_sq(self):
        return float(np.sum(self.Eloc**2))

    @property
    def sum_Eloc_l2_sq(self):
        return float(np.sum(self.Eloc_l2**2))

    @property
    def ratio_glob_over_loc(self):
        s = self.sum_Eloc_sq
        if s <= 0:
            return 0.0 if self.Eglob**2 < 1e-24 else np.inf
        return self.Eglob**2 / s

    @property
    def ratio_loc_over_glob(self):
        if self.Eglob**2 <= 0:
            return 0.0 if self.sum_Eloc_sq < 1e-24 else np.inf
        return self.sum_Eloc_sq / self.Eglob**2


def error_report(
    v,
    p,
    mesh,
    *,
    quad_degree=None,
    include_constrained=False,
    include_pm1=False,
    field_name="",
    mesh_id="",
) -> ErrorReport:
    """Full local/global error evaluation with one shared quadrature policy."""
    policy = QuadPolicy(p, field=v, degree=quad_degree)
    nt = mesh.num_triangles
    rep = ErrorReport(p=p, field_name=field_name or getattr(v, "name", ""), mesh_id=mesh_id)
    rep.Eloc_l2 = np.empty(nt)
    rep.Eloc_div = np.empty(nt)
    rep.Eloc = np.empty(nt)
    for k in range(nt):
        loc = local_best(v, p, mesh, k, policy=policy)
        rep.Eloc_l2[k] = loc["l2_part"]
        rep.Eloc_div[k] = loc["div_part"]
        rep.Eloc[k] = loc["E_loc"]
    glob = global_best(v, p, mesh, policy=policy)
    rep.Eglob_l2 = glob["Eglob_l2"]
    rep.Eglob_div = glob["Eglob_div"]
    rep.Eglob = glob["Eglob"]
    rep.metadata["kkt_residual"] = glob["kkt_residual"]
    rep.metadata["minimizer"] = glob["minimizer"]
    rep.metadata["quad_degree"] = policy.base_degree
    if include_constrained:
        rep.Eloc_constrained = np.empty(nt)
        for k in range(nt):
            rep.Eloc_constrained[k] = local_best_constrained(v, p, mesh, k, policy=policy)[
                "E_loc_c"
            ]
    if include_pm1 and p >= 1:
        pol = QuadPolicy(p - 1, field=v, degree=quad_degree)
        rep.Eloc_pm1 = np.empty(nt)
        for k in range(nt):
            loc = local_best(v, p - 1, mesh, k, policy=pol)
            # degree p-1 errors keep their own h/(p) divergence weight
            rep.Eloc_pm1[k] = loc["E_loc"]
    return rep


def optimality_check(v, p, mesh, sigma, *, n_directions=10, seed=0, quad_degree=None):
    """First-order optimality of a global minimizer along feasible directions.

    Draws random conforming fields, projects them onto the divergence-free
    constraint manifold with the same mass matrix, and returns the largest
    normalized inner product (v - sigma, direction); at the minimizer it
    vanishes.
    """
    from .projector import random_conforming_field

    policy = QuadPolicy(p, field=v, degree=quad_degree)
    space = rtn_space(mesh, p)
    rng = np.random.default_rng(seed)
    worst = 0.0
    vnorm = np.sqrt(
        sum(
            space.elements[k].norm_sq(
                v.eval(space.elements[k].quad_points(policy.element_rules(space.elements[k], key=("tri", k))[0]), elem=k),
                policy.element_rules(space.elements[k], key=("tri", k))[0],
            )
            for k in range(mesh.num_triangles)
        )
    )
    for i in range(n_directions):
        w = random_conforming_field(mesh, p, seed=int(rng.integers(1 << 31)))
        # project onto div-free subspace elementwise via the global saddle
        wdir = _divfree_projection(w, mesh, p)
        inner = 0.0
        wnorm2 = 0.0
        for k in range(mesh.num_triangles):
            el = space.elements[k]
            tri, _, _ = policy.element_rules(el, key=("tri", k))
            pts = el.quad_points(tri)
            diff = v.eval(pts, elem=k) - sigma.eval(pts, elem=k)
            wv = wdir.eval(pts, elem=k)
            w_q = tri.weights * el.detB if hasattr(tri, "weights") else tri[1]
            inner += float(np.sum(w_q * np.einsum("qd,qd->q", diff, wv)))
            wnorm2 += el.norm_sq(wv, tri)
        worst = max(worst, abs(inner) / max(vnorm * np.sqrt(wnorm2), 1e-300))
    return worst


def _divfree_projection(w: ConformingRTNField, mesh, p) -> ConformingRTNField:
    """Mass-orthogonal projection of a conforming field onto div-free members."""
    space = rtn_space(mesh, p)
    M, B, fidx = space.conforming_blocks()
    rhs = np.zeros(space.ndof)
    for k, el in enumerate(space.elements):
        dofmap = space.element_dof_map(k)
        rhs[dofmap] += el.M @ w.dofs[dofmap]
    A = sp.bmat([[M, B.T], [B, None]], format="csc")
    b = np.concatenate([rhs[fidx], np.zeros(B.shape[0])])
    sol = SparseFactor(A).solve(b)
    out = ConformingRTNField(mesh, p)
    out.dofs[fidx] = sol[: len(fidx)]
    return out
