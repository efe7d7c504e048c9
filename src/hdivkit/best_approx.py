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
from .linsolve import SparseFactor, spd_solve_stacked
from .local_solve import elem_constrained_min
from .projector import ConformingRTNField, check_field_compatibility
from .quadpolicy import QuadPolicy


def _local_fits(v, p, mesh, policy, tris=None):
    """Unconstrained local best approximations on the elements ``tris``
    (default: all), batched over the policy's quadrature groups: stacked
    solves of the element mass matrices.  Arrays in the order of ``tris``."""
    space = rtn_space(mesh, p)
    tris = np.arange(mesh.num_triangles) if tris is None else np.asarray(tris, int)
    pos = np.empty(mesh.num_triangles, int)
    pos[tris] = np.arange(len(tris))
    l2 = np.empty(len(tris))
    div = np.empty(len(tris))
    coeffs = np.empty((len(tris), space.ref.dim))
    for g, vvals, dvvals in policy.samples(v, mesh, tris):
        c = spd_solve_stacked(space.M[g.tris], space.moments(g, vvals))
        r = pos[g.tris]
        coeffs[r] = c
        l2[r] = np.sqrt(g.norm_sq(vvals - space.values(g, c)))
        div[r] = mesh.h[g.tris] / (p + 1) * np.sqrt(space.oscillation_sq(g, dvvals))
    return {"l2_part": l2, "div_part": div, "E_loc": np.sqrt(l2**2 + div**2), "coeffs": coeffs}


def local_best(v, p, mesh, k, *, policy=None, quad_degree=None):
    """Unconstrained local best approximation on element k.

    Returns dict with ``l2_part`` (distance to RTN_p(K)), ``div_part`` (the
    weighted divergence oscillation) and ``E_loc`` (their square sum root).
    """
    if policy is None:
        policy = QuadPolicy(p, field=v, degree=quad_degree)
    fit = _local_fits(v, p, mesh, policy, [k])
    return {key: val[0] if key == "coeffs" else float(val[0]) for key, val in fit.items()}


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
    l2 = np.sqrt(el.norm_sq(vvals - el.eval_coeffs(theta, pts), tri))
    proj = el.scalar_values(el.scalar_moments(dvvals, tri), pts)
    div_part = el.h / (p + 1) * np.sqrt(el.norm_sq(dvvals - proj, tri))
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
    M, B, fidx = space.conforming_blocks()
    rhs = np.zeros(space.ndof)
    g = np.zeros((nt, space.sdim))
    for grp, vvals, dvvals in policy.samples(v, mesh):
        rhs += np.bincount(
            space.dof_map[grp.tris].ravel(), space.moments(grp, vvals).ravel(), space.ndof
        )
        g[grp.tris] = space.scalar_moments(grp, dvvals)
    g = g.ravel()
    rhs = rhs[fidx]
    if mesh.edges_with_label("dirichlet"):
        A = sp.bmat([[M, B.T], [B, None]], format="csc")
        b = np.concatenate([rhs, g])
    else:  # pure Neumann: pin the constant multiplier mode by a bordering column
        kernel = np.zeros((nt, space.sdim))
        kernel[:, 0] = np.sqrt(mesh.area)
        kernel = kernel.ravel()
        g = g - kernel * (kernel @ g) / (kernel @ kernel)
        kcol = sp.csr_matrix(kernel[:, None])
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
    for grp, vvals, dvvals in policy.samples(v, mesh):
        l2_sq += grp.norm_sq(vvals - grp.eval(sigma)).sum()
        hscale = mesh.h[grp.tris] / (p + 1)
        div_sq += np.sum(hscale**2 * space.oscillation_sq(grp, dvvals))
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
    loc = _local_fits(v, p, mesh, policy)
    rep.Eloc_l2, rep.Eloc_div, rep.Eloc = loc["l2_part"], loc["div_part"], loc["E_loc"]
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
        # degree p-1 errors keep their own h/(p) divergence weight
        pol = QuadPolicy(p - 1, field=v, degree=quad_degree)
        rep.Eloc_pm1 = _local_fits(v, p - 1, mesh, pol)["E_loc"]
    return rep
