"""Local- and global-best approximation errors in the weighted H(div) norm.

The elementwise error combines the unconstrained L2 distance to RTN_p(K)
with the scaled divergence oscillation (h_K / (p+1)) ||div v - Pi_p div v||;
the global error minimizes over the conforming space under the divergence
constraint, so its divergence part is identical to the local one by
construction.  Both use the same quadrature rules so measured equivalence
ratios are quadrature-consistent.  The global minimization is solved
hybridized, in the broken form of the equivalence proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

import numpy as np

from .elements import rtn_space
from .linsolve import element_solve, hybrid_saddle_solve
from .local_solve import constrained_fit
from .projector import ConformingRTNField, check_field_compatibility
from .quadpolicy import QuadPolicy


def _local_fits(v, p, mesh, policy, tris=None, constrained=False):
    """Local best approximations on the elements ``tris`` (default: all),
    batched over the policy's quadrature groups: element mass solves, or
    element KKT solves with the divergence constraint, by
    ``linsolve.element_solve``.  Arrays in the order of ``tris``."""
    space = rtn_space(mesh, p)
    tris = np.arange(mesh.num_triangles) if tris is None else np.asarray(tris, int)
    pos = np.empty(mesh.num_triangles, int)
    pos[tris] = np.arange(len(tris))
    l2 = np.empty(len(tris))
    div = np.empty(len(tris))
    coeffs = np.empty((len(tris), space.ref.dim))
    for g, vvals, dvvals in policy.samples(v, mesh, tris):
        if constrained:
            c = constrained_fit(space, g, vvals, dvvals)
        else:
            f = space.moments(g, vvals)[:, :, None]
            c = element_solve(space, f, np.empty((len(f), 0, 1)), g.tris)[0][:, :, 0]
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
    """Divergence-constrained local best approximation on element k: the
    one-element slice of the stacked constrained fits."""
    if policy is None:
        policy = QuadPolicy(p, field=v, degree=quad_degree)
    fit = _local_fits(v, p, mesh, policy, [k], constrained=True)
    return {
        "l2_part": float(fit["l2_part"][0]),
        "div_part": float(fit["div_part"][0]),
        "E_loc_c": float(fit["E_loc"][0]),
        "coeffs": fit["coeffs"][0],
    }


def global_best(v, p, mesh, *, policy=None, quad_degree=None):
    """Global best approximation under the divergence constraint.

    Conforming mass against the broken multiplier space, solved by
    ``linsolve.hybrid_saddle_solve``.  Returns the error split, the minimizer
    and the solve's ``info`` entries (KKT residual of the conforming system,
    divergence defect, size and L+U fill of the factorized system).
    """
    check_field_compatibility(v, mesh)
    space = rtn_space(mesh, p)
    if policy is None:
        policy = QuadPolicy(p, field=v, degree=quad_degree)
    rhs = np.zeros(space.dof_map.shape)
    g = np.zeros((mesh.num_triangles, space.sdim))
    for grp, vvals, dvvals in policy.samples(v, mesh):
        rhs[grp.tris] = space.moments(grp, vvals)
        g[grp.tris] = space.scalar_moments(grp, dvvals)
    dofs, _, info = hybrid_saddle_solve(space, rhs, g)
    sigma = ConformingRTNField(mesh, p, dofs)
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
        **info,
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
    rep = ErrorReport(p=p, field_name=field_name or getattr(v, "name", ""), mesh_id=mesh_id)
    loc = _local_fits(v, p, mesh, policy)
    rep.Eloc_l2, rep.Eloc_div, rep.Eloc = loc["l2_part"], loc["div_part"], loc["E_loc"]
    glob = global_best(v, p, mesh, policy=policy)
    rep.Eglob_l2 = glob["Eglob_l2"]
    rep.Eglob_div = glob["Eglob_div"]
    rep.Eglob = glob["Eglob"]
    rep.metadata.update({key: glob[key] for key in ("kkt_residual", "system_size", "nnz_lu")})
    rep.metadata["minimizer"] = glob["minimizer"]
    rep.metadata["quad_degree"] = policy.base_degree
    if include_constrained:
        rep.Eloc_constrained = _local_fits(v, p, mesh, policy, constrained=True)["E_loc"]
    if include_pm1 and p >= 1:
        # degree p-1 errors keep their own h/(p) divergence weight
        pol = QuadPolicy(p - 1, field=v, degree=quad_degree)
        rep.Eloc_pm1 = _local_fits(v, p - 1, mesh, pol)["E_loc"]
    return rep
