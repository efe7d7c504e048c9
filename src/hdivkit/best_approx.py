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

from .elements import rtn_space, scalar_values
from .linsolve import element_solve, hybrid_saddle_solve
from .local_solve import constrained_fit
from .projector import ConformingRTNField, check_field_compatibility
from .quadpolicy import QuadPolicy


def _local_fits(v, p, mesh, policy, constrained=False):
    """Local best approximations on every element: element mass solves, or
    element KKT solves with the divergence constraint (``constrained_fit``),
    of the whole mesh in one ``linsolve.element_solve`` call, from the
    moments the policy keeps, and their errors over its quadrature groups.
    Arrays in element order."""
    space = rtn_space(mesh, p)
    if constrained:
        coeffs = constrained_fit(space, v, policy)
    else:
        f = policy.moments(space, v)[:, :, None]
        coeffs = element_solve(space, f, np.empty((len(f), 0, 1)), np.arange(len(f)))[0][:, :, 0]
    l2, div = np.zeros((2, mesh.num_triangles))
    for g, vvals in zip(policy.groups(mesh), policy.values(v, mesh)):
        l2[g.tris] = np.sqrt(g.norm_sq(vvals - space.values(g, coeffs[g.tris])))
    if not policy.divergence_free:
        # the oscillation ||div v - Pi_p div v||_K, Pi_p div v from the kept moments
        pi_div = policy.div_moments(v, mesh, p)
        for g, dvvals in zip(policy.groups(mesh), policy.values(v, mesh, div=True)):
            osc = g.norm_sq(dvvals - scalar_values(mesh, p, g, pi_div[g.tris]))
            div[g.tris] = mesh.h[g.tris] / (p + 1) * np.sqrt(osc)
    return {"l2_part": l2, "div_part": div, "E_loc": np.sqrt(l2**2 + div**2), "coeffs": coeffs}


def _element_row(fit, mesh, k):
    """Row k of the whole-mesh ``fit``, the coefficients as an array."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 0 <= k < mesh.num_triangles:
        raise ValueError(f"element k={k!r} is not an integer in 0..{mesh.num_triangles - 1} "
                         f"({mesh.num_triangles} triangles)")
    return {key: val[k] if key == "coeffs" else float(val[k]) for key, val in fit.items()}


def local_best(v, p, mesh, k, *, policy=None, quad_degree=None):
    """Unconstrained local best approximation on element k: the whole mesh
    is fitted on the policy's samples and row k returned, so it equals row k
    of ``error_report`` bit for bit.

    Returns dict with ``l2_part`` (distance to RTN_p(K)), ``div_part`` (the
    weighted divergence oscillation), ``E_loc`` (their square sum root) and
    ``coeffs``.  Raises ValueError unless k is an element index.
    """
    if policy is None:
        policy = QuadPolicy(p, field=v, degree=quad_degree)
    return _element_row(_local_fits(v, p, mesh, policy), mesh, k)


def local_best_constrained(v, p, mesh, k, *, policy=None, quad_degree=None):
    """Divergence-constrained local best approximation on element k: row k
    of the whole-mesh constrained fits, with ``E_loc_c`` in place of
    ``E_loc``."""
    if policy is None:
        policy = QuadPolicy(p, field=v, degree=quad_degree)
    row = _element_row(_local_fits(v, p, mesh, policy, constrained=True), mesh, k)
    row["E_loc_c"] = row.pop("E_loc")
    return row


def _global_fit(v, p, mesh, policy):
    """The global minimizer on the moments of v and div v the policy keeps
    (``linsolve.hybrid_saddle_solve``), its squared L2 error on its samples
    and the solve's ``info``."""
    check_field_compatibility(v, mesh)
    space = rtn_space(mesh, p)
    dofs, _, info = hybrid_saddle_solve(space, policy.moments(space, v), policy.div_moments(v, mesh, p))
    sigma = ConformingRTNField(mesh, p, dofs)
    samples = zip(policy.groups(mesh), policy.values(v, mesh))
    l2_sq = sum(grp.norm_sq(vvals - grp.eval(sigma)).sum() for grp, vvals in samples)
    return sigma, l2_sq, info


def global_best(v, p, mesh, *, policy=None, quad_degree=None):
    """Global best approximation under the divergence constraint.

    Conforming mass against the broken multiplier space, solved by
    ``linsolve.hybrid_saddle_solve``.  Returns the error split, the minimizer
    and the solve's ``info`` entries (KKT residual of the conforming system,
    divergence defect, size and L+U fill of the factorized system).
    """
    if policy is None:
        policy = QuadPolicy(p, field=v, degree=quad_degree)
    sigma, l2_sq, info = _global_fit(v, p, mesh, policy)
    div_sq = 0.0
    if not policy.divergence_free:
        # the oscillation from the moments the solve read, as in ``_local_fits``
        pi_div = policy.div_moments(v, mesh, p)
        for grp, dvvals in zip(policy.groups(mesh), policy.values(v, mesh, div=True)):
            osc = grp.norm_sq(dvvals - scalar_values(mesh, p, grp, pi_div[grp.tris]))
            div_sq += np.sum((mesh.h[grp.tris] / (p + 1)) ** 2 * osc)
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
    policy=None,
    quad_degree=None,
    include_constrained=False,
    include_pm1=False,
) -> ErrorReport:
    """Full local/global error evaluation with one shared quadrature policy:
    ``policy``, or a fresh ``QuadPolicy(p, v, quad_degree)``.  A caller that
    passes one policy to several reports samples v once."""
    if policy is None:
        policy = QuadPolicy(p, field=v, degree=quad_degree)
    rep = ErrorReport(p=p)
    loc = _local_fits(v, p, mesh, policy)
    rep.Eloc_l2, rep.Eloc_div, rep.Eloc = loc["l2_part"], loc["div_part"], loc["E_loc"]
    # the divergence constraint fixes div sigma elementwise, so the global
    # divergence part is the local one
    sigma, l2_sq, info = _global_fit(v, p, mesh, policy)
    div_sq = np.sum(rep.Eloc_div**2)
    rep.Eglob_l2, rep.Eglob_div, rep.Eglob = np.sqrt(l2_sq), np.sqrt(div_sq), np.sqrt(l2_sq + div_sq)
    rep.metadata.update({key: info[key] for key in ("kkt_residual", "system_size", "nnz_lu")})
    rep.metadata["minimizer"] = sigma
    rep.metadata["quad_degree"] = policy.base_degree
    samples = zip(policy.groups(mesh), policy.values(v, mesh))
    rep.metadata["v_norm"] = np.sqrt(sum(g.norm_sq(vvals).sum() for g, vvals in samples))
    if include_constrained:
        rep.Eloc_constrained = _local_fits(v, p, mesh, policy, constrained=True)["E_loc"]
    if include_pm1 and p >= 1:
        # degree p-1 errors keep their own h/(p) divergence weight
        pol = QuadPolicy(p - 1, field=v, degree=quad_degree)
        rep.Eloc_pm1 = _local_fits(v, p - 1, mesh, pol)["E_loc"]
    return rep
