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


def _local_fits(policy, constrained=False):
    """Local best approximations of the policy's field on every element:
    element mass solves, or element KKT solves with the divergence
    constraint (``constrained_fit``), of the whole mesh in one
    ``linsolve.element_solve`` call, from the moments the policy keeps, and
    their errors over its quadrature groups.  Arrays in element order."""
    space = rtn_space(policy.mesh, policy.p)
    if constrained:
        coeffs = constrained_fit(policy)
    else:
        f = policy.moments()[:, :, None]
        coeffs = element_solve(space, f, np.empty((len(f), 0, 1)), np.arange(len(f)))[0][:, :, 0]
    l2 = np.zeros(policy.mesh.num_triangles)
    for g, vvals in zip(policy.groups(), policy.values()):
        l2[g.tris] = np.sqrt(g.norm_sq(vvals - space.values(g, coeffs[g.tris])))
    div = _div_parts(policy)
    return {"l2_part": l2, "div_part": div, "E_loc": np.sqrt(l2**2 + div**2), "coeffs": coeffs}


def _div_parts(policy):
    """The weighted divergence oscillation (h_K / (p+1)) ||div v - Pi_p
    div v||_K of every element, Pi_p div v from the kept moments; zeros for
    a divergence-free field."""
    mesh, p = policy.mesh, policy.p
    div = np.zeros(mesh.num_triangles)
    if not policy.divergence_free:
        pi_div = policy.div_moments()
        for g, dvvals in zip(policy.groups(), policy.values(div=True)):
            osc = g.norm_sq(dvvals - scalar_values(mesh, p, g, pi_div[g.tris]))
            div[g.tris] = mesh.h[g.tris] / (p + 1) * np.sqrt(osc)
    return div


def _element_row(fit, mesh, k):
    """Row k of the whole-mesh ``fit``, the coefficients as an array."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 0 <= k < mesh.num_triangles:
        raise ValueError(f"element k={k!r} is not an integer in 0..{mesh.num_triangles - 1} "
                         f"({mesh.num_triangles} triangles)")
    return {key: val[k] if key == "coeffs" else float(val[k]) for key, val in fit.items()}


def local_best(v, p, mesh, k, *, quad_degree=None):
    """Unconstrained local best approximation on element k: the whole mesh
    is fitted on the policy's samples and row k returned, so it equals row k
    of ``error_report`` bit for bit.

    Returns dict with ``l2_part`` (distance to RTN_p(K)), ``div_part`` (the
    weighted divergence oscillation), ``E_loc`` (their square sum root) and
    ``coeffs``.  Raises ValueError unless k is an element index.
    """
    return _element_row(_local_fits(QuadPolicy(p, mesh, v, quad_degree, self_check=False)), mesh, k)


def local_best_constrained(v, p, mesh, k, *, quad_degree=None):
    """Divergence-constrained local best approximation on element k: row k
    of the whole-mesh constrained fits, with ``E_loc_c`` in place of
    ``E_loc``."""
    row = _element_row(_local_fits(QuadPolicy(p, mesh, v, quad_degree, self_check=False), constrained=True), mesh, k)
    row["E_loc_c"] = row.pop("E_loc")
    return row


def _global_fit(policy, div_part):
    """The global minimizer on the moments of v and div v the policy keeps
    (``linsolve.hybrid_saddle_solve``), its errors and the solve's ``info``:
    the L2 part on the policy's samples, and the divergence part from the
    local ones ``div_part``, as the divergence constraint fixes div sigma
    elementwise."""
    check_field_compatibility(policy)
    space = rtn_space(policy.mesh, policy.p)
    dofs, _, info = hybrid_saddle_solve(space, policy.moments(), policy.div_moments())
    sigma = ConformingRTNField(policy.mesh, policy.p, dofs)
    samples = zip(policy.groups(), policy.values())
    l2_sq = sum(grp.norm_sq(vvals - grp.eval(sigma)).sum() for grp, vvals in samples)
    div_sq = np.sum(div_part**2)
    return sigma, {"Eglob_l2": np.sqrt(l2_sq), "Eglob_div": np.sqrt(div_sq), "Eglob": np.sqrt(l2_sq + div_sq)}, info


def global_best(v, p, mesh, *, quad_degree=None):
    """Global best approximation under the divergence constraint.

    Conforming mass against the broken multiplier space, solved by
    ``linsolve.hybrid_saddle_solve``.  Returns the error split, the minimizer
    and the solve's ``info`` entries (KKT residual of the conforming system,
    divergence defect, size and L+U fill of the factorized system).
    """
    policy = QuadPolicy(p, mesh, v, quad_degree, self_check=False)
    sigma, errors, info = _global_fit(policy, _div_parts(policy))
    return {**errors, "minimizer": sigma, **info}


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
    def exact_zero(self):
        """E_glob and (sum E_loc^2)^(1/2) both below 1e-9 ||v||: v lies in
        the space up to roundoff, and the errors' ratios are noise."""
        tiny = 1e-9 * max(self.metadata["v_norm"], 1e-30)
        return self.Eglob < tiny and np.sqrt(self.sum_Eloc_sq) < tiny

    @property
    def ratio_glob_over_loc(self):
        """E_glob^2 / sum E_loc^2; 0.0 for an exact zero."""
        return 0.0 if self.exact_zero else self.Eglob**2 / self.sum_Eloc_sq

    @property
    def ratio_loc_over_glob(self):
        """sum E_loc^2 / E_glob^2; 0.0 for an exact zero."""
        return 0.0 if self.exact_zero else self.sum_Eloc_sq / self.Eglob**2


def error_report(v, p, mesh, *, quad_degree=None, include_constrained=False, include_pm1=False) -> ErrorReport:
    """Full local/global error evaluation on ``QuadPolicy(p, mesh, v, quad_degree)``."""
    return _error_report(QuadPolicy(p, mesh, v, quad_degree, self_check=False), include_constrained, include_pm1)


def _error_report(policy, include_constrained=False, include_pm1=False):
    """``error_report`` on the samples of ``policy``: a caller that hands
    one policy to several reports samples v once."""
    p, mesh = policy.p, policy.mesh
    rep = ErrorReport(p=p)
    loc = _local_fits(policy)
    rep.Eloc_l2, rep.Eloc_div, rep.Eloc = loc["l2_part"], loc["div_part"], loc["E_loc"]
    sigma, errors, info = _global_fit(policy, rep.Eloc_div)
    rep.Eglob_l2, rep.Eglob_div, rep.Eglob = errors.values()
    rep.metadata.update({key: info[key] for key in ("kkt_residual", "system_size", "nnz_lu")})
    rep.metadata["minimizer"] = sigma
    rep.metadata["quad_degree"] = policy.base_degree
    samples = zip(policy.groups(), policy.values())
    rep.metadata["v_norm"] = np.sqrt(sum(g.norm_sq(vvals).sum() for g, vvals in samples))
    if include_constrained:
        rep.Eloc_constrained = _local_fits(policy, constrained=True)["E_loc"]
    if include_pm1 and p >= 1:
        # degree p-1 errors keep their own h/(p) divergence weight
        rep.Eloc_pm1 = _local_fits(QuadPolicy(p - 1, mesh, policy.field, policy.degree, self_check=False))["E_loc"]
    return rep
