"""The commuting patch projector onto conforming RTN_p, and its report.

The projector runs in three steps: a divergence-constrained L2 fit on every
element, one constrained minimization per vertex patch, and the sum of the
patch fields: each triangle sums the fluxes of its three patches, and the
two sides of each edge are averaged (``RTNSpace.gather``), as in the global
solve.  Summing the patch divergence constraints telescopes (hat functions
partition unity), so the divergence of the result equals the broken L2
projection of div v to solver precision whenever the same quadrature rules
feed both sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

import numpy as np
import scipy.sparse as sp

from .elements import rtn_space
from .fields import FieldError
from .local_solve import (
    build_patch_problem,
    patch_data,
    patch_equilibrate,
    patch_layout,
    patch_stability_ratio,
    theta_field,
)
from .projections import BrokenRTNField, quadrature_self_check
from .quadpolicy import QuadGroup, QuadPolicy
from .quadrature import gauss01, quad_rule


class ConformingRTNField(BrokenRTNField):
    """Global RTN_p field with continuous normal trace, zero on Neumann edges:
    a broken field whose element rows are read from ``dofs`` through
    ``dof_map``.

    The dof vector stacks (p+1) dofs per edge (Neumann edge rows stay zero)
    followed by the per-element interior dofs.
    """

    def __init__(self, mesh, p, dofs=None):
        super().__init__(mesh, p, dofs)
        self.info = {}

    def _store(self, dofs):
        self.dofs = np.zeros(self.space.ndof) if dofs is None else np.asarray(dofs, float)

    def element_coeffs(self, tris):
        return self.dofs[self.space.dof_map[tris]]

    def _normal_traces(self, edges, side):
        """Normal traces v.n at 8 Gauss points of each edge, read from the
        triangle ``mesh.edge_tris[edges, side]``: (group of the points, values
        (n, 8))."""
        mesh = self.mesh
        t, w = gauss01(8)
        pts, w = mesh.edge_points(edges, t), np.outer(mesh.edge_length(edges), w)
        group = QuadGroup.at(mesh, mesh.edge_tris[edges, side], pts, w)
        return group, np.einsum("eqd,ed->eq", group.eval(self), mesh.edge_normal(edges))

    def jump_residual(self):
        """Largest interior-edge L2 norm of the normal-trace jump."""
        edges = self.mesh.interior_edges()
        if not len(edges):  # an empty group has no tables
            return 0.0
        group, v0 = self._normal_traces(edges, 0)
        _, v1 = self._normal_traces(edges, 1)
        return float(np.sqrt(np.max(group.norm_sq(v0 - v1))))


def random_conforming_field(mesh, p, seed=0) -> ConformingRTNField:
    """Seeded random member of conforming RTN_p with zero Neumann-edge dofs."""
    space = rtn_space(mesh, p)
    rng = np.random.default_rng(seed)
    dofs = rng.standard_normal(space.ndof)
    dofs[space.neumann_edge_dofs()] = 0.0
    return ConformingRTNField(mesh, p, dofs)


def check_field_compatibility(v, mesh):
    """Reject field/label combinations outside the no-flux constraint space.

    With Neumann edges present the field must have (numerically) vanishing
    normal trace there; with an all-Neumann boundary its divergence must have
    zero mean, which a divergence-free field has by declaration.  Discrete
    conforming samples satisfy both by construction.
    """
    if getattr(v, "is_discrete", False):
        return
    neumann = mesh.edges_with_label("neumann")
    if not neumann:
        return
    e = np.array(neumann)
    pts = mesh.edge_points(e, gauss01(8)[0])  # (n, 8, 2)
    vals = np.asarray(v.eval(pts.reshape(-1, 2)), float).reshape(pts.shape)
    worst = float(np.max(np.abs(np.einsum("eqd,ed->eq", vals, mesh.edge_normal(e)))))
    scale = float(np.max(np.abs(vals)))
    if worst > 1e-8 * max(scale, 1e-300):
        raise FieldError(
            f"field has nonzero normal trace on Neumann edges (|v.n| up to {worst:.2e}); "
            "it lies outside the constrained space for these boundary labels"
        )
    if not mesh.edges_with_label("dirichlet") and not getattr(v, "divergence_free", False):
        rule = quad_rule(12)
        pts = mesh.map_to_phys(rule.points)
        dv = np.asarray(v.eval_div(pts.reshape(-1, 2)), float).reshape(len(pts), -1)
        w = rule.weights * mesh.detB[:, None]
        total = float(np.sum(w * dv))
        mass = float(np.sum(w * np.abs(dv)))
        if abs(total) > 1e-8 * max(mass, 1e-300):
            raise FieldError(
                "divergence has nonzero mean on an all-Neumann boundary; "
                "the divergence constraint is infeasible"
            )


@dataclass
class ProjectorInfo:
    variant: str
    p: int
    commute_residual: float = np.nan  # relative, with a ||v||-based floor
    commute_abs: float = np.nan
    commute_scale: float = np.nan
    compat_defects: list = dfield(default_factory=list)
    stability_ratios: list = dfield(default_factory=list)
    warnings: list = dfield(default_factory=list)
    patch_system_size: int = 0  # unknowns of the largest patch multiplier system solved


def project_hdiv(
    v,
    p,
    mesh,
    *,
    variant="def31",
    quad_degree=None,
) -> ConformingRTNField:
    """Stable local commuting projection of v onto conforming RTN_p.

    variant 'def31' uses the degree-p elementwise fit and interpolated patch
    targets; 'def52' (p >= 1) runs the elementwise fit one degree lower,
    which trades accuracy for a degree-robust constant.  The result carries
    a ProjectorInfo under ``.info['projector']``; ``projector_report``
    also fills its stability ratios.
    """
    return _project_hdiv(QuadPolicy(p, mesh, v, quad_degree), variant, measure_stability=False)


def _project_hdiv(policy, variant, measure_stability):
    """``project_hdiv`` on the rules of ``policy``, whose groups and samples
    of v stay cached for the caller."""
    v, p, mesh = policy.field, policy.p, policy.mesh
    check_field_compatibility(v, mesh)
    theta = theta_field(policy, variant)
    info = ProjectorInfo(variant=variant, p=p)
    sigma = ConformingRTNField(mesh, p)
    space = sigma.space
    data = patch_data(theta, policy)
    info.compat_defects = data.defect.tolist()
    # the fluxes of patch a on each of its triangles, at the local index of a:
    # every (triangle, local vertex) pair belongs to one patch
    rows, ratios = np.zeros((mesh.num_triangles, 3, space.ref.dim)), []
    layout = patch_layout(mesh, p)
    for chunk in layout.chunks:
        problem = build_patch_problem(layout, chunk, data)
        x, _ = patch_equilibrate(problem)
        rows[layout.tris[chunk.pairs], layout.local[chunk.pairs]] = x
        if measure_stability:
            ratios += zip(layout.verts[chunk.patches], patch_stability_ratio(problem, x, mesh))
    info.patch_system_size = max(g.nl for g in layout.signatures)
    # a patch pins its flux on the edge opposite its vertex, edge z of a
    # triangle lying opposite its local vertex z
    for z in range(3):
        rows[:, z, z * (p + 1):(z + 1) * (p + 1)] = 0.0
    sigma.dofs = space.gather(rows.sum(axis=1))
    info.stability_ratios = [ratio for _, ratio in sorted(ratios)]
    # commuting residual against the broken projection of div v, the
    # moments the policy keeps (def31's fit read them too); for
    # divergence-free data the relative denominator falls back to the
    # dimensionally matching scale ||v|| (p+1) / h_max
    pi_div = policy.div_moments()
    if policy.self_check:
        quadrature_self_check(pi_div, lambda g: g.eval(v, div=True), policy, info.warnings)
    num = np.linalg.norm(sigma.div().coeffs - pi_div)
    den = np.linalg.norm(pi_div)
    floor = theta.norm() * (p + 1) / mesh.h_max
    info.commute_abs = num
    info.commute_scale = max(den, floor, 1e-300)
    info.commute_residual = num / info.commute_scale
    sigma.info["projector"] = info
    sigma.info["theta"] = theta
    return sigma


def projector_report(v, p, mesh, *, variant="def31", quad_degree=None):
    """Per-element approximation and stability records for the projector.

    For each element: the weighted error of the projection, the sum of
    local-best errors over the vertex-patch neighborhood, their ratio (the
    measured equivalence constant), and the global stability quotients.
    Projection and measurements share one quadrature policy,
    ``QuadPolicy(p, mesh, v, quad_degree)``.
    """
    return _projector_report(QuadPolicy(p, mesh, v, quad_degree), variant)


def _projector_report(policy, variant):
    """``projector_report`` on the samples of ``policy``."""
    from .best_approx import _local_fits

    p, mesh = policy.p, policy.mesh
    sigma = _project_hdiv(policy, variant, measure_stability=True)
    loc = _local_fits(policy)
    hscale = mesh.h / (p + 1)
    nt = mesh.num_triangles
    err2, derr2, pk2, vnorm2 = np.zeros((4, nt))
    groups = policy.groups()
    # a divergence-free field holds no divergence samples: its error is -div sigma
    divs = [0.0] * len(groups) if policy.divergence_free else policy.values(div=True)
    for g, vvals, dvvals in zip(groups, policy.values(), divs):
        svals = g.eval(sigma)
        err2[g.tris] = g.norm_sq(vvals - svals)
        derr2[g.tris] = hscale[g.tris] ** 2 * g.norm_sq(dvvals - g.eval(sigma, div=True))
        pk2[g.tris] = g.norm_sq(svals)
        vnorm2[g.tris] = g.norm_sq(vvals)
    # the neighborhood of K, the triangles sharing a vertex with it, is the
    # pattern of C C^T for the triangle-vertex incidence C
    rows = np.arange(0, 3 * nt + 1, 3)
    C = sp.csr_matrix((np.ones(3 * nt), mesh.triangles.ravel(), rows), shape=(nt, mesh.num_vertices))
    near = C @ C.T
    near.data[:] = 1.0
    lhs2 = err2 + derr2
    rhs2 = near @ loc["E_loc"] ** 2
    stab_rhs2 = near @ (vnorm2 + loc["div_part"] ** 2)
    columns = {
        "element": np.arange(nt),
        "err_l2": np.sqrt(err2),
        "err_div_weighted": np.sqrt(derr2),
        "lhs_sq": lhs2,
        "neighborhood_locbest_sq": rhs2,
        "C_approx": np.divide(lhs2, rhs2, out=np.where(lhs2 < 1e-24, 0.0, np.inf), where=rhs2 > 0),
        "stab_lhs_sq": pk2,
        "stab_rhs_sq": stab_rhs2,
        "C_stab": np.divide(pk2, stab_rhs2, out=np.zeros(nt), where=stab_rhs2 > 0),
    }
    records = [dict(zip(columns, row)) for row in zip(*(c.tolist() for c in columns.values()))]
    info = sigma.info["projector"]
    return {
        "records": records,
        "sigma": sigma,
        "max_C_approx": float(columns["C_approx"].max()),
        "max_C_stab": float(columns["C_stab"].max()),
        "stability_ratios": info.stability_ratios,
        "commute_residual": info.commute_residual,
        "warnings": info.warnings,
    }
