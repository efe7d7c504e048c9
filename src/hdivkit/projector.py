"""The commuting patch projector onto conforming RTN_p, and its report.

The projector runs in three steps: a divergence-constrained L2 fit on every
element, one constrained minimization per vertex patch, and a deterministic
sum of the zero-extended patch fields in ascending vertex order.  Summing the
patch divergence constraints telescopes (hat functions partition unity), so
the divergence of the result equals the broken L2 projection of div v to
solver precision whenever the same quadrature rules feed both sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

import numpy as np

from .elements import rtn_space
from .fields import FieldError
from .local_solve import (
    build_patch_problem,
    patch_data,
    patch_equilibrate,
    patch_stability_ratio,
    theta_field,
)
from .mesh import vertex_patches
from .projections import BrokenRTNField, ScalarPWField, project_scalar
from .quadpolicy import QuadPolicy
from .quadrature import gauss01, quad_rule


class ConformingRTNField:
    """Global RTN_p field with continuous normal trace, zero on Neumann edges.

    The dof vector stacks (p+1) dofs per edge (Neumann edge rows stay zero)
    followed by the per-element interior dofs.
    """

    def __init__(self, mesh, p, dofs=None):
        self.mesh = mesh
        self.p = p
        self.space = rtn_space(mesh, p)
        self.dofs = np.zeros(self.space.ndof) if dofs is None else np.asarray(dofs, float)
        self.poly_degree = p + 1
        self.is_discrete = True
        self.singularity = None
        self.divergence_free = False
        self.info = {}

    def element_coeffs(self, tris):
        """Element coefficient rows of a triangle or an array of triangles."""
        return self.dofs[self.space.dof_map[tris]]

    def to_broken(self) -> BrokenRTNField:
        return BrokenRTNField(self.mesh, self.p, self.dofs[self.space.dof_map])

    def eval(self, pts, elem=None):
        if elem is None:
            raise ValueError("conforming fields are evaluated elementwise")
        return self.space.elements[elem].eval_coeffs(self.element_coeffs(elem), pts)

    def eval_div(self, pts, elem=None):
        if elem is None:
            raise ValueError("conforming fields are evaluated elementwise")
        return self.space.elements[elem].eval_div_coeffs(self.element_coeffs(elem), pts)

    eval_element = eval

    def as_field(self):
        return self

    def div(self) -> ScalarPWField:
        return self.to_broken().div()

    def norm(self):
        return self.to_broken().norm()

    def jump_residual(self, npts=8):
        """Largest interior-edge L2 norm of the normal-trace jump."""
        mesh = self.mesh
        worst = 0.0
        t, w = gauss01(npts)
        for e in mesh.interior_edges():
            a, b = mesh.edges[e]
            pts = mesh.vertices[a][None, :] + t[:, None] * mesh.edge_vector(e)[None, :]
            n = mesh.edge_normal(e)
            k0, k1 = mesh.edge_tris[e]
            v0 = self.eval(pts, elem=int(k0)) @ n
            v1 = self.eval(pts, elem=int(k1)) @ n
            L = mesh.edge_length(e)
            worst = max(worst, float(np.sqrt(np.sum(w * L * (v0 - v1) ** 2))))
        return worst

    def neumann_trace_residual(self, npts=8):
        """Largest Neumann-edge L2 norm of the normal trace."""
        mesh = self.mesh
        worst = 0.0
        t, w = gauss01(npts)
        for e in mesh.edges_with_label("neumann"):
            a, b = mesh.edges[e]
            pts = mesh.vertices[a][None, :] + t[:, None] * mesh.edge_vector(e)[None, :]
            n = mesh.edge_normal(e)
            (k0,) = [k for k in mesh.edge_tris[e] if k != -1]
            v0 = self.eval(pts, elem=int(k0)) @ n
            L = mesh.edge_length(e)
            worst = max(worst, float(np.sqrt(np.sum(w * L * v0**2))))
        return worst


def random_conforming_field(mesh, p, seed=0, scale=1.0) -> ConformingRTNField:
    """Seeded random member of conforming RTN_p with zero Neumann-edge dofs."""
    space = rtn_space(mesh, p)
    rng = np.random.default_rng(seed)
    dofs = scale * rng.standard_normal(space.ndof)
    dofs[space.neumann_edge_dofs()] = 0.0
    return ConformingRTNField(mesh, p, dofs)


def check_field_compatibility(v, mesh, *, tol=1e-8):
    """Reject field/label combinations outside the no-flux constraint space.

    With Neumann edges present the field must have (numerically) vanishing
    normal trace there; with an all-Neumann boundary its divergence must have
    zero mean.  Discrete conforming samples satisfy both by construction.
    """
    if getattr(v, "is_discrete", False):
        return
    neumann = mesh.edges_with_label("neumann")
    if not neumann:
        return
    t, w = gauss01(8)
    scale = 0.0
    worst = 0.0
    for e in neumann:
        a, b = mesh.edges[e]
        pts = mesh.vertices[a][None, :] + t[:, None] * mesh.edge_vector(e)[None, :]
        n = mesh.edge_normal(e)
        vals = v.eval(pts)
        worst = max(worst, float(np.max(np.abs(vals @ n))))
        scale = max(scale, float(np.max(np.abs(vals))))
    if worst > tol * max(scale, 1e-300):
        raise FieldError(
            f"field has nonzero normal trace on Neumann edges (|v.n| up to {worst:.2e}); "
            "it lies outside the constrained space for these boundary labels"
        )
    if not mesh.edges_with_label("dirichlet"):
        rule = quad_rule(12)
        pts = mesh.map_to_phys(rule.points)
        dv = np.asarray(v.eval_div(pts.reshape(-1, 2)), float).reshape(len(pts), -1)
        w = rule.weights * mesh.detB[:, None]
        total = float(np.sum(w * dv))
        mass = float(np.sum(w * np.abs(dv)))
        if abs(total) > tol * max(mass, 1e-300):
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


def project_hdiv(
    v,
    p,
    mesh,
    *,
    variant="def31",
    quad_degree=None,
    self_check=True,
    measure_stability=False,
) -> ConformingRTNField:
    """Stable local commuting projection of v onto conforming RTN_p.

    variant 'def31' uses the degree-p elementwise fit and interpolated patch
    targets; 'def52' (p >= 1) runs the elementwise fit one degree lower,
    which trades accuracy for a degree-robust constant.  The result carries
    a ProjectorInfo under ``.info['projector']``.
    """
    if variant not in ("def31", "def52"):
        raise ValueError(f"unknown variant {variant!r}")
    check_field_compatibility(v, mesh)
    policy = QuadPolicy(p, field=v, degree=quad_degree, self_check=self_check)
    if variant == "def31":
        theta_policy = policy
    else:
        theta_policy = QuadPolicy(p - 1, field=v, degree=quad_degree, self_check=self_check)
    theta = theta_field(v, p, mesh, variant=variant, policy=theta_policy)
    info = ProjectorInfo(variant=variant, p=p)
    sigma = ConformingRTNField(mesh, p)
    space = sigma.space
    data = patch_data(theta, v, p, mesh, policy=policy)
    for patch in vertex_patches(mesh):
        problem = build_patch_problem(
            patch, theta, v, p, mesh, variant=variant, policy=policy, data=data
        )
        s, _ = patch_equilibrate(problem)
        info.compat_defects.append(problem.compat_defect)
        if measure_stability:
            info.stability_ratios.append(patch_stability_ratio(problem, s, mesh))
        sigma.dofs[problem.pspace.global_dof_map(space)] += s
    # commuting residual against the broken projection of div v; for
    # divergence-free data the relative denominator falls back to the
    # dimensionally matching scale ||v|| (p+1) / h_max
    div_sigma = sigma.div()
    pi_div = project_scalar(
        _DivEvaluator(v), p, mesh, policy=policy, warnings=info.warnings
    )
    num = np.linalg.norm(div_sigma.coeffs - pi_div.coeffs)
    den = np.linalg.norm(pi_div.coeffs)
    floor = theta.norm() * (p + 1) / mesh.h_max
    info.commute_abs = num
    info.commute_scale = max(den, floor, 1e-300)
    info.commute_residual = num / info.commute_scale
    sigma.info["projector"] = info
    sigma.info["theta"] = theta
    return sigma


class _DivEvaluator:
    """Adapter exposing div v through the scalar-projection interface."""

    def __init__(self, v):
        self.v = v
        self.poly_degree = None
        pd = getattr(v, "poly_degree", None)
        if pd is not None:
            self.poly_degree = max(pd - 1, 0)
        self.singularity = getattr(v, "singularity", None)

    def eval_element(self, k, pts):
        return self.v.eval_div(pts, elem=k)


def projector_report(v, p, mesh, *, variant="def31", quad_degree=None):
    """Per-element approximation and stability records for the projector.

    For each element: the weighted error of the projection, the sum of
    local-best errors over the vertex-patch neighborhood, their ratio (the
    measured equivalence constant), and the global stability quotients.
    """
    from .best_approx import _local_fits

    sigma = project_hdiv(
        v, p, mesh, variant=variant, quad_degree=quad_degree, measure_stability=True
    )
    policy = QuadPolicy(p, field=v, degree=quad_degree)
    patches = vertex_patches(mesh)
    loc = _local_fits(v, p, mesh, policy)
    E_loc, osc2 = loc["E_loc"], loc["div_part"] ** 2
    hscale = mesh.h / (p + 1)
    err2, derr2, pk2, vnorm2 = np.zeros((4, mesh.num_triangles))
    for g, vvals, dvvals in policy.samples(v, mesh):
        svals = g.eval(sigma)
        err2[g.tris] = g.norm_sq(vvals - svals)
        derr2[g.tris] = hscale[g.tris] ** 2 * g.norm_sq(dvvals - g.eval(sigma, div=True))
        pk2[g.tris] = g.norm_sq(svals)
        vnorm2[g.tris] = g.norm_sq(vvals)
    records = []
    for k in range(mesh.num_triangles):
        neighborhood = sorted(
            {int(kk) for a in mesh.triangles[k] for kk in patches[a].tris}
        )
        rhs2 = float(np.sum(E_loc[neighborhood] ** 2))
        lhs2 = err2[k] + derr2[k]
        stab_rhs2 = float(np.sum(vnorm2[neighborhood] + osc2[neighborhood]))
        records.append(
            {
                "element": k,
                "err_l2": np.sqrt(err2[k]),
                "err_div_weighted": np.sqrt(derr2[k]),
                "lhs_sq": lhs2,
                "neighborhood_locbest_sq": rhs2,
                "C_approx": lhs2 / rhs2 if rhs2 > 0 else (0.0 if lhs2 < 1e-24 else np.inf),
                "stab_lhs_sq": pk2[k],
                "stab_rhs_sq": stab_rhs2,
                "C_stab": pk2[k] / stab_rhs2 if stab_rhs2 > 0 else 0.0,
            }
        )
    info = sigma.info["projector"]
    return {
        "records": records,
        "sigma": sigma,
        "max_C_approx": max(r["C_approx"] for r in records),
        "max_C_stab": max(r["C_stab"] for r in records),
        "stability_ratios": info.stability_ratios,
        "commute_residual": info.commute_residual,
        "warnings": info.warnings,
    }
