"""Mixed and least-squares mixed discretizations of the Poisson problem.

Both solvers work on an all-Dirichlet boundary (the scalar unknown vanishes
on the whole boundary).  The mixed method pairs conforming RTN_p fluxes with
the broken P_p multiplier; the least-squares method couples the flux with a
continuous P_q potential through the first-order system functional
  l^2 ||div p - f||^2 + ||p + grad u||^2 ,
whose bilinear form is coercive with constant 1/8 in the scaled norm.  The
mixed system is solved hybridized; the other sparse systems are SPD as posed.
Both global matrices depend only on the mesh, the degrees and l^2, and the
mesh keeps them assembled (``mesh.kept``): the hybrid multiplier matrix per
p, with its packed Cholesky factor where that fits ``linsolve.KEEP_BYTES``,
and the least-squares matrix per (p, q) for the exact bits of l^2.  A call
forms only its right-hand side and solves with the kept factor, or factors
the kept matrix afresh.
"""

from __future__ import annotations

from dataclasses import dataclass
import warnings as _warnings

import numpy as np
import scipy.sparse as sp

from . import polys
from .elements import (
    _coupling_reference,
    _stiffness_blocks,
    lagrange_bary,
    lagrange_grads_ref,
    lagrange_nodes,
    oscillation_sq,
    rtn_space,
    scalar_basis,
    scalar_moments,
)
from .fields import AnalyticField
from .linsolve import SparseFactor, assemble_csr, check_symmetric, hybrid_saddle_solve, solve_stacked
from .mesh import NEUMANN, _read_only, kept
from .projections import ScalarPWField
from .projector import ConformingRTNField
from .quadpolicy import QuadGroup, QuadPolicy, check_finite
from .quadrature import quad_rule, xy


class ModelProblemError(ValueError):
    pass


@dataclass
class PoissonProblem:
    """-laplace(u) = f with u = 0 on the whole boundary."""

    mesh: object
    f: callable  # pts -> values
    u: callable | None = None
    grad_u: callable | None = None
    sigma: AnalyticField | None = None  # exact flux -grad u as a field
    l_omega: float = 0.0
    name: str = ""

    def __post_init__(self):
        if (self.mesh.edge_label == NEUMANN).any():
            raise ModelProblemError(
                "model problems require an all-Dirichlet boundary"
            )
        if not self.l_omega:
            self.l_omega = self.mesh.diameter()

    def residual_check(self):
        """Spot-check -laplace(u) = f by comparing f against the divergence
        of the manufactured flux at random interior points."""
        if self.sigma is None:
            return 0.0
        rng = np.random.default_rng(0)
        lo = self.mesh.vertices.min(axis=0)
        hi = self.mesh.vertices.max(axis=0)
        pts = lo + (hi - lo) * rng.random((20, 2))
        fv = np.asarray(self.f(pts), float)
        dv = self.sigma.eval_div(pts)
        scale = max(np.abs(fv).max(), 1e-300)
        defect = np.abs(fv - dv).max() / scale
        if defect > 1e-9:
            raise ModelProblemError(f"manufactured pair inconsistent: {defect:.2e}")
        return defect


def manufactured_sine(mesh) -> PoissonProblem:
    """u = sin(pi x) sin(pi y), f = 2 pi^2 u, flux = -grad u."""

    def u(pts):
        return np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])

    def grad_u(pts):
        return np.stack(
            [
                np.pi * np.cos(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1]),
                np.pi * np.sin(np.pi * pts[:, 0]) * np.cos(np.pi * pts[:, 1]),
            ],
            axis=1,
        )

    def f(pts):
        return 2 * np.pi**2 * u(pts)

    sigma = AnalyticField(
        name="sine_flux", v=lambda pts: -grad_u(pts), div=f, divergence_free=False
    )
    return PoissonProblem(mesh=mesh, f=f, u=u, grad_u=grad_u, sigma=sigma, name="sine")


def manufactured_bubble(mesh) -> PoissonProblem:
    """u = x(1-x) y(1-y): flux in RTN_3 exactly, potential in P_4."""

    def u(pts):
        x, y = pts[:, 0], pts[:, 1]
        return x * (1 - x) * y * (1 - y)

    def grad_u(pts):
        x, y = pts[:, 0], pts[:, 1]
        return np.stack(
            [(1 - 2 * x) * y * (1 - y), x * (1 - x) * (1 - 2 * y)], axis=1
        )

    def f(pts):
        x, y = pts[:, 0], pts[:, 1]
        return 2 * y * (1 - y) + 2 * x * (1 - x)

    sigma = AnalyticField(
        name="bubble_flux", v=lambda pts: -grad_u(pts), div=f, poly_degree=3
    )
    return PoissonProblem(
        mesh=mesh, f=f, u=u, grad_u=grad_u, sigma=sigma, name="bubble"
    )


def _data_moments(prob, p):
    """Element moments (f, phi_m)_K of the source term in P_p; (nt, sdim)."""
    fmom = np.zeros((prob.mesh.num_triangles, polys.tri_dim(p)))
    groups = QuadPolicy(p, prob.mesh, prob.sigma, self_check=False).groups()
    for g, f in zip(groups, check_finite(groups, [g.call(prob.f) for g in groups], "f")):
        fmom[g.tris] = scalar_moments(prob.mesh, p, g, f)
    return fmom


def solve_mixed(prob: PoissonProblem, p: int):
    """Dual mixed method: (sigma_M, v) - (u_M, div v) = 0, (div sigma_M, q) = (f, q).

    The second block makes div sigma_M equal the broken projection of f in
    coefficients.  Solved by ``linsolve.hybrid_saddle_solve``: u_M is minus
    its divergence multiplier.
    """
    space = rtn_space(prob.mesh, p)
    fmom = _data_moments(prob, p)
    dofs, mult, info = hybrid_saddle_solve(space, np.zeros(space.dof_map.shape), fmom)
    return {
        "sigma": ConformingRTNField(prob.mesh, p, dofs),
        "u": ScalarPWField(prob.mesh, p, -mult),
        "div_constraint_defect": info.pop("div_defect"),
        **info,
    }


# -- continuous Lagrange spaces --------------------------------------------------------


class LagrangeSpace:
    """Continuous piecewise P_q with zero boundary trace, equispaced nodes."""

    def __init__(self, mesh, q: int):
        if q < 1:
            raise ModelProblemError("Lagrange degree must be >= 1")
        if q > 4:
            _warnings.warn(
                f"equispaced Lagrange nodes of degree {q} are ill-conditioned",
                RuntimeWarning,
            )
        self.mesh = mesh
        self.q = q
        self.bary = lagrange_bary(q)
        self._elem_nodes = lagrange_nodes(mesh, q)
        self.n_nodes = int(self._elem_nodes.max()) + 1
        # the local nodes on an element's boundary edges (edge z lies opposite vertex z)
        on_boundary = mesh.edge_tris[mesh.tri_edges, 1] == -1
        self.boundary_nodes = np.unique(
            self._elem_nodes[np.any(on_boundary[:, :, None] & (self.bary.T == 0), axis=1)]
        )
        self.free_index = np.setdiff1d(np.arange(self.n_nodes), self.boundary_nodes)
        _read_only([self.boundary_nodes, self.free_index])  # a kept space is shared


def _lagrange_stiffness(ls: LagrangeSpace):
    """The P_q stiffness matrix over every node of ``ls``, on the rule of degree 2q."""
    rule = quad_rule(2 * ls.q)
    blocks = _stiffness_blocks(ls.mesh, rule, np.stack(lagrange_grads_ref(ls.q, rule.points), axis=2))
    return assemble_csr(ls._elem_nodes, ls._elem_nodes, blocks, (ls.n_nodes, ls.n_nodes))


def _ls_system(prob, p, q):
    """(A, B, ls): the least-squares matrix over the fluxes, then the free
    potential nodes, the divergence B and the zero-trace P_q space, kept
    on the mesh per (p, q) for the exact bits of l^2 (``mesh.kept``).  A's
    symmetry is checked here, once."""
    mesh, l2 = prob.mesh, prob.l_omega**2

    def build():
        space = rtn_space(mesh, p)
        M, B, _ = space.conforming_blocks()  # all-Dirichlet: every dof is kept
        ls = LagrangeSpace(mesh, q)
        # D = B^T B is (div, div) on conforming dofs thanks to the orthonormal
        # scalar basis; G couples fluxes with potential gradients
        D = (B.T @ B).tocsr()
        blocks = space.rows_to_elem(_coupling_reference(q, p)[None])
        G = assemble_csr(ls._elem_nodes, space.dof_map, blocks, (ls.n_nodes, space.ndof))
        S = _lagrange_stiffness(ls)
        fr = ls.free_index
        A = sp.bmat(
            [
                [l2 * D + M, G[fr].T],
                [G[fr], S[fr][:, fr]],
            ],
            format="csc",
        )
        check_symmetric(A)
        return A, B, ls

    return kept(mesh._cache, ("ls_system", p, q), build, tag=np.float64(l2).tobytes())


def solve_ls_mixed(prob: PoissonProblem, p: int, q: int):
    """Least-squares mixed method: minimize the first-order system functional
    over conforming RTN_p fluxes and zero-trace P_q potentials.  The matrix
    is assembled once per mesh, p, q and l^2 and kept (``_ls_system``); a
    call forms its data moments and right-hand side, and factors the kept
    matrix afresh.  ``system`` is (A, b) over the fluxes, then the free
    potential nodes: the kept, read-only A and this call's b."""
    A, B, ls = _ls_system(prob, p, q)
    fmom = _data_moments(prob, p).ravel()
    fr = ls.free_index
    b = np.concatenate([prob.l_omega**2 * (B.T @ fmom), np.zeros(len(fr))])
    factor = SparseFactor(A, checked=True)
    sol = factor.solve(b)
    nf = B.shape[1]
    sigma = ConformingRTNField(prob.mesh, p, sol[:nf])
    u = np.zeros(ls.n_nodes)
    u[fr] = sol[nf:]
    res = np.linalg.norm(A @ sol - b) / max(np.linalg.norm(b), 1e-300)
    return {
        "sigma": sigma,
        "u": u,
        "space": ls,
        "kkt_residual": res,
        "system_size": A.shape[0],
        "nnz_lu": factor.lu.nnz,  # stored entries, as hybrid_saddle_solve reports
        "system": (A, b),
    }


# -- error evaluation -------------------------------------------------------------------


def flux_error(prob: PoissonProblem, sigma_h: ConformingRTNField):
    """||sigma - sigma_h|| over the mesh, batched over the quadrature groups."""
    return _flux_error(prob, sigma_h, div=False)


def _flux_error(prob, sigma_h, div):
    """``flux_error``, or with ``div`` ||div(sigma - sigma_h)||; the exact flux's samples are checked."""
    groups = QuadPolicy(sigma_h.p, prob.mesh, prob.sigma, self_check=False).groups()
    exact = check_finite(groups, [g.eval(prob.sigma, div=div) for g in groups], "div sigma" if div else "sigma")
    return np.sqrt(sum(g.norm_sq(e - g.eval(sigma_h, div=div)).sum() for g, e in zip(groups, exact)))


def potential_h1_error(prob: PoissonProblem, ls: LagrangeSpace, u_h):
    """||grad(u - u_h)|| by quadrature on every element at once."""
    rule, _, error = _grad_u(prob, ls.q)
    return error(_lagrange_grad(ls, u_h, rule))


def _lagrange_grad(ls, u_h, rule):
    """grad u_h at the points of ``rule`` on every element (nt, nq, 2)."""
    gx, gy = lagrange_grads_ref(ls.q, rule.points)
    vals = np.asarray(u_h, float)[ls._elem_nodes]  # (nt, nloc)
    return np.stack([vals @ gx, vals @ gy], axis=2) @ ls.mesh.Binv


def _grad_u(prob, q):
    """The H1 error rule of P_q potentials, of degree 2q + 10; grad u at its
    points on every element (nt, nq, 2), checked (``quadpolicy.check_finite``);
    and ``error(grad)``, ||grad u - grad||."""
    mesh, rule = prob.mesh, quad_rule(2 * q + 10)
    group = QuadGroup(np.arange(mesh.num_triangles), rule.points, mesh.map_to_phys(rule.points),
                      rule.weights * mesh.detB[:, None])
    (gu,) = check_finite([group], [group.call(prob.grad_u)], "grad u")

    def error(grad):
        x, y = xy(gu - grad)
        return np.sqrt(np.sum(group.w * (x * x + y * y)))

    return rule, gu, error


def _grad_moments(mesh, gref, rule, gu):
    """(grad phi_n, gu)_K for reference gradients gref (n, nq, 2) and values
    gu (nt, nq, 2) at the rule's mapped points; (nt, n)."""
    F = gu @ np.swapaxes(mesh.Binv, 1, 2) * mesh.detB[:, None, None]  # B_k^{-1} gu
    return F.reshape(len(F), -1) @ (rule.weights[:, None] * gref).reshape(len(gref), -1).T


def h1_best_global(prob: PoissonProblem, q: int):
    """Elliptic projection: the H1-best zero-trace P_q approximation of u."""
    mesh = prob.mesh
    ls = LagrangeSpace(mesh, q)
    S = _lagrange_stiffness(ls)
    rule, gu, error = _grad_u(prob, q)
    gref = np.stack(lagrange_grads_ref(q, rule.points), axis=2)
    rhs = np.bincount(ls._elem_nodes.ravel(), _grad_moments(mesh, gref, rule, gu).ravel(), ls.n_nodes)
    fr = ls.free_index
    uh = np.zeros(ls.n_nodes)
    uh[fr] = SparseFactor(S[fr][:, fr].tocsc()).solve(rhs[fr])
    return ls, uh, error(_lagrange_grad(ls, uh, rule))  # potential_h1_error on the samples taken


def h1_best_local_sum(prob: PoissonProblem, q: int):
    """Root sum of elementwise unconstrained H1-best errors min ||grad(u - w)||_K."""
    mesh = prob.mesh
    rule, gu, error = _grad_u(prob, q)
    gref = np.stack(scalar_basis(q).eval_grad(rule.points), axis=2)[1:]  # drop the constant
    c = solve_stacked(_stiffness_blocks(mesh, rule, gref), _grad_moments(mesh, gref, rule, gu))
    return error(np.einsum("kn,nqc->kqc", c, gref) @ mesh.Binv)  # B_k^{-T} sum_n c_n grad phi_n


def _random_pairs(res):
    """Twenty seeded random discrete pairs (p, v), each one vector over the
    unknowns of the least-squares system: fluxes, then free potential nodes."""
    rng = np.random.default_rng(0)
    return [rng.standard_normal(len(res["system"][1])) for _ in range(20)]


def coercivity_witness(res):
    """Minimum slack of A(p,v;p,v) >= (1/8)(||p||^2 + l^2 ||div p||^2 + ||grad v||^2)
    over random discrete pairs x = (p, v) (normalized), read from the assembled
    system A, whose diagonal blocks M + l^2 D and S hold the scaled norm."""
    A, _ = res["system"]
    nf = len(res["sigma"].dofs)
    flux, pot = A[:nf, :nf], A[nf:, nf:]
    worst = np.inf
    for x in _random_pairs(res):
        lhs = float(x @ (A @ x))
        rhs = float(x[:nf] @ (flux @ x[:nf])) + float(x[nf:] @ (pot @ x[nf:]))
        worst = min(worst, (lhs - rhs / 8.0) / max(rhs, 1e-300))
    return worst


def apriori_checks(prob_builder, p: int, q: int, meshes):
    """Cross-checks tying the solvers to the best-approximation machinery.

    Per mesh: (a) the mixed flux error against the constrained global best,
    (b) the least-squares total error against flux-best + H1-best with the
    worst-case factor 17, (c) the divergence bound slack, (d) the H1
    global/local best ratio (recorded only).
    """
    from .best_approx import global_best

    out = []
    for mesh in meshes:
        prob = prob_builder(mesh)
        prob.residual_check()
        mixed = solve_mixed(prob, p)
        err_mixed = flux_error(prob, mixed["sigma"])
        glob = global_best(prob.sigma, p, mesh)
        a_defect = abs(err_mixed - glob["Eglob_l2"]) / max(glob["Eglob_l2"], 1e-300)
        lsres = solve_ls_mixed(prob, p, q)
        err_ls = flux_error(prob, lsres["sigma"])
        err_h1 = potential_h1_error(prob, lsres["space"], lsres["u"])
        _, _, h1_glob = h1_best_global(prob, q)
        h1_loc = h1_best_local_sum(prob, q)
        denom = glob["Eglob_l2"] + h1_glob
        R = (err_ls + err_h1) / max(denom, 1e-300)
        # divergence bound: l^2 ||div(s - s_LS)||^2 <= l^2 osc^2 + H1 err^2 + flux-best^2
        div_err = _flux_error(prob, lsres["sigma"], div=True)
        osc = _div_oscillation(prob, p)
        l2 = prob.l_omega**2
        slack = (l2 * osc**2 + err_h1**2 + glob["Eglob_l2"] ** 2) - l2 * div_err**2
        scale = max(l2 * div_err**2, l2 * osc**2, 1e-300)
        out.append(
            {
                "mesh_h": mesh.h_max,
                "mixed_vs_globalbest": a_defect,
                "err_mixed": err_mixed,
                "Eglob_l2": glob["Eglob_l2"],
                "ls_ratio": R,
                "err_ls": err_ls,
                "err_h1": err_h1,
                "h1_best_global": h1_glob,
                "h1_best_local_sum": h1_loc,
                "h1_glob_over_loc": (h1_glob / h1_loc) if h1_loc > 0 else 0.0,
                "div_bound_slack": slack / scale,
                "coercivity_witness": coercivity_witness(lsres),
            }
        )
    return out


def _div_oscillation(prob, p):
    """||div sigma - Pi_p div sigma|| (unweighted) over the mesh, from checked samples."""
    groups = QuadPolicy(p, prob.mesh, prob.sigma, self_check=False).groups()
    samples = check_finite(groups, [g.eval(prob.sigma, div=True) for g in groups], "div sigma")
    return np.sqrt(sum(oscillation_sq(prob.mesh, p, g, dv).sum() for g, dv in zip(groups, samples)))
