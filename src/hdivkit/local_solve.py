"""Local constrained minimizations: the elementwise divergence-constrained
L2 fit and the patchwise equilibration problems on vertex patches.

Element step: minimize ||v - v_K|| over RTN_p(K) subject to the divergence
matching the elementwise L2 projection of div v (the reduced variant works
one degree lower on both space and constraint).

Patch step: minimize ||v_a - chi_a|| over the patch space (zero normal trace
on the patch boundary except on Dirichlet edges at Dirichlet vertices)
subject to a prescribed elementwise divergence.  For interior and Neumann
vertices the multiplier has a constant kernel; the data is projected onto the
compatible subspace and the kernel mode pinned by a symmetric bordering row.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

import numpy as np

from . import polys
from .elements import barycentric, hat_operators, rtn_space, scalar_basis
from .linsolve import saddle_solve_dense
from .mesh import INTERIOR, NEUMANN
from .projections import BrokenRTNField, hat_interpolants
from .quadpolicy import QuadPolicy
from .quadrature import TriangleRule, quad_rule


class CompatibilityError(RuntimeError):
    pass


def elem_constrained_min(
    v, p, mesh, k, *, degree_mode="standard", policy=None, quad_degree=None
):
    """Divergence-constrained local L2 fit on one element.

    Returns the coefficient vector of the minimizer in RTN_p(K) (reduced
    mode: RTN_{p-1}(K)).  The constraint is imposed through a multiplier, so
    the divergence coefficients equal the projected data to solver precision.
    """
    if degree_mode == "standard":
        q = p
    elif degree_mode == "reduced":
        if p < 1:
            raise ValueError("reduced mode needs p >= 1")
        q = p - 1
    else:
        raise ValueError(f"unknown degree_mode {degree_mode!r}")
    space = rtn_space(mesh, q)
    el = space.elements[k]
    if policy is None:
        policy = QuadPolicy(q, field=v, degree=quad_degree)
    tri, _, _ = policy.element_rules(el, key=("tri", k))
    pts = el.quad_points(tri)
    b = el.rtn_moments(v.eval(pts, elem=k), tri)
    g = el.scalar_moments(v.eval_div(pts, elem=k), tri)
    theta, _ = saddle_solve_dense(el.M, el.Bdiv, b, g)
    return theta


def theta_field(v, p, mesh, *, variant="def31", policy=None, quad_degree=None):
    """Elementwise constrained minimizer over the whole mesh.

    ``def31`` fits in RTN_p, ``def52`` in RTN_{p-1} (requires p >= 1).
    """
    if variant == "def31":
        q = p
        mode = "standard"
    elif variant == "def52":
        if p < 1:
            raise ValueError("variant def52 needs p >= 1")
        q = p - 1
        mode = "reduced"
    else:
        raise ValueError(f"unknown variant {variant!r}")
    if policy is None:
        policy = QuadPolicy(q, field=v, degree=quad_degree)
    out = BrokenRTNField(mesh, q)
    for k in range(mesh.num_triangles):
        out.coeffs[k] = elem_constrained_min(
            v, p, mesh, k, degree_mode=mode, policy=policy
        )
    return out


# -- patch space and problem -------------------------------------------------------


@dataclass
class PatchSpace:
    """Active dof layout of the patch space on one vertex patch."""

    patch: object
    p: int
    active_edges: list
    tris: np.ndarray
    n_edge: int
    n_int: int
    ndof: int
    elem_maps: dict  # triangle -> local dof -> patch dof (-1 = pinned to zero)

    def global_dof_map(self, space):
        """Global dof index of each patch dof (for zero-extension scatter)."""
        p = self.p
        out = np.empty(self.ndof, dtype=int)
        for i, e in enumerate(self.active_edges):
            out[i * (p + 1) : (i + 1) * (p + 1)] = np.arange(
                e * (p + 1), (e + 1) * (p + 1)
            )
        for t_idx, k in enumerate(self.tris):
            base = space.ndof_edge + int(k) * space.n_int
            out[self.n_edge + t_idx * self.n_int : self.n_edge + (t_idx + 1) * self.n_int] = np.arange(
                base, base + space.n_int
            )
        return out

    @classmethod
    def build(cls, patch, space):
        p = space.p
        active = list(patch.active_edges)
        epos = {e: i for i, e in enumerate(active)}
        n_edge = len(active) * (p + 1)
        n_int = space.n_int
        tris = patch.tris
        maps = {}
        for t_idx, k in enumerate(tris):
            k = int(k)
            el = space.elements[k]
            m = -np.ones(el.ndof, dtype=int)
            for slot in range(3):
                e = space.mesh.tri_edges[k, slot]
                if e in epos:
                    m[slot * (p + 1) : (slot + 1) * (p + 1)] = np.arange(
                        epos[e] * (p + 1), (epos[e] + 1) * (p + 1)
                    )
            m[3 * (p + 1) :] = n_edge + t_idx * n_int + np.arange(n_int)
            maps[k] = m
        return cls(
            patch=patch,
            p=p,
            active_edges=active,
            tris=tris,
            n_edge=n_edge,
            n_int=n_int,
            ndof=n_edge + len(tris) * n_int,
            elem_maps=maps,
        )


@dataclass
class PatchProblem:
    pspace: PatchSpace
    g: dict  # triangle -> divergence data coefficients (orthonormal scalar basis)
    chi: dict  # triangle -> target dof vector (broken RTN_p)
    M: np.ndarray
    B: np.ndarray
    rhs: np.ndarray
    grhs: np.ndarray
    kernel: np.ndarray | None
    compat_defect: float = 0.0
    meta: dict = dfield(default_factory=dict)


@dataclass
class PatchData:
    """Equilibration data of every (triangle, local vertex i) pair.

    On triangle ``tris[r]`` with hat function lambda_i:
    ``chi[r, i]`` = dofs of I_p(lambda_i theta) and
    ``g[r, i]`` = Pi_p(lambda_i div v + grad lambda_i . theta), in the
    orthonormal scalar basis.  Vertex patch a takes, on each of its
    triangles, the row of its local vertex.
    """

    tris: np.ndarray  # ascending triangle indices
    chi: np.ndarray  # (n, 3, ndof)
    g: np.ndarray  # (n, 3, sdim)
    mass_scale: np.ndarray  # (n, 3): magnitudes of the two terms of (g, 1)_K, see patch_data


def patch_data(theta: BrokenRTNField, v, p, mesh, *, policy=None, tris=None) -> PatchData:
    """Patch equilibration data on ``tris`` (default: every triangle).

    The target and the gradient term come from the exact reference operators
    of ``hat_operators`` conjugated by the dof scaling; the divergence term
    evaluates div v once per element on the policy's rule.  ``mass_scale``
    holds the magnitudes of the two terms of (g, 1)_K: (lambda_i |div v|, 1)_K,
    and |G_i[0]| |T_k^{-1} theta| / sqrt(2), the Cauchy-Schwarz bound of
    (grad lambda_i . theta, 1)_K, whose value is roundoff when theta's
    components along G_i[0] vanish.  Their cancellation over a patch is
    measured on this scale.
    """
    space = rtn_space(mesh, p)
    tris = np.arange(mesh.num_triangles) if tris is None else np.asarray(tris, int)
    if policy is None:
        policy = QuadPolicy(p, field=v, degree=None)
    chi = hat_interpolants(theta, p, tris)
    _, G = hat_operators(theta.p, p)
    ref = theta.space.to_ref(theta.coeffs[tris], tris)
    grad = np.einsum("imb,kb->kim", G, ref) / np.sqrt(space.detB[tris])[:, None, None]
    div, div_scale = _hat_div_moments(v, space, policy, tris)
    # (f, 1)_K = sqrt|K| f_0 = sqrt(det B_k / 2) f_0 in the orthonormal basis
    grad_scale = np.sqrt(0.5) * np.outer(np.linalg.norm(ref, axis=1), np.linalg.norm(G[:, 0], axis=1))
    return PatchData(tris, chi, div + grad, div_scale + grad_scale)


def _hat_div_moments(v, space, policy, tris):
    """(lambda_i div v, phi_m)_K on the policy's element rules, (n, 3, sdim),
    and (lambda_i |div v|, 1)_K, (n, 3)."""
    sb = scalar_basis(space.p)
    out = np.empty((len(tris), 3, sb.dim))
    mag = np.empty((len(tris), 3))
    on_ref = {}  # reference rules are shared objects: tabulate once per rule
    for r, k in enumerate(tris):
        k = int(k)
        el = space.elements[k]
        rule, _, _ = policy.element_rules(el, key=("tri", k))
        if isinstance(rule, TriangleRule):
            if id(rule) not in on_ref:
                on_ref[id(rule)] = barycentric(rule.points), sb.eval(rule.points)
            lam, phi = on_ref[id(rule)]
            pts, w = el.map_to_phys(rule.points), rule.weights * el.detB
        else:
            pts, w = rule
            ref = el.map_to_ref(pts)
            lam, phi = barycentric(ref), sb.eval(ref)
        dv = v.eval_div(pts, elem=k)
        out[r] = (lam * (w * dv)) @ phi.T / np.sqrt(el.detB)
        mag[r] = lam @ (w * np.abs(dv))
    return out, mag


def build_patch_problem(
    patch, theta: BrokenRTNField, v, p, mesh, *, variant="def31", policy=None, data=None
) -> PatchProblem:
    """Assemble the equilibration problem of one vertex patch.

    def31: data = Pi_p(psi_a div v + grad psi_a . theta), target = the
    degree-p interpolant of psi_a theta.  def52: theta has degree p-1, the
    gradient term is already a degree-p polynomial and the target psi_a theta
    lies in broken RTN_p exactly; the same dof extraction realizes both.
    ``data`` holds the element tables of ``patch_data``; without it they are
    built for the patch's triangles.
    """
    space = rtn_space(mesh, p)
    pspace = PatchSpace.build(patch, space)
    if data is None:
        data = patch_data(theta, v, p, mesh, policy=policy, tris=patch.tris)
    chi, g = {}, {}
    mass_scale = 0.0
    for r, k in zip(np.searchsorted(data.tris, patch.tris), patch.tris):
        k = int(k)
        i = patch.local_index[k]
        chi[k], g[k] = data.chi[r, i], data.g[r, i]
        mass_scale += data.mass_scale[r, i]
    # assemble quadratic form and constraint on active dofs
    nd = pspace.ndof
    M = np.zeros((nd, nd))
    rhs = np.zeros(nd)
    sdim = space.sdim
    B = np.zeros((len(patch.tris) * sdim, nd))
    grhs = np.zeros(len(patch.tris) * sdim)
    for t_idx, k in enumerate(patch.tris):
        k = int(k)
        el = space.elements[k]
        m = pspace.elem_maps[k]
        act = m >= 0
        ia = m[act]
        M[np.ix_(ia, ia)] += el.M[np.ix_(act, act)]
        rhs[ia] += el.M[act] @ chi[k]
        rows = slice(t_idx * sdim, (t_idx + 1) * sdim)
        B[rows, ia] = el.Bdiv[:, act]
        grhs[rows] = g[k]
    kernel = None
    defect = 0.0
    if patch.kind in (INTERIOR, NEUMANN):
        kernel = np.zeros(len(patch.tris) * sdim)
        for t_idx, k in enumerate(patch.tris):
            kernel[t_idx * sdim] = np.sqrt(space.mesh.area[int(k)])
        # (g, 1) over the patch sums the terms (lambda_i div v, 1)_K and
        # (grad lambda_i . theta, 1)_K, which cancel: measure it against their size
        mass = float(kernel @ grhs)
        defect = abs(mass) / max(mass_scale, 1e-300)
        if defect > 1e-9:
            raise CompatibilityError(
                f"patch of vertex {patch.vertex}: divergence data incompatible "
                f"(defect {defect:.2e}); the elementwise fit and the patch data disagree"
            )
    return PatchProblem(
        pspace=pspace,
        g=g,
        chi=chi,
        M=M,
        B=B,
        rhs=rhs,
        grhs=grhs,
        kernel=kernel,
        compat_defect=defect,
        meta={"variant": variant},
    )


def patch_equilibrate(problem: PatchProblem):
    """Solve the constrained patch minimization; returns active coefficients."""
    s, lam = saddle_solve_dense(
        problem.M, problem.B, problem.rhs, problem.grhs, kernel=problem.kernel
    )
    return s, lam


def scatter_patch(problem: PatchProblem, s):
    """Patch solution as per-element coefficient vectors (zero on pinned dofs)."""
    out = {}
    for k in problem.pspace.tris:
        k = int(k)
        m = problem.pspace.elem_maps[k]
        c = np.zeros(len(m))
        act = m >= 0
        c[act] = s[m[act]]
        out[k] = c
    return out


# -- dual-norm surrogate for the patch stability constant ---------------------------


def _patch_lagrange(mesh, patch, q):
    """Continuous P_q nodes and element node maps on the patch triangles."""
    nodes = {}
    elem_nodes = {}
    coords = []

    def node_id(key, xy):
        if key not in nodes:
            nodes[key] = len(coords)
            coords.append(xy)
        return nodes[key]

    for k in patch.tris:
        k = int(k)
        tri = mesh.triangles[k]
        xs = mesh.triangle_coords(k)
        ids = []
        for i in range(q + 1):
            for j in range(q + 1 - i):
                lam = np.array([1 - (i + j) / q, i / q, j / q])
                xy = lam @ xs
                # key nodes by barycentric position on shared entities
                if lam.max() == 1.0:
                    key = ("v", int(tri[np.argmax(lam)]))
                elif np.count_nonzero(lam > 1e-12) == 2:
                    loc = np.flatnonzero(lam > 1e-12)
                    va, vb = int(tri[loc[0]]), int(tri[loc[1]])
                    frac = lam[loc[1]]
                    if va > vb:
                        va, vb = vb, va
                        frac = 1 - frac
                    key = ("e", va, vb, round(frac * q))
                else:
                    key = ("i", k, i, j)
                ids.append(node_id(key, tuple(xy)))
        elem_nodes[k] = ids
    return np.array(coords), elem_nodes


def patch_stability_ratio(problem: PatchProblem, s, mesh, *, surrogate_degree=None):
    """Measured ratio ||s_a - chi_a|| over a discrete dual-norm surrogate.

    The surrogate maximizes (g, w) + (chi, grad w) over patch-continuous
    P_{p+1} functions with unit gradient norm, mean-zero for interior and
    Neumann vertices, zero trace on the Dirichlet edges at the vertex for
    Dirichlet ones.  Recorded, never asserted: the bound it witnesses is a
    cited stability result.
    """
    patch = problem.pspace.patch
    p = problem.pspace.p
    # p + 2 keeps the surrogate space nontrivial even on one-triangle corner
    # patches with two clamped edges
    q = surrogate_degree or (p + 2)
    space = rtn_space(mesh, p)
    coords, elem_nodes = _patch_lagrange(mesh, patch, q)
    nn = len(coords)
    nodal = polys.lagrange_nodal(q)
    rule = quad_rule(2 * q + 2 + 2 * (p + 1))
    gx_ref, gy_ref = polys.eval_monomials_grad(q, rule.points)
    grad_ref = np.stack([nodal.T @ gx_ref, nodal.T @ gy_ref], axis=2)  # (nloc, nq, 2)
    vals = nodal.T @ polys.eval_monomials(q, rule.points)
    S = np.zeros((nn, nn))
    ell = np.zeros(nn)
    mass1 = np.zeros(nn)
    for k in patch.tris:
        k = int(k)
        el = space.elements[k]
        ids = np.array(elem_nodes[k])
        grad = np.einsum("dc,nqc->nqd", el.Binv.T, grad_ref)
        w = rule.weights * el.detB
        S[np.ix_(ids, ids)] += np.einsum("q,nqd,mqd->nm", w, grad, grad)
        mass1[ids] += vals @ w
        # functional: (g, w)_K + (chi, grad w)_K
        gvals = el.scalar_values(problem.g[k], el.map_to_phys(rule.points))
        chivals = el.eval_coeffs(problem.chi[k], el.map_to_phys(rule.points))
        ell[ids] += vals @ (w * gvals)
        ell[ids] += np.einsum("q,nqd,qd->n", w, grad, chivals)
    if patch.kind in (INTERIOR, NEUMANN):
        A = np.zeros((nn + 1, nn + 1))
        A[:nn, :nn] = S
        A[:nn, nn] = mass1
        A[nn, :nn] = mass1
        b = np.concatenate([ell, [0.0]])
        sol = np.linalg.lstsq(A, b, rcond=None)[0]
        y = sol[:nn]
    else:
        drop = set()
        for e in patch.gamma_d_edges:
            a, b_ = mesh.edges[e]
            pa, pb = mesh.vertices[a], mesh.vertices[b_]
            d = pb - pa
            L2 = d @ d
            for i, xy in enumerate(coords):
                rel = np.asarray(xy) - pa
                t = (rel @ d) / L2
                if -1e-10 <= t <= 1 + 1e-10 and abs(rel @ rel - t**2 * L2) < 1e-20:
                    drop.add(i)
        keep = np.array([i for i in range(nn) if i not in drop], dtype=int)
        y = np.zeros(nn)
        y[keep] = np.linalg.solve(S[np.ix_(keep, keep)], ell[keep])
    dual = float(np.sqrt(max(ell @ y, 0.0)))
    # numerator: ||s_a - chi_a|| over the patch
    num2 = 0.0
    chi_norm2 = 0.0
    for k in patch.tris:
        k = int(k)
        el = space.elements[k]
        m = problem.pspace.elem_maps[k]
        c = np.zeros(len(m))
        act = m >= 0
        c[act] = s[m[act]]
        diff = c - problem.chi[k]
        num2 += float(diff @ el.M @ diff)
        chi_norm2 += float(problem.chi[k] @ el.M @ problem.chi[k])
    num = np.sqrt(num2)
    if num < 1e-12 * max(np.sqrt(chi_norm2), 1.0):
        return 0.0
    return num / max(dual, 1e-300)
