"""Brute-force reference implementations, kept independent of the library's
solve paths: exact monomial integrals, rational Gram-Schmidt reference bases,
per-element dual bases by quadrature and a dense solve, per-element error
and fit loops, normal-equation least squares, null-space constrained
minimization, per-site COO assembly loops, and patch equilibration data
taken by quadrature on every (patch, element) pair."""

from fractions import Fraction

import numpy as np
import scipy.sparse as sp
from scipy.linalg import null_space

from hdivkit import polys
from hdivkit.elements import edge_dof_values, rtn_space, scalar_basis
from hdivkit.quadpolicy import QuadPolicy
from hdivkit.quadrature import gauss01, quad_rule

# -- exact integrals on the reference triangle ---------------------------------------


def exact_integral(a, b):
    return polys.mono_integral(a, b)


def exact_l2_misfit_const(coeff_pairs):
    """|| f - mean(f) ||^2 on the reference triangle for f = sum c x^a y^b,
    computed with exact rational arithmetic."""
    area = Fraction(1, 2)
    mean = sum(Fraction(c) * exact_integral(a, b) for c, (a, b) in coeff_pairs) / area
    # int f^2
    sq = Fraction(0)
    for c1, (a1, b1) in coeff_pairs:
        for c2, (a2, b2) in coeff_pairs:
            sq += Fraction(c1) * Fraction(c2) * exact_integral(a1 + a2, b1 + b2)
    return sq - area * mean * mean


# -- reference bases by rational Gram-Schmidt over graded monomials -----------------


def _ldl_fraction(G):
    """Exact LDL^T of a symmetric positive definite Fraction matrix.

    Returns (T, D) with T = L^{-1} unit lower triangular and D the pivot list,
    so the rows of T are the (unnormalized) Gram-Schmidt combinations.
    """
    n = len(G)
    L = [[Fraction(0)] * n for _ in range(n)]
    D = [Fraction(0)] * n
    for j in range(n):
        s = G[j][j] - sum(L[j][k] * L[j][k] * D[k] for k in range(j))
        if s <= 0:
            raise ArithmeticError("Gram matrix not positive definite")
        D[j] = s
        L[j][j] = Fraction(1)
        for i in range(j + 1, n):
            L[i][j] = (G[i][j] - sum(L[i][k] * L[j][k] * D[k] for k in range(j))) / s
    T = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        T[i][i] = Fraction(1)
        for j in range(i - 1, -1, -1):
            T[i][j] = -sum(T[i][k] * L[k][j] for k in range(j + 1, i + 1))
    return T, D


def _orthonormal_rows_from_gram(G):
    """Float rows of the orthonormal basis defined by an exact Gram matrix."""
    T, D = _ldl_fraction(G)
    n = len(G)
    rows = np.zeros((n, n))
    for i in range(n):
        s = float(D[i]) ** -0.5
        for j in range(i + 1):
            rows[i, j] = float(T[i][j]) * s
    return rows


def _gram_fraction(deg):
    exps = polys.exponents(deg)
    return [[exact_integral(a1 + a2, b1 + b2) for a2, b2 in exps] for a1, b1 in exps]


def scalar_orthonormal_oracle(deg):
    """Monomial coefficient rows of the Gram-Schmidt orthonormalization of the
    graded monomials of P_deg, in exact rational arithmetic."""
    return _orthonormal_rows_from_gram(_gram_fraction(deg))


def rtn_primal_oracle(p):
    """(prim_x, prim_y) of an orthonormal basis of RTN_p: rational Gram-Schmidt
    of P_p^2 (monomials) plus x * (homogeneous monomials of degree p)."""
    comp_deg = p + 1
    n = polys.tri_dim(comp_deg)
    idx = {ab: k for k, ab in enumerate(polys.exponents(comp_deg))}
    members = []
    for comp in (0, 1):
        for a, b in polys.exponents(p):
            c = [[Fraction(0)] * n, [Fraction(0)] * n]
            c[comp][idx[a, b]] = Fraction(1)
            members.append(c)
    for a in range(p, -1, -1):
        c = [[Fraction(0)] * n, [Fraction(0)] * n]
        c[0][idx[a + 1, p - a]] = Fraction(1)
        c[1][idx[a, p - a + 1]] = Fraction(1)
        members.append(c)
    gram = _gram_fraction(comp_deg)
    G = [
        [
            sum(
                u[d][i] * v[d][j] * gram[i][j]
                for d in (0, 1)
                for i in range(n)
                for j in range(n)
                if u[d][i] and v[d][j]
            )
            for v in members
        ]
        for u in members
    ]
    R = _orthonormal_rows_from_gram(G)
    raw = np.array([[[float(x) for x in comp] for comp in c] for c in members])
    return R @ raw[:, 0], R @ raw[:, 1]


# -- per-element dual basis by quadrature and a dense solve ----------------------------


def dofs_of_refvals(el, ref_evaluator, n1d, tri_rule):
    """Dof vectors on element ``el`` of Piola-mapped reference functions
    (``ref_evaluator(pts)`` returns reference values (n, npts, 2)), by edge
    and interior quadrature; shape (ndof, n)."""
    p = el.p
    rows = []
    t, wt = gauss01(n1d)
    for slot in range(3):
        vals = el.piola_values(ref_evaluator(el._edge_ref_points(slot, t)))
        vn = vals @ el.edge_normal[slot]
        q = edge_dof_values(p, t, el.edge_len[slot])
        rows.append(np.einsum("g,ig,ng->in", wt * el.edge_len[slot], q, vn))
    if el.idim:
        vals = el.piola_values(ref_evaluator(tri_rule.points))
        phi = scalar_basis(p - 1).eval(tri_rule.points)
        w = tri_rule.weights * np.sqrt(el.detB)
        rows += [np.einsum("g,ig,ng->in", w, phi, vals[:, :, c]) for c in (0, 1)]
    return np.vstack(rows)


def element_tables_oracle(el, extra=0):
    """(C, M, Bdiv) of one element from its own dof matrix: quadrature of
    the Piola-mapped primal basis, one dense solve, then the Gram blocks.
    ``extra`` raises the (already exact) quadrature orders."""
    p = el.p
    D = dofs_of_refvals(el, el.ref.eval, p + 2 + extra, quad_rule(max(2 * p, 1) + 2 * extra))
    C = np.linalg.solve(D, np.eye(el.ndof))
    S = el.B.T @ el.B
    ref = el.ref
    Mtil = (
        S[0, 0] * ref.gram_xx + S[0, 1] * (ref.gram_xy + ref.gram_xy.T) + S[1, 1] * ref.gram_yy
    ) / el.detB
    M = C.T @ Mtil @ C
    return C, (M + M.T) / 2, (ref.div_rows @ C) / np.sqrt(el.detB)


def hat_values(patch, mesh, k, pts):
    """Hat function of the patch vertex at physical points inside triangle k."""
    xs = mesh.triangle_coords(k)
    B = np.column_stack([xs[1] - xs[0], xs[2] - xs[0]])
    lam = np.linalg.solve(B, (np.atleast_2d(pts) - xs[0]).T)
    la = patch.local_index[k]
    return 1.0 - lam[0] - lam[1] if la == 0 else lam[la - 1]


# -- per-element error and fit loops -------------------------------------------------


def local_best_oracle(v, p, mesh, k, policy):
    """Unconstrained local best on element k: per-element quadrature on the
    policy's rule and a dense solve of the element mass matrix."""
    el = rtn_space(mesh, p).elements[k]
    tri, _, _ = policy.element_rules(el, key=("tri", k))
    pts = el.quad_points(tri)
    vvals, dvvals = v.eval(pts, elem=k), v.eval_div(pts, elem=k)
    c = np.linalg.solve(el.M, el.rtn_moments(vvals, tri))
    l2 = np.sqrt(el.norm_sq(vvals - el.eval_coeffs(c, pts), tri))
    proj = el.scalar_values(el.scalar_moments(dvvals, tri), pts)
    div = el.h / (p + 1) * np.sqrt(el.norm_sq(dvvals - proj, tri))
    return {"l2_part": l2, "div_part": div, "E_loc": np.hypot(l2, div), "coeffs": c}


def element_norm_sq_oracle(a, b, p, mesh, policy, div=False):
    """Per-element ||a - b||^2 (or of the divergences) on the policy's rules;
    ``b`` may be None."""
    space = rtn_space(mesh, p)
    out = np.empty(mesh.num_triangles)
    for k in range(mesh.num_triangles):
        el = space.elements[k]
        tri, _, _ = policy.element_rules(el, key=("tri", k))
        pts = el.quad_points(tri)
        fa = (a.eval_div if div else a.eval)(pts, elem=k)
        fb = 0.0 if b is None else (b.eval_div if div else b.eval)(pts, elem=k)
        out[k] = el.norm_sq(fa - fb, tri)
    return out


def global_best_oracle(v, p, mesh, policy):
    """Global best: element moments in a loop, a dense KKT solve, and the
    error by per-element quadrature; returns (Eglob_l2, dofs)."""
    space = rtn_space(mesh, p)
    M, B, fidx = space.conforming_blocks()
    rhs = np.zeros(space.ndof)
    g = np.zeros((mesh.num_triangles, space.sdim))
    for k, el in enumerate(space.elements):
        tri, _, _ = policy.element_rules(el, key=("tri", k))
        pts = el.quad_points(tri)
        rhs[space.element_dof_map(k)] += el.rtn_moments(v.eval(pts, elem=k), tri)
        g[k] = el.scalar_moments(v.eval_div(pts, elem=k), tri)
    nf = len(fidx)
    A = np.block([[M.toarray(), B.T.toarray()], [B.toarray(), np.zeros((B.shape[0],) * 2)]])
    sol = np.linalg.lstsq(A, np.concatenate([rhs[fidx], g.ravel()]), rcond=None)[0]
    from hdivkit.projector import ConformingRTNField

    sigma = ConformingRTNField(mesh, p)
    sigma.dofs[fidx] = sol[:nf]
    return np.sqrt(element_norm_sq_oracle(v, sigma, p, mesh, policy).sum()), sigma.dofs


def potential_h1_error_oracle(prob, ls, u_h, rule):
    """||grad(u - u_h)|| by quadrature one element at a time."""
    total = 0.0
    for k, el in enumerate(rtn_space(prob.mesh, 0).elements):
        pts = el.map_to_phys(rule.points)
        diff = prob.grad_u(pts) - ls.eval_grad_element(u_h, k, rule.points)
        total += el.norm_sq(diff, (pts, rule.weights * el.detB))
    return np.sqrt(total)


def optimality_check(v, p, mesh, sigma, *, n_directions=10, seed=0, quad_degree=None):
    """First-order optimality of a global minimizer along feasible directions.

    Draws random conforming fields, projects them onto the divergence-free
    constraint manifold with the same mass matrix, and returns the largest
    normalized inner product (v - sigma, direction); at the minimizer it
    vanishes.
    """
    from hdivkit.projector import random_conforming_field

    policy = QuadPolicy(p, field=v, degree=quad_degree)
    space = rtn_space(mesh, p)
    rng = np.random.default_rng(seed)
    worst = 0.0
    vnorm = np.sqrt(element_norm_sq_oracle(v, None, p, mesh, policy).sum())
    for _ in range(n_directions):
        w = random_conforming_field(mesh, p, seed=int(rng.integers(1 << 31)))
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


def _divfree_projection(w, mesh, p):
    """Mass-orthogonal projection of a conforming field onto div-free members."""
    from hdivkit.linsolve import SparseFactor
    from hdivkit.projector import ConformingRTNField

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


# -- sparse assembly, one hand-written COO loop per block -----------------------------


def conforming_blocks_oracle(space):
    """Conforming mass M and divergence B over the non-Neumann dofs, assembled
    element by element into explicit COO triplets.  Returns (M, B, free)."""
    n = space.ndof
    sdim = space.elements[0].sdim
    nt = len(space.elements)
    free = np.ones(n, dtype=bool)
    free[space.neumann_edge_dofs()] = False
    fidx = np.flatnonzero(free)
    pos = -np.ones(n, dtype=int)
    pos[fidx] = np.arange(len(fidx))
    rowsM, colsM, valsM = [], [], []
    rowsB, colsB, valsB = [], [], []
    for k in range(nt):
        el = space.elements[k]
        dofmap = space.element_dof_map(k)
        act = free[dofmap]
        gm = pos[dofmap[act]]
        rowsM.append(np.repeat(gm, len(gm)))
        colsM.append(np.tile(gm, len(gm)))
        valsM.append(el.M[np.ix_(act, act)].ravel())
        rr = k * sdim + np.arange(sdim)
        rowsB.append(np.repeat(rr, len(gm)))
        colsB.append(np.tile(gm, sdim))
        valsB.append(el.Bdiv[:, act].ravel())
    nf = len(fidx)
    M = sp.coo_matrix(
        (np.concatenate(valsM), (np.concatenate(rowsM), np.concatenate(colsM))),
        shape=(nf, nf),
    ).tocsr()
    B = sp.coo_matrix(
        (np.concatenate(valsB), (np.concatenate(rowsB), np.concatenate(colsB))),
        shape=(nt * sdim, nf),
    ).tocsr()
    return M, B, fidx


def coo_oracle(rows, cols, blocks, shape):
    """Element blocks summed into CSR through explicit per-element COO
    triplets, in element order."""
    r, c, v = [], [], []
    for ids, jds, blk in zip(rows, cols, blocks):
        r.append(np.repeat(ids, len(jds)))
        c.append(np.tile(jds, len(ids)))
        v.append(np.ravel(blk))
    return sp.coo_matrix(
        (np.concatenate(v), (np.concatenate(r), np.concatenate(c))), shape=shape
    ).tocsr()


def ls_coupling_oracle(ls, space, p, q):
    """Flux/potential-gradient coupling G and Lagrange stiffness S of the
    least-squares method, assembled element by element into COO triplets."""
    rule = quad_rule(2 * (p + 1) + 2 * q)
    srule = quad_rule(2 * q)
    gxr, gyr = ls.basis_grads_ref(rule.points)
    sxr, syr = ls.basis_grads_ref(srule.points)
    rowsG, colsG, valsG = [], [], []
    rowsS, colsS, valsS = [], [], []
    for k in range(len(space.elements)):
        el = space.elements[k]
        ids = ls._elem_nodes[k]
        gm = space.element_dof_map(k)
        grad = np.einsum("dc,nqc->nqd", el.Binv.T, np.stack([gxr, gyr], axis=2))
        w = rule.weights * el.detB
        bv = el.basis_values_ref(rule.points)
        Gk = np.einsum("q,nqd,kqd->nk", w, grad, bv)
        rowsG.append(np.repeat(ids, len(gm)))
        colsG.append(np.tile(gm, len(ids)))
        valsG.append(Gk.ravel())
        grad = np.einsum("dc,nqc->nqd", el.Binv.T, np.stack([sxr, syr], axis=2))
        w = srule.weights * el.detB
        Sk = np.einsum("q,nqd,mqd->nm", w, grad, grad)
        rowsS.append(np.repeat(ids, len(ids)))
        colsS.append(np.tile(ids, len(ids)))
        valsS.append(Sk.ravel())
    nn = ls.n_nodes
    G = sp.coo_matrix(
        (np.concatenate(valsG), (np.concatenate(rowsG), np.concatenate(colsG))),
        shape=(nn, space.ndof),
    ).tocsr()
    S = sp.coo_matrix(
        (np.concatenate(valsS), (np.concatenate(rowsS), np.concatenate(colsS))),
        shape=(nn, nn),
    ).tocsr()
    return G, S


# -- dense constrained least squares via the null-space method --------------------------


def nullspace_constrained_min(M, b, B, g):
    """argmin 1/2 x^T M x - b^T x subject to B x = g, solved by a particular
    solution plus a null-space parametrization (independent of any KKT path)."""
    M = np.asarray(M, float)
    B = np.atleast_2d(np.asarray(B, float))
    x0 = np.linalg.lstsq(B, np.asarray(g, float), rcond=None)[0]
    N = null_space(B)
    if N.size == 0:
        return x0
    y = np.linalg.solve(N.T @ M @ N, N.T @ (np.asarray(b, float) - M @ x0))
    return x0 + N @ y


def element_kkt_oracle(mesh, k, p, v_eval, div_eval, quad_degree=30):
    """Divergence-constrained element fit assembled from plain quadrature and
    solved by the null-space method."""
    space = rtn_space(mesh, p)
    el = space.elements[k]
    rule = quad_rule(quad_degree)
    pts = el.map_to_phys(rule.points)
    w = rule.weights * el.detB
    bv = el.basis_values_ref(rule.points)
    M = np.einsum("q,kqd,lqd->kl", w, bv, bv)
    b = np.einsum("q,kqd,qd->k", w, bv, v_eval(pts))
    g = el.scalar_moments(div_eval(pts), (pts, w))
    return nullspace_constrained_min(M, b, el.Bdiv, g)


def _assemble_patch(mesh, patch, p, chi, g):
    """Patch mass, divergence block and right-hand sides on the active dofs,
    one element at a time.  Returns (M, b, B, grhs, patch space)."""
    from hdivkit.local_solve import PatchSpace

    space = rtn_space(mesh, p)
    ps = PatchSpace.build(patch, space)
    nd = ps.ndof
    sdim = space.elements[0].sdim
    M = np.zeros((nd, nd))
    b = np.zeros(nd)
    B = np.zeros((len(patch.tris) * sdim, nd))
    grhs = np.zeros(len(patch.tris) * sdim)
    for t_idx, k in enumerate(patch.tris):
        k = int(k)
        el = space.elements[k]
        m = ps.elem_maps[k]
        act = m >= 0
        ia = m[act]
        M[np.ix_(ia, ia)] += el.M[np.ix_(act, act)]
        b[ia] += el.M[act] @ chi[k]
        B[t_idx * sdim : (t_idx + 1) * sdim, ia] = el.Bdiv[:, act]
        grhs[t_idx * sdim : (t_idx + 1) * sdim] = g[k]
    return M, b, B, grhs, ps


def patch_oracle(mesh, patch, p, theta_coeffs, chi, g):
    """Patch equilibration by the null-space method on the active dofs.

    For interior/Neumann patches the incompatible component of g is removed
    against the constant direction first (same data handling, different
    solver algebra).
    """
    M, b, B, grhs, ps = _assemble_patch(mesh, patch, p, chi, g)
    if patch.kind in ("interior", "neumann"):
        space = rtn_space(mesh, p)
        sdim = space.elements[0].sdim
        kern = np.zeros(len(patch.tris) * sdim)
        for t_idx, k in enumerate(patch.tris):
            kern[t_idx * sdim] = np.sqrt(space.elements[int(k)].area)
        grhs = grhs - kern * (kern @ grhs) / (kern @ kern)
    return nullspace_constrained_min(M, b, B, grhs), ps


# -- patch equilibration data by per-element quadrature -------------------------------


def interp_product_with_hat_oracle(theta, patch, mesh, p_target):
    """Degree-``p_target`` dofs of psi_a * theta on the patch triangles, by
    physical quadrature exact in the product's degree; dict triangle -> dofs."""
    space = rtn_space(mesh, p_target)
    out = {}
    deg = theta.p + p_target + 3
    rule = quad_rule(deg)
    n1d = (deg + 3) // 2
    for k in patch.tris:
        k = int(k)
        el = space.elements[k]

        def ev(pts, k=k):
            vals = theta.eval(pts, elem=k)
            hat = hat_values(patch, mesh, k, pts)
            return vals * hat[:, None]

        out[k] = el.dofs_of_field(ev, tri_rule=rule, n1d=n1d)
    return out


def patch_problem_oracle(patch, theta, v, p, mesh, policy):
    """Patch data chi_a, g_a and the assembled problem (M, rhs, B, grhs), with
    the data taken by quadrature on every (patch, element) pair: the hat
    function by ``hat_values``, the gradient term by an exact rule."""
    space = rtn_space(mesh, p)
    exact_rule = quad_rule(2 * p + 4)
    chi = interp_product_with_hat_oracle(theta, patch, mesh, p)
    g = {}
    for k in patch.tris:
        k = int(k)
        el = space.elements[k]
        tri, _, _ = policy.element_rules(el, key=("tri", k))
        pts = el.quad_points(tri)
        hat = hat_values(patch, mesh, k, pts)
        gk = el.scalar_moments(hat * v.eval_div(pts, elem=k), tri)
        tpts = el.map_to_phys(exact_rule.points)
        tvals = theta.eval(tpts, elem=k) @ patch.hat_grad(mesh, k)
        g[k] = gk + el.scalar_moments(tvals, exact_rule)
    M, rhs, B, grhs, _ = _assemble_patch(mesh, patch, p, chi, g)
    return {"chi": chi, "g": g, "M": M, "rhs": rhs, "B": B, "grhs": grhs}


def projector_oracle(v, p, mesh, quad_degree=None):
    """End-to-end projection error computed through the brute-force patch
    path at doubled quadrature degree."""
    from hdivkit.local_solve import build_patch_problem, theta_field
    from hdivkit.mesh import vertex_patches
    from hdivkit.projector import ConformingRTNField
    from hdivkit.quadpolicy import QuadPolicy

    qd = quad_degree or (2 * (2 * p + 14))
    policy = QuadPolicy(p, field=v, degree=qd, self_check=False)
    theta = theta_field(v, p, mesh, policy=policy)
    space = rtn_space(mesh, p)
    sigma = ConformingRTNField(mesh, p)
    for patch in vertex_patches(mesh):
        prob = build_patch_problem(patch, theta, v, p, mesh, policy=policy)
        s = nullspace_constrained_min(
            prob.M,
            prob.rhs,
            prob.B,
            prob.grhs
            - (
                prob.kernel * (prob.kernel @ prob.grhs) / (prob.kernel @ prob.kernel)
                if prob.kernel is not None
                else 0.0
            ),
        )
        sigma.dofs[prob.pspace.global_dof_map(space)] += s
    err2 = 0.0
    rule = quad_rule(qd)
    for k in range(mesh.num_triangles):
        el = space.elements[k]
        pts = el.map_to_phys(rule.points)
        diff = v.eval(pts, elem=k) - sigma.eval(pts, elem=k)
        err2 += el.norm_sq(diff, rule)
    return np.sqrt(err2), sigma


def edge_projection_oracle(mesh, e, g_eval, p):
    """1D least squares against monomials of the arclength parameter with
    dense normal equations and high-order Gauss quadrature."""
    a, b = mesh.edges[e]
    pa = mesh.vertices[a]
    vec = mesh.edge_vector(e)
    L = mesh.edge_length(e)
    t, w = gauss01(40)
    pts = pa[None, :] + t[:, None] * vec[None, :]
    V = np.vander(t, p + 1, increasing=True).T  # rows: monomials t^i
    G = (V * w) @ V.T
    r = (V * w) @ np.asarray(g_eval(pts), float)
    c = np.linalg.solve(G, r)
    return c @ V  # projected values at the Gauss points
