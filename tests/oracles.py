"""Brute-force reference implementations, kept independent of the library's
solve paths: exact monomial integrals, rational Gram-Schmidt reference bases,
the per-element evaluation, dof and moment methods (``ElementOracle``) and
the element-by-element canonical interpolant, the stored element-table
stacks C_k, M_k and Bdiv_k of the closed formulas,
per-element dual bases by quadrature and a dense solve, per-element error
and fit loops, normal-equation least squares, null-space constrained
minimization, per-site COO assembly loops, the least-squares form, its
coercivity witness and orthogonality residual block by block, the per-element stacked
element solves on the stored M_k and formed Bdiv_k, patch equilibration
data taken
by quadrature on every (patch, element) pair, the dense Bunch-Kaufman KKT
solve, the unhybridized global saddle solve, the element-by-element and
patch-by-patch projector loop with its
per-patch stability surrogate on dict-numbered Lagrange nodes, the patch
layer one signature group at a time, the stacked patch layer with one
multiplier and one surrogate system per patch, the
mesh topology loops, the hanging-node loop over the boundary edges, the
grid generators cell by cell and red refinement
triangle by triangle on a dict of midpoints, the point-by-point corner wedge
rule and the point-layer kernels in their stacked forms (length-2 reductions and broadcasts)."""

import weakref
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
from scipy.linalg import null_space

from hdivkit import polys
from hdivkit.elements import (
    _REF_VERTS,
    ElementRTN,
    RTNSpace,
    _dof_scaling,
    barycentric,
    edge_dof_values,
    hat_operators,
    lagrange_grads_ref,
    reference_dual,
    rtn_dim,
    rtn_reference,
    rtn_space,
    scalar_basis,
)
from hdivkit.linsolve import chunks, dense_solve, solve_stacked
from hdivkit.mesh import DIRICHLET, NEUMANN, Mesh, MeshError, _label_boundary, one_triangle
from hdivkit.quadpolicy import QuadPolicy
from hdivkit.quadrature import TriangleRule, gauss01, jacobi01, quad_rule

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


# -- one element at a time ----------------------------------------------------------------


class ElementOracle(ElementRTN):
    """One RTN_p element with its own evaluation, dof and moment methods, on
    the data of an ``ElementRTN`` view: the per-element reference for the
    library's stacked paths (``RTNSpace.values`` / ``div_values`` /
    ``scalar_values`` / ``moments``, ``canonical_interp``).  ``ElementOracle(coords,
    p)`` builds a standalone triangle as the element of its one-triangle mesh,
    ``ElementOracle.of(view)`` wraps a view.

    Rules are a TriangleRule (reference coords) or a physical (points,
    weights) pair.
    """

    def __init__(self, coords, p: int):
        super().__init__(rtn_space(one_triangle(coords), p), 0)
        self._edges()

    @classmethod
    def of(cls, el):
        out = cls.__new__(cls)
        out.__dict__.update(vars(el))
        out._edges()
        return out

    def _edges(self):
        self.edge_len = []
        self.edge_normal = []
        for la, lb in self.edge_dirs:
            vec = self.coords[lb] - self.coords[la]
            L = np.linalg.norm(vec)
            self.edge_len.append(float(L))
            self.edge_normal.append(np.array([vec[1], -vec[0]]) / L)

    def n_edge_dofs(self):
        return 3 * (self.p + 1)

    def map_to_phys(self, refpts):
        refpts = np.atleast_2d(refpts)
        return refpts @ self.B.T + self.X0

    def map_to_ref(self, physpts):
        physpts = np.atleast_2d(physpts)
        return (physpts - self.X0) @ self.Binv.T

    def piola_values(self, refvals):
        """Contravariant Piola transform of reference values (n, npts, 2)."""
        return np.einsum("dc,knc->knd", self.B, refvals) / self.detB

    def _edge_ref_points(self, slot, t):
        la, lb = self.edge_dirs[slot]
        a, b = _REF_VERTS[la], _REF_VERTS[lb]
        return a[None, :] + np.outer(t, b - a)

    # -- evaluation -----------------------------------------------------------------

    def basis_values_ref(self, refpts):
        """Physical values of the dual basis at reference points: (ndof, npts, 2)."""
        prim = self.ref.eval(refpts)
        vals = self.piola_values(prim)
        return np.einsum("jk,jnd->knd", self.C, vals)

    def eval_coeffs(self, coeffs, physpts):
        """Field values sum_k c_k Phi_k at physical points; (npts, 2)."""
        refpts = self.map_to_ref(physpts)
        prim = self.ref.eval(refpts)
        combo = self.C @ np.asarray(coeffs, float)
        ref = np.einsum("j,jnd->nd", combo, prim)
        return (ref @ self.B.T) / self.detB

    def eval_div_coeffs(self, coeffs, physpts):
        """Divergence values of the coefficient field at physical points."""
        refpts = self.map_to_ref(physpts)
        phi = scalar_basis(self.p).eval(refpts) / np.sqrt(self.detB)
        return (self.Bdiv @ np.asarray(coeffs, float)) @ phi

    def ref_poly_of(self, coeffs):
        """Reference component polynomials of the coefficient field (before Piola)."""
        combo = self.C @ np.asarray(coeffs, float)
        return combo @ self.ref.prim_x, combo @ self.ref.prim_y

    def scalar_values(self, scoeffs, physpts):
        """Values of a scalar field given in the orthonormal P_p(K) basis."""
        refpts = self.map_to_ref(physpts)
        phi = scalar_basis(self.p).eval(refpts) / np.sqrt(self.detB)
        return np.asarray(scoeffs, float) @ phi

    # -- dofs of general fields --------------------------------------------------------

    def dofs_of_field(self, eval_fn, *, edge_rules=None, tri_rule=None, n1d=None):
        """Dof vector of an arbitrary field given by ``eval_fn(physpts) -> (n, 2)``.

        ``edge_rules`` may give per-slot (t, w) 1D rules (used for singular
        integrands); otherwise an ``n1d``-point Gauss rule is used on every
        edge.  ``tri_rule`` supplies the interior points/weights.
        """
        p = self.p
        dof = np.empty(self.ndof)
        for slot in range(3):
            if edge_rules is not None and edge_rules[slot] is not None:
                t, wt = edge_rules[slot]
            else:
                t, wt = gauss01(n1d)
            pts = self.map_to_phys(self._edge_ref_points(slot, t))
            vn = eval_fn(pts) @ self.edge_normal[slot]
            q = edge_dof_values(p, t, self.edge_len[slot])
            dof[slot * (p + 1) : (slot + 1) * (p + 1)] = (
                q * (wt * self.edge_len[slot] * vn)
            ).sum(axis=1)
        if self.idim:
            pts, w = self._interior_rule(tri_rule)
            vals = eval_fn(pts)
            phi = scalar_basis(p - 1).eval(self.map_to_ref(pts)) / np.sqrt(self.detB)
            base = 3 * (p + 1)
            dof[base : base + self.idim] = (phi * (w * vals[:, 0])).sum(axis=1)
            dof[base + self.idim :] = (phi * (w * vals[:, 1])).sum(axis=1)
        return dof

    def _interior_rule(self, tri_rule):
        if isinstance(tri_rule, TriangleRule):
            return self.map_to_phys(tri_rule.points), tri_rule.weights * self.detB
        pts, w = tri_rule
        return np.atleast_2d(pts), np.asarray(w, float)

    # -- moments --------------------------------------------------------------------

    def rtn_moments(self, values, rule):
        """(f, Phi_k)_K for field values at the rule's points."""
        if isinstance(rule, TriangleRule):
            vals = self.basis_values_ref(rule.points)
            w = rule.weights * self.detB
        else:
            pts, w = rule
            vals = self.basis_values_ref(self.map_to_ref(pts))
        return np.einsum("kqd,qd->k", vals, np.asarray(w, float)[:, None] * values)

    def scalar_moments(self, values, rule):
        """(f, phi_m)_K against the orthonormal scalar P_p basis."""
        if isinstance(rule, TriangleRule):
            phi = scalar_basis(self.p).eval(rule.points) / np.sqrt(self.detB)
            w = rule.weights * self.detB
        else:
            pts, w = rule
            phi = scalar_basis(self.p).eval(self.map_to_ref(pts)) / np.sqrt(self.detB)
        return phi @ (np.asarray(w, float) * np.asarray(values, float))

    def norm_sq(self, values, rule):
        """Quadrature of |values|^2 over the element."""
        if isinstance(rule, TriangleRule):
            w = rule.weights * self.detB
        else:
            _, w = rule
        values = np.asarray(values, float)
        if values.ndim == 1:
            return float(np.sum(np.asarray(w, float) * values**2))
        return float(np.sum(np.asarray(w, float) * np.einsum("qd,qd->q", values, values)))

    def quad_points(self, rule):
        if isinstance(rule, TriangleRule):
            return self.map_to_phys(rule.points)
        return np.atleast_2d(rule[0])


def element(space, k):
    """Oracle of element k of an RTN space (or element tables)."""
    return ElementOracle.of(space.elements[k])


def elements(space):
    """Oracles of every element of an RTN space, in order."""
    return [ElementOracle.of(el) for el in space.elements]


def reference_element(p):
    """Oracle of the reference-element RTN_p basis."""
    return ElementOracle(_REF_VERTS, p)


def canonical_interp_oracle(v, p, mesh, *, policy=None, quad_degree=None):
    """Canonical RTN_p interpolant element by element: each element's rules
    from ``QuadPolicy.element_rules`` and ``ElementOracle.dofs_of_field``."""
    from hdivkit.projections import BrokenRTNField

    space = rtn_space(mesh, p)
    if policy is None:
        policy = QuadPolicy(p, mesh, v, quad_degree)
    out = BrokenRTNField(mesh, p)
    for k, el in enumerate(elements(space)):
        tri, edges, _ = policy.element_rules(el, key=("tri", k))
        out.coeffs[k] = el.dofs_of_field(
            lambda pts: v.eval(pts, elem=k),
            edge_rules=edges,
            tri_rule=tri,
        )
    return out


# -- per-element dual basis by quadrature and a dense solve ----------------------------


def dofs_of_refvals(el, ref_evaluator, n1d, tri_rule):
    """Dof vectors on element ``el`` of Piola-mapped reference functions
    (``ref_evaluator(pts)`` returns reference values (n, npts, 2)), by edge
    and interior quadrature; shape (ndof, n)."""
    el = ElementOracle.of(el)
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


def stacked_tables_oracle(mesh, p):
    """(C, M, Bdiv) stacked over the elements of ``mesh`` by the closed
    formulas, each table stored whole:
      C_k    = C_ref T_k^{-1}                                 (n, nprim, ndof)
      M_k    = C_k^T (S_00 G_xx + S_01 (G_xy + G_xy^T) + S_11 G_yy) C_k / det B_k
      Bdiv_k = div_rows C_k / sqrt(det B_k)                   (n, sdim, ndof)
    with S_k = B_k^T B_k and the dof scaling T_k of ``elements._dof_scaling``."""
    edge, _, Tinv = _dof_scaling(mesh, p)
    n, ne, C_ref, ref = mesh.num_triangles, 3 * (p + 1), reference_dual(p), rtn_reference(p)
    C = np.empty((n,) + C_ref.shape)
    C[:, :, :ne] = C_ref[:, :ne] / edge[:, None, :]
    interior = np.einsum("rci,kcd->krdi", C_ref[:, ne:].reshape(len(C_ref), 2, -1), Tinv)
    C[:, :, ne:] = interior.reshape(n, len(C_ref), -1)
    S = np.swapaxes(mesh.B, 1, 2) @ mesh.B
    gram = np.stack([ref.gram_xx, ref.gram_xy + ref.gram_xy.T, ref.gram_yy])
    coef = np.stack([S[:, 0, 0], S[:, 0, 1], S[:, 1, 1]], axis=1) / mesh.detB[:, None]
    Mtil = (coef @ gram.reshape(3, -1)).reshape(n, *gram.shape[1:])
    M = np.swapaxes(C, 1, 2) @ Mtil @ C
    return C, (M + np.swapaxes(M, 1, 2)) / 2, (ref.div_rows @ C) / np.sqrt(mesh.detB)[:, None, None]


_STACKED_MASS = weakref.WeakKeyDictionary()


def stacked_mass(mesh, p):
    """The M_k stack of ``stacked_tables_oracle``, kept per (mesh, p) while
    the mesh lives."""
    per_mesh = _STACKED_MASS.setdefault(mesh, {})
    if p not in per_mesh:
        per_mesh[p] = stacked_tables_oracle(mesh, p)[1]
    return per_mesh[p]


def hat_values(patch, mesh, k, pts):
    """Hat function of the patch vertex at physical points inside triangle k."""
    xs = triangle_coords(mesh, k)
    B = np.column_stack([xs[1] - xs[0], xs[2] - xs[0]])
    lam = np.linalg.solve(B, (np.atleast_2d(pts) - xs[0]).T)
    la = patch.local_index[k]
    return 1.0 - lam[0] - lam[1] if la == 0 else lam[la - 1]


def hat_grad(patch, mesh, k):
    """Gradient of the hat function of the patch vertex on triangle k
    (constant vector)."""
    xs = triangle_coords(mesh, k)
    B = np.column_stack([xs[1] - xs[0], xs[2] - xs[0]])
    ghat = {0: (-1.0, -1.0), 1: (1.0, 0.0), 2: (0.0, 1.0)}[patch.local_index[k]]
    return np.linalg.inv(B).T @ np.asarray(ghat)


# -- per-element error and fit loops -------------------------------------------------


def samples(policy):
    """(group, field values, divergence values) of every group of
    ``policy.groups``, from ``policy.values``; zeros for the divergence of a
    divergence-free field, which the policy does not evaluate."""
    groups = policy.groups()
    divs = [np.zeros(g.w.shape) for g in groups] if policy.divergence_free else policy.values(div=True)
    return list(zip(groups, policy.values(), divs))


def local_best_oracle(v, p, mesh, k, policy):
    """Unconstrained local best on element k: per-element quadrature on the
    policy's rule and a dense solve of the element mass matrix."""
    el = element(rtn_space(mesh, p), k)
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
        el = element(space, k)
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
    for k, el in enumerate(elements(space)):
        tri, _, _ = policy.element_rules(el, key=("tri", k))
        pts = el.quad_points(tri)
        rhs[space.dof_map[k]] += el.rtn_moments(v.eval(pts, elem=k), tri)
        g[k] = el.scalar_moments(v.eval_div(pts, elem=k), tri)
    nf = len(fidx)
    A = np.block([[M.toarray(), B.T.toarray()], [B.toarray(), np.zeros((B.shape[0],) * 2)]])
    sol = np.linalg.lstsq(A, np.concatenate([rhs[fidx], g.ravel()]), rcond=None)[0]
    from hdivkit.projector import ConformingRTNField

    sigma = ConformingRTNField(mesh, p)
    sigma.dofs[fidx] = sol[:nf]
    return np.sqrt(element_norm_sq_oracle(v, sigma, p, mesh, policy).sum()), sigma.dofs


def lagrange_grad_element(ls, nodal_values, k, refpts):
    """Gradient of the P_q function of ``nodal_values`` on element k of the
    ``LagrangeSpace`` ls at reference points; (npts, 2)."""
    gx, gy = lagrange_grads_ref(ls.q, refpts)
    el_vals = nodal_values[ls._elem_nodes[k]]
    gref = np.stack([el_vals @ gx, el_vals @ gy], axis=1)
    return gref @ ls.mesh.Binv[k]


def potential_h1_error_oracle(prob, ls, u_h, rule):
    """||grad(u - u_h)|| by quadrature one element at a time."""
    total = 0.0
    for k, el in enumerate(elements(rtn_space(prob.mesh, 0))):
        pts = el.map_to_phys(rule.points)
        diff = prob.grad_u(pts) - lagrange_grad_element(ls, u_h, k, rule.points)
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

    policy = QuadPolicy(p, mesh, v, quad_degree)
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
            el = element(space, k)
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
    from hdivkit.projector import ConformingRTNField

    space = rtn_space(mesh, p)
    rhs = np.einsum("kij,kj->ki", stacked_mass(mesh, p), w.dofs[space.dof_map])
    sigma, _, _ = conforming_saddle_oracle(space, rhs, np.zeros((mesh.num_triangles, space.sdim)))
    return ConformingRTNField(mesh, p, sigma)


def conforming_saddle_oracle(space, rhs, g):
    """The unhybridized global saddle solve: minimize 1/2 s^T M s - rhs^T s
    subject to B s = g over the conforming space, as one sparse saddle
    matrix [[M, B^T], [B, 0]] from ``conforming_blocks``, factorized by plain
    SuperLU (partial pivoting, default ordering) with one refinement step.
    Without a Dirichlet edge, g is projected onto the compatible data and
    a bordering row/column pins the constant multiplier mode.  ``rhs``
    (nt, ndof) holds unassembled element moments, ``g`` (nt, sdim).
    Returns (s (ndof,), u (nt, sdim), relative KKT residual)."""
    import scipy.sparse.linalg as spla

    nt = len(g)
    M, B, fidx = space.conforming_blocks()
    rhs = np.bincount(space.dof_map.ravel(), np.ravel(rhs), space.ndof)[fidx]
    g = np.ravel(g)
    if (space.mesh.edge_label == "dirichlet").any():
        A = sp.bmat([[M, B.T], [B, None]], format="csc")
        b = np.concatenate([rhs, g])
    else:
        kernel = np.zeros((nt, space.sdim))
        kernel[:, 0] = np.sqrt(space.mesh.area)
        kernel = kernel.ravel()
        g = g - kernel * (kernel @ g) / (kernel @ kernel)
        kcol = sp.csr_matrix(kernel[:, None])
        A = sp.bmat([[M, B.T, None], [B, None, kcol], [None, kcol.T, None]], format="csc")
        b = np.concatenate([rhs, g, [0.0]])
    lu = spla.splu(A)
    x = lu.solve(b)
    x = x + lu.solve(b - A @ x)
    sigma = np.zeros(space.ndof)
    sigma[fidx] = x[: len(fidx)]
    res = np.linalg.norm(A @ x - b) / max(np.linalg.norm(b), 1e-300)
    return sigma, x[len(fidx) : len(fidx) + len(g)].reshape(nt, -1), res


# -- stacked element solves on the stored tables ---------------------------------------


def saddle_solve_stacked(M, B, rhs, g):
    """Minimize 1/2 x^T M[k] x - rhs[k]^T x subject to B[k] x = g[k] for every k.

    ``M`` (n, d, d), ``B`` (n, m, d); returns (x (n, d), multipliers (n, m)),
    each with a trailing axis r for a block of data rhs (n, d, r), g (n, m, r).
    The KKT stack is built and solved a chunk at a time.
    """
    M, B = np.asarray(M, float), np.asarray(B, float)
    rhs, g = np.asarray(rhs, float), np.asarray(g, float)
    n, m, d = B.shape
    size = d + m
    sol = np.empty((n, size) + rhs.shape[2:])
    for sl in chunks(n, 8 * size * size):
        K = np.zeros((len(M[sl]), size, size))
        K[:, :d, :d] = M[sl]
        K[:, d:, :d] = B[sl]
        K[:, :d, d:] = np.swapaxes(B[sl], 1, 2)
        sol[sl] = solve_stacked(K, np.concatenate([rhs[sl], g[sl]], axis=1))
    return sol[:, :d], sol[:, d:]


def element_solve_oracle(space, f, g, tris):
    """``linsolve.element_solve`` on the physical systems, one factorization
    per element: ``saddle_solve_stacked`` over M_k (``stacked_mass``) and the
    formed Bdiv_k (``div_blocks``), or ``solve_stacked`` over M_k when g has
    no rows."""
    M = stacked_mass(space.mesh, space.p)[tris]
    if g.shape[1]:
        return saddle_solve_stacked(M, space.div_blocks(tris), f, g)
    return solve_stacked(M, f), np.empty(g.shape)


def eliminate_oracle(space, rhs, g, tris=None):
    """``linsolve.eliminate`` with the signed edge unit columns [E_k^T; 0]
    pushed through the per-element stacked KKT solves with the data."""
    mesh, ne = space.mesh, 3 * (space.p + 1)
    tris = np.arange(mesh.num_triangles) if tris is None else np.asarray(tris)
    own = mesh.edge_tris[mesh.tri_edges[tris], 0] == tris[:, None]
    sgn = np.repeat(np.where(own, 1.0, -1.0), space.p + 1, axis=1)
    F = np.concatenate([rhs, np.eye(rhs.shape[1], ne) * sgn[:, None, :]], axis=2)
    G = np.concatenate([g, np.zeros(g.shape[:2] + (ne,))], axis=2)
    return (sgn, *element_solve_oracle(space, F, G, tris))


def use_stacked_element_solves(monkeypatch):
    """Route every element solve of the library through the oracles above."""
    from hdivkit import best_approx, linsolve, local_solve

    for mod in (linsolve, local_solve, best_approx):
        monkeypatch.setattr(mod, "element_solve", element_solve_oracle)
    for mod in (linsolve, local_solve):
        monkeypatch.setattr(mod, "eliminate", eliminate_oracle)
    # the space keeps the multiplier system its first solve built: build it
    # through the eliminations above on every solve instead
    monkeypatch.setattr(RTNSpace, "multipliers", property(linsolve.multiplier_system))


# -- sparse assembly, one hand-written COO loop per block -----------------------------


def conforming_blocks_oracle(space):
    """Conforming mass M and divergence B over the non-Neumann dofs, assembled
    element by element into explicit COO triplets.  Returns (M, B, free)."""
    n = space.ndof
    sdim = space.sdim
    nt = len(space.elements)
    free = np.ones(n, dtype=bool)
    free[space.neumann_edge_dofs()] = False
    fidx = np.flatnonzero(free)
    pos = -np.ones(n, dtype=int)
    pos[fidx] = np.arange(len(fidx))
    rowsM, colsM, valsM = [], [], []
    rowsB, colsB, valsB = [], [], []
    for k in range(nt):
        el = element(space, k)
        dofmap = space.dof_map[k]
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
    gxr, gyr = lagrange_grads_ref(ls.q, rule.points)
    sxr, syr = lagrange_grads_ref(ls.q, srule.points)
    rowsG, colsG, valsG = [], [], []
    rowsS, colsS, valsS = [], [], []
    for k in range(len(space.elements)):
        el = element(space, k)
        ids = ls._elem_nodes[k]
        gm = space.dof_map[k]
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


# -- the least-squares form block by block ----------------------------------------------


def ls_blocks_oracle(prob, p, q):
    """The blocks of the least-squares form for ``solve_ls_mixed(prob, p, q)``,
    rebuilt from ``flux_system`` and ``assemble_csr``: M, B, D = B^T B,
    G and S over all Lagrange nodes, the data moments ``fmom``, ``l2`` and
    the Lagrange space ``ls``."""
    from hdivkit.elements import _coupling_reference, _stiffness_blocks
    from hdivkit.linsolve import assemble_csr
    from hdivkit.model_problems import LagrangeSpace

    space, M, B, fmom = flux_system(prob, p)
    ls = LagrangeSpace(prob.mesh, q)
    nodes, rule = ls._elem_nodes, quad_rule(2 * q)
    coupling = space.rows_to_elem(_coupling_reference(q, p)[None])
    stiffness = _stiffness_blocks(ls.mesh, rule, np.stack(lagrange_grads_ref(ls.q, rule.points), axis=2))
    return {
        "M": M,
        "B": B,
        "D": (B.T @ B).tocsr(),
        "G": assemble_csr(nodes, space.dof_map, coupling, (ls.n_nodes, space.ndof)),
        "S": assemble_csr(nodes, nodes, stiffness, (ls.n_nodes, ls.n_nodes)),
        "fmom": fmom,
        "l2": prob.l_omega**2,
        "ls": ls,
    }


def ls_form_oracle(blocks, p_, v_, q_, w_):
    """A(p, v; q, w) = (p + grad v, q + grad w) + l^2 (div p, div q) term by
    term, for flux dofs p, q and potentials v, w on all Lagrange nodes."""
    M, D, G, S, l2 = (blocks[k] for k in ("M", "D", "G", "S", "l2"))
    return (
        float(w_ @ (S @ v_))
        + float(w_ @ (G @ p_))
        + float(v_ @ (G @ q_))
        + float(p_ @ (M @ q_))
        + l2 * float(p_ @ (D @ q_))
    )


def _ls_random_pairs(blocks):
    """The twenty seeded random pairs (p, v) of the witness and the
    orthogonality check, drawn flux first, then the free potential nodes."""
    ls, rng = blocks["ls"], np.random.default_rng(0)
    for _ in range(20):
        p_ = rng.standard_normal(blocks["M"].shape[0])
        v_ = np.zeros(ls.n_nodes)
        v_[ls.free_index] = rng.standard_normal(len(ls.free_index))
        yield p_, v_


def coercivity_witness_oracle(blocks):
    """``model_problems.coercivity_witness`` from the blocks: the minimum
    slack of A(p,v;p,v) >= (1/8)(||p||^2 + l^2 ||div p||^2 + ||grad v||^2)."""
    M, D, S, l2 = (blocks[k] for k in ("M", "D", "S", "l2"))
    worst = np.inf
    for p_, v_ in _ls_random_pairs(blocks):
        lhs = ls_form_oracle(blocks, p_, v_, p_, v_)
        rhs = float(p_ @ (M @ p_)) + l2 * float(p_ @ (D @ p_)) + float(v_ @ (S @ v_))
        worst = min(worst, (lhs - rhs / 8.0) / max(rhs, 1e-300))
    return worst


def galerkin_orthogonality_oracle(blocks, sig, u):
    """``test_model_problems.galerkin_orthogonality`` from the blocks: the worst
    relative gap A(sig, u; p, v) - l^2 (f, div p) over the random pairs."""
    worst = 0.0
    for p_, v_ in _ls_random_pairs(blocks):
        lhs = ls_form_oracle(blocks, sig, u, p_, v_)
        rhs = blocks["l2"] * float(blocks["fmom"] @ (blocks["B"] @ p_))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
    return worst


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
    el = element(space, k)
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
    space = rtn_space(mesh, p)
    ps = patch_space_oracle(patch, space)
    nd = ps.ndof
    sdim = space.sdim
    M = np.zeros((nd, nd))
    b = np.zeros(nd)
    B = np.zeros((len(patch.tris) * sdim, nd))
    grhs = np.zeros(len(patch.tris) * sdim)
    for t_idx, k in enumerate(patch.tris):
        k = int(k)
        el = element(space, k)
        m = ps.elem_maps[k]
        act = m >= 0
        ia = m[act]
        M[np.ix_(ia, ia)] += el.M[np.ix_(act, act)]
        b[ia] += el.M[act] @ chi[k]
        B[t_idx * sdim : (t_idx + 1) * sdim, ia] = el.Bdiv[:, act]
        grhs[t_idx * sdim : (t_idx + 1) * sdim] = g[k]
    return M, b, B, grhs, ps


def patch_oracle(mesh, patch, p, theta_coeffs, chi, g):
    """Patch equilibration by the null-space method on the active dofs;
    ``chi`` and ``g`` hold the per-triangle data in ``patch.tris`` order.

    For interior/Neumann patches the incompatible component of g is removed
    against the constant direction first (same data handling, different
    solver algebra).
    """
    tris = [int(k) for k in patch.tris]
    M, b, B, grhs, ps = _assemble_patch(mesh, patch, p, dict(zip(tris, chi)), dict(zip(tris, g)))
    if patch.kind in ("interior", "neumann"):
        space = rtn_space(mesh, p)
        sdim = space.sdim
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
        el = element(space, k)

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
        el = element(space, k)
        tri, _, _ = policy.element_rules(el, key=("tri", k))
        pts = el.quad_points(tri)
        hat = hat_values(patch, mesh, k, pts)
        gk = el.scalar_moments(hat * v.eval_div(pts, elem=k), tri)
        tpts = el.map_to_phys(exact_rule.points)
        tvals = theta.eval(tpts, elem=k) @ hat_grad(patch, mesh, k)
        g[k] = gk + el.scalar_moments(tvals, exact_rule)
    M, rhs, B, grhs, _ = _assemble_patch(mesh, patch, p, chi, g)
    return {"chi": chi, "g": g, "M": M, "rhs": rhs, "B": B, "grhs": grhs}


def projector_oracle(v, p, mesh, quad_degree=None):
    """End-to-end projection error computed through the brute-force patch
    path at doubled quadrature degree: the library's patch data, assembled
    and solved patch by patch by ``patch_oracle``."""
    from hdivkit.local_solve import build_patch_problem, patch_data, patch_layout, theta_field
    from hdivkit.mesh import vertex_patches
    from hdivkit.projector import ConformingRTNField
    from hdivkit.quadpolicy import QuadPolicy

    qd = quad_degree or (2 * (2 * p + 14))
    policy = QuadPolicy(p, mesh, v, qd)
    policy.self_check = False
    theta = theta_field(policy)
    data = patch_data(theta, policy)
    space = rtn_space(mesh, p)
    sigma = ConformingRTNField(mesh, p)
    for patch in vertex_patches(mesh):
        layout = patch_layout(mesh, p)
        prob = build_patch_problem(layout, chunk_of(layout, patch.vertex), data)
        s, ps = patch_oracle(mesh, patch, p, theta.coeffs, prob.chi, prob.g)
        sigma.dofs[ps.dofs] += s
    err2 = 0.0
    rule = quad_rule(qd)
    for k in range(mesh.num_triangles):
        el = element(space, k)
        pts = el.map_to_phys(rule.points)
        diff = v.eval(pts, elem=k) - sigma.eval(pts, elem=k)
        err2 += el.norm_sq(diff, rule)
    return np.sqrt(err2), sigma


# -- dense KKT solves one system at a time ----------------------------------------------


def saddle_matrix(M, B, kernel=None):
    """Dense KKT matrix [[M, B^T], [B, 0]], optionally bordered by a kernel row.

    ``kernel`` is a left null vector of B (constraint-space direction along
    which the data must be compatible); the bordering pins the corresponding
    multiplier component.
    """
    M = np.asarray(M, float)
    B = np.atleast_2d(np.asarray(B, float))
    n, m = M.shape[0], B.shape[0]
    size = n + m + (1 if kernel is not None else 0)
    A = np.zeros((size, size))
    A[:n, :n] = M
    A[n : n + m, :n] = B
    A[:n, n : n + m] = B.T
    if kernel is not None:
        k = np.asarray(kernel, float)
        A[n : n + m, -1] = k
        A[-1, n : n + m] = k
    return A


def saddle_solve_dense(M, B, rhs, g, kernel=None):
    """Minimize 1/2 x^T M x - rhs^T x subject to B x = g by one Bunch-Kaufman
    solve (``dense_solve``) of the KKT matrix; returns (x, multiplier).  With a
    kernel, g is first projected onto the compatible subspace."""
    M = np.asarray(M, float)
    B = np.atleast_2d(np.asarray(B, float))
    g = np.asarray(g, float)
    if kernel is not None:
        k = np.asarray(kernel, float)
        g = g - k * (k @ g) / (k @ k)
    A = saddle_matrix(M, B, kernel)
    b = np.concatenate([np.asarray(rhs, float), g, [0.0] * (1 if kernel is not None else 0)])
    sol = dense_solve(A, b)
    n = M.shape[0]
    return sol[:n], sol[n : n + B.shape[0]]


# -- the projector element by element and patch by patch --------------------------------


def elem_constrained_min_oracle(v, q, mesh, k, policy):
    """Divergence-constrained fit in RTN_q on element k: the policy's rule for
    the element, per-element moments and one dense KKT solve."""
    el = element(rtn_space(mesh, q), k)
    tri, _, _ = policy.element_rules(el, key=("tri", k))
    pts = el.quad_points(tri)
    b = el.rtn_moments(v.eval(pts, elem=k), tri)
    g = el.scalar_moments(v.eval_div(pts, elem=k), tri)
    return saddle_solve_dense(el.M, el.Bdiv, b, g)[0]


def local_best_constrained_oracle(v, p, mesh, k, policy):
    """E_loc of the divergence-constrained fit on element k, by per-element
    quadrature on the policy's rule."""
    el = element(rtn_space(mesh, p), k)
    theta = elem_constrained_min_oracle(v, p, mesh, k, policy)
    tri, _, _ = policy.element_rules(el, key=("tri", k))
    pts = el.quad_points(tri)
    vvals, dvvals = v.eval(pts, elem=k), v.eval_div(pts, elem=k)
    l2 = np.sqrt(el.norm_sq(vvals - el.eval_coeffs(theta, pts), tri))
    proj = el.scalar_values(el.scalar_moments(dvvals, tri), pts)
    return np.hypot(l2, el.h / (p + 1) * np.sqrt(el.norm_sq(dvvals - proj, tri)))


def _scalar_eval(f, k, pts):
    if hasattr(f, "eval_element"):
        return f.eval_element(k, pts)
    return np.asarray(f(np.atleast_2d(pts)), float)


def project_scalar_oracle(f, p, mesh, policy, warnings):
    """Elementwise L2 projection onto broken P_p one element at a time, with
    the degree-doubling self-check on each element's check rule."""
    from hdivkit.projections import ScalarPWField

    out = ScalarPWField(mesh, p)
    for k, el in enumerate(elements(rtn_space(mesh, p))):
        tri, _, chk = policy.element_rules(el, key=("tri", k))
        out.coeffs[k] = el.scalar_moments(_scalar_eval(f, k, el.quad_points(tri)), tri)
        if chk is not None and policy.self_check:
            ref = el.scalar_moments(_scalar_eval(f, k, el.quad_points(chk)), chk)
            err = np.linalg.norm(out.coeffs[k] - ref) / max(np.linalg.norm(ref), 1e-300)
            if err > 1e-9:
                warnings.append(f"project_scalar element {k}: self-check defect {err:.2e}")
    return out


def hat_div_moments_oracle(v, space, policy, tris):
    """(lambda_i div v, phi_m)_K and (lambda_i |div v|, 1)_K element by
    element on the policy's rules."""
    sb = scalar_basis(space.p)
    out = np.empty((len(tris), 3, sb.dim))
    mag = np.empty((len(tris), 3))
    for r, k in enumerate(tris):
        k = int(k)
        el = element(space, k)
        rule, _, _ = policy.element_rules(el, key=("tri", k))
        if isinstance(rule, TriangleRule):
            pts, w, ref = el.map_to_phys(rule.points), rule.weights * el.detB, rule.points
        else:
            pts, w = rule
            ref = el.map_to_ref(pts)
        lam, phi = barycentric(ref), sb.eval(ref)
        dv = v.eval_div(pts, elem=k)
        out[r] = (lam * (w * dv)) @ phi.T / np.sqrt(el.detB)
        mag[r] = lam @ (w * np.abs(dv))
    return out, mag


def patch_data_oracle(theta, v, p, mesh, policy):
    """``patch_data`` on every triangle with the divergence term taken
    element by element."""
    from hdivkit.local_solve import PatchData
    from hdivkit.projections import hat_interpolants

    space = rtn_space(mesh, p)
    tris = np.arange(mesh.num_triangles)
    _, G = hat_operators(theta.p, p)
    ref = theta.space.to_ref(theta.coeffs, tris)
    grad = np.einsum("imb,kb->kim", G, ref) / np.sqrt(space.detB)[:, None, None]
    div, div_scale = hat_div_moments_oracle(v, space, policy, tris)
    grad_scale = np.sqrt(0.5) * np.outer(np.linalg.norm(ref, axis=1), np.linalg.norm(G[:, 0], axis=1))
    return PatchData(hat_interpolants(theta, p, tris), div + grad, div_scale + grad_scale)


@dataclass
class PatchSpace:
    """Active dof layout of the patch space on one vertex patch."""

    patch: object
    p: int
    tris: np.ndarray
    ndof: int
    elem_maps: dict  # triangle -> local dof -> patch dof (-1 = pinned to zero)
    dofs: np.ndarray  # patch dof -> global dof (for zero-extension scatter)


@dataclass
class PatchProblem:
    """The equilibration problem of one vertex patch, keyed by triangle."""

    pspace: PatchSpace
    g: dict  # triangle -> divergence data coefficients (orthonormal scalar basis)
    chi: dict  # triangle -> target dof vector (broken RTN_p)
    M: np.ndarray
    B: np.ndarray
    rhs: np.ndarray
    grhs: np.ndarray
    kernel: np.ndarray | None
    compat_defect: float = 0.0


def patch_space_oracle(patch, space):
    """Patch dof layout of one vertex patch by a loop over its triangles."""
    p = space.p
    active = list(patch.active_edges)
    epos = {e: i for i, e in enumerate(active)}
    n_edge = len(active) * (p + 1)
    n_int = space.n_int
    maps = {}
    dofs = [np.arange(e * (p + 1), (e + 1) * (p + 1)) for e in active]
    for t_idx, k in enumerate(patch.tris):
        k = int(k)
        m = -np.ones(space.ref.dim, dtype=int)
        for slot in range(3):
            e = space.mesh.tri_edges[k, slot]
            if e in epos:
                m[slot * (p + 1) : (slot + 1) * (p + 1)] = np.arange(epos[e] * (p + 1), (epos[e] + 1) * (p + 1))
        m[3 * (p + 1) :] = n_edge + t_idx * n_int + np.arange(n_int)
        maps[k] = m
        dofs.append(space.ndof_edge + k * n_int + np.arange(n_int))
    return PatchSpace(
        patch=patch, p=p, tris=patch.tris, ndof=n_edge + len(patch.tris) * n_int, elem_maps=maps,
        dofs=np.concatenate(dofs).astype(int),
    )


def elem_maps(pspace):
    """The patch dof of each local dof of the patch triangles, in
    ``pspace.tris`` order (-1 = pinned to zero); (nt, ndof)."""
    return np.array([pspace.elem_maps[int(k)] for k in pspace.tris])


def elem_rows(pspace, s):
    """A patch-dof solution ``s`` on the element rows of its triangles
    (``pspace.tris`` order), zero on the pinned slots; (nt, ndof)."""
    m = elem_maps(pspace)
    return np.where(m >= 0, np.append(s, 0.0)[m], 0.0)


def sum_patch_fields(parts, mesh, p):
    """sigma as the projector summed it in the patch dof numbering: each
    patch's fluxes ``x`` (n, nt, ndof) averaged into its patch dofs (the two
    sides of an interior edge, pinned slots dropped), zero-extended and
    summed into the global dofs in ascending vertex order; ``parts`` holds
    (vertices, x) pairs (``run_fluxes``)."""
    from hdivkit.mesh import vertex_patches

    space = rtn_space(mesh, p)
    dofs = np.zeros(space.ndof)
    for a, xa in sorted(((int(a), xa) for verts, x in parts for a, xa in zip(verts, x)), key=lambda r: r[0]):
        ps = patch_space_oracle(vertex_patches(mesh)[a], space)
        m = elem_maps(ps)
        keep = m >= 0
        dofs[ps.dofs] += np.bincount(m[keep], xa[keep], ps.ndof) / np.bincount(m[keep], minlength=ps.ndof)
    return dofs


def build_patch_problem_oracle(patch, p, mesh, data):
    """The equilibration problem of one vertex patch, assembled triangle by
    triangle from ``patch_data`` tables; raises CompatibilityError as the
    library does."""
    from hdivkit.local_solve import CompatibilityError

    space = rtn_space(mesh, p)
    pspace = patch_space_oracle(patch, space)
    chi, g = {}, {}
    mass_scale = 0.0
    for k in patch.tris:
        k = int(k)
        i = patch.local_index[k]
        chi[k], g[k] = data.chi[k, i], data.g[k, i]
        mass_scale += data.mass_scale[k, i]
    M, rhs, B, grhs, _ = _assemble_patch(mesh, patch, p, chi, g)
    kernel = None
    defect = 0.0
    if patch.kind in ("interior", "neumann"):
        kernel = np.zeros(len(grhs))
        kernel[:: space.sdim] = np.sqrt(mesh.area[patch.tris])
        defect = abs(float(kernel @ grhs)) / max(mass_scale, 1e-300)
        if defect > 1e-9:
            raise CompatibilityError(
                f"patch of vertex {patch.vertex}: divergence data incompatible "
                f"(defect {defect:.2e}); the elementwise fit and the patch data disagree"
            )
    return PatchProblem(pspace, g, chi, M, B, rhs, grhs, kernel, defect)


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
        xs = triangle_coords(mesh, k)
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


def patch_stability_ratio_oracle(problem: PatchProblem, s, mesh):
    """``patch_stability_ratio`` of one patch: per-element evaluation of
    the bases at physical points, dict-keyed P_{p+2} nodes, a least-squares
    solve of the mean-constrained system and, at Dirichlet vertices, the
    nodes on the Dirichlet edges found by their position relative to the
    edge length."""
    patch = problem.pspace.patch
    p = problem.pspace.p
    q = p + 2
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
        el = element(space, k)
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
    if patch.kind in ("interior", "neumann"):
        A = np.zeros((nn + 1, nn + 1))
        A[:nn, :nn] = S
        A[:nn, nn] = mass1
        A[nn, :nn] = mass1
        b = np.concatenate([ell, [0.0]])
        y = np.linalg.lstsq(A, b, rcond=None)[0][:nn]
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
                # squared distance from the edge line against the squared edge
                # length: an absolute threshold would depend on the mesh scale
                if -1e-10 <= t <= 1 + 1e-10 and abs(rel @ rel - t**2 * L2) < 1e-12 * L2:
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
        el = element(space, k)
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


def project_hdiv_oracle(v, p, mesh, *, variant="def31", measure_stability=False, extra=0, theta_hook=None):
    """The projector one element and one patch at a time: per-element
    constrained fits, per-patch assembly and dense Bunch-Kaufman KKT solves,
    zero extensions summed in ascending vertex order, and the commuting
    residual through the per-element scalar projection of div v.  ``extra``
    raises the degree of every quadrature rule (exact rules stay exact, so
    the change in the result is the oracle's own roundoff spread);
    ``theta_hook`` may modify the element fits before the patch step.
    Returns a dict with ``dofs``, ``theta``, ``compat_defects``,
    ``stability_ratios`` with their ``stability_amplification``
    (||chi_a|| / ||s_a - chi_a||, the factor by which roundoff in s_a
    reaches the ratio), ``commute_abs``, ``commute_scale`` and
    ``warnings``."""
    from hdivkit.mesh import vertex_patches
    from hdivkit.projector import check_field_compatibility
    from hdivkit.projections import BrokenRTNField

    check_field_compatibility(QuadPolicy(p, mesh, v))
    q = p if variant == "def31" else p - 1
    policy = QuadPolicy(p, mesh, v)
    theta_policy = policy if q == p else QuadPolicy(q, mesh, v)
    for pol in {id(policy): policy, id(theta_policy): theta_policy}.values():
        pol.base_degree += extra
    theta = BrokenRTNField(mesh, q)
    for k in range(mesh.num_triangles):
        theta.coeffs[k] = elem_constrained_min_oracle(v, q, mesh, k, theta_policy)
    if theta_hook is not None:
        theta_hook(theta)
    data = patch_data_oracle(theta, v, p, mesh, policy)
    space, M = rtn_space(mesh, p), stacked_mass(mesh, p)
    dofs = np.zeros(space.ndof)
    out = {"theta": theta, "compat_defects": [], "stability_ratios": [], "warnings": [],
           "stability_amplification": []}
    for patch in vertex_patches(mesh):
        prob = build_patch_problem_oracle(patch, p, mesh, data)
        s, _ = saddle_solve_dense(prob.M, prob.B, prob.rhs, prob.grhs, kernel=prob.kernel)
        out["compat_defects"].append(prob.compat_defect)
        if measure_stability:
            out["stability_ratios"].append(patch_stability_ratio_oracle(prob, s, mesh))
            chi_sq = diff_sq = 0.0
            for k in patch.tris:
                m = prob.pspace.elem_maps[int(k)]
                c = np.zeros(len(m))
                c[m >= 0] = s[m[m >= 0]]
                chi, Mk = prob.chi[int(k)], M[int(k)]
                chi_sq += chi @ Mk @ chi
                diff_sq += (c - chi) @ Mk @ (c - chi)
            out["stability_amplification"].append(np.sqrt(chi_sq / max(diff_sq, 1e-300)))
        dofs[prob.pspace.dofs] += s
    div_of_v = _DivOf(v)
    pi_div = project_scalar_oracle(div_of_v, p, mesh, policy, out["warnings"]).coeffs
    Bdiv = stacked_tables_oracle(mesh, p)[2]
    div_sigma = (Bdiv @ dofs[space.dof_map][:, :, None])[:, :, 0]
    out["dofs"] = dofs
    out["commute_abs"] = np.linalg.norm(div_sigma - pi_div)
    out["commute_scale"] = max(np.linalg.norm(pi_div), theta.norm() * (p + 1) / mesh.h_max, 1e-300)
    return out


class _DivOf:
    """div v through the per-element scalar-projection interface."""

    def __init__(self, v):
        self.v = v

    def eval_element(self, k, pts):
        return self.v.eval_div(pts, elem=k)


# -- mesh topology loops ------------------------------------------------------------------


def mesh_topology_oracle(vertices, triangles):
    """Canonical triangles (counterclockwise, smallest vertex first), then
    edges, edge triangles, triangle edges and orientation signs by a dict of
    vertex pairs and a loop over (triangle, slot); raises ValueError for an
    edge of more than two triangles."""
    verts = np.asarray(vertices, float)
    tris = []
    for a, b, c in np.asarray(triangles, int):
        xa, xb, xc = verts[a], verts[b], verts[c]
        area2 = (xb[0] - xa[0]) * (xc[1] - xa[1]) - (xb[1] - xa[1]) * (xc[0] - xa[0])
        tri = [a, b, c] if area2 > 0 else [a, c, b]
        r = int(np.argmin(tri))
        tris.append(tri[r:] + tri[:r])
    tris = np.array(tris, dtype=int)
    tris = tris[np.lexsort((tris[:, 2], tris[:, 1], tris[:, 0]))]
    raw = {}
    for k, (a, b, c) in enumerate(tris):
        for pair in ((b, c), (c, a), (a, b)):
            raw.setdefault((min(pair), max(pair)), []).append(k)
    edges = np.array(sorted(raw), dtype=int).reshape(-1, 2)
    eidx = {tuple(e): i for i, e in enumerate(edges)}
    edge_tris = -np.ones((len(edges), 2), dtype=int)
    for key, ks in raw.items():
        if len(ks) > 2:
            raise ValueError(f"edge {key} belongs to {len(ks)} triangles")
        edge_tris[eidx[key], : len(ks)] = sorted(ks)
    tri_edges = np.empty((len(tris), 3), dtype=int)
    sign = np.empty((len(tris), 3), dtype=int)
    for k, (a, b, c) in enumerate(tris):
        cen = verts[tris[k]].mean(axis=0)
        for j, pair in enumerate(((b, c), (c, a), (a, b))):
            e = eidx[(min(pair), max(pair))]
            tri_edges[k, j] = e
            tvec = verts[edges[e, 1]] - verts[edges[e, 0]]
            n = np.array([tvec[1], -tvec[0]]) / np.linalg.norm(tvec)
            sign[k, j] = 1 if np.dot(n, verts[edges[e]].mean(axis=0) - cen) > 0 else -1
    return tris, edges, edge_tris, tri_edges, sign


def _rule_label(rule, mid, lo, hi):
    if rule == "all-dirichlet":
        return DIRICHLET
    if rule == "all-neumann":
        return NEUMANN
    if rule == "left-neumann":
        return NEUMANN if abs(mid[0] - lo[0]) < 1e-12 else DIRICHLET
    raise MeshError(f"unknown boundary label rule {rule!r}")


def label_boundary_oracle(vertices, triangles, rule):
    """Labels of the 1-incident edges by a dict of vertex pairs, in the order
    the edges first appear."""
    raw = {}
    for a, b, c in np.asarray(triangles, int):
        for pair in ((b, c), (c, a), (a, b)):
            key = (int(min(pair)), int(max(pair)))
            raw[key] = raw.get(key, 0) + 1
    verts = np.asarray(vertices, float)
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    return [
        (key, _rule_label(rule, (verts[key[0]] + verts[key[1]]) / 2, lo, hi))
        for key, count in raw.items()
        if count == 1
    ]


def apply_labels_oracle(mesh, boundary_labels):
    """The labels of ``mesh``'s edges (ne,) from a list of (a, b) -> label
    items by a dict of vertex pairs, one item at a time, or the MeshError of
    the first item that fails a check, else of the first boundary edge left
    without a label."""
    eidx = {tuple(e): i for i, e in enumerate(mesh.edges)}
    labels = {}
    for (a, b), label in boundary_labels:
        key = (min(a, b), max(a, b))
        if key not in eidx:
            raise MeshError(f"labeled edge {key} does not exist")
        e = eidx[key]
        if mesh.edge_tris[e, 1] != -1:
            raise MeshError(f"edge {key} is interior but carries a boundary label")
        if label not in (DIRICHLET, NEUMANN):
            raise MeshError(f"unknown boundary label {label!r} on edge {key}")
        if e in labels:
            raise MeshError(f"edge {key} labeled twice")
        labels[e] = label
    for e in mesh.boundary_edges():
        if e not in labels:
            raise MeshError(f"boundary edge {tuple(int(a) for a in mesh.edges[e])} is missing a label")
    return [labels.get(e, "") for e in range(mesh.num_edges)]


def check_hanging_nodes_oracle(mesh):
    """The hanging-node check as a loop over the boundary edges, ascending,
    each measuring every vertex: the MeshError of the first edge with a
    vertex strictly inside it, naming its lowest one.  ``mesh`` needs only
    ``vertices``, ``edges`` and ``edge_tris``, so the topology of a triangle
    list that ``Mesh`` refuses serves as well."""
    # a vertex strictly inside a single-triangle edge means a hanging node
    for e in np.flatnonzero(mesh.edge_tris[:, 1] == -1):
        a, b = mesh.edges[e]
        pa, pb = mesh.vertices[a], mesh.vertices[b]
        d = pb - pa
        L2 = d @ d
        rel = mesh.vertices - pa
        t = (rel @ d) / L2
        dist2 = np.einsum("ij,ij->i", rel, rel) - t**2 * L2
        inside = (t > 1e-12) & (t < 1 - 1e-12) & (dist2 < 1e-16 * L2)
        inside[[a, b]] = False
        if inside.any():
            v = int(np.flatnonzero(inside)[0])
            raise MeshError(f"hanging node: vertex {v} lies inside edge {tuple(mesh.edges[e].tolist())}")


# -- mesh generator and refinement loops ----------------------------------------------------


def build_structured_oracle(n: int, labels="all-dirichlet"):
    """Uniform n x n grid on the unit square, cells split along the
    (i, j) -> (i+1, j+1) diagonal."""
    if n < 1:
        raise MeshError("n must be >= 1")
    xs = np.linspace(0.0, 1.0, n + 1)
    vertices = [(x, y) for y in xs for x in xs]
    vid = lambda i, j: j * (n + 1) + i
    triangles = []
    for j in range(n):
        for i in range(n):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            triangles.append((a, b, c))
            triangles.append((a, c, d))
    return Mesh(vertices, triangles, _label_boundary(vertices, triangles, labels))


def build_lshape_oracle(n: int, labels="all-dirichlet"):
    """L-shaped domain (-1,1)^2 minus the quadrant x>0, y<0; n cells per unit.

    The reentrant corner sits exactly at the origin, which is always a mesh
    vertex.
    """
    if n < 1:
        raise MeshError("n must be >= 1")
    m = 2 * n
    xs = np.linspace(-1.0, 1.0, m + 1)
    vid = {}
    vertices = []
    for j in range(m + 1):
        for i in range(m + 1):
            x, y = xs[i], xs[j]
            if x > 1e-12 and y < -1e-12:
                continue
            vid[(i, j)] = len(vertices)
            vertices.append((x, y))
    triangles = []
    for j in range(m):
        for i in range(m):
            xc = (xs[i] + xs[i + 1]) / 2
            yc = (xs[j] + xs[j + 1]) / 2
            if xc > 0 and yc < 0:
                continue
            a, b = vid[(i, j)], vid[(i + 1, j)]
            c, d = vid[(i + 1, j + 1)], vid[(i, j + 1)]
            triangles.append((a, b, c))
            triangles.append((a, c, d))
    return Mesh(vertices, triangles, _label_boundary(vertices, triangles, labels))


def refine_uniform_oracle(mesh: Mesh) -> Mesh:
    """Red refinement: each triangle splits into 4 similar children."""
    verts = [tuple(v) for v in mesh.vertices]
    mid = {}

    def midpoint(a, b):
        key = (min(a, b), max(a, b))
        if key not in mid:
            mid[key] = len(verts)
            verts.append(tuple((mesh.vertices[a] + mesh.vertices[b]) / 2))
        return mid[key]

    triangles = []
    for a, b, c in mesh.triangles:
        mab, mbc, mca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        triangles += [(a, mab, mca), (mab, b, mbc), (mca, mbc, c), (mab, mbc, mca)]
    labels = []
    for (a, b), lab in zip(mesh.edges, mesh.edge_label.tolist()):
        if not lab:
            continue
        m = midpoint(a, b)
        labels += [((a, m), lab), ((m, b), lab)]
    return Mesh(verts, triangles, labels)


# -- edge traces and projector report neighborhoods ----------------------------------------


def trace_residuals_oracle(field):
    """(jump, Neumann) residuals of a conforming field by a loop over edges:
    the largest edge L2 norm of the normal-trace jump on interior edges and
    of the normal trace on Neumann edges, each side evaluated through its
    element view at 8 Gauss points of the lower -> higher parametrization."""
    mesh = field.mesh
    t, w = gauss01(8)
    out = []
    for edges in (mesh.interior_edges(), np.flatnonzero(mesh.edge_label == "neumann")):
        worst = 0.0
        for e in edges:
            a, b = mesh.edges[e]
            tvec = mesh.vertices[b] - mesh.vertices[a]
            L = float(np.linalg.norm(tvec))
            pts = mesh.vertices[a][None, :] + t[:, None] * tvec[None, :]
            n = np.array([tvec[1], -tvec[0]]) / L
            vn = [field.eval(pts, elem=int(k)) @ n for k in mesh.edge_tris[e] if k != -1]
            diff = vn[0] - vn[1] if len(vn) == 2 else vn[0]
            worst = max(worst, float(np.sqrt(np.sum(w * L * diff**2))))
        out.append(worst)
    return tuple(out)


def projector_report_oracle(v, p, mesh, *, variant="def31"):
    """``projector_report``'s records with each element's neighborhood
    collected from the vertex patches of its three vertices, one element at
    a time."""
    from hdivkit.best_approx import _local_fits
    from hdivkit.mesh import vertex_patches
    from hdivkit.projector import project_hdiv

    sigma = project_hdiv(v, p, mesh, variant=variant)
    policy = QuadPolicy(p, mesh, v)
    patches = vertex_patches(mesh)
    loc = _local_fits(policy)
    E_loc, osc2 = loc["E_loc"], loc["div_part"] ** 2
    hscale = mesh.h / (p + 1)
    err2, derr2, pk2, vnorm2 = np.zeros((4, mesh.num_triangles))
    for g, vvals, dvvals in samples(policy):
        svals = g.eval(sigma)
        err2[g.tris] = g.norm_sq(vvals - svals)
        derr2[g.tris] = hscale[g.tris] ** 2 * g.norm_sq(dvvals - g.eval(sigma, div=True))
        pk2[g.tris] = g.norm_sq(svals)
        vnorm2[g.tris] = g.norm_sq(vvals)
    records = []
    for k in range(mesh.num_triangles):
        neighborhood = sorted({int(kk) for a in mesh.triangles[k] for kk in patches[a].tris})
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
    return records


def corner_rule_oracle(coords, vertex_local, gamma, n_theta, n_r):
    """One row of ``quadrature.corner_rules`` point by point: a fresh angular
    Gauss rule and one ray and one radial node at a time; (points, weights)."""
    from numpy.polynomial.legendre import leggauss

    coords = np.asarray(coords, float)
    c = coords[vertex_local]
    q1 = coords[(vertex_local + 1) % 3]
    q2 = coords[(vertex_local + 2) % 3]
    th1 = np.arctan2(*(q1 - c)[::-1])
    th2 = np.arctan2(*(q2 - c)[::-1])
    if th2 - th1 > np.pi:
        th2 -= 2 * np.pi
    elif th1 - th2 > np.pi:
        th2 += 2 * np.pi
    tg, wg = leggauss(n_theta)
    theta = (th1 + th2) / 2 + (th2 - th1) / 2 * tg
    wtheta = wg * abs(th2 - th1) / 2
    edge = q2 - q1
    m = np.array([edge[1], -edge[0]])
    m /= np.linalg.norm(m)
    d = m @ q1
    if m @ c > d:
        m, d = -m, -d
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    R = (d - m @ c) / (dirs @ m)
    tr, wr = jacobi01(n_r, gamma + 1.0)
    pts = np.empty((n_theta * n_r, 2))
    wts = np.empty(n_theta * n_r)
    k = 0
    for j in range(n_theta):
        for i in range(n_r):
            r = R[j] * tr[i]
            pts[k] = c + r * dirs[j]
            wts[k] = wtheta[j] * wr[i] * R[j] ** 2 * tr[i] ** (-gamma)
            k += 1
    return pts, wts


# -- the patch layer one signature group at a time -------------------------------------
# The library's patch layer before its chunks held whole patches across
# signatures: each signature cut into groups by ``linsolve.chunks``, and
# each group assembled, solved, recovered, checked and measured by itself.
# sigma and the stability ratios of the one-pass layer equal it to the bit.


@dataclass
class PatchGroup:
    """The patches ``patches`` (a slice of the layout's) of signature
    ``sig`` of a ``local_solve.PatchLayout``, with their arrays as rows:
    ``mult`` numbers each patch's multipliers from 0."""

    verts: np.ndarray
    tris: np.ndarray
    local: np.ndarray
    mult: np.ndarray
    sign: np.ndarray
    cls: np.ndarray
    kernel: bool
    nl: int
    layout: object
    sig: int
    patches: slice

    def rows(self, sl):
        return group_rows(self.layout, self.sig, slice(self.patches.start + sl.start, self.patches.start + sl.stop))


def group_rows(layout, sig, patches):
    """The ``PatchGroup`` of the layout's patches ``patches`` of signature
    ``sig``, read from the flat arrays: a signature's pairs are
    contiguous, nt per patch, and its equations are numbered in their
    chunk from each patch's ``eq``."""
    g = layout.signatures[sig]
    pairs = np.arange(layout.pair[patches.start], layout.pair[patches.stop]).reshape(-1, g.nt)
    slots = layout.slots[pairs]
    mult = np.where(slots >= 0, slots - layout.eq[patches, None, None], -1)
    return PatchGroup(layout.verts[patches], layout.tris[pairs], layout.local[pairs], mult, layout.sign[pairs],
                      layout.cls[patches], g.kernel, g.nl, layout, sig, patches)


def signature_rows(layout):
    """Each signature of the layout as one ``PatchGroup``."""
    return [group_rows(layout, g.sig, g.patches) for g in layout.signatures]


def signature_groups(layout):
    """The patches of a layout in signature groups: each signature cut by
    ``linsolve.chunks`` with the element columns, five arrays of the
    multiplier blocks and the system of each patch as its bytes."""
    out, ne = [], 3 * (layout.p + 1)
    for g in layout.signatures:
        item = 8 * (g.nt * (rtn_dim(layout.p) * (4 + ne) + 5 * ne * (ne + 1)) + g.nl**2)
        out += [group_rows(layout, g.sig, slice(g.patches.start + sl.start, g.patches.start + sl.stop))
                for sl in chunks(g.n, item)]
    return out


def surrogate_rows(layout, mesh, patches):
    """The surrogate numbering of the layout's patches ``patches`` of one
    signature, read from the flat arrays: each patch's node numbers
    (n, nt, nloc), its fixed nodes (n, nn) and its surrogate classes."""
    nodes, fixed, cls = layout.surrogate(mesh)
    sig = int(np.searchsorted([g.patches.stop for g in layout.signatures], patches.start, side="right"))
    g = layout.signatures[sig]
    pairs = np.arange(layout.pair[patches.start], layout.pair[patches.stop]).reshape(-1, g.nt)
    rows = slice(patches.start - g.patches.start, patches.stop - g.patches.start)
    return nodes[pairs], fixed[sig][rows], cls[patches]


@dataclass
class PatchGroupProblem:
    """The hybrid problems of a ``PatchGroup``, stacked: ``chi`` (n, nt,
    ndof), ``g`` (n, nt, sdim), the class systems ``S`` (None beside the
    kept inverses ``inv`` and their max|S| ``size``), each row's class
    ``cls`` (None: one system per row), ``b`` (n, nl), the element fluxes
    ``x0`` (n, nt, ndof) and per unit of each column's unknown ``xe``,
    ``cols`` those unknowns, and ``compat_defect`` per row."""

    group: PatchGroup
    p: int
    chi: np.ndarray
    g: np.ndarray
    S: np.ndarray
    cls: np.ndarray
    b: np.ndarray
    x0: np.ndarray
    xe: np.ndarray
    cols: np.ndarray
    compat_defect: np.ndarray
    inv: np.ndarray = None
    size: np.ndarray = None


def build_patch_problem_group_oracle(group, data):
    """``local_solve.build_patch_problem`` of one signature group: the
    signature's kept multiplier inverses, or one system per class present
    in the group."""
    from hdivkit.local_solve import _columns, _multiplier_systems, _slots, _sum_into

    layout = group.layout
    p, n, ne = layout.p, len(group.verts), 3 * (layout.p + 1)
    chi, g = data.chi[group.tris, group.local], data.g[group.tris, group.local]
    x0, xe = chi + data.x[group.tris, :, group.local], data.x[group.tris, :, 3:]
    whole = layout.signatures[group.sig]
    table = layout.tables.class_systems("multiplier", group.sig, lambda r: _multiplier_systems(layout, whole, r, data))
    if table is None:
        rep, cls = np.unique(group.cls, return_index=True, return_inverse=True)[1:]
        S, inv, size = _multiplier_systems(layout, whole, group.patches.start + rep, data), None, None
    else:
        (S, inv, size), cls = table, group.cls
    b = _sum_into((n, group.nl), _slots(group.mult, group.nl), group.sign * x0[..., :ne])
    return PatchGroupProblem(group, p, chi, g, S, cls, b, x0, xe, _columns(group.mult, group.kernel),
                             data.defect[group.verts], inv, size)


def patch_equilibrate_group_oracle(problem):
    """``local_solve.patch_equilibrate`` of a ``PatchGroupProblem``: the
    fluxes (n, nt, ndof) and the multipliers (n, nl), every row's residual
    checked against its class's max|S|."""
    from hdivkit.linsolve import check_residuals, max_abs
    from hdivkit.local_solve import _slots, _sum_into

    group, ne = problem.group, 3 * (problem.p + 1)
    n = len(group.verts)
    lam = solve_stacked(problem.S, problem.b, problem.cls, problem.inv, name=None)
    row = np.arange(n)[:, None, None]
    z = (problem.xe @ np.append(lam, np.zeros((n, 1)), axis=1)[row, problem.cols][..., None])[..., 0]
    S_lam = _sum_into((n, group.nl), _slots(group.mult, group.nl), group.sign * z[..., :ne])
    size = max_abs(problem.S) if problem.size is None else problem.size
    if problem.cls is not None:
        size = size[problem.cls]
    check_residuals((problem.b - S_lam)[..., None], problem.b[..., None], lam[..., None], size,
                    lambda i: f"patch of vertex {group.verts[i]}")
    return problem.x0 - z, lam


def patch_stability_ratio_group_oracle(problem, x, mesh):
    """``local_solve.patch_stability_ratio`` of a ``PatchGroupProblem``, its
    rows in chunks of ``POINT_BYTES``, each chunk measured by itself."""
    group = problem.group
    nodes, fixed, kcls = surrogate_rows(group.layout, mesh, group.patches)
    return np.concatenate([
        _stability_ratios_group(group.rows(sl), (nodes[sl], fixed[sl], kcls[sl]), problem.p, problem.chi[sl], x[sl],
                                mesh)
        for sl in chunks(len(group.verts), 8 * (nodes.shape[1] * nodes.shape[2]) ** 2, points=True)])


def _stability_ratios_group(group, part, p, chi, x, mesh):
    from hdivkit.elements import _coupling_reference
    from hdivkit.local_solve import _sum_into, _surrogate_systems

    q = p + 2
    space = rtn_space(mesh, p)
    tris = group.tris
    n = len(tris)
    row = np.arange(n)[:, None, None]
    loc, fixed, kcls = part
    nn = fixed.shape[1]
    ref = space.to_ref(np.stack([x - chi, chi], axis=2), tris)
    ell = _sum_into((n, nn), row * nn + loc, -ref[:, :, 0] @ _coupling_reference(q, p).T)
    ell[fixed] = 0.0
    layout, whole = group.layout, group.layout.signatures[group.sig]
    nodes, whole_fixed, _ = surrogate_rows(layout, mesh, whole.patches)
    whole_tris = layout.tris[whole.pairs].reshape(whole.n, whole.nt)
    at = whole.patches.start  # the class systems are keyed on the layout's patches
    table = layout.tables.class_systems("surrogate", group.sig, lambda r: _surrogate_systems(
        mesh, p, whole_tris[r - at], nodes[r - at], whole_fixed[r - at], whole.kernel))
    if table is None:
        rep, cls = np.unique(kcls, return_index=True, return_inverse=True)[1:]
        K, inv = _surrogate_systems(mesh, p, tris[rep], loc[rep], fixed[rep], group.kernel), None
    else:
        (K, inv, _), cls = table, kcls
    rhs = np.append(ell, np.zeros((n, 1)), axis=1) if group.kernel else ell
    y = solve_stacked(K, rhs, cls, inv, lambda i: f"surrogate of vertex {group.verts[i]}")[:, :nn]
    dual = np.sqrt(np.maximum(np.sum(ell * y, axis=1), 0.0))
    num, chi_norm = np.sqrt(np.sum(ref * space.mass(ref, tris), axis=(1, 3))).T
    return np.where(num <= 1e-12 * chi_norm, 0.0, num / np.maximum(dual, 1e-300))


def patch_layer_group_oracle(v, p, mesh, *, variant="def31"):
    """sigma's dofs and the stability ratios (vertex order) of
    ``projector_report``, the library's theta and patch data taken through
    the signature groups."""
    from hdivkit.local_solve import patch_data, patch_layout, theta_field

    policy = QuadPolicy(p, mesh, v)
    data = patch_data(theta_field(policy, variant), policy)
    space = rtn_space(mesh, p)
    rows, ratios = np.zeros((mesh.num_triangles, 3, space.ref.dim)), []
    for group in signature_groups(patch_layout(mesh, p)):
        problem = build_patch_problem_group_oracle(group, data)
        x, _ = patch_equilibrate_group_oracle(problem)
        rows[group.tris, group.local] = x
        ratios += zip(group.verts, patch_stability_ratio_group_oracle(problem, x, mesh))
    for z in range(3):
        rows[:, z, z * (p + 1):(z + 1) * (p + 1)] = 0.0
    return space.gather(rows.sum(axis=1)), np.array([r for _, r in sorted(ratios)])


def run_fluxes(layout, chunk, x):
    """A chunk's pair fluxes ``x`` (P, ndof) per run: (vertices, fluxes
    (n, nt, ndof)) pairs."""
    verts = layout.verts[chunk.patches]
    return [(verts[r.patches], x[r.pairs].reshape(r.n, r.nt, -1)) for r in chunk.runs]


# -- the stacked patch layer, one system per patch ------------------------------------


def _group_mass_defects(group, data, mesh):
    """Relative patch mass |(g, 1)_omega| against the size of its
    cancelling terms, per row of ``group`` (zero without a kernel)."""
    if not group.kernel:
        return np.zeros(len(group.verts))
    mass = np.sum(np.sqrt(mesh.area[group.tris]) * data.g[group.tris, group.local, 0], axis=1)
    scale = np.sum(data.mass_scale[group.tris, group.local], axis=1)
    return np.abs(mass) / np.maximum(scale, 1e-300)


def build_patch_problem_stacked_oracle(group, p, mesh, data):
    """``local_solve.build_patch_problem`` with the multiplier system of
    every row assembled, one class per row: the stacked assembly before
    patch classes."""
    from hdivkit.local_solve import _sum_into, check_compatibility

    defect = _group_mass_defects(group, data, mesh)
    check_compatibility(group.verts, defect)
    chi, g, X = data.chi[group.tris, group.local], data.g[group.tris, group.local], data.x[group.tris]
    (n, nt), ne = group.tris.shape, 3 * (p + 1)
    x0 = chi + np.take_along_axis(X[..., :3], group.local[..., None, None], axis=3)[..., 0]
    # columns: the constant-divergence coefficient (in place of the grounded
    # multiplier 0 at kernel patches: it takes the data's incompatible part,
    # roundoff included, which grounding alone leaves on one edge), then the
    # edge multipliers
    L, nl = group.mult, group.nl
    mu = np.full((n, nt, 1), 0 if group.kernel else -1)
    cols = np.concatenate([mu, np.where(group.kernel & (L == 0), -1, L)], axis=2)
    rows = np.where(L >= 0, np.arange(n)[:, None, None] * nl + L, -1)
    idx = np.where(cols[..., None, :] >= 0, rows[..., :, None] * nl + cols[..., None, :], -1)
    own = mesh.edge_tris[mesh.tri_edges, 0] == np.arange(mesh.num_triangles)[:, None]
    sgn = np.repeat(np.where(own, 1.0, -1.0), p + 1, axis=1)[group.tris]  # the signs of ``eliminate``
    S = _sum_into((n, nl, nl), idx, sgn[..., :, None] * X[..., :ne, 3:])
    b = _sum_into((n, nl), rows, sgn * x0[..., :ne])
    return PatchGroupProblem(group, p, chi, g, S, None, b, x0, X[..., 3:], cols, defect)


def patch_stability_ratio_stacked_oracle(problem, x, mesh):
    """``local_solve.patch_stability_ratio`` with the surrogate numbered and
    assembled, and its system solved, for every row: the stacked surrogate
    before patch classes, in its chunks."""
    group, p = problem.group, problem.p
    width = group.tris.shape[1] * polys.tri_dim(p + 2)
    return np.concatenate([_stability_ratios_stacked(group.rows(sl), p, problem.chi[sl], x[sl], mesh)
                           for sl in chunks(len(x), 8 * width**2, points=True)])


def _stability_ratios_stacked(group, p, chi, x, mesh):
    from hdivkit.elements import (_coupling_reference, _stiffness_blocks, lagrange_bary, lagrange_grads_ref,
                                  lagrange_nodes)
    from hdivkit.local_solve import _sum_into

    # p + 2 keeps the surrogate space nontrivial even on one-triangle corner
    # patches with two clamped edges
    q = p + 2
    space = rtn_space(mesh, p)
    tris = group.tris
    n = len(tris)
    row = np.arange(n)[:, None, None]
    # patch-local numbering: the global nodes of each row, in ascending order
    nodes = lagrange_nodes(mesh, q)
    stride = nodes.max() + 1
    uniq, loc = np.unique(row * stride + nodes[tris], return_inverse=True)
    start = np.searchsorted(uniq, np.arange(n + 1) * stride)
    loc = loc.reshape(tris.shape + (-1,)) - start[:-1, None, None]
    nn = int(np.diff(start).max())
    # fixed nodes get an identity row: padding past a row's own node count
    # and, at Dirichlet vertices, the nodes on the Dirichlet edges there
    fixed = np.arange(nn) >= np.diff(start)[:, None]
    if not group.kernel:
        dirichlet = mesh.edge_label == DIRICHLET
        # edge z of a triangle lies opposite its local vertex z
        clamped = dirichlet[mesh.tri_edges[tris]] & (np.arange(3) != group.local[..., None])
        on_edge = lagrange_bary(q).T == 0  # (3, nloc)
        at = np.any(clamped[..., :, None] & on_edge, axis=-2)
        fixed[np.broadcast_to(row, at.shape)[at], loc[at]] = True
    # s_a - chi_a per triangle, and chi_a
    ref = space.to_ref(np.stack([x - chi, chi], axis=2), tris)
    # element tables: (grad w, grad w)_K, -(s_a - chi_a, grad w)_K, (1, w)_K,
    # by reference rules exact in their degree (at most q + p)
    rule = quad_rule(q + p)
    vals = polys.lagrange_nodal(q).T @ polys.eval_monomials(q, rule.points) * rule.weights
    detB = mesh.detB[tris][..., None]
    stiff = _stiffness_blocks(mesh, rule, np.stack(lagrange_grads_ref(q, rule.points), axis=2), tris)
    ell = -ref[:, :, 0] @ _coupling_reference(q, p).T
    flat = row * nn + loc
    S = _sum_into((n, nn, nn), flat[..., :, None] * nn + loc[..., None, :], stiff)
    ell = _sum_into((n, nn), flat, ell)
    S[fixed[:, :, None] | fixed[:, None, :]] = 0.0
    fr, fi = np.nonzero(fixed)
    S[fr, fi, fi] = 1.0
    ell[fixed] = 0.0
    if group.kernel:  # bordered by the mean-zero constraint
        mean = _sum_into((n, nn), flat, detB * vals.sum(axis=1))
        K = np.zeros((n, nn + 1, nn + 1))
        K[:, :nn, :nn], K[:, nn, :nn], K[:, :nn, nn] = S, mean, mean
        y = solve_stacked(K, np.append(ell, np.zeros((n, 1)), axis=1))[:, :nn]
    else:
        y = solve_stacked(S, ell)
    dual = np.sqrt(np.maximum(np.sum(ell * y, axis=1), 0.0))
    # numerator: ||s_a - chi_a|| over the patch, beside ||chi_a||
    num, chi_norm = np.sqrt(np.sum(ref * space.mass(ref, tris), axis=(1, 3))).T
    return np.where(num <= 1e-12 * chi_norm, 0.0, num / np.maximum(dual, 1e-300))


def patch_layer_stacked_oracle(v, p, mesh, *, variant="def31"):
    """The dofs of ``project_hdiv`` and its stability ratios (vertex order)
    through the stacked patch layer: library theta and patch data, then
    ``build_patch_problem_stacked_oracle``, the group hybrid solve and
    recovery, and ``patch_stability_ratio_stacked_oracle``."""
    from hdivkit.local_solve import patch_data, patch_layout, theta_field

    policy = QuadPolicy(p, mesh, v)
    theta = theta_field(policy, variant)
    data = patch_data(theta, policy)
    parts, ratios = [], []
    for group in signature_groups(patch_layout(mesh, p)):
        problem = build_patch_problem_stacked_oracle(group, p, mesh, data)
        x, _ = patch_equilibrate_group_oracle(problem)
        parts.append((group.verts, x))
        ratios += zip(group.verts, patch_stability_ratio_stacked_oracle(problem, x, mesh))
    return sum_patch_fields(parts, mesh, p), np.array([r for _, r in sorted(ratios)])


# -- the point layer in its stacked forms ---------------------------------------------
# Each kernel as written before the point layer went through ``quadrature.xy``:
# reductions over the length-2 component axis and operands broadcast along it.
# The component forms must match these to the bit.


def norm_sq_stacked_oracle(group, vals):
    """``QuadGroup.norm_sq``: quadrature of |vals|^2 on each element; (n,)."""
    sq = vals**2 if vals.ndim == 2 else np.sum(vals**2, axis=2)
    return np.sum(group.w * sq, axis=1)


def map_to_phys_stacked_oracle(mesh, refpts):
    """``Mesh.map_to_phys``: reference points (nq, 2) in every triangle."""
    return np.asarray(refpts, float) @ np.swapaxes(mesh.B, 1, 2) + mesh.X0[:, None]


def edge_points_stacked_oracle(mesh, e, t):
    """``Mesh.edge_points``: points at parameters t along edge(s) e."""
    a = mesh.vertices[mesh.edges[e, 0]][..., None, :]
    return a + np.asarray(t, float)[:, None] * mesh.edge_vector(e)[..., None, :]


def group_points_stacked_oracle(mesh, group):
    """Physical points of a ``QuadPolicy`` group on a shared reference rule."""
    return group.ref @ np.swapaxes(mesh.B[group.tris], 1, 2) + mesh.X0[group.tris, None]


def group_ref_stacked_oracle(mesh, tris, pts):
    """``QuadGroup.at``: physical points (n, nq, 2) of the elements ``tris``
    mapped back to reference points."""
    return (pts - mesh.X0[tris, None]) @ np.swapaxes(mesh.Binv[tris], 1, 2)


def moments_stacked_oracle(space, group, vals):
    """``RTNSpace.moments``: (f, Phi_j)_K of values (n, nq, 2); (n, ndof)."""
    tris = group.tris
    F = vals @ space.B[tris] * (group.w / space.detB[tris, None])[:, :, None]
    return space.rows_to_elem(group.contract(group.prim(space.p), F) @ space.C_ref, tris)


def flux_error_stacked_oracle(prob, sigma_h, div=False):
    """``model_problems.flux_error`` (``div``: of the divergences) on the
    norms of ``norm_sq_stacked_oracle``."""
    groups = QuadPolicy(sigma_h.p, prob.mesh, prob.sigma).groups()
    return np.sqrt(
        sum(norm_sq_stacked_oracle(g, g.eval(prob.sigma, div=div) - g.eval(sigma_h, div=div)).sum() for g in groups)
    )


def potential_h1_error_stacked_oracle(prob, ls, u_h):
    """``model_problems.potential_h1_error``, every element at once."""
    mesh = prob.mesh
    rule = quad_rule(2 * ls.q + 10)
    pts = map_to_phys_stacked_oracle(mesh, rule.points)
    gx, gy = lagrange_grads_ref(ls.q, rule.points)
    vals = np.asarray(u_h, float)[ls._elem_nodes]
    grad = np.stack([vals @ gx, vals @ gy], axis=2) @ mesh.Binv
    diff = prob.grad_u(pts.reshape(-1, 2)).reshape(pts.shape) - grad
    w = rule.weights * mesh.detB[:, None]
    return np.sqrt(np.sum(w * np.sum(diff**2, axis=2)))


def h1_best_local_sum_stacked_oracle(prob, q):
    """``model_problems.h1_best_local_sum``, every element at once."""
    from hdivkit.elements import _stiffness_blocks
    from hdivkit.model_problems import _grad_moments

    mesh = prob.mesh
    rule = quad_rule(2 * q + 10)
    gref = np.stack(scalar_basis(q).eval_grad(rule.points), axis=2)[1:]
    pts = map_to_phys_stacked_oracle(mesh, rule.points)
    gu = prob.grad_u(pts.reshape(-1, 2)).reshape(pts.shape)
    c = solve_stacked(_stiffness_blocks(mesh, rule, gref), _grad_moments(mesh, gref, rule, gu))
    fit = np.einsum("kn,nqc->kqc", c, gref) @ mesh.Binv
    w = rule.weights * mesh.detB[:, None]
    return np.sqrt(np.sum(w * np.sum((gu - fit) ** 2, axis=2)))


def interior_interp_stacked_oracle(v, p, mesh):
    """The interior dofs of ``projections.canonical_interp`` (p >= 1):
    moments of v against vector P_{p-1}(K); (nt, 2 dim P_{p-1})."""
    out = np.zeros((mesh.num_triangles, 2 * polys.tri_dim(p - 1)))
    for g in QuadPolicy(p, mesh, v).groups():
        vals = g.eval(v) * (g.w / np.sqrt(mesh.detB[g.tris])[:, None])[:, :, None]
        out[g.tris] = np.hstack([g.contract(g.phi(p - 1), vals[:, :, c]) for c in (0, 1)])
    return out


# -- helpers with no caller in the library ------------------------------------------------


def triangle_coords(mesh, k):
    """The vertex coordinates of triangle k, (3, 2)."""
    return mesh.vertices[mesh.triangles[k]]


def random_broken_field(mesh, p, seed=0, scale=1.0):
    """Seeded broken RTN_p sample; normal traces jump across edges."""
    from hdivkit.projections import BrokenRTNField

    out = BrokenRTNField(mesh, p)
    out.coeffs = scale * np.random.default_rng(seed).standard_normal(out.coeffs.shape)
    return out


def to_broken(field):
    """A conforming field as the broken field of its element rows."""
    from hdivkit.projections import BrokenRTNField

    return BrokenRTNField(field.mesh, field.p, field.element_coeffs(slice(None)))


def neumann_trace_residual(field):
    """Largest Neumann-edge L2 norm of the normal trace of a conforming
    field, on the points of its ``jump_residual``."""
    edges = np.flatnonzero(field.mesh.edge_label == "neumann")
    if not len(edges):
        return 0.0
    group, v0 = field._normal_traces(edges, 0)  # a boundary edge's triangle is its first
    return float(np.sqrt(np.max(group.norm_sq(v0))))


def patch_place(layout, vertex):
    """(signature, patch) of the patch of ``vertex`` in a ``PatchLayout``,
    the patch numbered in the layout."""
    i = int(np.flatnonzero(layout.verts == vertex)[0])
    return next(g.sig for g in layout.signatures if g.patches.start <= i < g.patches.stop), i


def chunk_of(layout, vertex):
    """The one-patch ``PatchRange`` of the patch of ``vertex``."""
    i = patch_place(layout, vertex)[1]
    return layout.patch_range(slice(i, i + 1))


def flux_system(prob, p):
    """The conforming mass and divergence blocks of ``prob``'s mesh and its
    data moments: (space, M, B, fmom)."""
    from hdivkit.model_problems import _data_moments

    space = rtn_space(prob.mesh, p)
    M, B, _ = space.conforming_blocks()  # all-Dirichlet: every dof is kept
    return space, M, B, _data_moments(prob, p).ravel()
