"""Scalar and Raviart-Thomas-Nedelec bases, Piola mapping, element matrices.

The scalar basis on a physical triangle K is the reference orthonormal basis
pulled through the affine map and rescaled by 1/sqrt(det B), so it is
L2(K)-orthonormal; scalar coefficient vectors therefore carry the L2 norm
directly and the scalar mass matrix is the identity.

The vector basis on K is dual to the classical face-and-interior degrees of
freedom, evaluated against globally oriented data:
  * edge dofs integrate v.n against Legendre polynomials that are
    L2-orthonormal on the edge, parametrized lower -> higher endpoint with
    the global unit normal (tangent rotated by -90 degrees);
  * interior dofs integrate v against the L2(K)-orthonormal scalar basis of
    one degree less, component by component.
Because the edge data is global, coefficient vectors of fields on neighboring
elements agree on the shared edge dofs exactly when the normal trace is
continuous; no sign flips are needed during assembly.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from . import polys
from .linsolve import assemble_csr
from .mesh import affine_geometry
from .quadrature import TriangleRule, gauss01, quad_rule


def rtn_dim(p: int) -> int:
    return (p + 1) * (p + 3)


class ElementGeometryError(ValueError):
    pass


class BasisConsistencyError(RuntimeError):
    pass


# -- reference scalar basis -------------------------------------------------------


class ScalarBasis:
    """L2-orthonormal basis of P_degree on the reference triangle."""

    def __init__(self, degree: int):
        self.degree = degree
        self.dim = polys.tri_dim(degree)
        self.rows = polys.scalar_orthonormal(degree)

    def eval(self, pts) -> np.ndarray:
        """Basis values at reference points; shape (dim, npts)."""
        return self.rows @ polys.eval_monomials(self.degree, pts)

    def eval_grad(self, pts):
        """Reference gradients; two arrays of shape (dim, npts)."""
        gx, gy = polys.eval_monomials_grad(self.degree, pts)
        return self.rows @ gx, self.rows @ gy


@lru_cache(maxsize=None)
def scalar_basis(degree: int) -> ScalarBasis:
    return ScalarBasis(degree)


# -- reference RTN primal set --------------------------------------------------------


class RTNBasis:
    """Orthonormal basis of RTN_p on the reference triangle.

    The generating set is P_p^2, built from the orthonormal scalar rows, plus
    x * psi for the p+1 scalar basis functions psi of exact degree p (an index
    shift); one floating-point Cholesky factorization of its Gram matrix
    orthonormalizes it.  ``prim_x`` / ``prim_y`` hold monomial coefficients
    (degree p+1) of the components; ``div_rows`` expands each divergence in
    the orthonormal scalar basis of degree p.
    """

    def __init__(self, p: int):
        if p < 0:
            raise ValueError("polynomial degree must be >= 0")
        self.degree = p
        self.dim = rtn_dim(p)
        comp_deg = p + 1
        sb = scalar_basis(p)
        sdim = sb.dim
        top = sb.rows[sdim - (p + 1) :]  # exact degree p
        idx = {ab: k for k, ab in enumerate(polys.exponents(comp_deg))}
        raw_x = np.zeros((self.dim, polys.tri_dim(comp_deg)))
        raw_y = np.zeros_like(raw_x)
        raw_x[:sdim, :sdim] = sb.rows
        raw_y[sdim : 2 * sdim, :sdim] = sb.rows
        raw_x[2 * sdim :, [idx[a + 1, b] for a, b in polys.exponents(p)]] = top
        raw_y[2 * sdim :, [idx[a, b + 1] for a, b in polys.exponents(p)]] = top
        # Gram matrices by a rule exact in degree 2p+2: a product through the
        # monomial Gram matrix would put the square of the coefficient size
        # into the roundoff (3e-7 at p = 6)
        rule = quad_rule(2 * comp_deg)
        mono = polys.eval_monomials(comp_deg, rule.points) * np.sqrt(rule.weights)

        def gram(c1, c2):
            return (c1 @ mono) @ (c2 @ mono).T

        L = np.linalg.cholesky(gram(raw_x, raw_x) + gram(raw_y, raw_y))
        self.prim_x = np.linalg.solve(L, raw_x)
        self.prim_y = np.linalg.solve(L, raw_y)
        # divergence of each member, expanded in the orthonormal scalar basis
        div_mono = np.array(
            [
                polys.poly_dx(cx, comp_deg)[0] + polys.poly_dy(cy, comp_deg)[0]
                for cx, cy in zip(self.prim_x, self.prim_y)
            ]
        )
        # coefficients alpha solve rows^T alpha = div
        self.div_rows = np.linalg.solve(sb.rows.T, div_mono.T)  # (sdim, nprim)
        self.gram_xx = gram(self.prim_x, self.prim_x)
        self.gram_xy = gram(self.prim_x, self.prim_y)
        self.gram_yy = gram(self.prim_y, self.prim_y)

    def eval(self, pts):
        """Component values at reference points; shape (nprim, npts, 2)."""
        mono = polys.eval_monomials(self.degree + 1, pts)
        out = np.empty((self.dim, mono.shape[1], 2))
        out[:, :, 0] = self.prim_x @ mono
        out[:, :, 1] = self.prim_y @ mono
        return out


@lru_cache(maxsize=None)
def rtn_reference(p: int) -> RTNBasis:
    return RTNBasis(p)


# -- edge dof polynomials -------------------------------------------------------------


def edge_dof_values(p: int, t, length: float) -> np.ndarray:
    """L2(edge)-orthonormal Legendre values q_i(t), i = 0..p; shape (p+1, nt).

    Legendre's three-term recurrence in u = 2t - 1, the recurrence of the
    scalar basis's Q_i at y = 0.
    """
    u = 2 * np.asarray(t, float) - 1
    P = np.ones((p + 1, len(u)))
    if p >= 1:
        P[1] = u
    for i in range(1, p):
        P[i + 1] = ((2 * i + 1) * u * P[i] - i * P[i - 1]) / (i + 1)
    return np.sqrt((2 * np.arange(p + 1) + 1) / length)[:, None] * P


# -- reference dual basis ----------------------------------------------------------

_REF_VERTS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
_EDGE_SLOTS = ((1, 2), (2, 0), (0, 1))  # edge slot j is opposite vertex j
_CANONICAL_DIRS = tuple((min(a, b), max(a, b)) for a, b in _EDGE_SLOTS)


def _reference_dofs(p, ref_evaluator, n1d, tri_rule):
    """Canonically directed RTN_p dofs of reference functions, one column per
    function; ``ref_evaluator(pts)`` returns values (n, npts, 2).  This is
    the only quadrature-built dof matrix: the reference dual basis and
    ``hat_operators`` come from it, every element from the dof scaling."""
    t, wt = gauss01(n1d)
    rows = []
    for la, lb in _CANONICAL_DIRS:
        a, vec = _REF_VERTS[la], _REF_VERTS[lb] - _REF_VERTS[la]
        L = float(np.linalg.norm(vec))
        vn = ref_evaluator(a[None, :] + np.outer(t, vec)) @ (np.array([vec[1], -vec[0]]) / L)
        rows.append(np.einsum("g,ig,ng->in", wt * L, edge_dof_values(p, t, L), vn))
    if p >= 1:
        vals = ref_evaluator(tri_rule.points)
        phi = scalar_basis(p - 1).eval(tri_rule.points)
        rows += [np.einsum("g,ig,ng->in", tri_rule.weights, phi, vals[:, :, c]) for c in (0, 1)]
    return np.vstack(rows)  # (ndof, n)


@lru_cache(maxsize=None)
def reference_dual(p: int) -> np.ndarray:
    """C_ref: primal coefficients of the RTN_p basis dual to the canonically
    directed reference dofs; element k's basis is C_ref T_k^{-1}."""
    D = _reference_dofs(p, rtn_reference(p).eval, p + 2, quad_rule(max(2 * p, 1)))
    try:
        C = np.linalg.solve(D, np.eye(len(D)))
    except np.linalg.LinAlgError as exc:
        raise BasisConsistencyError("singular dof matrix") from exc
    C.flags.writeable = False
    return C


# -- stacked element tables -------------------------------------------------------------


def _dof_scaling(triangles, xs, B, detB, p):
    """T_k in factored form over all elements: element k's physical dofs are
    T_k times the canonically directed reference dofs of the Piola pull-back.
    Edge slot j scales by sqrt(L_ref / L_e), times (-1)^(i+1) on its i-th dof
    when the direction (lower -> higher index in ``triangles``) runs against
    the local index order; the interior block is kron(B_k, I) / sqrt(det B_k).
    Returns (edge scale (n, 3(p+1)), B_k / sqrt(det B_k), its inverse)."""
    lo, hi = np.array(_CANONICAL_DIRS).T
    length = np.linalg.norm(xs[:, hi] - xs[:, lo], axis=2)  # (n, 3)
    ref_len = np.linalg.norm(_REF_VERTS[hi] - _REF_VERTS[lo], axis=1)
    reversed_ = triangles[:, lo] > triangles[:, hi]
    flip = (-1.0) ** (np.arange(p + 1) + 1)
    sign = np.where(reversed_[:, :, None], flip, 1.0)  # (n, 3, p+1)
    edge = (sign * np.sqrt(ref_len / length)[:, :, None]).reshape(len(xs), -1)
    root = np.sqrt(detB)[:, None, None]
    return edge, B / root, np.linalg.inv(B) * root


class ElementTables:
    """RTN_p element data stacked over triangles, from one reference element.

    ``triangles`` (n, 3) orders each triangle's vertices (edge directions run
    lower -> higher entry); ``geometry`` is ``mesh.affine_geometry`` of their
    coordinates.  With S_k = B_k^T B_k and the reference primal Gram blocks:
      C_k    = C_ref T_k^{-1}                              (n, nprim, ndof)
      M_k    = C_k^T (S_00 G_xx + S_01 (G_xy + G_xy^T) + S_11 G_yy) C_k / det B_k
      Bdiv_k = div_rows C_k / sqrt(det B_k)                (n, sdim, ndof)
    No quadrature and no solve per element.  ``elements`` gives lazy
    single-element views (``ElementRTN``) of these arrays.
    """

    def __init__(self, triangles, xs, geometry, p: int):
        self.p = p
        self.coords = xs
        self.X0, self.B, self.detB, self.Binv, self.h = geometry
        if np.any(self.detB <= 0):
            raise ElementGeometryError(
                f"triangle must be counterclockwise and nondegenerate (det={self.detB.min():g})"
            )
        self.triangles = np.asarray(triangles)
        self.ref = rtn_reference(p)
        self.sdim = polys.tri_dim(p)
        self.idim = polys.tri_dim(p - 1) if p >= 1 else 0
        self._edge, self._T, self._Tinv = _dof_scaling(self.triangles, xs, self.B, self.detB, p)
        ne, C_ref = 3 * (p + 1), reference_dual(p)
        C = np.empty((len(xs),) + C_ref.shape)
        C[:, :, :ne] = C_ref[:, :ne] / self._edge[:, None, :]
        interior = np.einsum("rci,kcd->krdi", C_ref[:, ne:].reshape(len(C_ref), 2, -1), self._Tinv)
        C[:, :, ne:] = interior.reshape(len(xs), len(C_ref), -1)
        self.C = C
        S = np.swapaxes(self.B, 1, 2) @ self.B
        ref = self.ref
        gram = np.stack([ref.gram_xx, ref.gram_xy + ref.gram_xy.T, ref.gram_yy])
        coef = np.stack([S[:, 0, 0], S[:, 0, 1], S[:, 1, 1]], axis=1) / self.detB[:, None]
        Mtil = (coef @ gram.reshape(3, -1)).reshape(len(xs), *gram.shape[1:])
        M = np.swapaxes(C, 1, 2) @ Mtil @ C
        self.M = (M + np.swapaxes(M, 1, 2)) / 2
        self.Bdiv = (ref.div_rows @ C) / np.sqrt(self.detB)[:, None, None]
        self.elements = _ElementViews(self)

    def __len__(self):
        return len(self.detB)

    def _scale(self, coeffs, tris, to_phys):
        tris = slice(None) if tris is None else np.asarray(tris, int)
        c = np.asarray(coeffs, float)
        ne = 3 * (self.p + 1)
        out = np.empty_like(c)
        out[:, :ne] = c[:, :ne] * self._edge[tris] if to_phys else c[:, :ne] / self._edge[tris]
        comp = c[:, ne:].reshape(len(c), 2, -1)
        A = (self._T if to_phys else self._Tinv)[tris]
        out[:, ne:] = np.einsum("kcd,kdi->kci", A, comp).reshape(len(c), -1)
        return out

    def to_ref(self, coeffs, tris=None):
        """Reference dofs T_k^{-1} c_k of element coefficient rows (n, ndof);
        ``tris`` names the element of each row (default: every element)."""
        return self._scale(coeffs, tris, False)

    def to_phys(self, coeffs, tris=None):
        """Physical dofs T_k c_k of reference dof rows; inverse of ``to_ref``."""
        return self._scale(coeffs, tris, True)

    # -- batched quadrature: ``group`` is a ``quadpolicy.QuadGroup`` -------------------

    def values(self, group, coeffs):
        """Values of the coefficient rows (one per group element) at the
        group's points; (n, nq, 2)."""
        prim, _ = group.tables(self.p)
        tris = group.tris
        ref = group.combine((self.C[tris] @ coeffs[:, :, None])[:, :, 0], prim)
        return ref @ np.swapaxes(self.B[tris], 1, 2) / self.detB[tris, None, None]

    def div_values(self, group, coeffs):
        return self.scalar_values(group, (self.Bdiv[group.tris] @ coeffs[:, :, None])[:, :, 0])

    def scalar_values(self, group, scoeffs):
        """Values of scalar rows in the orthonormal P_p(K) bases; (n, nq)."""
        _, phi = group.tables(self.p)
        return group.combine(scoeffs, phi) / np.sqrt(self.detB[group.tris])[:, None]

    def moments(self, group, vals):
        """(f, Phi_j)_K of field values (n, nq, 2) at the group's points; (n, ndof)."""
        prim, _ = group.tables(self.p)
        tris = group.tris
        F = vals @ self.B[tris] * (group.w / self.detB[tris, None])[:, :, None]  # B_k^T f
        return (group.contract(prim, F)[:, None, :] @ self.C[tris])[:, 0]

    def scalar_moments(self, group, vals):
        """(f, phi_m)_K against the orthonormal P_p(K) bases; (n, sdim)."""
        _, phi = group.tables(self.p)
        return group.contract(phi, vals * group.w) / np.sqrt(self.detB[group.tris])[:, None]

    def oscillation_sq(self, group, vals):
        """||f - Pi_p f||_K^2 of scalar values on the group's elements; (n,)."""
        return group.norm_sq(vals - self.scalar_values(group, self.scalar_moments(group, vals)))


class _ElementViews(Sequence):
    """Memoized single-element views of stacked tables, built on access."""

    def __init__(self, tables):
        self._tables = tables
        self._views = [None] * len(tables)

    def __len__(self):
        return len(self._views)

    def __getitem__(self, k):
        view = self._views[k]
        if view is None:
            view = self._views[k] = ElementRTN._view(self._tables, k % len(self))
        return view


# -- single element -----------------------------------------------------------------


class ElementRTN:
    """RTN_p basis on one physical triangle, dual to the global dofs.

    A view of row k of ``ElementTables``; a standalone triangle owns a
    one-row table.  ``edge_dirs`` gives the directed local vertex pair of
    each edge slot (meshes use the lower -> higher global ordering;
    standalone triangles default to local index order, which matches on
    the reference element).
    """

    def __init__(self, coords, p: int, edge_dirs=None):
        coords = np.asarray(coords, float).reshape(1, 3, 2)
        order = np.arange(3)
        if edge_dirs is not None:  # a vertex ranking that orders every edge as given
            order = np.zeros(3, int)
            for la, lb in edge_dirs:
                order[lb] += 1
            if len(set(order)) < 3:
                raise ValueError(f"edge directions {edge_dirs} come from no vertex ordering")
        self._bind(ElementTables(order[None], coords, affine_geometry(coords), p), 0)

    @classmethod
    def _view(cls, tables, k):
        el = cls.__new__(cls)
        el._bind(tables, k)
        return el

    def _bind(self, tables, k):
        self.p = tables.p
        self.coords = tables.coords[k]
        self.X0, self.B, self.Binv = tables.X0[k], tables.B[k], tables.Binv[k]
        self.detB = float(tables.detB[k])
        self.area = self.detB / 2
        self.h = float(tables.h[k])
        tri = tables.triangles[k]
        self.edge_dirs = [(la, lb) if tri[la] < tri[lb] else (lb, la) for la, lb in _CANONICAL_DIRS]
        self.edge_len = []
        self.edge_normal = []
        for la, lb in self.edge_dirs:
            vec = self.coords[lb] - self.coords[la]
            L = np.linalg.norm(vec)
            self.edge_len.append(float(L))
            self.edge_normal.append(np.array([vec[1], -vec[0]]) / L)
        self.ref = tables.ref
        self.ndof, self.sdim, self.idim = tables.ref.dim, tables.sdim, tables.idim
        self.C, self.M, self.Bdiv = tables.C[k], tables.M[k], tables.Bdiv[k]

    # dof layout: edge slot j gets dofs j*(p+1)..j*(p+1)+p, then interior
    # x-moments, then interior y-moments.

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
        edge.  ``tri_rule`` supplies the interior points/weights: either a
        TriangleRule (reference coords) or a (physpts, physweights) pair.
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
        """(f, Phi_k)_K for field values at the rule's points; rule as above."""
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


# -- public spec operations -----------------------------------------------------------


def rtn_basis(p: int) -> ElementRTN:
    """Reference-element RTN_p basis dual to the edge/interior dofs."""
    if p < 0:
        raise ValueError("polynomial degree must be >= 0")
    return ElementRTN(_REF_VERTS, p)


def piola_map(coords, ref_values):
    """Contravariant Piola transform onto the triangle with given vertices.

    ``ref_values`` has shape (npts, 2) (or (n, npts, 2)); returns the mapped
    physical values w(x) = B w_ref(x_ref) / det B.
    """
    coords = np.asarray(coords, float).reshape(3, 2)
    B = np.column_stack([coords[1] - coords[0], coords[2] - coords[0]])
    detB = B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0]
    if detB <= 0:
        raise ElementGeometryError("Piola map requires positive orientation")
    vals = np.asarray(ref_values, float)
    return np.einsum("dc,...c->...d", B, vals) / detB


def barycentric(refpts) -> np.ndarray:
    """Barycentric coordinates (lambda_0, lambda_1, lambda_2) of reference
    points; shape (3, npts).  lambda_i is the hat function of local vertex i."""
    refpts = np.atleast_2d(refpts)
    x, y = refpts[:, 0], refpts[:, 1]
    return np.stack([1.0 - x - y, x, y])


_BARY_GRAD = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


@lru_cache(maxsize=None)
def hat_operators(q: int, p: int):
    """Reference operators of multiplication by the hat functions.

    For local vertex i and the reference basis Phi_j of RTN_q dual to the
    canonically directed dofs (q = p, or q = p - 1 when p >= 1):
      * ``H[i]`` (ndof_p, ndof_q) holds the RTN_p reference dofs of
        lambda_i Phi_j (its interpolant when q = p; the field itself when
        q = p - 1, where the product lies in RTN_p);
      * ``G[i]`` (dim P_p, ndof_q) holds (grad lambda_i . Phi_j, phi_m) against
        the orthonormal scalar P_p basis.
    Both are polynomial integrals (degree <= 2p + 1 inside, 2p + 2 on the
    edges), taken by the lowest exact rules, which are the points that define
    the dual basis: so sum_i H[i] is the identity (q = p) or the embedding of
    RTN_{p-1} (q = p - 1) to roundoff, as sum_i lambda_i = 1.  Through the
    Piola map and the dof scaling T_k of ``RTNSpace`` they give the patch
    data on any element: chi = T_k H[i] T_k^{-1} theta and
    (grad psi_a . theta, phi_m)_K = G[i] T_k^{-1} theta / sqrt(det B_k).
    """
    if not (p - 1 <= q <= p and q >= 0):
        raise ValueError(f"hat operators need q in {{p-1, p}}, q >= 0 (q={q}, p={p})")
    rule = quad_rule(2 * p + 1)

    def basis_q(pts):  # the reference dual basis of RTN_q, (ndof_q, npts, 2)
        return np.einsum("jk,jnd->knd", reference_dual(q), rtn_reference(q).eval(pts))

    def times_hat(i):
        return lambda pts: barycentric(pts)[i][None, :, None] * basis_q(pts)

    H = np.stack([_reference_dofs(p, times_hat(i), p + 2, rule) for i in range(3)])
    phi = scalar_basis(p).eval(rule.points) * rule.weights
    vals = basis_q(rule.points)  # (ndof_q, nq, 2)
    G = np.stack([phi @ (vals @ _BARY_GRAD[i]).T for i in range(3)])
    H.flags.writeable = False
    G.flags.writeable = False
    return H, G


def element_matrices(coords, p: int, edge_dirs=None):
    """Mass, divergence-coupling and scalar mass matrices on a triangle.

    The scalar basis is L2(K)-orthonormal, so W_K is the identity (the |K|
    scale is absorbed into the basis) and B_K[m, k] = (div Phi_k, phi_m)_K.
    """
    el = ElementRTN(coords, p, edge_dirs)
    return {"M": el.M, "B": el.Bdiv, "W": np.eye(el.sdim), "element": el}


# -- mesh-wide space -----------------------------------------------------------------


class RTNSpace(ElementTables):
    """Stacked RTN_p element tables over a mesh plus the global dof layout.

    Global dofs: edge e owns slots e*(p+1)..e*(p+1)+p; element k owns
    ne*(p+1) + k*p*(p+1) + local interior slots.  Fields with continuous
    normal trace share edge dofs verbatim.
    """

    def __init__(self, mesh, p: int):
        geometry = (mesh.X0, mesh.B, mesh.detB, mesh.Binv, mesh.h)
        super().__init__(mesh.triangles, mesh.vertices[mesh.triangles], geometry, p)
        self.mesh = mesh
        self.ndof_edge = (p + 1) * mesh.num_edges
        self.n_int = p * (p + 1)
        self.ndof = self.ndof_edge + self.n_int * mesh.num_triangles
        edge_dofs = mesh.tri_edges[:, :, None] * (p + 1) + np.arange(p + 1)
        interior = self.ndof_edge + np.arange(mesh.num_triangles * self.n_int)
        self.dof_map = np.hstack(
            [edge_dofs.reshape(len(edge_dofs), -1), interior.reshape(len(edge_dofs), -1)]
        )

    def element_dof_map(self, k):
        """Global dof index of each local dof on element k."""
        return self.dof_map[k]

    def neumann_edge_dofs(self):
        """Global dof indices pinned to zero by the no-flux boundary condition."""
        e = np.array(self.mesh.edges_with_label("neumann"), dtype=int)
        return (e[:, None] * (self.p + 1) + np.arange(self.p + 1)).ravel()

    def conforming_blocks(self):
        """Conforming mass M and divergence B over the dofs off Neumann edges.

        Returns (M, B, free): ``free`` holds the global indices of the kept
        dofs, in the column order of M and B; B has one row per element
        scalar moment (element k owns rows k*sdim..(k+1)*sdim-1).
        """
        free = np.ones(self.ndof, dtype=bool)
        free[self.neumann_edge_dofs()] = False
        fidx = np.flatnonzero(free)
        pos = -np.ones(self.ndof, dtype=int)
        pos[fidx] = np.arange(len(fidx))
        dofs = pos[self.dof_map]  # -1 on Neumann dofs: dropped by the assembly
        nt, nf = len(self), len(fidx)
        M = assemble_csr(dofs, dofs, self.M, (nf, nf))
        rows = np.arange(nt * self.sdim).reshape(nt, self.sdim)
        B = assemble_csr(rows, dofs, self.Bdiv, (nt * self.sdim, nf))
        return M, B, fidx


def rtn_space(mesh, p: int) -> RTNSpace:
    key = ("rtn_space", p)
    if key not in mesh._cache:
        mesh._cache[key] = RTNSpace(mesh, p)
    return mesh._cache[key]
