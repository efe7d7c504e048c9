"""Scalar and Raviart-Thomas-Nedelec bases and their element tables.

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

Element tables are built one way: ``rtn_space(mesh, p)`` applies C_k, M_k
and Bdiv_k over the mesh's triangles from one reference element, and
evaluates, samples and takes moments on the points of a
``quadpolicy.QuadGroup``; a lone triangle is a one-triangle mesh.
``ElementRTN`` is a data view of one row.

The continuous P_q numbering of a mesh (``lagrange_nodes``) and the stacked
P_q stiffness and P_q/RTN_p coupling blocks serve both the least-squares
solver and the patch stability surrogate.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property, lru_cache

import numpy as np

from . import polys
from .linsolve import SingularSystemError, assemble_csr, check_residuals, chunks, multiplier_system
from .mesh import NEUMANN, _read_only, kept
from .quadrature import check_degree, check_integer, gauss01, quad_rule, xy


def rtn_dim(p: int) -> int:
    return (p + 1) * (p + 3)


class BasisConsistencyError(RuntimeError):
    pass


# -- reference scalar basis -------------------------------------------------------


class ScalarBasis:
    """L2-orthonormal basis of P_degree on the reference triangle."""

    def __init__(self, degree: int):
        # products of the basis need a rule of twice its degree: refuse an
        # unsupported one before the O(degree^4) recurrences of
        # ``polys.scalar_orthonormal``
        check_degree(2 * degree)
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
        check_integer("p", p)
        check_degree(2 * p + 2)  # the Gram rule below, checked before the scalar basis is built
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


def edge_dof_values(p: int, t, length) -> np.ndarray:
    """L2(edge)-orthonormal Legendre values q_i(t), i = 0..p; shape (p+1, nt),
    or (n, p+1, nt) for an array of n edge lengths.

    Legendre's three-term recurrence in u = 2t - 1, the recurrence of the
    scalar basis's Q_i at y = 0.
    """
    u = 2 * np.asarray(t, float) - 1
    P = np.ones((p + 1, len(u)))
    if p >= 1:
        P[1] = u
    for i in range(1, p):
        P[i + 1] = ((2 * i + 1) * u * P[i] - i * P[i - 1]) / (i + 1)
    return np.sqrt((2 * np.arange(p + 1) + 1) / np.asarray(length, float)[..., None])[..., None] * P


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
    return _read_only(C)


@lru_cache(maxsize=None)
def reference_mass(p: int) -> np.ndarray:
    """H_i = C_ref^T G_i C_ref for the reference Gram blocks G_xx, G_xy + G_xy^T,
    G_yy: A(c) = sum_i c_i H_i is the mass matrix of the affine class c."""
    ref, C = rtn_reference(p), reference_dual(p)
    H = np.stack([C.T @ G @ C for G in (ref.gram_xx, ref.gram_xy + ref.gram_xy.T, ref.gram_yy)])
    return _read_only(H)


# -- stacked element tables -------------------------------------------------------------


def _dof_scaling(mesh, p):
    """T_k in factored form over the elements of ``mesh``: element k's
    physical dofs are T_k times the canonically directed reference dofs of
    the Piola pull-back.  Edge slot j scales by sqrt(L_ref / L_e), times
    (-1)^(i+1) on its i-th dof when the direction (lower -> higher vertex
    index) runs against the local index order; the interior block is
    kron(B_k, I) / sqrt(det B_k).  Returns (edge scale (n, 3(p+1)),
    B_k / sqrt(det B_k), its inverse)."""
    lo, hi = np.array(_CANONICAL_DIRS).T
    tri = mesh.triangles
    xs = mesh.vertices[tri]
    length = np.linalg.norm(xs[:, hi] - xs[:, lo], axis=2)  # (n, 3)
    ref_len = np.linalg.norm(_REF_VERTS[hi] - _REF_VERTS[lo], axis=1)
    flip = (-1.0) ** (np.arange(p + 1) + 1)
    sign = np.where((tri[:, lo] > tri[:, hi])[:, :, None], flip, 1.0)  # (n, 3, p+1)
    edge = (sign * np.sqrt(ref_len / length)[:, :, None]).reshape(len(xs), -1)
    root = np.sqrt(mesh.detB)[:, None, None]
    return edge, mesh.B / root, np.linalg.inv(mesh.B) * root


class RTNSpace:
    """RTN_p element tables over the triangles of a mesh, built from one
    reference element, plus the global dof layout.

    Each triangle's vertex order (``mesh.triangles``) directs its edges
    lower -> higher entry.  Stored per element, O(ndof) numbers each: T_k of
    ``_dof_scaling``, ``dof_map``, c_k = (S_00, S_01, S_11) / det B_k with
    S_k = B_k^T B_k and, built on first use, the multiplier sign of each
    edge dof (``edge_sign``); per dof, built on first use, read-only, the
    mask of the dofs off Neumann edges (``free_dofs``) and ``gather``'s
    weights.  Applied, not stored, are the tables
      M_k = T_k^{-T} A(c_k) T_k^{-1},  A(c) = sum_i c_i H_i (``reference_mass``),
      C_k = C_ref T_k^{-1},  Bdiv_k = D_ref T_k^{-1} / sqrt(det B_k)
    (D_ref = div_rows C_ref): ``mass``, C_ref and D_ref act on ``to_ref``
    rows or, transposed, through ``rows_to_elem``; T_k is applied
    elementwise into one output (``_scale``).  Fields are evaluated,
    and their moments taken, at the points of a ``quadpolicy.QuadGroup``;
    ``elements`` gives lazy single-element views.

    Elements with bitwise-equal c_k (an affine class, ``classes``) share
    A(c) and K(c) = [[A(c), D_ref^T], [D_ref, 0]].  Per class, not per
    element, each built in chunks on first use and kept on the mesh,
    read-only (``mesh.kept``): ``kkt_table`` holds K(c)^{-1} and
    ``mass_table`` A(c)^{-1}.
    ``linsolve.element_solve`` applies them, mapping data in and solutions
    out through T_k, and checks each residual through the reference mass
    matrices (``kkt_product``).  The hybridization's edge-multiplier system
    (``multipliers``), the only global matrix that depends on nothing but
    the mesh and p, is kept on the mesh from first use, with its factor
    where that is small; so are, where small, the flux parts of the
    eliminations' data-independent element columns
    (``linsolve.element_columns``).

    Global dofs: edge e owns slots e*(p+1)..e*(p+1)+p; element k owns
    ne*(p+1) + k*p*(p+1) + local interior slots.  Fields with continuous
    normal trace share edge dofs verbatim.
    """

    def __init__(self, mesh, p: int):
        self.mesh = mesh
        self.p = p
        self.B, self.detB = mesh.B, mesh.detB
        self.ref = rtn_reference(p)
        self.sdim = polys.tri_dim(p)
        self.idim = polys.tri_dim(p - 1) if p >= 1 else 0
        # T_k and T_k^{-1} as factor rows for ``_scale``: the edge diagonal,
        # then the 2x2 interior block row-major; ``_transpose`` reorders a
        # row into that of the transposed map
        edge, T, Tinv = _dof_scaling(mesh, p)
        n, ne = mesh.num_triangles, 3 * (p + 1)
        self._phys = np.hstack([edge, T.reshape(n, 4)])
        self._ref = np.hstack([1.0 / edge, Tinv.reshape(n, 4)])
        self._transpose = np.r_[np.arange(ne), ne + np.array([0, 2, 1, 3])]
        ref, C = self.ref, reference_dual(p)
        self.C_ref, self.D_ref = C, ref.div_rows @ C
        U, sv, W = np.linalg.svd(self.D_ref)  # ker D_ref and D_ref^+, for ``kkt_table``
        self._N, self._R = W[len(sv):].T, W[: len(sv)].T / sv @ U.T
        S = np.swapaxes(self.B, 1, 2) @ self.B
        self.coef = np.stack([S[:, 0, 0], S[:, 0, 1], S[:, 1, 1]], axis=1) / self.detB[:, None]
        self.elements = _ElementViews(self)
        self.ndof_edge = (p + 1) * mesh.num_edges
        self.n_int = p * (p + 1)
        self.ndof = self.ndof_edge + self.n_int * mesh.num_triangles
        edge_dofs = mesh.tri_edges[:, :, None] * (p + 1) + np.arange(p + 1)
        interior = self.ndof_edge + np.arange(mesh.num_triangles * self.n_int)
        self.dof_map = np.hstack(
            [edge_dofs.reshape(len(edge_dofs), -1), interior.reshape(len(edge_dofs), -1)]
        )

    def __len__(self):
        return len(self.detB)

    @cached_property
    def edge_sign(self):
        """The sign of each edge dof's multiplier, (nt, 3(p+1)): +1 on the
        ``edge_tris[e, 0]`` side; built on first use, read-only."""
        own = self.mesh.edge_tris[self.mesh.tri_edges, 0] == np.arange(len(self))[:, None]
        return _read_only(np.repeat(np.where(own, 1.0, -1.0), self.p + 1, axis=1))

    @cached_property
    def _free(self):
        free = np.ones(self.ndof, dtype=bool)
        free[self.neumann_edge_dofs()] = False
        return _read_only(free)

    @cached_property
    def _weight(self):
        """``gather``'s weight of each dof, free / (sides of the dof, 1 or 2):
        exact, so the mean keeps its bits."""
        return _read_only(self._free / np.bincount(self.dof_map.ravel(), minlength=self.ndof))

    def mass_ref(self, coef):
        """A(c) = sum_i c_i H_i for rows c (n, 3); (n, ndof, ndof).  A row's
        bits do not depend on the other rows: a single row is padded to two,
        as numpy sends one row to gemv, which rounds differently from gemm."""
        H, n = reference_mass(self.p), len(coef)
        rows = np.vstack([coef, coef]) if n == 1 else coef
        return (rows @ H.reshape(3, -1))[:n].reshape(n, *H.shape[1:])

    def mass(self, y, tris=slice(None)):
        """A(c_k) y of reference dof rows y (..., ndof) of the elements ``tris`` (as in
        ``to_ref``): with y = to_ref(x), M_k x = rows_to_elem(mass(y)), x^T M_k x = sum(y * mass(y))."""
        coef, d = self.coef[tris].reshape(-1, 3), self.ref.dim
        Hy = y.reshape(-1, d) @ reference_mass(self.p).transpose(2, 0, 1).reshape(d, -1)  # rows [H_i y]
        return np.einsum("ki,kjid->kjd", coef, Hy.reshape(len(coef), -1, 3, d)).reshape(y.shape)

    @property
    def classes(self):
        """(class of each element, c of each class): exact, ``np.unique`` of
        the bytes of the c_k rows; kept on the mesh, read-only."""
        def build():
            _, first, cls = np.unique(self.coef.view("V24")[:, 0], return_index=True, return_inverse=True)
            return cls.reshape(-1), self.coef[first]

        return kept(self.mesh._cache, "element_classes", build)

    @property
    def kkt_table(self):
        """(K(c)^{-1}, max |K(c)|) of each class by the null-space method:
        with N an orthonormal basis of ker D_ref, R = D_ref^+,
        Q = N (N^T A N)^{-1} N^T and V = R - Q A R,
        K(c)^{-1} = [[Q, V], [V^T, -(A R)^T V]].  The 3(p+1) edge columns,
        and the first constraint column, which ``linsolve.element_columns``
        applies without a solve, are checked here; every other column is
        checked by the call that applies it."""
        d, size, N, R = self.ref.dim, self.ref.dim + self.sdim, self._N, self._R

        def inverse(sl, A, out):
            Q = N @ np.linalg.inv(np.swapaxes(A @ N, 1, 2) @ N) @ N.T
            AR = A @ R
            V = R - Q @ AR
            out[:, :d, :d], out[:, :d, d:] = Q, V
            out[:, d:, :d], out[:, d:, d:] = np.swapaxes(V, 1, 2), -(np.swapaxes(AR, 1, 2) @ V)

        return kept(self.mesh._cache, ("kkt_table", self.p),
                    lambda: self._class_table(inverse, size, np.abs(self.D_ref).max(), np.r_[:3 * (self.p + 1), d]))

    @property
    def mass_table(self):
        """(A(c)^{-1}, max |A(c)|) of each class as Q - V Y^{-1} V^T from the
        blocks [[Q, V], [V^T, Y]] of ``kkt_table`` (built if it is not): an
        inverse of the sdim x sdim block Y, not of A(c).  Its columns are
        checked by the mass solves that apply them."""
        d, Kinv = self.ref.dim, self.kkt_table[0]

        def inverse(sl, A, out):
            V = Kinv[sl, :d, d:]
            out[:] = Kinv[sl, :d, :d] - V @ np.linalg.inv(Kinv[sl, d:, d:]) @ np.swapaxes(V, 1, 2)

        return kept(self.mesh._cache, ("mass_table", self.p), lambda: self._class_table(inverse, d, 0.0, []))

    def _class_table(self, inverse, size, floor, checked):
        """The inverses of each class's A(c) (size ndof) or K(c), stacked,
        and the max |entry| of the matrix (at least ``floor``), built a chunk
        of ``STACK_BYTES`` at a time: ``inverse(sl, A, out)`` writes those of
        the classes ``sl``, whose A(c) are A, to ``out``.  The columns
        ``checked`` of each class are checked, as ``solve_stacked`` checks a
        block of unit right-hand sides: above 1e-8, SingularSystemError
        names the class and one of its elements."""
        cls, coef = self.classes
        inv, big, eye = np.empty((len(coef), size, size)), np.empty(len(coef)), np.eye(size)[:, checked]
        for sl in chunks(len(coef), 32 * size * size):
            A = self.mass_ref(coef[sl])
            try:
                inverse(sl, A, inv[sl])
            except np.linalg.LinAlgError as exc:
                raise SingularSystemError(f"class table: {exc}") from exc
            big[sl] = np.maximum(np.abs(A).max(axis=(1, 2)), floor)
            if len(checked):
                idx, cols = np.arange(sl.start, sl.stop), inv[sl][:, :, checked]
                check_residuals(eye - self.kkt_product(coef[sl], cols), eye[None], cols, big[sl],
                                lambda i: f"class {idx[i]}, element {np.argmax(cls == idx[i])}")
        return inv, big

    @property
    def multipliers(self):
        """The edge-multiplier numbering and SPD system of the mesh-wide
        hybridization (``linsolve.multiplier_system``), with its packed
        Cholesky factor where that fits ``linsolve.KEEP_BYTES``, kept on the
        mesh per p from first use, read-only: ``linsolve.hybrid_saddle_solve``
        solves with the kept factor, or factors the matrix on every call."""
        return kept(self.mesh._cache, ("multipliers", self.p), lambda: multiplier_system(self))

    def kkt_product(self, coef, y):
        """K(c) y, or A(c) y when y has ndof rows, for vectors y (n, size, r)
        and the rows c (n, 3) of their systems: A(c) y = sum_i c_i H_i y
        through the three reference matrices stacked (``reference_mass``),
        no d x d matrix gathered per vector, and one small gemm per vector:
        one skinny gemm over every vector is slow under threaded BLAS."""
        d, D = self.ref.dim, self.D_ref
        Hy = reference_mass(self.p).reshape(3 * d, d) @ y[:, :d]  # [H_i y] of each vector
        Ax = np.einsum("ki,kidr->kdr", coef, Hy.reshape(len(y), 3, d, -1))
        if y.shape[1] == d:
            return Ax
        return np.concatenate([Ax + D.T @ y[:, d:], D @ y[:, :d]], axis=1)

    def _scale(self, c, F):
        """Rows c (..., ndof) times the block-diagonal maps of the factor rows
        F (..., 3(p+1) + 4), one per element, whose leading axes c matches or
        broadcasts against: diag(edge) on the edge dofs, kron(A, I) on the
        interior ones, A row-major in F.  One multiply on the edge dofs and,
        per interior component j, A_j0 c_x + A_j1 c_y into one output.
        Elementwise, so a row's result does not depend on the other rows."""
        c = np.asarray(c, float)
        ne, idim = 3 * (self.p + 1), self.idim
        F = F.reshape(F.shape[:-1] + (1,) * (c.ndim - F.ndim) + F.shape[-1:])
        out = np.empty(np.broadcast_shapes(c.shape[:-1], F.shape[:-1]) + c.shape[-1:])
        np.multiply(c[..., :ne], F[..., :ne], out=out[..., :ne])
        cx, cy = c[..., ne:ne + idim], c[..., ne + idim:]
        for j in range(2):
            inner = out[..., ne + j * idim:ne + (j + 1) * idim]
            np.multiply(F[..., ne + 2 * j, None], cx, out=inner)
            inner += F[..., ne + 2 * j + 1, None] * cy
        return out

    def to_ref(self, coeffs, tris=slice(None)):
        """Reference dofs T_k^{-1} c_k of element coefficient rows (n, ndof);
        ``tris`` names the element of each row (any index shape; default:
        every element)."""
        return self._scale(coeffs, self._ref[tris])

    def to_phys(self, coeffs, tris=slice(None)):
        """Physical dofs T_k c_k of reference dof rows; inverse of ``to_ref``."""
        return self._scale(coeffs, self._phys[tris])

    def rows_to_elem(self, rows, tris=slice(None)):
        """Rows X T_k^{-1}: a table X (..., ndof) against the reference dual
        basis (C_ref, D_ref) as the table against element k's basis."""
        return self._scale(rows, self._ref[tris][..., self._transpose])

    def rows_to_ref(self, rows, tris=slice(None)):
        """Rows X T_k (on data rows: T_k^T f); inverse of ``rows_to_elem``."""
        return self._scale(rows, self._phys[tris][..., self._transpose])

    def edge_scale(self, tris=slice(None)):
        """T_k's diagonal on the 3(p+1) edge dofs; (n, 3(p+1))."""
        return self._phys[tris, : 3 * (self.p + 1)]

    def div(self, coeffs, tris=slice(None)):
        """Bdiv_k c_k = D_ref T_k^{-1} c_k / sqrt(det B_k) of coefficient rows
        (n, ..., ndof), one element per leading index; (n, ..., sdim)."""
        root = np.sqrt(self.detB[tris]).reshape((-1,) + (1,) * (np.ndim(coeffs) - 1))
        return self.to_ref(coeffs, tris) @ self.D_ref.T / root

    def div_blocks(self, tris=slice(None)):
        """Bdiv_k of the elements ``tris`` (default: all); (n, sdim, ndof)."""
        F = self._ref[tris][..., self._transpose] / np.sqrt(self.detB[tris])[:, None]
        return self._scale(self.D_ref[None], F)

    # -- batched quadrature: ``group`` is a ``quadpolicy.QuadGroup`` -------------------

    def values(self, group, coeffs):
        """Values of the coefficient rows (one per group element) at the
        group's points; (n, nq, 2)."""
        tris = group.tris
        ref = group.combine(self.to_ref(coeffs, tris) @ self.C_ref.T, group.prim(self.p))
        return ref @ np.swapaxes(self.B[tris], 1, 2) / self.detB[tris, None, None]

    def div_values(self, group, coeffs):
        """Divergence values of the coefficient rows at the group's points; (n, nq)."""
        return scalar_values(self.mesh, self.p, group, self.div(coeffs, group.tris))

    def moments(self, group, vals):
        """(f, Phi_j)_K of field values (n, nq, 2) at the group's points; (n, ndof)."""
        tris = group.tris
        F, w = vals @ self.B[tris], group.w / self.detB[tris, None]  # B_k^T f
        for comp in xy(F):
            comp *= w
        return self.rows_to_elem(group.contract(group.prim(self.p), F) @ self.C_ref, tris)

    def gather(self, rows):
        """Conforming dofs from element rows (nt, ndof): the mean of the two
        sides of each edge, zero on Neumann edges."""
        return np.bincount(self.dof_map.ravel(), rows.ravel(), self.ndof) * self._weight

    def neumann_edge_dofs(self):
        """Global dof indices pinned to zero by the no-flux boundary condition."""
        e = np.flatnonzero(self.mesh.edge_label == NEUMANN)
        return (e[:, None] * (self.p + 1) + np.arange(self.p + 1)).ravel()

    def free_dofs(self):
        """Mask of the global dofs off Neumann edges, (ndof,); built on first
        use and kept with the space, read-only."""
        return self._free

    def conforming_blocks(self):
        """Conforming mass M and divergence B over the dofs off Neumann edges.

        Returns (M, B, free): ``free`` holds the global indices of the kept
        dofs, in the column order of M and B; B has one row per element
        scalar moment (element k owns rows k*sdim..(k+1)*sdim-1).
        """
        fidx = np.flatnonzero(self.free_dofs())
        pos = -np.ones(self.ndof, dtype=int)
        pos[fidx] = np.arange(len(fidx))
        dofs = pos[self.dof_map]  # -1 on Neumann dofs: dropped by the assembly
        nt, nf = len(self), len(fidx)
        M = assemble_csr(dofs, dofs, _mass_blocks(self), (nf, nf))
        rows = np.arange(nt * self.sdim).reshape(nt, self.sdim)
        B = assemble_csr(rows, dofs, self.div_blocks(), (nt * self.sdim, nf))
        return M, B, fidx


def _mass_blocks(space, tris=slice(None)):
    """M_k of the elements ``tris``, formed for one call; (n, ndof, ndof)."""
    M = space.rows_to_elem(space.mass_ref(space.coef[tris]), tris)
    M = space.rows_to_elem(np.swapaxes(M, 1, 2), tris)
    return (M + np.swapaxes(M, 1, 2)) / 2


def scalar_moments(mesh, p, group, vals):
    """(f, phi_m)_K against the orthonormal P_p(K) bases of ``mesh`` from
    values at a quadrature group's points; (n, sdim).  Needs only det B_k,
    as do ``scalar_values`` and ``oscillation_sq``."""
    phi = group.phi(p)
    return group.contract(phi, vals * group.w) / np.sqrt(mesh.detB[group.tris])[:, None]


def scalar_values(mesh, p, group, coeffs):
    """Values of scalar rows (n, sdim) in the orthonormal P_p(K) bases of
    ``mesh`` at a quadrature group's points; (n, nq)."""
    return group.combine(coeffs, group.phi(p)) / np.sqrt(mesh.detB[group.tris])[:, None]


def oscillation_sq(mesh, p, group, vals):
    """||f - Pi_p f||_K^2 of scalar values at a quadrature group's points; (n,)."""
    return group.norm_sq(vals - scalar_values(mesh, p, group, scalar_moments(mesh, p, group, vals)))


def rtn_space(mesh, p: int) -> RTNSpace:
    return kept(mesh._cache, ("rtn_space", p), lambda: RTNSpace(mesh, p))


class _ElementViews(Sequence):
    """Memoized single-element views of an ``RTNSpace``, built on access."""

    def __init__(self, space):
        self._space = space
        self._views = [None] * len(space)

    def __len__(self):
        return len(self._views)

    def __getitem__(self, k):
        view = self._views[k]
        if view is None:
            view = self._views[k] = ElementRTN(self._space, k % len(self))
        return view


class ElementRTN:
    """RTN_p data of element k of an ``RTNSpace``, dual to the global dofs:
    its geometry, ``edge_dirs`` (the directed local vertex pair of each edge
    slot, lower -> higher vertex index) and the tables ``C``, ``M`` and
    ``Bdiv`` of row k.  Dof layout: edge slot j (opposite vertex j)
    holds dofs j(p+1)..j(p+1)+p, then come the interior x-moments and the
    interior y-moments.  ``C``, ``M`` and ``Bdiv`` are formed from the
    reference matrices when the view is built.  Evaluation, dofs and
    moments run on the stacked tables, not per element.
    """

    def __init__(self, space, k):
        mesh, tri = space.mesh, space.mesh.triangles[k]
        self.p = space.p
        self.coords = mesh.vertices[tri]
        self.X0, self.B, self.Binv = mesh.X0[k], mesh.B[k], mesh.Binv[k]
        self.detB = float(mesh.detB[k])
        self.area = self.detB / 2
        self.h = float(mesh.h[k])
        self.edge_dirs = [(la, lb) if tri[la] < tri[lb] else (lb, la) for la, lb in _CANONICAL_DIRS]
        self.ref = space.ref
        self.ndof, self.sdim, self.idim = space.ref.dim, space.sdim, space.idim
        self.C = space.rows_to_elem(space.C_ref[None], [k])[0]
        self.M, self.Bdiv = _mass_blocks(space, [k])[0], space.div_blocks([k])[0]


# -- public spec operations -----------------------------------------------------------


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
    return _read_only((H, G))


# -- continuous Lagrange P_q ----------------------------------------------------------


def lagrange_bary(q: int) -> np.ndarray:
    """Integer barycentric coordinates (q - i - j, i, j) of the equispaced
    local P_q nodes (i/q, j/q), i outer: the column order of
    ``polys.lagrange_nodal(q)``.  Shape (nloc, 3)."""
    return np.array([(q - i - j, i, j) for i in range(q + 1) for j in range(q + 1 - i)])


def lagrange_grads_ref(q: int, refpts):
    """Reference gradients of the P_q nodal basis; two arrays (nloc, npts)."""
    nodal = polys.lagrange_nodal(q)
    gx, gy = polys.eval_monomials_grad(q, refpts)
    return nodal.T @ gx, nodal.T @ gy


def lagrange_nodes(mesh, q: int) -> np.ndarray:
    """The continuous P_q numbering of ``mesh``: global node of each local
    node on every element, (nt, nloc).  Vertices come first, then q - 1
    nodes per edge in lower -> higher vertex order, then the interior nodes
    of each triangle.  Built once per (mesh, q) and kept, read-only."""
    return kept(mesh._cache, ("lagrange_nodes", q), lambda: _build_lagrange_nodes(mesh, q))


def _build_lagrange_nodes(mesh, q):
    tri, bary = mesh.triangles, lagrange_bary(q)
    n_edge, n_int = q - 1, (q - 1) * (q - 2) // 2
    out = np.empty((mesh.num_triangles, len(bary)), dtype=int)
    interior = mesh.num_vertices + mesh.num_edges * n_edge
    interior += np.arange(mesh.num_triangles) * n_int
    i_int = 0
    for m, lam in enumerate(bary):
        if lam.max() == q:
            out[:, m] = tri[:, np.argmax(lam)]
        elif lam.min() == 0:  # node on the edge opposite vertex z
            z = int(np.argmin(lam))
            la, lb = [i for i in range(3) if i != z]
            # position along the global lower -> higher direction
            num = np.where(tri[:, la] < tri[:, lb], lam[lb], lam[la])
            out[:, m] = mesh.num_vertices + mesh.tri_edges[:, z] * n_edge + (num - 1)
        else:
            out[:, m] = interior + i_int
            i_int += 1
    return out


def _stiffness_blocks(mesh, rule, gref, tris=slice(None)):
    """(grad phi_n, grad phi_m)_K on the elements ``tris`` (any index shape)
    for reference gradients gref (n, nq, 2) at the rule's points:
    det B_k sum_cd (B_k^{-1} B_k^{-T})_cd A^cd with the reference tables
    A^cd = (d_c phi_n, d_d phi_m), exact when the rule is exact for the
    products.  Shape tris.shape + (n, n)."""
    A = np.einsum("q,nqc,mqd->cdnm", rule.weights, gref, gref)
    Binv = mesh.Binv[tris]
    K = Binv @ np.swapaxes(Binv, -1, -2) * mesh.detB[tris][..., None, None]
    return (K.reshape(*K.shape[:-2], 4) @ A.reshape(4, -1)).reshape(*K.shape[:-2], *A.shape[2:])


@lru_cache(maxsize=None)
def _coupling_reference(q, p):
    """(grad phi_n, Phi_j) of the P_q nodal basis and the reference dual
    RTN_p basis; (nloc, ndof).  The Piola map cancels the gradient's
    B_k^{-T}, so element k's table is this one through ``rows_to_elem``."""
    rule = quad_rule(q + p)
    g = np.stack(lagrange_grads_ref(q, rule.points), axis=2)  # (nloc, nq, 2)
    out = np.einsum("q,nqd,iqd->ni", rule.weights, g, rtn_reference(p).eval(rule.points)) @ reference_dual(p)
    return _read_only(out)
