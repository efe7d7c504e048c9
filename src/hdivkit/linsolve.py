"""Dense and sparse solves and the one sparse assembly.

Small dense systems come in stacks (one per patch or surrogate), cut into
chunks by the one sizing rule of ``chunks``.  ``solve_stacked`` takes a
chunk's class matrices and each right-hand side's class, and solves each
system by itself: by an LU factorization in one ``np.linalg.solve``, or by
the inverses a caller keeps (``class_inverses``), one gemm per system.  It
checks every system's relative residual against its class matrix, or
leaves that to a caller that keeps only the inverses (``check_norms``: the
vertex patches check each patch from its own element columns,
``local_solve.patch_equilibrate``).  A system's bits depend only on its
class matrix and its right-hand side, however the stack is chunked.
Element systems are solved once per affine class (``element_solve``), in
the same way: the mass and KKT systems of an element are T_k-conjugates of
reference systems that depend only on c_k, whose inverses the ``RTNSpace``
keeps per class; each call maps its data in, applies the class inverses
and checks the residuals in the reference frame, and the columns that no
call checks (the hybridization's data-independent columns) are checked
once, when the table is built.  A lone dense system goes through LAPACK
Bunch-Kaufman (``dense_solve``: ``sytrf`` and two ``sytrs``, the second
one a step of iterative refinement).  Saddle problems over several
elements are hybridized: the element eliminations (``eliminate``) leave an
SPD system in edge multipliers, mesh-wide in ``hybrid_saddle_solve`` and
per vertex patch in ``local_solve``.  Both eliminate every element against
columns that depend only on the mesh and p, the signed edge unit columns
and, where the multipliers have a constant kernel, the constant-divergence
column, whose coefficient takes a grounded multiplier's place in both; the
mesh keeps their flux parts where they fit ``KEEP_BYTES``
(``element_columns``), and a call solves only its data columns.  The
mesh-wide multiplier system depends only on the mesh and p too: the mesh
keeps it, assembled (``multiplier_system``), and a call forms only its
data columns.  Where the
packed Cholesky factor of that system fits ``KEEP_BYTES`` (at most 511
multipliers), the mesh keeps the factor too, built once by LAPACK
``pptrf`` (``packed_cholesky``), and each call solves with it
(``packed_solve``).  Every other sparse system is SPD and
goes through SuperLU in its symmetric mode, refined once, and each call
factors its matrix afresh (``SparseFactor``): no SuperLU object is kept.
A kept matrix's symmetry is checked once, where it is built
(``check_symmetric``); a fresh matrix, each time it is factored.
``assemble_csr`` is the single place where element blocks are summed into a
global sparse matrix.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import get_lapack_funcs

from .mesh import NEUMANN, kept


# Budgets of one chunk of a stack (see ``chunks``).  STACK_BYTES bounds the
# stacks whose bytes per item grow with p: patch chunks, corner-wedge
# groups, element solves and class tables.  4 MB holds a whole stack of a
# mesh of a few dozen triangles at p <= 6, and every patch of the layouts
# of a few hundred at p <= 3, in one chunk, and keeps the temporaries of a
# pass over a big mesh to a few MB.  POINT_BYTES bounds
# the stacks of points of a shared rule (quadrature groups, edge rules) and
# the stability surrogate, whose passes gain nothing from larger chunks.
STACK_BYTES = 1 << 22
POINT_BYTES = 1 << 19
# The one budget of the optional kept data: the bytes a kept item may hold
# for the life of its mesh, whatever the chunks, so what is kept and the
# bits of what it gives do not depend on the chunking.  Each kind is kept
# whole where its bytes fit, and built for each call where they do not,
# by the same code.  It bounds a patch layout's multiplier inverses
# (``local_solve.PatchTables.decide``: 0.4 MB at most on the layouts of a
# few dozen triangles at p <= 6), the packed Cholesky factor of the
# mesh-wide multiplier system (``multiplier_system``: 8 n(n+1)/2 bytes,
# n <= 511) and the flux parts of the eliminations' data-independent
# element columns (``element_columns``: 8 nt ndof (1 + 3(p+1)) bytes, 0.35
# MB for 32 triangles at p = 6; a mesh of a few hundred triangles keeps
# them up to p = 2 or 3).
KEEP_BYTES = 1 << 20


class SingularSystemError(RuntimeError):
    pass


def dense_solve(A, b):
    """Solve a dense symmetric (indefinite) system with one refinement step."""
    A = np.asarray(A, float)
    b = np.asarray(b, float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    check_symmetric(A)
    sytrf, sytrs, sytrf_lwork = get_lapack_funcs(("sytrf", "sytrs", "sytrf_lwork"), (A,))
    lwork, _ = sytrf_lwork(A.shape[0], lower=1)
    ldu, ipiv, info = sytrf(A, lower=1, lwork=int(lwork))
    if info > 0:
        raise SingularSystemError(f"zero pivot at index {info - 1}")
    x, _ = sytrs(ldu, ipiv, b, lower=1)
    dx, _ = sytrs(ldu, ipiv, b - A @ x, lower=1)
    x = x + dx
    scale = max(np.linalg.norm(b), np.abs(A).max() * np.linalg.norm(x), 1e-300)
    res = np.linalg.norm(b - A @ x) / scale
    if res > 1e-8:
        raise SingularSystemError(f"dense solve residual {res:.2e}")
    return x


def chunks(n, item_bytes, points=False):
    """Slices of ``range(n)`` whose items, ``item_bytes`` each (one number,
    or one per item), fill at most ``STACK_BYTES`` (``POINT_BYTES`` for
    ``points``), at least one item per slice; items of several sizes are
    packed in order, each slice as full as the next item allows.  The
    sizing rule: ``item_bytes`` counts the arrays that one pass over a
    slice allocates per item, its gathered inputs, temporaries and outputs
    together, so a budget bounds what a pass holds at a time:
    - a vertex patch of a patch chunk (``local_solve._build_patch_layout``):
      per (triangle, local vertex) pair its element columns, ndof (4 +
      3(p+1)) numbers, and five arrays of its multiplier blocks, 3(p+1)
      (3(p+1) + 1) numbers each; per patch its system, nl^2;
    - a corner wedge (``QuadPolicy._grouped``): its per-point data and its
      prim and phi tables at degree p, which carry an element axis;
    - an element system of size ``size`` (``element_solve``): its gathered
      class inverse, size^2 numbers, and four data blocks of size x r;
      the edge columns of an elimination: two blocks of ndof x 3(p+1)
      (``element_columns``) or of sdim x 3(p+1) (``eliminate``); a class
      table (``RTNSpace._class_table``): four blocks of size^2.
    A point stack counts the per-point data of an element (or edge) on its
    rule, and the stability surrogate 8 nn^2 bytes per patch, nn its node
    count."""
    budget = POINT_BYTES if points else STACK_BYTES
    if np.ndim(item_bytes) == 0:
        step = max(1, budget // max(int(item_bytes), 1))
        return [slice(i, min(i + step, n)) for i in range(0, n, step)]
    total, out, start = np.cumsum(item_bytes), [], 0
    while start < n:
        stop = int(np.searchsorted(total, budget + (total[start - 1] if start else 0), side="right"))
        out.append(slice(start, max(stop, start + 1)))
        start = out[-1].stop
    return out


def max_abs(A):
    """max|A_c| of each matrix of a stack A (m, d, d), with no temporary of
    its size."""
    return np.maximum(A.max(axis=(1, 2)), -A.min(axis=(1, 2)))


def check_residuals(r, b, x, size, name):
    """Relative residuals |r_k| / max(|b_k|, size_k |x_k|) of stacked
    systems (norms over the two trailing axes, k the flat index over the
    leading ones), checked by ``check_norms``."""
    def norm(a):
        return np.sqrt(np.einsum("...ij,...ij->...", a, a))

    check_norms(norm(r), norm(b), norm(x), size, name)


def check_norms(r, b, x, size, name):
    """Relative residuals r_k / max(b_k, size_k x_k) from the norms r, b and
    x of each system's residual, right-hand side and solution; raises
    SingularSystemError for the worst (NaN first), ``name(k)``, above
    1e-8."""
    res = r / np.maximum(np.maximum(b, size * x), 1e-300)
    if res.size and not res.max() <= 1e-8:
        worst = int(np.argmax(np.where(np.isnan(res), np.inf, res)))
        raise SingularSystemError(f"dense solve residual {res.flat[worst]:.2e} ({name(worst)})")


def class_inverses(A, name):
    """The inverses of class matrices A (m, d, d), stacked, for
    ``solve_stacked``'s ``inv``; each one's bits depend on its matrix alone.
    SingularSystemError names ``name(c)`` for the first class whose matrix
    LAPACK finds singular."""
    try:
        return np.linalg.inv(A)
    except np.linalg.LinAlgError:
        for c, a in enumerate(A):  # find the class; a stacked inverse does not say
            try:
                np.linalg.inv(a)
            except np.linalg.LinAlgError as exc:
                raise SingularSystemError(f"class inverse failed: {exc} ({name(c)})") from exc
        raise


def solve_stacked(A, b, cls=None, inv=None, name=lambda i: f"system {i}"):
    """Solve A[cls_i] x_i = b_i for class matrices A (m, d, d) and
    right-hand sides b (n, d) or blocks (n, d, r), each system by itself:
    by ``np.linalg.solve`` over the stack A[cls], one LU factorization per
    system, or, given the kept inverses ``inv`` of A
    (``class_inverses``), by inv[cls] @ b, one gemm per system, the way
    ``element_solve`` applies its class tables.  Without ``cls`` system i
    has matrix A[i].  A system's bits depend only on its class matrix (and
    inverse) and its right-hand side, not on the other systems of the call,
    so any cut of a stack into chunks gives the same bits.  The caller
    sizes the stack by ``chunks``.  ``dense_solve``'s relative-residual
    check runs on every system, against its class matrix, and names system
    i by ``name(i)``; with ``name`` None the caller checks the residuals
    (``check_residuals``) and A may be None beside ``inv``."""
    b = np.asarray(b, float)
    rhs = b[..., None] if b.ndim == 2 else b
    if A is not None:
        A = np.asarray(A, float)
        Ab = A if cls is None else A[cls]
    if inv is not None:
        x = (inv if cls is None else inv[cls]) @ rhs
    else:
        try:
            x = np.linalg.solve(Ab, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"stacked solve failed: {exc}") from exc
    if name is not None:
        size = max_abs(A) if cls is None else max_abs(A)[cls]
        check_residuals(rhs - Ab @ x, rhs, x, size, name)
    return x[..., 0] if b.ndim == 2 else x


def element_solve(space, f, g, tris):
    """(x, u) of the element systems of ``tris`` (index array) against data
    f (n, ndof, r), or None for no flux data (f = 0), and g (n, m, r):
    m = sdim, [[M_k, Bdiv_k^T], [Bdiv_k, 0]] [x; u] = [f; g]; m = 0,
    M_k x = f.  In the reference frame, x = T_k x^ and u = sqrt(det B_k) u^
    solve K(c_k) (or A(c_k)) against [T_k^T f; sqrt(det B_k) g]: the
    space's ``kkt_table`` (or ``mass_table``) is applied by gathered
    matmuls, a chunk of ``STACK_BYTES`` at a time (the whole call on a mesh
    of a few dozen triangles), and every system's residual is checked there
    as in ``solve_stacked``, with K(c_k) y formed through the reference
    mass matrices (``RTNSpace.kkt_product``)."""
    inv, big = space.kkt_table if g.shape[1] else space.mass_table
    d, r = space.ref.dim, g.shape[2]
    size, cls = d + g.shape[1], space.classes[0][tris]
    root = np.sqrt(space.detB[tris])[:, None, None]
    x, u = np.empty((len(tris), d, r)), np.empty(g.shape)
    for sl in chunks(len(tris), 8 * size * (size + 4 * r)):
        b = np.zeros((len(cls[sl]), size, r))
        if f is not None:
            b[:, :d] = np.swapaxes(space.rows_to_ref(np.swapaxes(f[sl], 1, 2), tris[sl]), 1, 2)
        b[:, d:] = root[sl] * g[sl]
        y = inv[cls[sl]] @ b
        check_residuals(b - space.kkt_product(space.coef[tris[sl]], y), b, y, big[cls[sl]],
                        lambda i: f"system of element {tris[sl][i]}, class {cls[sl][i]}")
        x[sl] = np.swapaxes(space.to_phys(np.swapaxes(y[:, :d], 1, 2), tris[sl]), 1, 2)
        u[sl] = root[sl] * y[:, d:]
    return x, u


def element_columns(space, const=False):
    """The flux parts (nt, ndof, const + 3(p+1)) of the data-independent
    columns of every element's elimination: with ``const``, first the
    constant-divergence column, against f = 0, g = sqrt|K| phi_0 (the
    kernel column of the vertex patches, ``local_solve``); then the edge
    columns, against [E_k^T; 0], the unit columns of the 3(p+1) edge dofs
    signed by ``RTNSpace.edge_sign``.  Mapped in, each is a unit column
    times a number, sqrt(det B_k |K|) or sgn_k T_k's edge diagonal, so its
    solution is a column of the ``kkt_table``, scaled: no solve (the table
    checked those columns when it was built).  They depend only on the
    mesh and p.  Where all of them, 8 nt ndof (1 + 3(p+1)) bytes, fit
    ``KEEP_BYTES``, the mesh keeps them per p from first use, read-only;
    elsewhere each call builds the ones it asks for."""
    nt, d, ne = len(space), space.ref.dim, 3 * (space.p + 1)
    if 8 * nt * d * (1 + ne) <= KEEP_BYTES:
        cols = kept(space.mesh._cache, ("element_columns", space.p), lambda: _element_columns(space, True))
        return cols if const else cols[:, :, 1:]
    return _element_columns(space, const)


def _element_columns(space, const):
    """``element_columns`` built for one call."""
    nt, d, ne = len(space), space.ref.dim, 3 * (space.p + 1)
    inv, cls = space.kkt_table[0], space.classes[0]
    w = (space.edge_sign * space.edge_scale())[:, None, :]
    X = np.empty((nt, d, const + ne))
    for sl in chunks(nt, 16 * d * ne):
        E = inv[cls[sl], :d, :ne] * w[sl]
        X[sl, :, const:] = np.swapaxes(space.to_phys(np.swapaxes(E, 1, 2), sl), 1, 2)
    if const:
        X[:, :, 0] = space.to_phys(inv[cls, :d, d] * (np.sqrt(space.detB) * np.sqrt(space.mesh.area))[:, None])
    return X


def eliminate(space, rhs, g, const=False):
    """The element half of a hybridization on every element: the element
    KKT systems against the data rhs (n, ndof, r), g (n, sdim, r)
    (``element_solve``) and against the columns of ``element_columns(space,
    const)``, whose multiplier parts are the ``kkt_table``'s columns,
    scaled.  Returns (X (n, ndof, r), U (n, sdim, r + const + 3(p+1)), Xe
    (n, ndof, const + 3(p+1))): the flux parts of the data columns, the
    multiplier parts of the data columns and then of the others, and the
    flux parts of the others (kept or built for the call).  Their unknowns
    mu (c, then the edge multipliers) give the fluxes X - Xe mu."""
    d, ne, r = space.ref.dim, 3 * (space.p + 1), rhs.shape[2]
    U = np.empty((len(space), space.sdim, r + const + ne))
    X, U[:, :, :r] = element_solve(space, rhs, g, np.arange(len(space)))
    inv, cls = space.kkt_table[0], space.classes[0]
    w = (space.edge_sign * space.edge_scale())[:, None, :]
    root = np.sqrt(space.detB)[:, None, None]
    for sl in chunks(len(space), 16 * space.sdim * ne):
        U[sl, :, r + const:] = root[sl] * (inv[cls[sl], d:, :ne] * w[sl])
    U[:, :, r:r + const] = (space.detB * np.sqrt(space.mesh.area))[:, None, None] * inv[cls, d:, d:d + const]
    return X, U, element_columns(space, const)


def assemble_csr(rows, cols, blocks, shape):
    """Sum stacked dense element blocks into a CSR matrix.

    Block k of ``blocks`` (n, r, c) lands on global rows ``rows[k]`` (n, r)
    and columns ``cols[k]`` (n, c); entries with a negative row or column
    index are dropped.  Entries are summed in element order, row-major
    within a block, so the result is the same to the bit for a fixed input.
    """
    blocks = np.asarray(blocks, float)
    r = np.broadcast_to(np.asarray(rows)[:, :, None], blocks.shape).ravel()
    c = np.broadcast_to(np.asarray(cols)[:, None, :], blocks.shape).ravel()
    keep = (r >= 0) & (c >= 0)
    return sp.coo_matrix((blocks.ravel()[keep], (r[keep], c[keep])), shape=shape).tocsr()


def check_symmetric(A):
    """Raise ValueError unless the matrix A, sparse or dense, is symmetric to
    1e-10 of its largest entry (at least 1)."""
    entries = (lambda M: M.data if sp.issparse(M) else M)
    defect = np.abs(entries(A - A.T)).max(initial=0.0)
    if defect > 1e-10 * max(1.0, np.abs(entries(A)).max(initial=0.0)):
        raise ValueError(f"matrix is not symmetric (defect {defect:.2e})")


class SparseFactor:
    """SuperLU in symmetric mode (minimum degree on A^T + A, diagonal pivots)
    for a symmetric positive definite matrix, which it must be: asymmetry
    raises ValueError (``check_symmetric``).  A kept matrix is checked once,
    where it is built, and factored with ``checked``.  Deterministic for a
    fixed pattern."""

    def __init__(self, A, checked=False):
        A = sp.csc_matrix(A)
        if not checked:
            check_symmetric(A)
        self.A = A
        try:
            self.lu = spla.splu(
                A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True}
            )
        except RuntimeError as exc:
            raise SingularSystemError(f"sparse factorization failed: {exc}") from exc

    def solve(self, b):
        """Solve with one step of iterative refinement."""
        b = np.asarray(b, float)
        x = self.lu.solve(b)
        return x + self.lu.solve(b - self.A @ x)


def packed_cholesky(A):
    """The upper Cholesky factor of the SPD sparse matrix A in LAPACK's
    packed storage, n(n+1)/2 numbers (``pptrf``); SingularSystemError when
    A is not positive definite."""
    n = A.shape[0]
    ap = A.toarray()[np.tril_indices(n)]  # A symmetric: its lower rows are its upper columns
    pptrf = get_lapack_funcs("pptrf", (ap,))
    chol, info = pptrf(n, ap, overwrite_ap=1)
    if info > 0:
        raise SingularSystemError(f"Cholesky factorization failed: leading minor {info} is not positive")
    return chol


def packed_solve(chol, A, b):
    """Solve A x = b from A's ``packed_cholesky`` factor, with the one step
    of iterative refinement against A that ``SparseFactor.solve`` takes."""
    pptrs = get_lapack_funcs("pptrs", (chol,))
    n = A.shape[0]
    x = pptrs(n, chol, b)[0]
    return x + pptrs(n, chol, b - A @ x)[0]


class Multipliers(NamedTuple):
    """The edge-multiplier system of a mesh-wide hybridization
    (``multiplier_system``), kept on the mesh per p (``RTNSpace.multipliers``)."""

    lam: np.ndarray  # (nt, 3(p+1)): multiplier of each element edge dof, -1 for none
    grounded: bool  # no Dirichlet edge: the first multiplier is grounded (lam -1), its equation not in A
    A: sp.csc_matrix  # sum_k E_k (K_k^-1)_ss E_k^T over the multipliers, read-only
    chol: np.ndarray | None  # A's packed_cholesky where it fits KEEP_BYTES, read-only; else None


def multiplier_system(space):
    """The ``Multipliers`` of ``space``: one multiplier per dof of each
    interior and Neumann edge (+1 on the ``edge_tris[e, 0]`` side), the
    first one grounded when no edge is Dirichlet, the SPD matrix
    sum_k E_k (K_k^-1)_ss E_k^T, symmetrized, from the edge columns of
    ``element_columns``, and its packed Cholesky factor where its 8 n(n+1)/2
    bytes fit ``KEEP_BYTES``.  Those depend only on the mesh and p, so
    ``RTNSpace.multipliers`` keeps this from first use, read-only."""
    mesh, ne = space.mesh, 3 * (space.p + 1)
    # the edge dofs with a multiplier
    on = np.repeat((mesh.edge_tris[:, 1] >= 0) | (mesh.edge_label == NEUMANN), space.p + 1)
    grounded = bool(on.all())
    n = int(on.sum()) - grounded
    lam = np.where(on, np.cumsum(on) - 1 - grounded, -1)[space.dof_map[:, :ne]]
    EX = space.edge_sign[:, :, None] * element_columns(space)[:, :ne]  # E_k applied to every edge column
    A = sp.csc_matrix(assemble_csr(lam, lam, (EX + np.swapaxes(EX, 1, 2)) / 2, (n, n)))
    check_symmetric(A)
    return Multipliers(lam, grounded, A, packed_cholesky(A) if 4 * n * (n + 1) <= KEEP_BYTES else None)


def hybrid_saddle_solve(space, rhs, g):
    """Minimize 1/2 s^T M s - rhs^T s subject to B s = g over the conforming
    space, from element moments ``rhs`` (nt, ndof) and data ``g`` (nt, sdim).

    Edge multipliers enforce the normal continuity; the element eliminations
    against [F_k | E_k^T] (``eliminate``, with the edge columns' flux parts
    of ``element_columns``) leave the SPD system
    sum_k E_k (K_k^-1)_ss E_k^T in them, which the space keeps
    (``RTNSpace.multipliers``, ``multiplier_system``): a call forms only its
    data column E_k F_k and solves with the kept packed Cholesky factor
    (``packed_solve``), or, where the space keeps none, factors the kept
    matrix afresh (``SparseFactor``).  Without a Dirichlet edge it borders
    the grounded system as the kernel patches do: the coefficient c of the
    constant-divergence column takes the grounded multiplier's place, and
    that multiplier's equation fixes it after one solve against each
    column; c takes g's mean, and u is made orthogonal to the constants.
    Returns (s (ndof,), u (nt, sdim), info: ``kkt_residual`` and
    ``div_defect`` of the conforming system with data g - c;
    ``compat_defect`` = |c| |Omega|^(1/2) / ||b||, b the right-hand side of
    ``kkt_residual``, 0.0 with a Dirichlet edge; ``system_size``,
    ``nnz_lu``).  ``nnz_lu`` counts the stored entries of
    the factor the solve used: n(n+1)/2 for the kept one, and for SuperLU
    the entries it stores for L and U (``lu.nnz``), the explicit zeros of
    its supernodes included; reading it copies no factor.
    """
    dofs, ne = space.dof_map, 3 * (space.p + 1)
    lam, grounded, A, chol = space.multipliers
    n, on = A.shape[0], lam >= 0
    X, U, Xe = eliminate(space, rhs[:, :, None], g[:, :, None], grounded)
    if chol is None:
        factor = SparseFactor(A, checked=True)
        solve, nnz = factor.solve, factor.lu.nnz
    else:
        solve, nnz = (lambda b: packed_solve(chol, A, b)), len(chol)
    # E_k applied to the data column and, on a grounded system, to the constant-divergence one
    f = space.edge_sign[:, :, None] * np.concatenate([X[:, :ne], Xe[:, :ne, :grounded]], axis=2)
    x, *xc = (solve(np.bincount(lam[on], fj[on], n)) for fj in np.moveaxis(f, 2, 0))
    c, k0 = 0.0, np.sqrt(space.mesh.area)  # k0: the constant 1 in the orthonormal bases
    if grounded:  # the grounded multiplier's equation, which A leaves out, fixes c
        k, i = np.nonzero(~on)
        y = np.append(np.stack([x, xc[0]], axis=1), np.zeros((1, 2)), axis=0)[lam[k]]
        eq = space.edge_sign[k, i] @ (np.stack([X[k, i, 0], Xe[k, i, 0]], 1) - np.einsum("qj,qjr->qr", Xe[k, i, 1:], y))
        c = eq[0] / eq[1]
        x, lam = np.append(x - c * xc[0], c), np.hstack([np.full((len(lam), 1), n), lam])  # c is unknown n
    mu = np.append(x, 0.0)[lam]
    sk = X[:, :, 0] - np.einsum("kdj,kj->kd", Xe, mu)
    u = U[:, :, 0] - np.einsum("kdj,kj->kd", U[:, :, 1:], mu)
    if grounded:
        u[:, 0] -= k0 * (k0 @ u[:, 0]) / (k0 @ k0)
    # the two sides of an edge agree to roundoff: take their mean
    s = space.gather(sk)
    free, flat, root = space.free_dofs(), dofs.ravel(), np.sqrt(space.detB)[:, None]
    ref = space.to_ref(s[dofs])  # once for the mass and the divergence (``RTNSpace.div``)
    res = space.rows_to_elem(space.mass(ref) + u @ space.D_ref / root) - rhs  # M_k s_k + Bdiv_k^T u_k - rhs_k
    div = ref @ space.D_ref.T / root - g
    div[:, 0] += c * k0
    b = np.concatenate([free * np.bincount(flat, rhs.ravel(), space.ndof), g.ravel()])
    r = np.concatenate([free * np.bincount(flat, res.ravel(), space.ndof), div.ravel()])
    return s, u, {
        "kkt_residual": float(np.linalg.norm(r) / max(np.linalg.norm(b), 1e-300)),
        "compat_defect": float(abs(c) * np.linalg.norm(k0) / max(np.linalg.norm(b), 1e-300)),
        "div_defect": float(np.abs(div).max()),
        "system_size": n,
        "nnz_lu": nnz,
    }
