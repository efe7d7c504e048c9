"""Dense and sparse solves and the one sparse assembly.

Small dense systems come in stacks (one per element or vertex patch):
``solve_stacked`` factorizes each chunk of the stack with one
``np.linalg.solve`` and checks every system's relative residual;
``saddle_solve_stacked`` builds the KKT stacks [[M, B^T], [B, 0]] on top of
it, with a known constraint kernel handled by a symmetric bordering
row/column after projecting the constraint data onto the compatible
subspace.  A lone dense system goes through LAPACK Bunch-Kaufman
(``dense_solve``: ``sytrf`` and two ``sytrs``, the second one a step of
iterative refinement).  Sparse systems go through SuperLU, also refined
once.  ``assemble_csr`` is the single place where element blocks are
summed into a global sparse matrix.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import get_lapack_funcs


# bytes of one stacked chunk: KKT systems and quadrature groups alike are
# processed in pieces of at most this size, which bounds their temporaries
STACK_BYTES = 1 << 19


class SingularSystemError(RuntimeError):
    pass


def dense_solve(A, b):
    """Solve a dense symmetric (indefinite) system with one refinement step."""
    A = np.asarray(A, float)
    b = np.asarray(b, float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    sym_defect = np.abs(A - A.T).max()
    if sym_defect > 1e-10 * max(1.0, np.abs(A).max()):
        raise ValueError(f"matrix is not symmetric (defect {sym_defect:.2e})")
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


def chunks(n, item_bytes):
    """Slices of ``range(n)`` whose items, ``item_bytes`` each, fill at most
    ``STACK_BYTES`` (at least one item per slice)."""
    step = max(1, STACK_BYTES // max(int(item_bytes), 1))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def solve_stacked(A, b):
    """Solve stacked systems A[k] x[k] = b[k]: one LU-factorizing
    ``np.linalg.solve`` per chunk of ``STACK_BYTES`` and ``dense_solve``'s
    relative-residual check on every system."""
    A = np.asarray(A, float)
    b = np.asarray(b, float)
    x = np.empty_like(b)
    res = np.zeros(len(b))
    for sl in chunks(len(A), A[0].nbytes if len(A) else 1):
        try:
            x[sl] = np.linalg.solve(A[sl], b[sl, :, None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"stacked solve failed: {exc}") from exc
        r = b[sl] - (A[sl] @ x[sl, :, None])[..., 0]
        size = np.maximum(A[sl].max(axis=(1, 2)), -A[sl].min(axis=(1, 2)))
        scale = np.maximum(np.linalg.norm(b[sl], axis=1), size * np.linalg.norm(x[sl], axis=1))
        res[sl] = np.linalg.norm(r, axis=1) / np.maximum(scale, 1e-300)
    if res.size and not res.max() <= 1e-8:
        worst = int(np.argmax(np.where(np.isnan(res), np.inf, res)))
        raise SingularSystemError(f"dense solve residual {res[worst]:.2e} (system {worst})")
    return x


def saddle_solve_stacked(M, B, rhs, g, kernel=None):
    """Minimize 1/2 x^T M[k] x - rhs[k]^T x subject to B[k] x = g[k] for every k.

    ``M`` (n, d, d), ``B`` (n, m, d); returns (x (n, d), multipliers (n, m)).
    With ``kernel`` (n, m), a left null vector of each B[k], g[k] is first
    projected onto the compatible subspace and the KKT matrix
    [[M, B^T, 0], [B, 0, kernel], [0, kernel^T, 0]] pins the multiplier
    along it.  The KKT stack is built and solved a chunk at a time.
    """
    M, B = np.asarray(M, float), np.asarray(B, float)
    rhs, g = np.asarray(rhs, float), np.asarray(g, float)
    n, m, d = B.shape
    if kernel is not None:
        kernel = np.asarray(kernel, float)
        g = g - kernel * (np.sum(kernel * g, axis=1) / np.sum(kernel * kernel, axis=1))[:, None]
    size = d + m + (kernel is not None)
    sol = np.empty((n, size))
    for sl in chunks(n, 8 * size * size):
        K = np.zeros((len(M[sl]), size, size))
        K[:, :d, :d] = M[sl]
        K[:, d : d + m, :d] = B[sl]
        K[:, :d, d : d + m] = np.swapaxes(B[sl], 1, 2)
        b = np.zeros((len(K), size))
        b[:, :d], b[:, d : d + m] = rhs[sl], g[sl]
        if kernel is not None:
            K[:, d : d + m, -1] = K[:, -1, d : d + m] = kernel[sl]
        sol[sl] = solve_stacked(K, b)
    return sol[:, :d], sol[:, d : d + m]


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


class SparseFactor:
    """SuperLU handle for a sparse matrix; deterministic for a fixed pattern."""

    def __init__(self, A):
        A = sp.csc_matrix(A)
        self.A = A
        try:
            self.lu = spla.splu(A)
        except RuntimeError as exc:
            raise SingularSystemError(f"sparse factorization failed: {exc}") from exc

    def solve(self, b):
        """Solve with one step of iterative refinement."""
        b = np.asarray(b, float)
        x = self.lu.solve(b)
        return x + self.lu.solve(b - self.A @ x)
