"""Dense and sparse symmetric-indefinite solves and the one sparse assembly.

Dense systems go through LAPACK Bunch-Kaufman: one ``sytrf`` factorization
(blocked, with the workspace size LAPACK asks for) and two ``sytrs`` solves,
the second one a step of iterative refinement; the symmetry of the matrix
and the relative residual of the answer are checked.  Sparse systems go
through SuperLU, also refined once.  Saddle problems [[M, B^T], [B, 0]]
with a known constraint kernel are handled by a symmetric bordering
row/column against the kernel vector, after projecting the constraint data
onto the compatible subspace.  ``assemble_csr`` is the single place where
element blocks are summed into a global sparse matrix.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import get_lapack_funcs


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
    """Minimize 1/2 x^T M x - rhs^T x subject to B x = g (dense path).

    Returns (x, multiplier).  With a kernel, g is first projected onto the
    compatible subspace; the projected-out component is the compatibility
    defect, available to callers via the kernel inner product beforehand.
    """
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


def assemble_csr(rows, cols, blocks, shape):
    """Sum dense element blocks into a CSR matrix.

    Block k lands on global rows ``rows[k]`` and columns ``cols[k]``; entries
    are summed in element order, row-major within a block, so the result is
    the same to the bit for a fixed input order.
    """
    r = np.concatenate([np.repeat(i, len(j)) for i, j in zip(rows, cols)])
    c = np.concatenate([np.tile(j, len(i)) for i, j in zip(rows, cols)])
    v = np.concatenate([np.ravel(blk) for blk in blocks])
    return sp.coo_matrix((v, (r, c)), shape=shape).tocsr()


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
