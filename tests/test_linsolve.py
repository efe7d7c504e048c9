import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import get_lapack_funcs

from hdivkit.linsolve import (
    SingularSystemError,
    SparseFactor,
    dense_solve,
    saddle_matrix,
    saddle_solve_dense,
)

RNG = np.random.default_rng(0)


def test_kkt_closed_form():
    # M = I (2x2), B = [1, 0]: x1 = g, x2 = b2, lambda = b1 - g
    A = saddle_matrix(np.eye(2), np.array([[1.0, 0.0]]))
    b = np.array([2.0, 3.0, 5.0])
    x = dense_solve(A, b)
    assert np.abs(x - [5.0, 3.0, -3.0]).max() < 1e-14


def test_random_spd_constraint_satisfied():
    for _ in range(5):
        n, m = 12, 4
        Q = RNG.standard_normal((n, n))
        M = Q @ Q.T + n * np.eye(n)
        B = RNG.standard_normal((m, n))
        b = RNG.standard_normal(n)
        g = RNG.standard_normal(m)
        x, lam = saddle_solve_dense(M, B, b, g)
        assert np.abs(B @ x - g).max() < 1e-12 * max(1.0, np.abs(g).max())
        # compare against an independent pseudoinverse-based solve
        A = saddle_matrix(M, B)
        full = np.linalg.pinv(A) @ np.concatenate([b, g])
        assert np.abs(x - full[:n]).max() < 1e-10


def test_kernel_shift_invariance():
    # shifting the constraint data along the kernel leaves the primal alone
    n = 6
    Q = RNG.standard_normal((n, n))
    M = Q @ Q.T + n * np.eye(n)
    B = RNG.standard_normal((2, n))
    kernel = RNG.standard_normal(2)
    B = B - np.outer(kernel, kernel @ B) / (kernel @ kernel)  # make kernel^T B = 0
    b = RNG.standard_normal(n)
    g = RNG.standard_normal(2)
    g = g - kernel * (kernel @ g) / (kernel @ kernel)
    x1, _ = saddle_solve_dense(M, B, b, g, kernel=kernel)
    x2, _ = saddle_solve_dense(M, B, b, g + 0.37 * kernel, kernel=kernel)
    assert np.abs(x1 - x2).max() < 1e-11


def test_dense_factor_refinement_residual():
    n = 40
    Q = RNG.standard_normal((n, n))
    A = Q + Q.T
    b = RNG.standard_normal(n)
    x = dense_solve(A, b)
    assert np.linalg.norm(b - A @ x) / np.linalg.norm(b) < 1e-11


def test_dense_two_by_two_pivots():
    # a zero diagonal forces 2x2 Bunch-Kaufman pivot blocks
    n = 8
    Q = RNG.standard_normal((n, n))
    A = Q + Q.T
    A[:2, :2] = [[0.0, 1.0], [1.0, 0.0]]
    A[np.diag_indices(n)] = 0.0
    sytrf = get_lapack_funcs("sytrf", (A,))
    assert (sytrf(A, lower=1)[1] < 0).any()
    b = RNG.standard_normal(n)
    x = dense_solve(A, b)
    xd = np.linalg.solve(A, b)
    assert np.abs(x - xd).max() < 1e-12 * max(1.0, np.abs(xd).max())


def test_dense_requires_symmetry():
    with pytest.raises(ValueError):
        dense_solve(np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones(2))


def test_singular_detected():
    A = np.zeros((3, 3))
    with pytest.raises(SingularSystemError):
        dense_solve(A, np.ones(3))


def test_sparse_identity():
    A = sp.eye(10, format="csc")
    b = RNG.standard_normal(10)
    assert np.abs(SparseFactor(A).solve(b) - b).max() < 1e-14


def test_sparse_tridiagonal_vs_dense():
    n = 10
    main = 2 * np.ones(n)
    off = -np.ones(n - 1)
    A = sp.diags([off, main, off], [-1, 0, 1]).tolil()
    # pin the first dof
    A[0, :] = 0
    A[:, 0] = 0
    A[0, 0] = 1.0
    A = A.tocsc()
    b = RNG.standard_normal(n)
    x = SparseFactor(A).solve(b)
    xd = np.linalg.solve(A.toarray(), b)
    assert np.abs(x - xd).max() < 1e-12


def test_sparse_determinism():
    n = 50
    Q = sp.random(n, n, density=0.1, random_state=3)
    A = (Q + Q.T + 10 * sp.eye(n)).tocsc()
    b = RNG.standard_normal(n)
    x1 = SparseFactor(A).solve(b)
    x2 = SparseFactor(A.copy()).solve(b.copy())
    assert np.array_equal(x1, x2)


def test_global_mixed_sparse_vs_dense(unit_square_2):
    # assemble the p = 0 mixed saddle system both ways
    from hdivkit.model_problems import manufactured_sine, solve_mixed

    prob = manufactured_sine(unit_square_2)
    res = solve_mixed(prob, 0)
    # dense re-solve of the same blocks
    from hdivkit.quadpolicy import QuadPolicy
    from hdivkit.model_problems import _flux_system

    policy = QuadPolicy(0, field=prob.sigma)
    space, M, B, fmom = _flux_system(prob, 0, policy)
    n = space.ndof
    m = B.shape[0]
    A = np.zeros((n + m, n + m))
    A[:n, :n] = M.toarray()
    A[:n, n:] = -B.toarray().T
    A[n:, :n] = -B.toarray()
    bb = np.concatenate([np.zeros(n), -fmom])
    sol = np.linalg.solve(A, bb)
    assert np.abs(sol[:n] - res["sigma"].dofs).max() < 1e-10 * max(
        1.0, np.abs(sol[:n]).max()
    )
