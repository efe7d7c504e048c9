import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import get_lapack_funcs

from hdivkit.linsolve import (
    SingularSystemError,
    SparseFactor,
    dense_solve,
    solve_stacked,
)
from oracles import flux_system, saddle_matrix, saddle_solve_dense, saddle_solve_stacked

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


def test_sparse_factor_refuses_a_nonsymmetric_matrix():
    A = sp.diags([2.0 * np.ones(5), -np.ones(4)], [0, 1], format="csc")  # SPD part + skew
    with pytest.raises(ValueError, match="not symmetric"):
        SparseFactor(A)
    # a roundoff-sized defect passes, as in dense_solve
    B = (A + A.T).tolil()
    B[0, 1] += 1e-13
    x = SparseFactor(B.tocsc()).solve(np.ones(5))
    assert np.abs(B.toarray() @ x - 1).max() < 1e-12


def test_global_mixed_sparse_vs_dense(unit_square_2):
    # assemble the p = 0 mixed saddle system both ways
    from hdivkit.model_problems import manufactured_sine, solve_mixed

    prob = manufactured_sine(unit_square_2)
    res = solve_mixed(prob, 0)
    # dense re-solve of the same blocks
    from hdivkit.quadpolicy import QuadPolicy

    policy = QuadPolicy(0, field=prob.sigma)
    space, M, B, fmom = flux_system(prob, 0, policy)
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


def _kkt_stack(n, d, m, rng):
    Q = rng.standard_normal((n, d, d))
    M = Q @ np.swapaxes(Q, 1, 2) + d * np.eye(d)
    B = rng.standard_normal((n, m, d))
    return M, B, rng.standard_normal((n, d)), rng.standard_normal((n, m))


def test_saddle_stack_matches_dense_solves():
    rng = np.random.default_rng(1)
    M, B, b, g = _kkt_stack(7, 9, 4, rng)
    x, lam = saddle_solve_stacked(M, B, b, g)
    for i in range(len(M)):
        want, want_lam = saddle_solve_dense(M[i], B[i], b[i], g[i])
        assert np.abs(x[i] - want).max() < 1e-12 * max(1.0, np.abs(want).max())
        assert np.abs(lam[i] - want_lam).max() < 1e-11 * max(1.0, np.abs(want_lam).max())


def test_stacks_are_solved_in_chunks(monkeypatch):
    # one system per chunk gives the same answer to the bit as one chunk
    import hdivkit.linsolve as linsolve

    rng = np.random.default_rng(2)
    M, B, b, g = _kkt_stack(11, 6, 3, rng)
    whole = saddle_solve_stacked(M, B, b, g)
    assert len(linsolve.chunks(11, 8 * 9 * 9)) == 1
    monkeypatch.setattr(linsolve, "STACK_BYTES", 1)
    assert len(linsolve.chunks(11, 8 * 9 * 9)) == 11
    pieces = saddle_solve_stacked(M, B, b, g)
    assert all(np.array_equal(a, c) for a, c in zip(whole, pieces))
    A = M + 0.1 * np.eye(6)
    assert np.array_equal(solve_stacked(A, b), np.linalg.solve(A, b[:, :, None])[..., 0])


def test_stacked_residual_check_names_the_worst_system():
    A = np.stack([np.eye(3)] * 4)
    A[2, 1, 1] = np.nan  # LAPACK passes it through; the residual check must not
    b = np.ones((4, 3))
    with pytest.raises(SingularSystemError, match=r"\(system 2\)"):
        solve_stacked(A, b)
    with pytest.raises(SingularSystemError):
        solve_stacked(np.zeros((2, 3, 3)), np.ones((2, 3)))
    # a NaN class matrix fails the systems of its class alone, on both
    # paths; the check names the first of them by its place in the call
    A = np.stack([np.eye(3)] * 2)
    A[1, 0, 0] = np.nan
    cls = np.array([0, 0, 1, 0, 1])
    for inv in (None, np.stack([np.eye(3), np.full((3, 3), np.nan)])):
        with pytest.raises(SingularSystemError, match=r"\(system 2\)"):
            solve_stacked(A, np.ones((5, 3)), cls, inv)
    assert np.array_equal(solve_stacked(A, np.ones((3, 3)), cls[[0, 1, 3]]), np.ones((3, 3)))
