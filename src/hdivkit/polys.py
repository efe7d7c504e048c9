"""Bivariate polynomials on the reference triangle.

The reference triangle has vertices (0,0), (1,0), (0,1).  Polynomials are
stored as coefficient vectors over the graded monomial list returned by
``exponents(deg)``.  The orthonormal scalar basis comes from the Dubiner
three-term recurrences in floating point; ``mono_integral`` stays exact as
the reference for quadrature checks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np


def tri_dim(deg: int) -> int:
    """Dimension of the total-degree-``deg`` polynomial space in 2D."""
    return (deg + 1) * (deg + 2) // 2


@lru_cache(maxsize=None)
def exponents(deg: int):
    """Graded monomial exponents (a, b) with a + b <= deg."""
    out = []
    for total in range(deg + 1):
        for a in range(total, -1, -1):
            out.append((a, total - a))
    return tuple(out)


@lru_cache(maxsize=None)
def _exp_index(deg: int):
    return {ab: k for k, ab in enumerate(exponents(deg))}


def mono_integral(a: int, b: int) -> Fraction:
    """Exact integral of x^a y^b over the reference triangle: a! b! / (a+b+2)!."""
    return Fraction(factorial(a) * factorial(b), factorial(a + b + 2))


def eval_monomials(deg: int, pts) -> np.ndarray:
    """Values of all monomials up to ``deg`` at pts (N,2); shape (nmono, N)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    x, y = pts[:, 0], pts[:, 1]
    xp = np.ones((deg + 1, len(pts)))
    yp = np.ones((deg + 1, len(pts)))
    for k in range(1, deg + 1):
        xp[k] = xp[k - 1] * x
        yp[k] = yp[k - 1] * y
    exps = exponents(deg)
    out = np.empty((len(exps), len(pts)))
    for i, (a, b) in enumerate(exps):
        out[i] = xp[a] * yp[b]
    return out


def eval_monomials_grad(deg: int, pts):
    """(d/dx, d/dy) of all monomials at pts; two arrays of shape (nmono, N)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    x, y = pts[:, 0], pts[:, 1]
    xp = np.ones((deg + 1, len(pts)))
    yp = np.ones((deg + 1, len(pts)))
    for k in range(1, deg + 1):
        xp[k] = xp[k - 1] * x
        yp[k] = yp[k - 1] * y
    exps = exponents(deg)
    gx = np.zeros((len(exps), len(pts)))
    gy = np.zeros((len(exps), len(pts)))
    for i, (a, b) in enumerate(exps):
        if a > 0:
            gx[i] = a * xp[a - 1] * yp[b]
        if b > 0:
            gy[i] = b * xp[a] * yp[b - 1]
    return gx, gy


def poly_dx(c, deg: int):
    """x-derivative; returns (coeffs, max(deg - 1, 0))."""
    d = max(deg - 1, 0)
    idx = _exp_index(d)
    out = np.zeros(tri_dim(d))
    for i, (a, b) in enumerate(exponents(deg)):
        if a > 0:
            out[idx[(a - 1, b)]] += a * c[i]
    return out, d


def poly_dy(c, deg: int):
    d = max(deg - 1, 0)
    idx = _exp_index(d)
    out = np.zeros(tri_dim(d))
    for i, (a, b) in enumerate(exponents(deg)):
        if b > 0:
            out[idx[(a, b - 1)]] += b * c[i]
    return out, d


def _times_x(c):
    """x * c on the (deg+1, deg+1) grid of x^a y^b coefficients."""
    out = np.zeros_like(c)
    out[1:] = c[:-1]
    return out


def _times_y(c):
    out = np.zeros_like(c)
    out[:, 1:] = c[:, :-1]
    return out


@lru_cache(maxsize=None)
def scalar_orthonormal(deg: int) -> np.ndarray:
    """Rows = L2-orthonormal (Dubiner) basis of P_deg on the reference triangle.

    Row m holds the monomial coefficients of the m-th basis function.  With
    the collapsed coordinate s = (2x + y - 1) / (1 - y), the (i, j) function is
    sqrt(2 (2i+1) (i+j+1)) Q_i P_j^{(2i+1,0)}(2y - 1), where
    Q_i = (1 - y)^i P_i(s) is a polynomial; both factors come from their
    three-term recurrences, run on coefficient arrays in floating point.  Rows
    are graded by total degree i + j (the constant sqrt(2) first), so the first
    tri_dim(k) rows span P_k.
    """
    one = np.zeros((deg + 1, deg + 1))
    one[0, 0] = 1.0

    def lin_s(c):  # (2x + y - 1) c
        return 2 * _times_x(c) + _times_y(c) - c

    Q = [one, lin_s(one)]
    for i in range(1, deg):  # Legendre: (i+1) P_{i+1} = (2i+1) s P_i - i P_{i-1}
        sq = Q[i - 1] - 2 * _times_y(Q[i - 1]) + _times_y(_times_y(Q[i - 1]))
        Q.append(((2 * i + 1) * lin_s(Q[i]) - i * sq) / (i + 1))  # sq = (1-y)^2 Q_{i-1}
    psi = {}
    for i in range(deg + 1):
        a = 2 * i + 1  # Jacobi P_j^{(a,0)}(b), b = 2y - 1
        prev, cur = np.zeros_like(one), Q[i]
        for j in range(deg + 1 - i):
            psi[i, j] = np.sqrt(2 * (2 * i + 1) * (i + j + 1)) * cur
            n2 = 2 * j + a
            b_cur = 2 * _times_y(cur) - cur
            nxt = (n2 + 1) * ((n2 + 2) * n2 * b_cur + a * a * cur)
            nxt -= 2 * j * (j + a) * (n2 + 2) * prev
            prev, cur = cur, nxt / (2 * (j + 1) * (j + a + 1) * n2)
    ea, eb = np.array(exponents(deg)).T
    return np.array([psi[i, j][ea, eb] for i, j in exponents(deg)])


@lru_cache(maxsize=None)
def lagrange_nodal(q: int) -> np.ndarray:
    """Monomial coefficients of the P_q nodal basis at the equispaced nodes
    (i/q, j/q) of the reference triangle, i outer; column m: node m."""
    nodes = np.array([(i / q, j / q) for i in range(q + 1) for j in range(q + 1 - i)])
    nodal = np.linalg.solve(eval_monomials(q, nodes).T, np.eye(len(nodes)))
    nodal.flags.writeable = False
    return nodal
