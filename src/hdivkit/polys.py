"""Bivariate polynomials on the reference triangle, with exact-arithmetic helpers.

The reference triangle has vertices (0,0), (1,0), (0,1).  Polynomials are
stored as coefficient vectors over the graded monomial list returned by
``exponents(deg)``.  Orthonormalization runs in rational arithmetic so the
resulting bases stay solid up to degree ~8.
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


@lru_cache(maxsize=None)
def gram_fraction(d1: int, d2: int):
    """Exact cross Gram matrix of monomials(d1) against monomials(d2)."""
    e1, e2 = exponents(d1), exponents(d2)
    return tuple(
        tuple(mono_integral(a1 + a2, b1 + b2) for (a2, b2) in e2) for (a1, b1) in e1
    )


@lru_cache(maxsize=None)
def gram(d1: int, d2: int) -> np.ndarray:
    return np.array(gram_fraction(d1, d2), dtype=float)


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


def orthonormal_rows_from_gram(G):
    """Float rows of the orthonormal basis defined by an exact Gram matrix."""
    T, D = _ldl_fraction(G)
    n = len(G)
    rows = np.zeros((n, n))
    for i in range(n):
        s = float(D[i]) ** -0.5
        for j in range(i + 1):
            rows[i, j] = float(T[i][j]) * s
    return rows


@lru_cache(maxsize=None)
def scalar_orthonormal(deg: int) -> np.ndarray:
    """Rows = L2-orthonormal basis of P_deg on the reference triangle.

    Row m holds the monomial coefficients of the m-th basis function.  The
    combination is computed by rational Gram-Schmidt, so the float Gram
    matrix of the result is the identity to roundoff.
    """
    n = tri_dim(deg)
    exps = exponents(deg)
    G = tuple(
        tuple(mono_integral(a1 + a2, b1 + b2) for (a2, b2) in exps)
        for (a1, b1) in exps
    )
    return orthonormal_rows_from_gram(G)
