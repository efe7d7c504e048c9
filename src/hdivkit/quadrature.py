"""Quadrature rules on the reference triangle, physical edges, and corner wedges.

Low degrees use classical symmetric positive rules; higher degrees fall back
to a conical (Duffy-type) Gauss-Legendre x Gauss-Jacobi product, which is
positive and exact to the requested degree by construction.  A radially
weighted polar product rule handles integrands of the form r^gamma * smooth
around a triangle vertex (needed for corner-singular fields).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_jacobi

MAX_DEGREE = 120


class UnsupportedDegreeError(ValueError):
    pass


@dataclass(frozen=True)
class TriangleRule:
    """Points in reference coordinates, weights summing to 1/2, exactness degree."""

    points: np.ndarray
    weights: np.ndarray
    degree: int

    def __len__(self):
        return len(self.weights)


def xy(v):
    """The x and y components of 2-vectors ``v`` (..., 2), as views.

    Point-layer arithmetic on stacks of points or vectors runs through them:
    a reduction over the length-2 component axis, or an operand broadcast
    along it (a per-element shift or a per-point weight), makes numpy run
    its inner loop once per point.  The same elementwise arithmetic on each
    component runs it over all the points at once and gives the same bits.
    The 2x2 maps themselves stay stacked matmuls: an optimized BLAS may form
    each entry with a fused multiply-add, whose bits elementwise arithmetic
    does not reproduce."""
    return v[..., 0], v[..., 1]


def _rule(points, weights, degree):
    return TriangleRule(np.asarray(points, float), np.asarray(weights, float), degree)


def _symmetric_rules():
    rules = {}
    # degree 1: centroid
    rules[1] = ([(1 / 3, 1 / 3)], [0.5])
    # degree 2: three-point rule
    rules[2] = (
        [(2 / 3, 1 / 6), (1 / 6, 2 / 3), (1 / 6, 1 / 6)],
        [1 / 6, 1 / 6, 1 / 6],
    )
    # degree 4: six-point rule (two symmetry orbits, all weights positive)
    a1, b1, w1 = 0.816847572980459, 0.091576213509771, 0.109951743655322 / 2
    a2, b2, w2 = 0.108103018168070, 0.445948490915965, 0.223381589678011 / 2
    rules[4] = (
        [(a1, b1), (b1, a1), (b1, b1), (a2, b2), (b2, a2), (b2, b2)],
        [w1, w1, w1, w2, w2, w2],
    )
    # degree 5: seven-point rule (centroid + two orbits), exact closed forms
    s15 = np.sqrt(15.0)
    ap = (6 + s15) / 21
    am = (6 - s15) / 21
    wp = (155 + s15) / 2400
    wm = (155 - s15) / 2400
    pts = [(1 / 3, 1 / 3)]
    wts = [9 / 80]
    for a, w in ((ap, wp), (am, wm)):
        c = 1 - 2 * a
        pts += [(c, a), (a, c), (a, a)]
        wts += [w, w, w]
    rules[5] = (pts, wts)
    return rules


_SYM = _symmetric_rules()


@lru_cache(maxsize=None)
def _conical_rule(n: int) -> TriangleRule:
    """n x n Gauss-Legendre x Gauss-Jacobi product rule, exact to degree 2n-1."""
    xg, wg = leggauss(n)
    xi = (xg + 1) / 2
    wi = wg / 2
    xj, wj = roots_jacobi(n, 1.0, 0.0)  # weight (1-x) on [-1, 1]
    eta = (xj + 1) / 2
    wj = wj / 4
    pts = np.empty((n * n, 2))
    wts = np.empty(n * n)
    k = 0
    for a in range(n):
        for b in range(n):
            pts[k, 0] = xi[a] * (1 - eta[b])
            pts[k, 1] = eta[b]
            wts[k] = wi[a] * wj[b]
            k += 1
    return _rule(pts, wts, 2 * n - 1)


@lru_cache(maxsize=None)
def quad_rule(degree: int) -> TriangleRule:
    """Rule on the reference triangle exact for total degree >= ``degree``."""
    if degree < 0:
        raise UnsupportedDegreeError("quadrature degree must be nonnegative")
    if degree > MAX_DEGREE:
        raise UnsupportedDegreeError(f"quadrature degree {degree} > {MAX_DEGREE}")
    if degree <= 1:
        pts, wts = _SYM[1]
        return _rule(pts, wts, 1)
    if degree == 2:
        pts, wts = _SYM[2]
        return _rule(pts, wts, 2)
    if degree <= 4:
        pts, wts = _SYM[4]
        return _rule(pts, wts, 4)
    if degree == 5:
        pts, wts = _SYM[5]
        return _rule(pts, wts, 5)
    n = (degree + 2) // 2
    return _conical_rule(n)


@lru_cache(maxsize=None)
def gauss01(n: int):
    """n-point Gauss-Legendre nodes/weights on [0, 1] (exact to degree 2n-1)."""
    if n < 1:
        raise UnsupportedDegreeError("need at least one Gauss point")
    x, w = leggauss(n)
    return (x + 1) / 2, w / 2


_leggauss = lru_cache(maxsize=None)(leggauss)  # n-point rule on [-1, 1], read-only


def edge_npts(degree: int) -> int:
    """Gauss point count whose 1D exactness covers ``degree``."""
    return max(1, (degree + 2) // 2)


@lru_cache(maxsize=None)
def jacobi01(n: int, gamma: float):
    """Nodes/weights for int_0^1 t^gamma f(t) dt with f smooth, f poly-exact to 2n-1."""
    x, w = roots_jacobi(n, 0.0, gamma)  # weight (1+x)^gamma on [-1, 1]
    t = (x + 1) / 2
    w = w / 2 ** (gamma + 1)
    return t, w


@dataclass(frozen=True)
class WedgeRule:
    """Plain (points, weights) rule on a physical triangle, in physical coords."""

    points: np.ndarray
    weights: np.ndarray

    def __len__(self):
        return len(self.weights)


def corner_rule(coords, vertex_local: int, gamma: float, n_theta: int, n_r: int):
    """Product rule on a physical triangle, radially weighted about one vertex.

    Integrates f = r^gamma * g with g smooth (r measured from the given
    vertex) essentially exactly: the radial direction uses Gauss-Jacobi with
    weight t^(gamma+1) (so radial polynomials of f / r^gamma are integrated
    exactly), the angular direction plain Gauss.  Returns physical points and
    weights such that sum w_q f(x_q) ~ int_K f dA.  ``corner_rules`` on one
    triangle.
    """
    pts, wts = corner_rules(np.asarray(coords, float)[None], np.array([vertex_local]), gamma, n_theta, n_r)
    return WedgeRule(pts[0], wts[0])


def _dot(a, b):
    """Row dot products of a, b (n, 2), by the kernel of a 1-D ``a @ b``."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def corner_rules(coords, vertex_local, gamma: float, n_theta: int, n_r: int):
    """The rules of ``corner_rule`` on triangles ``coords`` (n, 3, 2) about
    their vertices ``vertex_local`` (n,), in one pass: points (n, nq, 2) and
    weights (n, nq); a row does not depend on the other rows."""
    rows = np.arange(len(coords))
    c = coords[rows, vertex_local]
    q1 = coords[rows, (vertex_local + 1) % 3]
    q2 = coords[rows, (vertex_local + 2) % 3]
    th1 = np.arctan2(q1[:, 1] - c[:, 1], q1[:, 0] - c[:, 0])
    th2 = np.arctan2(q2[:, 1] - c[:, 1], q2[:, 0] - c[:, 0])
    # unwrap so the wedge is traversed the short way (opening < pi)
    th2 = np.where(th2 - th1 > np.pi, th2 - 2 * np.pi, np.where(th1 - th2 > np.pi, th2 + 2 * np.pi, th2))
    tg, wg = _leggauss(n_theta)
    theta = ((th1 + th2) / 2)[:, None] + ((th2 - th1) / 2)[:, None] * tg
    wtheta = wg * np.abs(th2 - th1)[:, None] / 2
    # distance from the corner to the opposite edge along each ray
    edge = q2 - q1
    m = np.stack([edge[:, 1], -edge[:, 0]], axis=1)
    m /= np.sqrt(_dot(m, m))[:, None]
    d = _dot(m, q1)
    flip = _dot(m, c) > d
    m, d = np.where(flip[:, None], -m, m), np.where(flip, -d, d)
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=2)
    R = (d - _dot(m, c))[:, None] / (dirs @ m[:, :, None])[..., 0]
    tr, wr = jacobi01(n_r, gamma + 1.0)
    # ray-major products; the weight absorbs the r^gamma factor:
    # W = w_theta * w_r * R^2 * t^(-gamma)
    r = R[:, :, None] * tr
    pts = np.empty(r.shape + (2,))
    for out, cc, dc in zip(xy(pts), xy(c), xy(dirs)):
        np.add(cc[:, None, None], r * dc[:, :, None], out=out)
    wts = wtheta[:, :, None] * wr * (R**2)[:, :, None] * tr ** (-gamma)
    return pts.reshape(len(c), -1, 2), wts.reshape(len(c), -1)


def check_exactness(rule: TriangleRule, degree: int | None = None):
    """Max relative defect of the rule on all monomials up to its degree."""
    from . import polys

    deg = rule.degree if degree is None else degree
    vals = polys.eval_monomials(deg, rule.points)
    approx = vals @ rule.weights
    worst = 0.0
    for k, (a, b) in enumerate(polys.exponents(deg)):
        exact = float(polys.mono_integral(a, b))
        worst = max(worst, abs(approx[k] - exact) / abs(exact))
    return worst
