"""Per-element quadrature selection for a given field and polynomial degree.

Polynomial (discrete) fields get exact-degree rules.  Analytic fields use a
configurable high-order rule (default degree 2p + 10) with an optional
one-step degree-doubling self-check whose failures are recorded as warnings,
never raised.  Fields that declare a corner singularity r^gamma get radially
weighted product rules on elements having the corner as a vertex, Gauss-Jacobi
edge rules on edges leaving the corner, and escalated degrees on nearby
elements, which keeps moment errors near roundoff even for singular data.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

import numpy as np

from .elements import rtn_reference, scalar_basis
from .fields import AnalyticField
from .quadrature import corner_rule, edge_npts, gauss01, jacobi01, quad_rule


@dataclass
class QuadGroup:
    """Elements ``tris`` integrated on one point layout: a shared reference
    rule (``ref`` of shape (nq, 2)) or corner wedges of equal size (``ref`` of
    shape (n, nq, 2)); ``pts`` (n, nq, 2) and ``w`` (n, nq) are physical."""

    tris: np.ndarray
    ref: np.ndarray
    pts: np.ndarray
    w: np.ndarray
    _tables: dict = dfield(default_factory=dict, repr=False)

    @property
    def shared(self):
        return self.ref.ndim == 2

    def tables(self, p):
        """Reference RTN_p primal values (nprim, [n,] nq, 2) and orthonormal
        P_p values (sdim, [n,] nq), the element axis only for wedges."""
        if p not in self._tables:
            ref = self.ref.reshape(-1, 2)
            prim = rtn_reference(p).eval(ref).reshape((-1,) + self.ref.shape)
            phi = scalar_basis(p).eval(ref).reshape((-1,) + self.ref.shape[:-1])
            self._tables[p] = prim, phi
        return self._tables[p]

    def contract(self, table, F):
        """sum over points (and components) of table[i] * F[k]; (n, len(table))."""
        if self.shared:
            return F.reshape(len(F), -1) @ table.reshape(len(table), -1).T
        return np.einsum("ikx,kx->ki", table.reshape(len(table), len(F), -1), F.reshape(len(F), -1))

    def combine(self, coeffs, table):
        """sum_i coeffs[k, i] table[i] at the points; (n, nq[, 2])."""
        shape = (len(coeffs),) + self.pts.shape[1:2] + table.shape[self.ref.ndim :]
        if self.shared:
            return (coeffs @ table.reshape(len(table), -1)).reshape(shape)
        flat = table.reshape(len(table), len(coeffs), -1)
        return np.einsum("ki,ikx->kx", coeffs, flat).reshape(shape)

    def norm_sq(self, vals):
        """Quadrature of |vals|^2 on each element; (n,)."""
        sq = vals**2 if vals.ndim == 2 else np.sum(vals**2, axis=2)
        return np.sum(self.w * sq, axis=1)

    def eval(self, field, div=False):
        """``field`` (or its divergence) at the points: one call for analytic
        fields, the field's own element tables for discrete RTN fields, an
        element loop for anything else."""
        if hasattr(field, "element_coeffs"):
            c = field.element_coeffs(self.tris)
            return field.space.div_values(self, c) if div else field.space.values(self, c)
        fn = field.eval_div if div else field.eval
        if not isinstance(field, AnalyticField):
            return np.stack([fn(x, elem=int(k)) for x, k in zip(self.pts, self.tris)])
        return self.call(fn)

    def call(self, fn):
        """A plain evaluator pts -> values at every point, in one call."""
        vals = np.asarray(fn(self.pts.reshape(-1, 2)), float)
        return vals.reshape(self.pts.shape[:2] + vals.shape[1:])

    def subset(self, keep):
        tab = self._tables if self.shared else {}
        ref = self.ref if self.shared else self.ref[keep]
        return QuadGroup(self.tris[keep], ref, self.pts[keep], self.w[keep], tab)


class QuadPolicy:
    def __init__(self, p, field=None, degree=None, self_check=True):
        self.p = p
        self.field = field
        poly_deg = getattr(field, "poly_degree", None) if field is not None else None
        if poly_deg is not None:
            self.base_degree = poly_deg + p + 3
            self.self_check = False
        else:
            # 2p + 14 keeps the discrete divergence-theorem defect of trig
            # data below 1e-12 even on h ~ 1 elements
            self.base_degree = int(degree) if degree is not None else 2 * p + 14
            self.self_check = bool(self_check)
        self.singularity = getattr(field, "singularity", None) if field is not None else None
        self._cache = {}

    # -- classification -------------------------------------------------------------

    def _corners(self, xs, h):
        """Local index of the singular corner among each triangle's vertices
        (xs (n, 3, 2), h (n,)), or -1."""
        if self.singularity is None:
            return np.full(len(xs), -1)
        d = np.linalg.norm(xs - np.asarray(self.singularity.center, float), axis=2)
        j = np.argmin(d, axis=1)
        hit = d[np.arange(len(xs)), j] <= 1e-12 * np.maximum(1.0, h)
        return np.where(hit, j, -1)

    def _degrees(self, xs, h):
        """Base degree, escalated near the singular corner; (n,)."""
        deg = np.full(len(xs), self.base_degree)
        if self.singularity is None:
            return deg
        c = np.asarray(self.singularity.center, float)
        ratio = np.linalg.norm(xs.mean(axis=1) - c, axis=1) / h
        deg[ratio < 8.0] = max(self.base_degree, 26)
        deg[ratio < 3.0] = max(self.base_degree, 40)
        return deg

    def _wedge(self, coords, corner, extra=(0, 0)):
        gamma = self.singularity.gamma
        n_th = max(20, self.base_degree // 2 + 10) + extra[0]
        n_r = max(12, self.base_degree // 2 + 4) + extra[1]
        wr = corner_rule(coords, corner, gamma, n_th, n_r)
        return wr.points, wr.weights

    # -- rules ------------------------------------------------------------------------

    def element_rules(self, el, key=None):
        """(tri_rule, edge_rules, check_tri_rule) for one element.

        ``tri_rule`` is a TriangleRule (reference coords) or a physical
        (points, weights) pair; ``edge_rules`` is a list of 3 entries, each
        None (use the default Gauss count) or an explicit (t, w) pair on
        [0, 1]; ``check_tri_rule`` backs the degree-doubling self-check.
        """
        if key is not None and key in self._cache:
            return self._cache[key]
        corner = int(self._corners(el.coords[None], np.array([el.h]))[0])
        if corner >= 0:
            gamma = self.singularity.gamma
            tri = self._wedge(el.coords, corner)
            chk = self._wedge(el.coords, corner, (8, 6))
            edges = []
            for slot in range(3):
                la, lb = el.edge_dirs[slot]
                if la == corner or lb == corner:
                    t, w = jacobi01(max(12, self.p + 8), gamma)
                    if lb == corner:  # singular endpoint at t = 1
                        t = 1.0 - t
                    edges.append((t, w))
                else:
                    edges.append(gauss01(edge_npts(max(self.base_degree, 30))))
            out = (tri, edges, chk)
        else:
            deg = int(self._degrees(el.coords[None], np.array([el.h]))[0])
            tri = quad_rule(deg + self.p)
            chk = quad_rule(2 * (deg + self.p)) if self.self_check else None
            n1 = edge_npts(deg + self.p)
            edges = [gauss01(n1)] * 3
            out = (tri, edges, chk)
        if key is not None:
            self._cache[key] = out
        return out

    def n1d(self):
        return edge_npts(self.base_degree + self.p)

    def groups(self, mesh, tris=None):
        """The elements (all, or ``tris``) grouped by the rule ``element_rules``
        gives them: one group per shared reference rule, one for the corner
        wedges.  Built once per mesh."""
        key = ("groups", id(mesh))
        if key not in self._cache:
            xs = mesh.vertices[mesh.triangles]
            corner = self._corners(xs, mesh.h)
            deg = self._degrees(xs, mesh.h)
            out = []
            for d in np.unique(deg[corner < 0]):
                ks = np.flatnonzero((corner < 0) & (deg == d))
                rule = quad_rule(int(d) + self.p)
                pts = rule.points @ np.swapaxes(mesh.B[ks], 1, 2) + mesh.X0[ks, None]
                out.append(QuadGroup(ks, rule.points, pts, rule.weights * mesh.detB[ks, None]))
            ks = np.flatnonzero(corner >= 0)
            if len(ks):
                pts, w = map(np.stack, zip(*(self._wedge(xs[k], corner[k]) for k in ks)))
                ref = (pts - mesh.X0[ks, None]) @ np.swapaxes(mesh.Binv[ks], 1, 2)
                out.append(QuadGroup(ks, ref, pts, w))
            self._cache[key] = out
        if tris is None:
            return self._cache[key]
        sub = [g.subset(np.isin(g.tris, tris)) for g in self._cache[key]]
        return [g for g in sub if len(g.tris)]

    def samples(self, field, mesh, tris=None):
        """(group, field values, divergence values) for the elements (all, or
        ``tris``); the whole mesh is evaluated once per policy and field."""
        held = self._cache.get(("samples", id(mesh)))
        if held is None or held[0] is not field:
            if tris is not None:
                return [(g, g.eval(field), g.eval(field, div=True)) for g in self.groups(mesh, tris)]
            held = self._cache[("samples", id(mesh))] = (
                field,
                [(g, g.eval(field), g.eval(field, div=True)) for g in self.groups(mesh)],
            )
        if tris is None:
            return held[1]
        out = []
        for g, v, dv in held[1]:
            keep = np.isin(g.tris, tris)
            if keep.any():
                out.append((g.subset(keep), v[keep], dv[keep]))
        return out
