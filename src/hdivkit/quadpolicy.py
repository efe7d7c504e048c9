"""Per-element quadrature selection for a given field and polynomial degree.

Polynomial (discrete) fields get exact-degree rules.  Analytic fields use a
configurable high-order rule (default degree 2p + 14).  A one-step
self-check recomputes P_p moments (of div v in the projector, of f in
``project_scalar``) on rules of twice the degree and records failures as
warnings, never raised.  Polynomial fields, integrated exactly, and
divergence-free fields, whose divergence moments are zero on every rule,
get no self-check.  Fields that declare a corner singularity r^gamma get
radially weighted product rules on elements having the corner as a vertex,
Gauss-Jacobi edge rules on edges leaving the corner, and escalated degrees on
nearby elements, which keeps moment errors near roundoff even for singular
data.

A policy integrates one field (or none) on one mesh at one degree p and one
quadrature degree, all fixed when it is built from a call's arguments: each
public entry point builds its own and hands it to its stages.  It keeps,
read-only, its groups, the samples of v and div v (``values``) and their
moments (``moments``, ``div_moments``) for its life, one call or one study
row; its mesh keeps its layout and the process its shared rules' reference
tables (``QuadGroup``), so a call maps only points (``mesh.kept``).  A
divergence-free field's divergence moments are exact zeros, and its ``div`` is
never called.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

import numpy as np

from . import linsolve, polys
from .elements import rtn_dim, rtn_reference, rtn_space, scalar_basis, scalar_moments
from .fields import AnalyticField, FieldError
from .linsolve import chunks
from .mesh import kept
from .quadrature import (MAX_DEGREE, UnsupportedDegreeError, check_integer, corner_rules, edge_npts, gauss01,
                         jacobi01, quad_rule, xy)


# bytes a stage holds per quadrature point of an element: points, weights,
# field and divergence values and the products taken with them
_POINT_BYTES = 8 * 8
_REFERENCE = {}  # the shared rules' reference tables kept for the process (``QuadGroup.prim``)


@dataclass
class QuadGroup:
    """Elements ``tris`` integrated on one point layout: a shared reference
    rule (``ref`` of shape (nq, 2)) or points of their own, such as corner
    wedges or edge traces (``ref`` of shape (n, nq, 2)); ``pts`` (n, nq, 2)
    and ``w`` (n, nq) are physical.  The ``prim`` and ``phi`` tables of a
    shared rule of degree ``rule`` are kept for the process per (p, rule)
    where they fit ``linsolve.KEEP_BYTES``, the others for the group's life."""

    tris: np.ndarray
    ref: np.ndarray
    pts: np.ndarray
    w: np.ndarray
    rule: int | None = None
    _tables: dict = dfield(default_factory=dict, repr=False)

    @classmethod
    def at(cls, mesh, tris, pts, w):
        """Physical points ``pts`` (n, nq, 2) with weights ``w`` (n, nq) on
        the elements ``tris`` of ``mesh``, mapped back to their reference
        points."""
        rel = np.empty(pts.shape)
        for out, comp, x0 in zip(xy(rel), xy(pts), xy(mesh.X0[tris])):
            np.subtract(comp, x0[:, None], out=out)
        return cls(tris, rel @ np.swapaxes(mesh.Binv[tris], 1, 2), pts, w)

    @classmethod
    def points_on(cls, mesh, k, pts):
        """Element ``k`` of ``mesh`` at physical points ``pts`` (npts, 2): a
        one-row group with unit weights, to evaluate a field there from its
        element tables."""
        pts = np.atleast_2d(np.asarray(pts, float))
        return cls.at(mesh, np.array([int(k)]), pts[None], np.ones((1, len(pts))))

    @property
    def shared(self):
        return self.ref.ndim == 2

    def prim(self, p):
        """Reference RTN_p primal values (nprim, [n,] nq, 2), the element
        axis only for points of their own."""
        build = lambda: rtn_reference(p).eval(self.ref.reshape(-1, 2)).reshape((-1,) + self.ref.shape)
        return kept(self._keeper(2 * rtn_dim(p)), ("prim", p, self.rule), build)

    def phi(self, p):
        """Orthonormal P_p values (sdim, [n,] nq)."""
        build = lambda: scalar_basis(p).eval(self.ref.reshape(-1, 2)).reshape((-1,) + self.ref.shape[:-1])
        return kept(self._keeper(polys.tri_dim(p)), ("phi", p, self.rule), build)

    def _keeper(self, width):
        """Where a table of ``width`` numbers per point is kept (see the class docstring)."""
        fits = self.rule is not None and 8 * width * len(self.ref) <= linsolve.KEEP_BYTES
        return _REFERENCE if fits else self._tables

    def barycentric(self):
        """Hat functions of the three local vertices at the points (3, n, nq)."""
        x, y = self.ref[..., 0], self.ref[..., 1]
        lam = np.stack([1.0 - x - y, x, y])
        return np.broadcast_to(lam[:, None] if self.shared else lam, (3,) + self.w.shape)

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
        if vals.ndim == 2:
            return np.sum(self.w * vals**2, axis=1)
        x, y = xy(vals)
        return np.sum(self.w * (x * x + y * y), axis=1)

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


def check_finite(groups, samples, name):
    """``samples``, one array per group of ``groups``, checked: a sample
    that is not finite is a FieldError that names ``name`` and the lowest
    element with one."""
    bad = np.concatenate([g.tris[~np.isfinite(vals.reshape(len(vals), -1)).all(axis=1)]
                          for g, vals in zip(groups, samples)])
    if len(bad):
        raise FieldError(f"{name} is not finite at a point of element {bad.min()}")
    return samples


class QuadPolicy:
    """The rules of degree ``p`` for ``field`` (or None) on ``mesh``, at
    quadrature ``degree``; ``self_check``: the caller runs the
    degree-doubling self-check, which polynomial and divergence-free fields
    never need; ``singularity``: the corner singularity a fieldless policy's
    integrand declares (a field's own otherwise).  Each element's rule is
    decided once, when the policy is built (``_classify``).  A degree that is
    not an integer >= 0, or a rule above ``quadrature.MAX_DEGREE``, is
    refused then, before any work."""

    def __init__(self, p, mesh, field=None, degree=None, self_check=True, singularity=None):
        for name, x in (("p", p), ("quad_degree", 0 if degree is None else degree)):
            check_integer(name, x)
        self.p, self.mesh, self.field, self.degree = p, mesh, field, degree
        poly_deg = getattr(field, "poly_degree", None)
        # div v = 0 makes every divergence quantity zero, on every rule
        self.divergence_free = bool(getattr(field, "divergence_free", False))
        # polynomial fields are integrated exactly: nothing to self-check
        self.self_check = self_check and poly_deg is None and not self.divergence_free
        if poly_deg is not None:
            self.base_degree = poly_deg + p + 3
        else:
            # 2p + 14 keeps the discrete divergence-theorem defect of trig
            # data below 1e-12 even on h ~ 1 elements
            self.base_degree = int(degree) if degree is not None else 2 * p + 14
        self.singularity = s = getattr(field, "singularity", singularity)
        self._cache = {}
        self._key = (p, self.base_degree, s and (tuple(np.asarray(s.center, float).tolist()), float(s.gamma)))
        self._corner, self._deg, self._rules, self._wedges = self._layout("classes", self._classes)
        self._check_degree()

    def _layout(self, part, build):
        """``part`` of the policy's layout, kept by its mesh per all that decides it (``_key``)."""
        return kept(self.mesh._cache, ("quad_layout", part) + self._key, build)

    def _classes(self):
        """``_classify`` on the mesh, the elements of each shared rule's degree and the corner's."""
        corner, deg = self._classify(self.mesh.vertices[self.mesh.triangles], self.mesh.h)
        rules = [(d, np.flatnonzero((corner < 0) & (deg == d))) for d in np.unique(deg[corner < 0])]
        return corner, deg, rules, np.flatnonzero(corner >= 0)

    def _check_degree(self):
        """Refuse a policy whose rules exceed ``MAX_DEGREE``: its element
        rules have degree deg + p, deg escalated near a singular corner,
        and its self-check's twice that (``_tri_rule``)."""
        k = 2 if self.self_check else 1
        deg = int(self._deg[self._corner < 0].max(initial=self.base_degree))
        top = k * (deg + self.p)
        if top > MAX_DEGREE:
            most = MAX_DEGREE // k - self.p
            fits = f"quad_degree may be at most {most}" if deg == self.base_degree and most >= 0 else "none fits"
            raise UnsupportedDegreeError(
                f"quad_degree={self.degree} needs rules of degree {top} > {MAX_DEGREE} at p = {self.p}"
                f"{' with the self-check' if k == 2 else ''}; at this p {fits}")

    # -- classification -------------------------------------------------------------

    def _classify(self, xs, h):
        """Each triangle's (xs (n, 3, 2), h (n,)) singular corner, the local
        index of its vertex at the singularity or -1, and its rule degree,
        the base degree escalated near the corner: two (n,) arrays."""
        corner, deg = np.full(len(xs), -1), np.full(len(xs), self.base_degree)
        if self.singularity is None:
            return corner, deg
        c = np.asarray(self.singularity.center, float)
        d = np.linalg.norm(xs - c, axis=2)
        j = np.argmin(d, axis=1)
        hit = d[np.arange(len(xs)), j] <= 1e-12 * np.maximum(1.0, h)
        ratio = np.linalg.norm(xs.mean(axis=1) - c, axis=1) / h
        deg[ratio < 8.0] = max(self.base_degree, 26)
        deg[ratio < 3.0] = max(self.base_degree, 40)
        return np.where(hit, j, corner), deg

    def _tri_rule(self, deg, check):
        """The shared reference rule of an element of degree ``deg``, on the
        self-check (``check``) of twice its degree."""
        return quad_rule((2 if check else 1) * (int(deg) + self.p))

    def _wedge_size(self, check):
        """Angular and radial point counts of the corner wedge rules, more on the self-check."""
        a, r = (8, 6) if check else (0, 0)
        return max(20, self.base_degree // 2 + 10) + a, max(12, self.base_degree // 2 + 4) + r

    def _edge_rule(self, code):
        """The (t, w) edge rule of ``code``: Gauss points covering degree code
        >= 0; -1 (-2): Gauss-Jacobi with the singular end at t = 0 (t = 1)."""
        if code >= 0:
            return gauss01(edge_npts(int(code)))
        t, w = jacobi01(max(12, self.p + 8), self.singularity.gamma)
        return (1.0 - t if code == -2 else t), w

    # -- rules ------------------------------------------------------------------------

    def element_rules(self, el, key=None):
        """(tri_rule, edge_rules, check_tri_rule) for one element view.

        ``tri_rule`` is a TriangleRule (reference coords) or a physical
        (points, weights) pair; ``edge_rules`` holds one (t, w) pair on
        [0, 1] per edge slot; ``check_tri_rule`` backs the degree-doubling
        self-check.  The per-element reference of ``groups``,
        ``check_groups`` and ``edge_rules``, which give the same rules to
        the policy's mesh.
        """
        if key is None:
            return self._element_rules(el)
        # an entry holds its element's geometry: on another mesh a key names another element
        return kept(self._cache, key, lambda: self._element_rules(el), tag=(el.coords.tobytes(), tuple(el.edge_dirs)))

    def _element_rules(self, el):
        (corner,), (deg,) = self._classify(el.coords[None], np.array([el.h]))
        if corner < 0:
            chk = self._tri_rule(deg, True) if self.self_check else None
            return self._tri_rule(deg, False), [self._edge_rule(deg + self.p)] * 3, chk
        rules = [corner_rules(el.coords[None], np.array([corner]), self.singularity.gamma, *self._wedge_size(check))
                 for check in (False, True)]
        tri, chk = ((pts[0], wts[0]) for pts, wts in rules)
        # a slot leaving the corner: Gauss-Jacobi, the corner at its start (-1) or end (-2)
        codes = [-2 if lb == corner else -1 if la == corner else max(self.base_degree, 30) for la, lb in el.edge_dirs]
        return tri, [self._edge_rule(c) for c in codes], chk

    def groups(self):
        """The elements of the mesh grouped by the rule ``element_rules`` gives
        them: one group per shared reference rule, cut into chunks of at most
        ``POINT_BYTES`` of per-point data, and one for the corner wedges, cut
        into chunks of at most ``STACK_BYTES`` (``linsolve.chunks``).  Built
        once."""
        return kept(self._cache, "groups", lambda: list(self._grouped(check=False)))

    def edge_rules(self):
        """The edge rules of ``element_rules`` for every (triangle, slot) pair
        of the mesh, grouped by rule: (tris, slots, t, w) per rule, the pairs
        in chunks of at most ``POINT_BYTES`` of per-point data.  Slot j lies
        opposite local vertex j; t runs from its lower to its higher vertex.
        An analytic field takes the same values on both sides of an edge:
        its pairs go by edge, the two sides of an edge next to each other in
        one chunk."""
        analytic = isinstance(self.field, AnalyticField)
        for code, tris, slots, at in self._layout(("edges", analytic), lambda: list(self._edge_pairs(analytic))):
            t, w = self._edge_rule(code)
            # cut between edges: a chunk of edges holds their one or two pairs
            for c in chunks(len(at) - 1, _POINT_BYTES * len(t) * np.diff(at), points=True):
                yield tris[at[c.start] : at[c.stop]], slots[at[c.start] : at[c.stop]], t, w

    def _edge_pairs(self, analytic):
        """Per edge rule code its (tris, slots) pairs and where each chunk unit (edge or pair) starts."""
        mesh, corner, ks = self.mesh, self._corner, self._wedges
        codes = np.repeat(self._deg[:, None] + self.p, 3, axis=1)
        touch = np.arange(3) != corner[ks, None]
        high = mesh.edges[mesh.tri_edges[ks], 1] == mesh.triangles[ks, corner[ks], None]
        codes[ks] = np.where(touch, np.where(high, -2, -1), max(self.base_degree, 30))
        for code in np.unique(codes):
            tris, slots = np.nonzero(codes == code)
            at = np.arange(len(tris) + 1)
            if analytic:
                order = np.argsort(mesh.tri_edges[tris, slots], kind="stable")
                tris, slots = tris[order], slots[order]
                at = np.append(np.flatnonzero(np.diff(mesh.tri_edges[tris, slots], prepend=-1)), len(tris))
            yield code, tris, slots, at

    def check_groups(self):
        """The chunks of ``groups`` on the rules of the degree-doubling
        self-check, built one at a time and not kept."""
        return self._grouped(check=True)

    def _grouped(self, check):
        for d, ks in self._rules:
            rule = self._tri_rule(d, check)
            tables = {}  # the tables kept for no longer than the call, shared by the rule's chunks
            for sl in chunks(len(ks), _POINT_BYTES * len(rule.weights), points=True):
                k = ks[sl]
                pts = self.mesh.map_to_phys(rule.points, k)
                yield QuadGroup(k, rule.points, pts, rule.weights * self.mesh.detB[k, None], rule.degree, tables)
        # wedge tables carry an element axis: a wedge holds its per-point
        # data and its prim and phi tables at degree p
        size = self._wedge_size(check)
        item = np.prod(size) * (_POINT_BYTES + 8 * (2 * rtn_dim(self.p) + polys.tri_dim(self.p)))
        for sl in chunks(len(self._wedges), item):
            ref, pts, w = self._layout(("wedges", check), lambda: self._wedge_points(size))
            yield QuadGroup(self._wedges[sl], ref[sl], pts[sl], w[sl])

    def _wedge_points(self, size):
        """The corner wedges' reference and physical points and weights."""
        ks, xs = self._wedges, self.mesh.vertices[self.mesh.triangles[self._wedges]]
        g = QuadGroup.at(self.mesh, ks, *corner_rules(xs, self._corner[ks], self.singularity.gamma, *size))
        return g.ref, g.pts, g.w

    def values(self, div=False):
        """The field (or its divergence) at the points of every group of
        ``groups``, in group order: the whole mesh is evaluated once per
        kind, on first use.  Callers skip the divergence of a
        divergence-free field.  A sample that is not finite is a FieldError
        that names its element."""
        def build():
            groups = self.groups()
            return check_finite(groups, [g.eval(self.field, div=div) for g in groups], "div v" if div else "v")

        return kept(self._cache, "div" if div else "values", build)

    def moments(self):
        """Moments of the field against the RTN_p basis of the mesh
        (``RTNSpace.moments``) on every element, (nt, ndof), from its
        ``values``; formed once."""
        def build():
            space = rtn_space(self.mesh, self.p)
            b = np.empty((self.mesh.num_triangles, space.ref.dim))
            for g, vals in zip(self.groups(), self.values()):
                b[g.tris] = space.moments(g, vals)
            return b

        return kept(self._cache, "moments", build)

    def div_moments(self):
        """Moments of the field's divergence against the orthonormal P_p
        bases (``elements.scalar_moments``) on every element, (nt, sdim),
        from its divergence ``values``; zero for a divergence-free field.
        Formed once."""
        def build():
            out = np.zeros((self.mesh.num_triangles, polys.tri_dim(self.p)))
            if not self.divergence_free:
                for g, dvals in zip(self.groups(), self.values(div=True)):
                    out[g.tris] = scalar_moments(self.mesh, self.p, g, dvals)
            return out

        return kept(self._cache, "div_moments", build)

