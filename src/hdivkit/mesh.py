"""Conforming 2D simplicial meshes: construction, refinement, IO, vertex
patches, and ``kept``, the one way hdivkit keeps what it builds.

Conventions baked in here and relied on everywhere else:
  * triangles are stored counterclockwise, rotated so the smallest vertex
    index comes first; a kept triangle has |2 area| > 1e-14 L^2, far above
    the rounding of ``detB``, so every ``detB`` is positive;
  * edges are sorted vertex pairs, listed lexicographically; the global
    tangent runs lower index -> higher index and the global unit normal is
    the tangent rotated by -90 degrees;
  * ``tri_edges[k, j]`` is the edge opposite local vertex j, and
    ``tri_edge_sign[k, j]`` is +1 when the global normal points out of the
    triangle;
  * the generated meshes number their vertices row by row, bottom to top
    and left to right, and red refinement numbers each edge's midpoint
    after the old vertices, in the order in which the sides ab, bc, ca of
    the triangles first reach the edges: the dof order, and so every
    output, depends on both;
  * ``edge_label[e]`` is edge e's boundary label, ``DIRICHLET`` or
    ``NEUMANN``, and ``""`` on the interior edges: the one form of the
    boundary conditions, so a module's mask is ``edge_label == DIRICHLET``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .quadrature import xy

DIRICHLET = "dirichlet"
NEUMANN = "neumann"
_LABELS = (DIRICHLET, NEUMANN)


class MeshError(ValueError):
    pass


def kept(cache, key, build, tag=None):
    """``cache[key]``, built by ``build()`` on first use and again, in place
    of the old entry, when asked with another ``tag`` (compared by value).
    The entry's arrays, those in its tuples, lists and sparse matrices
    included, are made read-only; objects keep their own arrays.

    What hdivkit keeps, by owner and key, and what rebuilds it:
      * a mesh (``Mesh._cache``), for its life: ``rtn_space``,
        ``patch_layout`` (its flat pair and patch arrays, with its
        signatures and chunks as ranges of them), ``RTNSpace.multipliers``
        (the matrix, and its packed Cholesky factor where that fits
        ``linsolve.KEEP_BYTES``; never a SuperLU object),
        ``.kkt_table`` and ``.mass_table`` per p, ``RTNSpace.classes``,
        ``lagrange_nodes`` per q, ``vertex_patches``, and the least-squares
        (A, B, ``LagrangeSpace``) per (p, q), rebuilt for another l^2 (tag);
      * a patch layout, for the mesh's life: the class systems per (kind,
        signature) (``PatchTables``) and the surrogate's numbering, each
        patch's nodes from 0, once (``PatchLayout.surrogate``);
      * a ``QuadPolicy``, bound to one mesh, field, p and quadrature degree,
        for its life (one entry point's call or one study row): its
        groups, the samples of v and div v and their moments; one
        element's rules per key, rebuilt for another geometry (tag); per
        quadrature group its reference tables per degree.
    Not kept here: the process-wide reference tables (``lru_cache`` in
    ``polys``, ``quadrature``, ``elements`` and ``local_solve``)."""
    entry = cache.get(key)
    if entry is None or entry[0] != tag:
        entry = cache[key] = (tag, build())
        _read_only(entry[1])
    return entry[1]


def _read_only(entry):
    if isinstance(entry, np.ndarray):
        entry.flags.writeable = False
    elif isinstance(entry, (tuple, list)):
        for a in entry:
            _read_only(a)
    elif sp.issparse(entry):
        _read_only([entry.data, entry.indices, entry.indptr])


def _rows(rows, width, kinds, one, many):
    """``rows`` as an (n >= 1, width) array of a dtype kind in ``kinds``, or
    a one-line MeshError naming the first row (``one``) that is not
    ``width`` such values ("iu" integers, else numbers)."""
    def fits(a, ndim):
        try:
            a = np.array(a)
        except ValueError:  # ragged
            return False
        return a.ndim == ndim and a.shape[-1] == width and a.size > 0 and a.dtype.kind in kinds

    if fits(rows, 2):
        return np.array(rows)
    bad = [(i, row) for i, row in enumerate(rows) if not fits(row, 1)] if np.iterable(rows) else []
    noun = "integers" if kinds == "iu" else "numbers"
    raise MeshError(f"{one} {bad[0][0]} {bad[0][1]!r} is not {width} {noun}" if bad else
                    f"{many} must be an (n, {width}) array of {noun}, n >= 1")


def _canonical_triangles(vertices, triangles):
    tris = _rows(triangles, 3, "iu", "triangle", "triangles").astype(int)
    bad = np.flatnonzero(((tris < 0) | (tris >= len(vertices))).any(axis=1))
    if len(bad):
        raise MeshError(f"triangle {bad[0]} {tuple(tris[bad[0]].tolist())} has a vertex index outside "
                        f"[0, {len(vertices)})")
    xa, xb, xc = vertices[tris].transpose(1, 0, 2)
    area2 = (xb[:, 0] - xa[:, 0]) * (xc[:, 1] - xa[:, 1]) - (xb[:, 1] - xa[:, 1]) * (xc[:, 0] - xa[:, 0])
    # relative to the longest edge, so the check is invariant under scaling
    longest_sq = np.sum(np.stack([xb - xa, xc - xb, xa - xc]) ** 2, axis=2).max(axis=0)
    bad = np.flatnonzero(np.abs(area2) <= 1e-14 * longest_sq)
    if len(bad):
        k = int(bad[0])
        raise MeshError(f"triangle {k} {tuple(int(a) for a in tris[k])} is degenerate")
    tris = np.where((area2 > 0)[:, None], tris, tris[:, [0, 2, 1]])
    first = np.argmin(tris, axis=1)[:, None]
    return np.take_along_axis(tris, (first + np.arange(3)) % 3, axis=1)


def _pair_keys(pairs, nv):
    """lower * nv + higher of each vertex pair (..., 2), flattened: sorting
    the keys sorts the pairs lexicographically."""
    pairs = pairs.reshape(-1, 2)
    return pairs.min(axis=1) * nv + pairs.max(axis=1)


def affine_geometry(xs):
    """Affine maps F_k(x) = X0_k + B_k x of triangles ``xs`` (n, 3, 2) from the
    reference triangle: (X0, B, det B, B^{-1}, h = longest side)."""
    xs = np.asarray(xs, float)
    B = np.stack([xs[:, 1] - xs[:, 0], xs[:, 2] - xs[:, 0]], axis=2)
    detB = B[:, 0, 0] * B[:, 1, 1] - B[:, 0, 1] * B[:, 1, 0]
    Binv = np.stack([B[:, 1, 1], -B[:, 0, 1], -B[:, 1, 0], B[:, 0, 0]], axis=1)
    Binv = Binv.reshape(-1, 2, 2) / np.where(detB == 0, 1.0, detB)[:, None, None]
    h = np.linalg.norm(np.roll(xs, -1, axis=1) - xs, axis=2).max(axis=1)
    return xs[:, 0], B, detB, Binv, h


class Mesh:
    """A validated conforming triangulation with labeled boundary; ``X0``,
    ``B``, ``detB``, ``Binv`` and ``h`` hold the affine element maps, and
    ``edge_label`` the boundary labels, one per edge."""

    def __init__(self, vertices, triangles, boundary_labels):
        self.vertices = _rows(vertices, 2, "iuf", "vertex", "vertices").astype(float)
        bad = np.flatnonzero(~np.isfinite(self.vertices).all(axis=1))
        if len(bad):
            raise MeshError(f"vertex {int(bad[0])} has a non-finite coordinate {tuple(self.vertices[bad[0]].tolist())}")
        self.triangles = _canonical_triangles(self.vertices, triangles)
        order = np.lexsort(
            (self.triangles[:, 2], self.triangles[:, 1], self.triangles[:, 0])
        )
        self.triangles = self.triangles[order]
        self._build_edges()
        self._apply_labels(boundary_labels)
        self._geometry()
        self._validate()
        self._cache = {}

    # -- construction helpers -------------------------------------------------

    def _build_edges(self):
        # slot j of triangle k is the edge opposite local vertex j, running
        # (b, c), (c, a), (a, b) counterclockwise
        local = self.triangles[:, [[1, 2], [2, 0], [0, 1]]]  # (nt, 3, 2)
        nv = len(self.vertices)
        keys, inv, count = np.unique(_pair_keys(local, nv), return_inverse=True, return_counts=True)
        self.edges = np.stack([keys // nv, keys % nv], axis=1)
        if len(count) and count.max() > 2:
            first = np.full(len(count), len(inv))
            np.minimum.at(first, inv, np.arange(len(inv)))
            e = int(np.argmin(np.where(count > 2, first, len(inv))))
            key = tuple(int(a) for a in self.edges[e])
            raise MeshError(f"edge {key} belongs to {count[e]} triangles")
        # the triangles of each edge, ascending; -1 on the boundary
        order = np.argsort(inv, kind="stable")
        start = np.cumsum(count) - count
        self.edge_tris = -np.ones((len(count), 2), dtype=int)
        self.edge_tris[:, 0] = order[start] // 3
        two = count == 2
        self.edge_tris[two, 1] = order[start[two] + 1] // 3
        self.tri_edges = inv.reshape(-1, 3)
        # orientation sign: +1 iff the global normal points out of the
        # triangle, i.e. the counterclockwise slot runs lower -> higher
        self.tri_edge_sign = np.where(local[:, :, 0] < local[:, :, 1], 1, -1)

    def _apply_labels(self, boundary_labels):
        """``edge_label`` from the (a, b) -> label items.  The first item that
        fails a check is refused, by its first failing one: its edge exists,
        lies on the boundary, gets a known label and no earlier item's."""
        if isinstance(boundary_labels, str):
            raise MeshError(f"boundary_labels maps edges (a, b) to labels, not {boundary_labels!r}: label rules "
                            "such as 'all-dirichlet' belong to build_structured and build_lshape")
        nv, items, ends = len(self.vertices), [], []
        for item in boundary_labels.items() if isinstance(boundary_labels, dict) else boundary_labels:
            try:
                (a, b), label = item
            except (TypeError, ValueError):
                raise MeshError(f"boundary_labels maps edges (a, b) -> label, not {item!r} (Mesh.edge_label "
                                "holds the labels by edge index)") from None
            items.append(((a, b), label))
            ends.append([v if isinstance(v, (int, np.integer)) and 0 <= v < nv else -1 for v in (a, b)])
        ends, edge_keys = np.array(ends, dtype=int).reshape(-1, 2), _pair_keys(self.edges, nv)
        key = np.where((ends >= 0).all(axis=1), _pair_keys(ends, nv), -1)
        e = np.minimum(np.searchsorted(edge_keys, key), len(edge_keys) - 1)
        exists = edge_keys[e] == key
        # twice: an earlier item has the same existing edge
        _, first, inv = np.unique(np.where(exists, key, -1 - np.arange(len(key))), return_index=True,
                                  return_inverse=True)
        failed = np.stack([~exists, self.edge_tris[e, 1] != -1, [lab not in _LABELS for _, lab in items],
                           first[inv] != np.arange(len(key))])
        bad = np.flatnonzero(failed.any(axis=0))
        if len(bad):
            (a, b), label = items[bad[0]]
            try:
                edge = (min(a, b), max(a, b))
            except TypeError:  # endpoints of no common order
                edge = (a, b)
            raise MeshError((f"labeled edge {edge} does not exist", f"edge {edge} is interior but carries a boundary "
                             f"label", f"unknown boundary label {label!r} on edge {edge}",
                             f"edge {edge} labeled twice")[np.argmax(failed[:, bad[0]])])
        self.edge_label = np.full(len(self.edges), "", dtype="<U9")  # as long as "dirichlet"
        self.edge_label[e] = [lab for _, lab in items]

    def _geometry(self):
        xs = self.vertices[self.triangles]
        self.X0, self.B, self.detB, self.Binv, self.h = affine_geometry(xs)
        self.area = 0.5 * self.detB
        perimeter = np.linalg.norm(np.roll(xs, -1, axis=1) - xs, axis=2).sum(axis=1)
        self.rho = 4 * self.area / perimeter  # inscribed-circle diameter
        self.kappa = float(np.max(self.h / self.rho))
        self.h_max = float(np.max(self.h))

    def _validate(self):
        nv, ne, nt = len(self.vertices), len(self.edges), len(self.triangles)
        unused = np.flatnonzero(np.bincount(self.triangles.ravel(), minlength=nv) == 0)
        if len(unused):
            raise MeshError(f"vertex {int(unused[0])} is unused")
        self._check_conformity()
        if nv - ne + nt != 1:
            raise MeshError(f"Euler characteristic V-E+T = {nv - ne + nt} != 1 (mesh must triangulate a simply "
                            "connected domain)")
        missing = np.flatnonzero((self.edge_tris[:, 1] == -1) & (self.edge_label == ""))
        if len(missing):
            raise MeshError(f"boundary edge {tuple(int(a) for a in self.edges[missing[0]])} is missing a label")
        self._check_folds()

    def _check_folds(self):
        """Reject a triangulation whose triangles overlap.  Locally: the
        vertices opposite an interior edge must lie strictly on opposite
        sides of its line, so its two (counterclockwise) triangles run
        through it in opposite directions (``tri_edge_sign``); strictly, to
        the scale-relative tolerance of the degeneracy check.  Globally: the
        triangles around an interior vertex must turn around it once.  With
        no folded edge they turn a whole number of times, so this rejects a
        branched cover (a fan winding twice, 4 pi of angles); the boundary's
        shoelace area cannot, as it then equals the total area identically."""
        # the signs of an interior edge in its two triangles cancel
        flow = np.bincount(self.tri_edges.ravel(), self.tri_edge_sign.ravel(), len(self.edges))
        bad = np.flatnonzero((self.edge_tris[:, 1] >= 0) & (flow != 0))
        if len(bad):
            k0, k1 = (int(k) for k in self.edge_tris[bad[0]])
            raise MeshError(
                f"mesh is folded at edge {tuple(int(v) for v in self.edges[bad[0]])}: its triangles {k0} "
                f"{tuple(int(v) for v in self.triangles[k0])} and {k1} {tuple(int(v) for v in self.triangles[k1])} "
                "lie on the same side of it"
            )
        corner = self.vertices[self.triangles]
        u, w = np.roll(corner, -1, axis=1) - corner, np.roll(corner, 1, axis=1) - corner
        angle = np.arctan2(u[..., 0] * w[..., 1] - u[..., 1] * w[..., 0], np.sum(u * w, axis=2))
        turns = np.bincount(self.triangles.ravel(), angle.ravel(), len(self.vertices)) / (2 * np.pi)
        turns[self.edges[self.boundary_edges()].ravel()] = 1.0
        bad = np.flatnonzero(turns > 1.5)
        if len(bad):
            raise MeshError(f"mesh overlaps itself: its triangles wind {turns[bad[0]]:.0f} times "
                            f"around interior vertex {int(bad[0])}")

    def _check_conformity(self):
        """Refuse a vertex within 1e-8 L of the closed segment of a boundary
        edge it does not end (L its length): strictly inside, t in (1e-12,
        1 - 1e-12), it hangs; at an end it doubles it (a slit).  Name the first
        such edge and its lowest such vertex, measuring those in the range of
        its shorter extent, x or y (a horizontal edge of a grid meets one
        row of vertices there, where its x-range holds two columns)."""
        edges = self.edges[self.boundary_edges()]
        z = self.vertices[:, 0] + 1j * self.vertices[:, 1]
        za, zb = z[edges].T
        L2 = np.abs(zb - za) ** 2
        on_y = np.abs(zb.imag - za.imag) < np.abs(zb.real - za.real)  # the axis each edge is searched along
        a, b = np.where(on_y, za.imag, za.real), np.where(on_y, zb.imag, zb.real)
        order = np.argsort(self.vertices.T, axis=1, kind="stable")
        coord = np.take_along_axis(self.vertices.T, order, axis=1)
        mid, half = (a + b) / 2, np.abs(b - a) / 2 + 1e-6 * np.sqrt(L2)  # beyond 1e-8 L
        lo, hi = np.where(on_y, *(np.searchsorted(c, [mid - half, mid + half]) for c in coord[::-1]))
        i = np.repeat(np.arange(len(edges)), hi - lo)  # (edge, vertex) pairs, by edge
        v = order[on_y[i].astype(int), np.arange(len(i)) - np.repeat(np.cumsum(hi - lo) - hi, hi - lo)]
        r, d, L2 = z[v] - za[i], (zb - za)[i], L2[i]
        t = (r * d.conj()).real / L2
        # |r - t d|^2, as |r|^2 - t^2 L^2 rounds above 1e-16 L^2 on the segment
        gap = np.abs(r - np.clip(t, 0, 1) * d) ** 2
        bad = np.flatnonzero((gap < 1e-16 * L2) & (v != edges[i, 0]) & (v != edges[i, 1]))
        if len(bad):
            k = bad[np.lexsort((v[bad], i[bad]))[0]]
            edge, w = tuple(edges[i[k]].tolist()), int(v[k])
            raise MeshError(f"hanging node: vertex {w} lies inside edge {edge}" if 1e-12 < t[k] < 1 - 1e-12 else
                            f"vertex {w} coincides with vertex {edge[int(t[k] > 0.5)]}, an end of boundary edge {edge}")

    # -- queries ---------------------------------------------------------------

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_edges(self):
        return len(self.edges)

    @property
    def num_triangles(self):
        return len(self.triangles)

    def map_to_phys(self, refpts, tris=slice(None)):
        """Reference points (nq, 2) mapped into the triangles ``tris``
        (default: every triangle); (n, nq, 2)."""
        pts = np.asarray(refpts, float) @ np.swapaxes(self.B[tris], 1, 2)
        for comp, x0 in zip(xy(pts), xy(self.X0[tris])):
            comp += x0[:, None]
        return pts

    # the edge queries take one edge index or an index array; an array adds a
    # leading edge axis to the result

    def edge_vector(self, e):
        """Lower -> higher tangent (not normalized); (2,) or (n, 2)."""
        a, b = self.edges[e].T
        return self.vertices[b] - self.vertices[a]

    def edge_length(self, e):
        t = self.edge_vector(e)[..., None, :]
        # t.t as the BLAS dot np.linalg.norm takes for one vector, so an edge
        # has one length in scalar and array calls
        sq = (t @ np.swapaxes(t, -1, -2)).reshape(np.shape(e))
        return np.sqrt(sq) if sq.ndim else float(np.sqrt(sq))

    def edge_normal(self, e):
        """Global unit normal: lower->higher tangent rotated by -90 degrees."""
        t = self.edge_vector(e) / np.asarray(self.edge_length(e))[..., None]
        return np.stack([t[..., 1], -t[..., 0]], axis=-1)

    def edge_points(self, e, t):
        """Points at parameters ``t`` (nq,) on [0, 1] along the edge, from the
        lower to the higher vertex; (nq, 2) or (n, nq, 2)."""
        a, t = self.vertices[self.edges[e, 0]], np.asarray(t, float)
        pts = np.empty(a.shape[:-1] + t.shape + (2,))
        for out, ac, tc in zip(xy(pts), xy(a), xy(self.edge_vector(e))):
            np.add(ac[..., None], t * tc[..., None], out=out)
        return pts

    def interior_edges(self):
        return np.flatnonzero(self.edge_tris[:, 1] != -1)

    def boundary_edges(self):
        return np.flatnonzero(self.edge_tris[:, 1] == -1)

    def diameter(self):
        lo = self.vertices.min(axis=0)
        hi = self.vertices.max(axis=0)
        return float(np.linalg.norm(hi - lo))

    # -- serialization ----------------------------------------------------------

    def to_dict(self):
        on = self.edge_label != ""
        boundary = [{"edge": e, "label": lab} for e, lab in zip(self.edges[on].tolist(), self.edge_label[on].tolist())]
        return {
            "vertices": [[float(x), float(y)] for x, y in self.vertices],
            "triangles": [[int(a), int(b), int(c)] for a, b, c in self.triangles],
            "boundary": boundary,
        }


def save_mesh(mesh: Mesh, path):
    try:
        with open(path, "w") as f:
            json.dump(mesh.to_dict(), f, indent=1)
            f.write("\n")
    except OSError as exc:
        raise MeshError(f"cannot write mesh file {str(path)!r}: {exc.strerror or exc}") from None


def load_mesh(path) -> Mesh:
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as exc:
        raise MeshError(f"cannot read mesh file {str(path)!r}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise MeshError(f"mesh file {str(path)!r} is not valid JSON: {exc}") from exc
    return mesh_from_dict(data)


def mesh_from_dict(data) -> Mesh:
    try:
        vertices = data["vertices"]
        triangles = data["triangles"]
        boundary = data["boundary"]
    except (KeyError, TypeError) as exc:
        raise MeshError(f"mesh file missing field: {exc}") from exc
    if not isinstance(boundary, list):
        raise MeshError(f"mesh file field 'boundary' must be a list, not {boundary!r}")
    return Mesh(vertices, triangles, [_boundary_item(i, item) for i, item in enumerate(boundary)])


def _boundary_item(i, item):
    """A mesh file's boundary item {"edge": [a, b], "label": ...} as ((a, b), label)."""
    edge = item.get("edge") if isinstance(item, dict) else None
    if isinstance(edge, list) and len(edge) == 2 and all(type(a) is int for a in edge) and "label" in item:
        return tuple(edge), item["label"]
    raise MeshError(f'boundary item {i} {item!r} is not an object with a two-integer "edge" and a "label"')


# -- generators ------------------------------------------------------------------


def _label_boundary(vertices, triangles, rule):
    """Labels of the 1-incident edges of a raw triangle list, in the order the edges
    first appear: left-neumann is Neumann where the midpoint has the least x."""
    if rule not in ("all-dirichlet", "all-neumann", "left-neumann"):
        raise MeshError(f"unknown boundary label rule {rule!r}")
    tris = np.asarray(triangles, dtype=int).reshape(-1, 3)
    verts = np.asarray(vertices, float)
    nv = len(verts)
    keys, first, count = np.unique(
        _pair_keys(tris[:, [[1, 2], [2, 0], [0, 1]]], nv), return_index=True, return_counts=True
    )
    keys = keys[count == 1][np.argsort(first[count == 1])]
    a, b = keys // nv, keys % nv
    left = np.abs((verts[a, 0] + verts[b, 0]) / 2 - verts[:, 0].min()) < 1e-12
    neumann = (rule == "all-neumann") | ((rule == "left-neumann") & left)
    return list(zip(zip(a.tolist(), b.tolist()), np.where(neumann, NEUMANN, DIRICHLET).tolist()))


def one_triangle(coords) -> Mesh:
    """The mesh of one triangle, Dirichlet on every side: how a lone
    triangle gets its element tables (``elements.rtn_space``).  Vertices
    given counterclockwise keep their order."""
    labels = [((0, 1), "dirichlet"), ((1, 2), "dirichlet"), ((0, 2), "dirichlet")]
    return Mesh(coords, [[0, 1, 2]], labels)


def _grid(m, lo, hi, labels, cut=None):
    """An m x m grid of cells on [lo, hi]^2, each split along its (i, j) ->
    (i+1, j+1) diagonal, minus the cells where the (m, m) mask ``cut``
    (indexed [j, i]) is set; the vertices of the kept cells are numbered
    row by row."""
    keep = np.ones((m, m), dtype=bool) if cut is None else ~cut
    j, i = np.nonzero(keep)  # cells row by row
    a = j * (m + 1) + i
    b, c, d = a + 1, a + m + 2, a + m + 1
    tris = np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)
    used = np.zeros((m + 1) ** 2, dtype=bool)
    used[tris] = True
    xs = np.linspace(lo, hi, m + 1)
    vertices = np.stack(np.meshgrid(xs, xs), axis=2).reshape(-1, 2)[used]
    triangles = (np.cumsum(used) - 1)[tris]
    return Mesh(vertices, triangles, _label_boundary(vertices, triangles, labels))


def _cells(n):
    """The cell count ``n`` of a generated mesh, refused with a MeshError
    unless it is an integer >= 1: a numpy integer is one, a bool is not."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise MeshError(f"n must be an integer >= 1, got {n!r}")
    return int(n)


def build_structured(n: int, labels="all-dirichlet"):
    """Uniform n x n grid on the unit square, cells split along the
    (i, j) -> (i+1, j+1) diagonal."""
    return _grid(_cells(n), 0.0, 1.0, labels)


def build_lshape(n: int, labels="all-dirichlet"):
    """L-shaped domain (-1,1)^2 minus the quadrant x>0, y<0; n cells per unit.

    The reentrant corner sits exactly at the origin, which is always a mesh
    vertex.
    """
    n = _cells(n)
    cut = np.zeros((2 * n, 2 * n), dtype=bool)
    cut[:n, n:] = True
    return _grid(2 * n, -1.0, 1.0, labels, cut)


def refine_uniform(mesh: Mesh) -> Mesh:
    """Red refinement: each triangle splits into 4 similar children.  The
    midpoint of each edge is numbered after the vertices, in the order in
    which the sides ab, bc, ca of the triangles first reach the edges."""
    slots = mesh.tri_edges[:, [2, 0, 1]]  # edges ab, bc, ca
    _, first = np.unique(slots, return_index=True)
    order = np.argsort(first)
    mid = np.empty(mesh.num_edges, dtype=int)
    mid[order] = mesh.num_vertices + np.arange(mesh.num_edges)
    lo, hi = mesh.edges[order].T
    verts = np.concatenate([mesh.vertices, (mesh.vertices[lo] + mesh.vertices[hi]) / 2])
    a, b, c = mesh.triangles.T
    mab, mbc, mca = mid[slots].T
    triangles = np.stack([a, mab, mca, mab, b, mbc, mca, mbc, c, mab, mbc, mca], axis=1).reshape(-1, 3)
    e = np.flatnonzero(mesh.edge_label != "")
    halves = np.stack([mesh.edges[e, 0], mid[e], mid[e], mesh.edges[e, 1]], axis=1).reshape(-1, 2)
    return Mesh(verts, triangles, zip(halves.tolist(), np.repeat(mesh.edge_label[e], 2).tolist()))


# -- vertex patches ----------------------------------------------------------------

INTERIOR = "interior"


@dataclass
class VertexPatch:
    """All triangles around one vertex plus the edge bookkeeping the local
    equilibration problems need."""

    vertex: int
    kind: str  # interior | dirichlet | neumann
    tris: np.ndarray
    local_index: dict  # triangle -> local index of the patch vertex
    gamma_d_edges: list  # Dirichlet boundary edges containing the vertex
    active_edges: list  # edges whose dofs are free in the patch space


def vertex_patches(mesh: Mesh):
    """One patch per mesh vertex, classified interior/dirichlet/neumann.

    A vertex touching any Dirichlet boundary edge is Dirichlet (the Dirichlet
    boundary is treated as a closed set, so this covers interface vertices).
    Built once per mesh and kept on it (``kept``); callers must not modify
    the list.
    """
    return kept(mesh._cache, "vertex_patches", lambda: _build_vertex_patches(mesh))


def _build_vertex_patches(mesh: Mesh):
    nv = mesh.num_vertices
    patches = []
    for v, (tris, at) in enumerate(zip(_by_vertex(mesh.triangles, nv), _by_vertex(mesh.edges, nv))):
        bdry = at[mesh.edge_tris[at, 1] == -1]
        gamma_d = bdry[mesh.edge_label[bdry] == DIRICHLET].tolist()
        kind = DIRICHLET if gamma_d else NEUMANN if len(bdry) else INTERIOR
        # the Dirichlet edges at a Dirichlet vertex are free
        active = sorted(at[mesh.edge_tris[at, 1] != -1].tolist() + gamma_d)
        local = dict(zip(tris.tolist(), np.argmax(mesh.triangles[tris] == v, axis=1).tolist()))
        patches.append(VertexPatch(v, kind, tris, local, gamma_d, active))
    return patches


def _by_vertex(cells, nv):
    """The rows of ``cells`` (n, k) at each of the nv vertices, ascending."""
    order = np.argsort(cells.ravel(), kind="stable")
    return np.split(order // cells.shape[1], np.cumsum(np.bincount(cells.ravel(), minlength=nv))[:-1])
