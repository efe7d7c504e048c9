"""Conforming 2D simplicial meshes: construction, refinement, IO, vertex
patches, and ``kept``, the one way hdivkit keeps what it builds.

Conventions baked in here and relied on everywhere else:
  * triangles are stored counterclockwise, rotated so the smallest vertex
    index comes first;
  * edges are sorted vertex pairs, listed lexicographically; the global
    tangent runs lower index -> higher index and the global unit normal is
    the tangent rotated by -90 degrees;
  * ``tri_edges[k, j]`` is the edge opposite local vertex j, and
    ``tri_edge_sign[k, j]`` is +1 when the global normal points out of the
    triangle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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
        signatures and chunks as ranges of them), ``RTNSpace.multipliers``,
        ``.kkt_table`` and ``.mass_table`` per p, ``RTNSpace.classes``,
        ``lagrange_nodes`` per q, ``vertex_patches``, and the least-squares
        (A, B, ``LagrangeSpace``) per (p, q), rebuilt for another l^2 (tag);
      * a patch layout, for the mesh's life: the class systems per (kind,
        signature) (``PatchTables``) and the surrogate's numbering over its
        pairs, once (``PatchLayout.surrogate``);
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


def _canonical_triangles(vertices, triangles):
    tris = np.array(triangles, dtype=int).reshape(-1, 3)
    xa, xb, xc = np.asarray(vertices, dtype=float)[tris].transpose(1, 0, 2)
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
    ``B``, ``detB``, ``Binv`` and ``h`` hold the affine element maps."""

    def __init__(self, vertices, triangles, boundary_labels, *, check_hanging=False):
        self.vertices = np.array(vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (n, 2) array")
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
        self._validate(check_hanging)
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
        if isinstance(boundary_labels, str):
            raise MeshError(f"boundary_labels maps edges (a, b) to labels, not {boundary_labels!r}: label rules "
                            "such as 'all-dirichlet' belong to build_structured and build_lshape")
        self.boundary_labels = {}
        eidx = {tuple(e): i for i, e in enumerate(self.edges)}
        for item in boundary_labels.items() if isinstance(boundary_labels, dict) else boundary_labels:
            try:
                (a, b), label = item
            except (TypeError, ValueError):
                raise MeshError(f"boundary_labels maps edges (a, b) -> label, not {item!r} (Mesh.boundary_labels "
                                "is keyed by edge index)") from None
            key = (min(a, b), max(a, b))
            if key not in eidx:
                raise MeshError(f"labeled edge {key} does not exist")
            e = eidx[key]
            if self.edge_tris[e, 1] != -1:
                raise MeshError(f"edge {key} is interior but carries a boundary label")
            if label not in _LABELS:
                raise MeshError(f"unknown boundary label {label!r} on edge {key}")
            if e in self.boundary_labels:
                raise MeshError(f"edge {key} labeled twice")
            self.boundary_labels[e] = label

    def _geometry(self):
        xs = self.vertices[self.triangles]
        self.X0, self.B, self.detB, self.Binv, self.h = affine_geometry(xs)
        self.area = 0.5 * self.detB
        perimeter = np.linalg.norm(np.roll(xs, -1, axis=1) - xs, axis=2).sum(axis=1)
        self.rho = 4 * self.area / perimeter  # inscribed-circle diameter
        self.kappa = float(np.max(self.h / self.rho))
        self.h_max = float(np.max(self.h))

    def _validate(self, check_hanging):
        nv, ne, nt = len(self.vertices), len(self.edges), len(self.triangles)
        used = np.zeros(nv, dtype=bool)
        used[self.triangles.ravel()] = True
        if not used.all():
            raise MeshError(f"vertex {int(np.flatnonzero(~used)[0])} is unused")
        if check_hanging:
            self._check_hanging_nodes()
        if nv - ne + nt != 1:
            raise MeshError(
                f"Euler characteristic V-E+T = {nv - ne + nt} != 1 "
                "(mesh must triangulate a simply connected domain)"
            )
        labeled = np.zeros(ne, dtype=bool)
        labeled[list(self.boundary_labels)] = True
        missing = np.flatnonzero((self.edge_tris[:, 1] == -1) & ~labeled)
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

    def _check_hanging_nodes(self):
        # a vertex strictly inside a single-triangle edge means a hanging node
        for e in np.flatnonzero(self.edge_tris[:, 1] == -1):
            a, b = self.edges[e]
            pa, pb = self.vertices[a], self.vertices[b]
            d = pb - pa
            L2 = d @ d
            rel = self.vertices - pa
            t = (rel @ d) / L2
            dist2 = np.einsum("ij,ij->i", rel, rel) - t**2 * L2
            inside = (t > 1e-12) & (t < 1 - 1e-12) & (dist2 < 1e-16 * L2)
            inside[[a, b]] = False
            if inside.any():
                v = int(np.flatnonzero(inside)[0])
                raise MeshError(
                    f"hanging node: vertex {v} lies inside edge {tuple(self.edges[e])}"
                )

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

    def is_boundary_edge(self, e):
        return self.edge_tris[e, 1] == -1

    def interior_edges(self):
        return np.flatnonzero(self.edge_tris[:, 1] != -1)

    def boundary_edges(self):
        return np.flatnonzero(self.edge_tris[:, 1] == -1)

    def edges_with_label(self, label):
        return sorted(e for e, lab in self.boundary_labels.items() if lab == label)

    def diameter(self):
        lo = self.vertices.min(axis=0)
        hi = self.vertices.max(axis=0)
        return float(np.linalg.norm(hi - lo))

    # -- serialization ----------------------------------------------------------

    def to_dict(self):
        boundary = [
            {"edge": [int(self.edges[e, 0]), int(self.edges[e, 1])], "label": lab}
            for e, lab in sorted(self.boundary_labels.items())
        ]
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
    labels = []
    for item in boundary:
        labels.append(((item["edge"][0], item["edge"][1]), item["label"]))
    return Mesh(vertices, triangles, labels, check_hanging=True)


# -- generators ------------------------------------------------------------------


def _rule_label(rule, mid, lo, hi):
    if rule == "all-dirichlet":
        return DIRICHLET
    if rule == "all-neumann":
        return NEUMANN
    if rule == "left-neumann":
        return NEUMANN if abs(mid[0] - lo[0]) < 1e-12 else DIRICHLET
    raise MeshError(f"unknown boundary label rule {rule!r}")


def _label_boundary(vertices, triangles, rule):
    """Labels for the 1-incident edges of a raw triangle list."""
    tris = np.asarray(triangles, dtype=int).reshape(-1, 3)
    verts = np.asarray(vertices, float)
    nv = len(verts)
    keys, first, count = np.unique(
        _pair_keys(tris[:, [[1, 2], [2, 0], [0, 1]]], nv), return_index=True, return_counts=True
    )
    lo = verts.min(axis=0)
    hi = verts.max(axis=0)
    labels = []
    for i in np.flatnonzero(count == 1)[np.argsort(first[count == 1])]:
        key = (int(keys[i] // nv), int(keys[i] % nv))
        mid = (verts[key[0]] + verts[key[1]]) / 2
        labels.append((key, _rule_label(rule, mid, lo, hi)))
    return labels


def one_triangle(coords) -> Mesh:
    """The mesh of one triangle, Dirichlet on every side: how a lone
    triangle gets its element tables (``elements.rtn_space``).  Vertices
    given counterclockwise keep their order."""
    labels = [((0, 1), "dirichlet"), ((1, 2), "dirichlet"), ((0, 2), "dirichlet")]
    return Mesh(coords, [[0, 1, 2]], labels)


def build_structured(n: int, labels="all-dirichlet"):
    """Uniform n x n grid on the unit square, cells split along the
    (i, j) -> (i+1, j+1) diagonal."""
    if n < 1:
        raise MeshError("n must be >= 1")
    xs = np.linspace(0.0, 1.0, n + 1)
    vertices = [(x, y) for y in xs for x in xs]
    vid = lambda i, j: j * (n + 1) + i
    triangles = []
    for j in range(n):
        for i in range(n):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            triangles.append((a, b, c))
            triangles.append((a, c, d))
    return Mesh(vertices, triangles, _label_boundary(vertices, triangles, labels))


def build_lshape(n: int, labels="all-dirichlet"):
    """L-shaped domain (-1,1)^2 minus the quadrant x>0, y<0; n cells per unit.

    The reentrant corner sits exactly at the origin, which is always a mesh
    vertex.
    """
    if n < 1:
        raise MeshError("n must be >= 1")
    m = 2 * n
    xs = np.linspace(-1.0, 1.0, m + 1)
    vid = {}
    vertices = []
    for j in range(m + 1):
        for i in range(m + 1):
            x, y = xs[i], xs[j]
            if x > 1e-12 and y < -1e-12:
                continue
            vid[(i, j)] = len(vertices)
            vertices.append((x, y))
    triangles = []
    for j in range(m):
        for i in range(m):
            xc = (xs[i] + xs[i + 1]) / 2
            yc = (xs[j] + xs[j + 1]) / 2
            if xc > 0 and yc < 0:
                continue
            a, b = vid[(i, j)], vid[(i + 1, j)]
            c, d = vid[(i + 1, j + 1)], vid[(i, j + 1)]
            triangles.append((a, b, c))
            triangles.append((a, c, d))
    return Mesh(vertices, triangles, _label_boundary(vertices, triangles, labels))


def refine_uniform(mesh: Mesh) -> Mesh:
    """Red refinement: each triangle splits into 4 similar children."""
    verts = [tuple(v) for v in mesh.vertices]
    mid = {}

    def midpoint(a, b):
        key = (min(a, b), max(a, b))
        if key not in mid:
            mid[key] = len(verts)
            verts.append(tuple((mesh.vertices[a] + mesh.vertices[b]) / 2))
        return mid[key]

    triangles = []
    for a, b, c in mesh.triangles:
        mab, mbc, mca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        triangles += [(a, mab, mca), (mab, b, mbc), (mca, mbc, c), (mab, mbc, mca)]
    labels = []
    for e, lab in mesh.boundary_labels.items():
        a, b = mesh.edges[e]
        m = midpoint(a, b)
        labels += [((a, m), lab), ((m, b), lab)]
    return Mesh(verts, triangles, labels)


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
    boundary_edges: list = field(default_factory=list)  # edges of the patch boundary


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
    tris_at = [[] for _ in range(nv)]
    for k, tri in enumerate(mesh.triangles):
        for v in tri:
            tris_at[v].append(k)
    edges_at = [[] for _ in range(nv)]
    for e, (a, b) in enumerate(mesh.edges):
        edges_at[a].append(e)
        edges_at[b].append(e)
    patches = []
    for v in range(nv):
        bdry = [e for e in edges_at[v] if mesh.is_boundary_edge(e)]
        if not bdry:
            kind = INTERIOR
        elif any(mesh.boundary_labels[e] == DIRICHLET for e in bdry):
            kind = DIRICHLET
        else:
            kind = NEUMANN
        gamma_d = [e for e in bdry if mesh.boundary_labels.get(e) == DIRICHLET]
        interior_at = [e for e in edges_at[v] if not mesh.is_boundary_edge(e)]
        active = sorted(interior_at + (gamma_d if kind == DIRICHLET else []))
        tris = np.array(sorted(tris_at[v]), dtype=int)
        local = {
            int(k): int(np.flatnonzero(mesh.triangles[k] == v)[0]) for k in tris
        }
        patch_edges = set()
        for k in tris:
            patch_edges.update(mesh.tri_edges[k])
        boundary = sorted(
            e
            for e in patch_edges
            if v not in mesh.edges[e] or mesh.is_boundary_edge(e)
        )
        patches.append(
            VertexPatch(
                vertex=v,
                kind=kind,
                tris=tris,
                local_index=local,
                gamma_d_edges=sorted(gamma_d),
                active_edges=active,
                boundary_edges=boundary,
            )
        )
    return patches
