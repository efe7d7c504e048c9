"""Local constrained minimizations: the elementwise divergence-constrained
L2 fit and the patchwise equilibration problems on vertex patches.

Element step: minimize ||v - v_K|| over RTN_p(K) subject to the divergence
matching the elementwise L2 projection of div v (the reduced variant works
one degree lower on both space and constraint).

Patch step: minimize ||v_a - chi_a|| over the patch space (zero normal trace
on the patch boundary except on Dirichlet edges at Dirichlet vertices)
subject to a prescribed elementwise divergence, in hybrid form: edge
multipliers enforce the normal continuity and the pinned normal traces, each
element is eliminated once for its three patches (``linsolve.eliminate``),
and each patch solves one small system in its multipliers.  For interior
and Neumann vertices one lowest-order multiplier is grounded and the
constant-divergence coefficient, which projects the data onto the
compatible subspace, takes its place.

Stability surrogate: the dual norm of each patch's data over
patch-continuous P_{p+2} functions, against which the patch correction is
measured (``patch_stability_ratio``).

All three steps are stacked dense solves: the element fits over the
quadrature groups of a ``QuadPolicy`` (per affine class, by
``linsolve.element_solve``), the patch problems and their
surrogates over the signature groups of the ``PatchLayout`` (patches with
equal multiplier count, triangle count and kernel give systems of one size).
The surrogate numbers its nodes by the mesh's continuous P_{p+2} numbering
(``elements.lagrange_nodes``) and builds its element blocks from reference
tables, so no step loops over elements or patches in Python.

A patch's systems depend only on the mesh and p; theta and v enter only
their right-hand sides.  Every patch is keyed on the exact bits of what
decides them: its elements' affine classes, edge signs, T_k edge factors
and multiplier numbering for the multiplier system (``PatchGroup.cls``,
per signature, with the layout); its elements' maps, node numbering and
fixed nodes for the surrogate (``PatchTables.surrogate``, per signature,
built with the surrogate's node numbering on first use).
``linsolve.solve_stacked`` solves every patch's system by itself, against
its class's system, as ``linsolve.element_solve`` solves an element's; the
right-hand sides, the recoveries and the surrogate's numerators stay per
patch.  A patch's bits depend only on its class's system and its own data,
so sigma and the stability ratios have the same bits however the layout is
chunked.

Where a kind's systems repeat, the layout keeps each distinct one
(``PatchTables``), assembled and inverted by the first call that needs it
and applied by every call, so a call's results do not depend on the calls
before it.  The multiplier kind keeps only the inverses and each class's
max|S|: every patch's multiplier residual b - S lam is checked from its own
element columns (``patch_equilibrate``), on this path and on the per-call
one alike, which also catches a patch filed under the wrong class.  The
surrogate kind keeps its systems beside their inverses and checks against
them.  A kind is kept where it has at most one class per two patches; the
multiplier kind also where it has fewer classes than patches and its
inverses fit ``KEEP_BYTES``, as on every layout of up to a few dozen
triangles at p <= 6.  The rule does not depend on the chunks.  Elsewhere,
as on a mesh without repeats, where a kept system per patch would cost
more memory than it saves time, each call assembles and factors one system
per class present.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import polys
from .elements import (
    _coupling_reference,
    _stiffness_blocks,
    hat_operators,
    lagrange_bary,
    lagrange_grads_ref,
    lagrange_nodes,
    rtn_space,
    scalar_moments,
)
from .linsolve import check_residuals, chunks, class_inverses, element_solve, eliminate, max_abs, solve_stacked
from .mesh import DIRICHLET, kept
from .projections import BrokenRTNField, hat_interpolants
from .quadpolicy import QuadPolicy
from .quadrature import quad_rule


class CompatibilityError(RuntimeError):
    pass


# The bytes of multiplier inverses a layout with fewer multiplier classes
# than patches may keep, though it has more than one class per two patches
# (``PatchTables.decide``).  Fixed, and not a chunk budget, so the decision
# and sigma's bits do not depend on the chunking.  1 MB holds those of
# every layout of up to a few dozen triangles at p <= 6 (0.4 MB for an
# all-Neumann lshape:2 at p = 6).
KEEP_BYTES = 1 << 20


def constrained_fit(space, v, policy):
    """Divergence-constrained L2 fits of v in ``space`` on every element,
    from the moments of v and div v the policy keeps: the element KKT
    systems of the whole mesh in one ``linsolve.element_solve`` call; the
    divergence coefficients equal the projected data to solver precision.
    (nt, ndof)."""
    b, g = policy.moments(space, v), policy.div_moments(v, space.mesh, space.p)
    return element_solve(space, b[:, :, None], g[:, :, None], np.arange(len(b)))[0][:, :, 0]


def fit_degree(p, variant):
    """Degree of the element fit of a projector ``variant``: ``def31`` fits
    in RTN_p, ``def52`` in RTN_{p-1} (requires p >= 1)."""
    if variant == "def31":
        return p
    if variant == "def52":
        if p < 1:
            raise ValueError("variant def52 needs p >= 1")
        return p - 1
    raise ValueError(f"unknown variant {variant!r}")


def theta_field(v, p, mesh, *, variant="def31", policy=None, quad_degree=None):
    """Elementwise constrained minimizer over the whole mesh
    (``constrained_fit``), at the degree ``fit_degree`` gives the variant.
    """
    q = fit_degree(p, variant)
    if policy is None:
        policy = QuadPolicy(q, field=v, degree=quad_degree)
    return BrokenRTNField(mesh, q, constrained_fit(rtn_space(mesh, q), v, policy))


# -- patch layout ------------------------------------------------------------------


@dataclass
class PatchGroup:
    """Vertex patches of one signature (multiplier count ``nl``, triangle
    count, kernel) as arrays; row r is the patch of vertex ``verts[r]``.

    ``tris[r]`` lists its triangles (ascending) and ``local[r]`` the local
    index of the vertex in each.  ``mult[r, t, j]`` numbers the nl edge
    multipliers: one per dof of each interior edge at the vertex (both
    sides), then of each pinned slot (opposite edge, Neumann edges); -1 on
    free Dirichlet edges.  ``sign[r, t, j]`` is the sign of edge dof j of
    triangle t in ``linsolve.eliminate`` (+1 on the ``edge_tris[e, 0]``
    side).
    Rows of one multiplier class (``cls``, numbered over the signature in
    order of first appearance) have bitwise-equal multiplier systems, and
    ``linsolve.solve_stacked`` solves each row by itself against its
    class's.  ``tables`` holds what the layout keeps of its systems, and
    ``sig`` is the signature's index there.
    """

    verts: np.ndarray  # (n,)
    tris: np.ndarray  # (n, nt)
    local: np.ndarray  # (n, nt)
    mult: np.ndarray  # (n, nt, 3(p+1))
    sign: np.ndarray  # (n, nt, 3(p+1)), int8
    cls: np.ndarray  # (n,)
    kernel: bool  # interior and Neumann vertices: constant multiplier kernel
    nl: int
    tables: PatchTables = field(repr=False, compare=False)
    sig: int
    _kept: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def rows(self, sl):
        return PatchGroup(self.verts[sl], self.tris[sl], self.local[sl], self.mult[sl], self.sign[sl], self.cls[sl],
                          self.kernel, self.nl, self.tables, self.sig)

    @property
    def problem_maps(self):
        """Index maps of the group's multiplier systems, integers kept from
        first use (``mesh.kept``): ``cols`` (n, nt, 1 + 3(p+1)), the unknown
        of each column of an element elimination (``_columns``); ``slots``
        (n, nt, 3(p+1)), the equation of each edge dof, one row's system
        after another (``_slots``); ``rep``, the first row of each multiplier
        class present, and ``present``, each row's class among them."""
        def build():
            rep, present = np.unique(self.cls, return_index=True, return_inverse=True)[1:]
            # every index is below the size of a group's stack (``chunks``)
            return _columns(self.mult, self.kernel), _slots(self.mult, self.nl).astype(np.int32), rep, present

        return kept(self._kept, "problem_maps", build)

    def surrogate(self, mesh):
        """The stability surrogate's integers, built on first use (the
        surrogate runs only in ``projector_report``) and kept with the
        group: for each chunk of rows whose systems fill at most
        ``POINT_BYTES`` (8 nn^2 bytes a row, a row having at most
        nn = nt tri_dim(p + 2) nodes), (rows, ``nodes``, ``fixed``,
        ``kcls``): the chunk's rows of the signature's numbering and
        surrogate classes (``PatchTables.surrogate``)."""
        def build():
            nodes, fixed, kcls = self.tables.surrogate(mesh, self.sig)
            # a group's rows are a run of its signature's rows
            at = int(np.searchsorted(self.tables.signatures[self.sig].verts, self.verts[0]))
            out = []
            for sl in chunks(len(self.verts), 8 * (nodes.shape[1] * nodes.shape[2]) ** 2, points=True):
                rows = slice(at + sl.start, at + sl.stop)
                out.append((sl, nodes[rows], fixed[rows], kcls[rows]))
            return out

        return kept(self._kept, "surrogate", build)


class PatchTables:
    """The patch systems a ``PatchLayout`` keeps, shared by all its groups.

    ``signatures`` holds each signature's ``PatchGroup`` of all its rows,
    which the layout's groups are runs of.  Two kinds of systems depend
    only on the mesh and p: the multiplier systems, one per class
    ``PatchGroup.cls``, and the stability surrogate's, one per surrogate
    class (``surrogate``).  A kept kind holds, per signature, in
    ``systems`` keyed by (kind, signature) (``mesh.kept``), each class's
    (system, inverse (``linsolve.class_inverses``), max|system|), read-only,
    assembled from each class's first row by the first call that needs
    them, then applied by every call.  The multiplier kind keeps no system
    (None in its place): ``patch_equilibrate`` checks each patch's residual
    from its element columns, against the kept max|S| of its class.

    Which kinds are kept (``keep``, by ``decide``; it does not depend on
    the chunks): a kind whose distinct systems over the whole layout number
    at most one per two patches, and the multiplier kind also where they
    number fewer than the patches and their inverses fit ``KEEP_BYTES``.
    On a repeating mesh the tables are O(1) in mesh size: 14 multiplier
    and 9 surrogate classes on structured:8 as on structured:32, about 2
    MB in all at p = 6.  The small layouts of up to a few dozen triangles
    keep their multiplier inverses (lshape:1 has 7 classes for 8 patches),
    0.4 MB at most at p = 6.  On a mesh without repeats the tables would
    hold an inverse per patch for the life of the mesh: about 55 MB of
    multiplier inverses and 760 MB of surrogate systems and inverses on a
    jittered structured:32 at p = 6, counted from the system sizes, which
    the rule refuses.  There each call assembles and factors one system
    per class present in its chunk.
    """

    def __init__(self, p):
        self.p = p
        self.signatures = []
        self.keep = {}
        self.systems = {}
        self._classes = {}
        self._numbering = {}

    def decide(self, kind, classes, dims=None):
        """Keep ``kind`` when its classes, ``classes`` per signature, number
        at most half the patches; given ``dims``, the size of each
        signature's systems, also when they number fewer than the patches
        and their inverses fit ``KEEP_BYTES``."""
        self._classes[kind] = classes
        patches = sum(len(g.verts) for g in self.signatures)
        count = [int(c.max()) + 1 for c in classes]
        fits = dims is not None and sum(count) < patches and sum(
            8 * c * d * d for c, d in zip(count, dims)) <= KEEP_BYTES
        self.keep[kind] = sum(count) <= patches / 2 or fits

    def class_systems(self, kind, sig, assemble):
        """The kept (systems, inverses, max|system|) of signature ``sig``'s
        ``kind`` classes, in class order, built on first use from
        ``assemble(rep)``, the systems of the signature's rows ``rep``; the
        multiplier kind keeps no systems (None); None when ``kind`` is not
        kept."""
        def build():
            rep = np.unique(self._classes[kind][sig], return_index=True)[1]
            verts, A = self.signatures[sig].verts, assemble(rep)
            inv = class_inverses(A, lambda c: f"{kind} class {c}, patch of vertex {verts[rep[c]]}")
            return (None if kind == "multiplier" else A), inv, max_abs(A)

        return kept(self.systems, (kind, sig), build) if self.keep[kind] else None

    def surrogate(self, mesh, sig):
        """Signature ``sig``'s surrogate numbering: ``nodes`` (n, nt, nloc),
        which number local node m of triangle t by row r's P_{p+2} nodes in
        ascending global order; ``fixed`` (n, nn), the nodes with an
        identity row (padding past a row's own node count, and the clamped
        nodes), nn the most nodes of a row; and each row's surrogate class.
        What decides a surrogate system: its elements' maps, the node
        numbering and the fixed nodes.  Built for every signature on first
        use, which decides whether surrogate systems are kept."""
        def build():
            out = []
            for g in self.signatures:
                nodes, fixed = _surrogate_nodes(mesh, self.p, g.tris, g.local, g.kernel)
                kcls = _class_ids(mesh.Binv[g.tris], mesh.detB[g.tris], nodes, fixed)
                out.append((nodes, fixed, kcls))
            self.decide("surrogate", [n[2] for n in out])
            return out

        return kept(self._numbering, "surrogate", build)[sig]


@dataclass
class PatchLayout:
    """Every vertex patch of a mesh at degree p, in signature groups cut
    into chunks whose problems allocate at most ``STACK_BYTES`` (sized as
    ``linsolve.chunks`` sets out), and the systems the layout keeps
    (``PatchTables``)."""

    groups: list
    tables: PatchTables


def patch_layout(mesh, p) -> PatchLayout:
    """The patch layout of ``mesh`` at degree p, built once and kept."""
    return kept(mesh._cache, ("patch_layout", p), lambda: _build_patch_layout(mesh, p))


def _build_patch_layout(mesh, p):
    space = rtn_space(mesh, p)
    nt, nv, ne = mesh.num_triangles, mesh.num_vertices, mesh.num_edges
    # triangle corners by vertex, then triangle
    corner = np.argsort(mesh.triangles.ravel(), kind="stable")
    c_vert, c_tri, c_loc = mesh.triangles.ravel()[corner], corner // 3, corner % 3
    count = np.bincount(c_vert, minlength=nv)
    start = np.cumsum(count) - count
    dirichlet = _dirichlet_edges(mesh)
    kernel = np.bincount(mesh.edges[dirichlet].ravel(), minlength=nv) == 0
    # multipliers: interior edges at the vertex by edge, pinned slots by
    # corner and slot, within one key range per vertex; none on the free
    # edges, which are the Dirichlet edges at the vertex (edge z of a
    # triangle lies opposite its local vertex z)
    slot_e = mesh.tri_edges[c_tri]
    at = np.arange(3) != c_loc[:, None]
    span = ne + 9 * nt
    shared = at & (mesh.edge_tris[slot_e, 1] >= 0)
    key = np.where(shared, slot_e, ne + 3 * np.arange(3 * nt)[:, None] + np.arange(3)) + c_vert[:, None] * span
    key[at & dirichlet[slot_e]] = -1
    uniq = np.unique(key[key >= 0])
    first = np.searchsorted(uniq, np.arange(nv + 1) * span)
    # patch-local numbers are small: int32 halves what every cached layout
    # holds and the class keys
    lam = np.where(key >= 0, np.searchsorted(uniq, key) - first[c_vert][:, None], -1).astype(np.int32)
    mult = np.where(lam[:, :, None] >= 0, lam[:, :, None] * (p + 1) + np.arange(p + 1), -1).reshape(3 * nt, -1)
    mult = mult.astype(np.int32)
    # what decides a patch's multiplier system: its elements' affine
    # classes, edge signs (``linsolve.eliminate``) and T_k edge factors, and
    # its multiplier numbering, a fixed function of its per-slot numbers lam
    own = mesh.edge_tris[mesh.tri_edges, 0] == np.arange(nt)[:, None]
    tri_cls = _class_ids(space.classes[0], own, space.edge_scale())
    sign = np.repeat(np.where(own, 1, -1).astype(np.int8), p + 1, axis=1)
    sig = np.stack([np.diff(first) * (p + 1), count, kernel], axis=1)
    tables = PatchTables(p)
    groups = []
    for s in np.unique(sig, axis=0):
        vs = np.flatnonzero((sig == s).all(axis=1))
        c = start[vs][:, None] + np.arange(s[1])
        tris = c_tri[c]
        cls = _class_ids(tri_cls[tris], lam[c])
        group = PatchGroup(vs, tris, c_loc[c], mult[c], sign[tris], cls, bool(s[2]), int(s[0]), tables,
                           len(tables.signatures))
        tables.signatures.append(group)
        # a pass allocates per patch its element columns, five arrays of its
        # multiplier blocks and its system (``linsolve.chunks``)
        nl, m = s[0], 3 * (p + 1)
        for sl in chunks(len(vs), 8 * (s[1] * (space.ref.dim * (4 + m) + 5 * m * (m + 1)) + nl**2)):
            groups.append(group.rows(sl))
    tables.decide("multiplier", [g.cls for g in tables.signatures], [g.nl for g in tables.signatures])
    return PatchLayout(groups, tables)


def _dirichlet_edges(mesh):
    """Mask of the Dirichlet edges of ``mesh``, (ne,)."""
    return np.isin(np.arange(mesh.num_edges), mesh.edges_with_label(DIRICHLET))


def _class_ids(*parts):
    """Class of each row of ``parts`` (arrays with one leading row axis),
    numbered in order of first appearance: rows whose bytes are equal in
    every part share a class."""
    raw = np.hstack([np.ascontiguousarray(a).reshape(len(a), -1).view(np.uint8) for a in parts])
    _, first, inv = np.unique(raw.view(f"V{raw.shape[1]}")[:, 0], return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int32)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inv.reshape(-1)]


def _surrogate_nodes(mesh, p, tris, local, kernel):
    """The P_{p+2} nodes of patches ``tris`` (n, nt) with the patch vertex
    at ``local``: each row's global nodes (``lagrange_nodes``) renumbered
    in ascending order, (n, nt, nloc), and the fixed ones, (n, most nodes of
    a row): padding past a row's own node count, and at Dirichlet vertices
    the clamped nodes, those on the Dirichlet edges there."""
    q, n = p + 2, len(tris)
    row = np.arange(n)[:, None, None]
    nodes = lagrange_nodes(mesh, q)
    stride = nodes.max() + 1
    uniq, loc = np.unique(row * stride + nodes[tris], return_inverse=True)
    start = np.searchsorted(uniq, np.arange(n + 1) * stride)
    loc = loc.reshape(tris.shape + (-1,)) - start[:-1, None, None]
    fixed = np.arange(int(np.diff(start).max())) >= np.diff(start)[:, None]
    if not kernel:
        # edge z of a triangle lies opposite its local vertex z
        on = _dirichlet_edges(mesh)[mesh.tri_edges[tris]] & (np.arange(3) != local[..., None])
        at = np.any(on[..., :, None] & (lagrange_bary(q).T == 0), axis=-2)
        fixed[np.broadcast_to(row, at.shape)[at], loc[at]] = True
    return loc.astype(np.int32), fixed


# -- patch problems ----------------------------------------------------------------


@dataclass
class PatchGroupProblem:
    """The degree-p equilibration problems of a ``PatchGroup`` in hybrid form,
    stacked: ``chi`` (n, nt, ndof), ``g`` (n, nt, sdim), the systems ``S``
    (one per multiplier class present, (nc, nl, nl); None beside the
    signature's kept inverses ``inv`` and their classes' max|S| ``size``) with
    each row's system among them, ``cls`` (n,) (``None``: one system per row),
    ``b`` (n, nl), the element fluxes ``x0`` (n, nt, ndof) and per unit of
    each column's unknown ``xe`` (n, nt, ndof, 1 + 3(p+1)), ``cols`` those
    unknowns, and ``compat_defect`` with one row per patch."""

    group: PatchGroup
    p: int
    chi: np.ndarray
    g: np.ndarray
    S: np.ndarray
    cls: np.ndarray | None
    b: np.ndarray
    x0: np.ndarray
    xe: np.ndarray
    cols: np.ndarray
    compat_defect: np.ndarray
    inv: np.ndarray | None = None
    size: np.ndarray | None = None


@dataclass
class PatchData:
    """Equilibration data of every (triangle, local vertex i) pair.

    On triangle k with hat function lambda_i:
    ``chi[k, i]`` = dofs of I_p(lambda_i theta) and
    ``g[k, i]`` = Pi_p(lambda_i div v + grad lambda_i . theta), in the
    orthonormal scalar basis.  Vertex patch a takes, on each of its
    triangles, the row of its local vertex.
    """

    chi: np.ndarray  # (n, 3, ndof)
    g: np.ndarray  # (n, 3, sdim)
    mass_scale: np.ndarray  # (n, 3): magnitudes of the two terms of (g, 1)_K, see patch_data
    x: np.ndarray | None = None  # (n, ndof, 4 + 3(p+1)): element eliminations, see patch_data
    defect: np.ndarray | None = None  # (num_vertices,): ``_mass_defects`` of every vertex patch


def patch_data(theta: BrokenRTNField, v, p, mesh, *, policy=None) -> PatchData:
    """Patch equilibration data on every triangle.

    The target and the gradient term come from the exact reference operators
    of ``hat_operators`` conjugated by the dof scaling; the divergence term
    contracts div v, sampled once per policy, over its quadrature groups.
    ``mass_scale`` holds the magnitudes of the two terms of (g, 1)_K:
    (lambda_i |div v|, 1)_K, and |G_i[0]| |T_k^{-1} theta| / sqrt(2), the
    Cauchy-Schwarz bound of (grad lambda_i . theta, 1)_K, whose value is
    roundoff when theta's components along G_i[0] vanish.  Their
    cancellation over a patch is measured on this scale.  ``x`` serves the
    three patches of each triangle: the minimal corrections of div chi_i to
    g_i, the flux of divergence sqrt|K| phi_0, and the edge unit columns.
    ``defect`` is gated by ``check_compatibility``, once for every patch.
    """
    space = rtn_space(mesh, p)
    if policy is None:
        policy = QuadPolicy(p, field=v, degree=None)
    chi = hat_interpolants(theta, p)
    _, G = hat_operators(theta.p, p)
    ref = theta.space.to_ref(theta.coeffs)
    grad = np.einsum("imb,kb->kim", G, ref) / np.sqrt(space.detB)[:, None, None]
    div, div_scale = _hat_div_moments(v, space, policy)
    # (f, 1)_K = sqrt|K| f_0 = sqrt(det B_k / 2) f_0 in the orthonormal basis
    grad_scale = np.sqrt(0.5) * np.outer(np.linalg.norm(ref, axis=1), np.linalg.norm(G[:, 0], axis=1))
    g = div + grad
    n = mesh.num_triangles
    data = np.zeros((n, space.sdim, 4))
    data[:, :, :3] = np.swapaxes(g - space.div(chi), 1, 2)
    data[:, 0, 3] = np.sqrt(mesh.area)
    x = eliminate(space, np.zeros((n, space.ref.dim, 4)), data)[1]
    out = PatchData(chi, g, div_scale + grad_scale, x, np.zeros(mesh.num_vertices))
    for group in patch_layout(mesh, p).groups:
        out.defect[group.verts] = _mass_defects(group, out, mesh)
    check_compatibility(np.arange(mesh.num_vertices), out.defect)
    return out


def _hat_div_moments(v, space, policy):
    """(lambda_i div v, phi_m)_K over the policy's quadrature groups,
    (n, 3, sdim), and (lambda_i |div v|, 1)_K, (n, 3), for every triangle;
    zeros for a divergence-free field."""
    out = np.zeros((space.mesh.num_triangles, 3, space.sdim))
    mag = np.zeros((space.mesh.num_triangles, 3))
    if policy.divergence_free:
        return out, mag
    for g, dv in zip(policy.groups(space.mesh), policy.values(v, space.mesh, div=True)):
        lam = g.barycentric()
        for i in range(3):
            out[g.tris, i] = scalar_moments(space.mesh, space.p, g, lam[i] * dv)
        mag[g.tris] = np.einsum("ikq,kq->ki", lam, g.w * np.abs(dv))
    return out, mag


def _mass_defects(group, data, mesh):
    """Relative patch mass |(g, 1)_omega| against the size of its
    cancelling terms, per row of ``group`` (zero without a kernel)."""
    if not group.kernel:
        return np.zeros(len(group.verts))
    mass = np.sum(np.sqrt(mesh.area[group.tris]) * data.g[group.tris, group.local, 0], axis=1)
    scale = np.sum(data.mass_scale[group.tris, group.local], axis=1)
    return np.abs(mass) / np.maximum(scale, 1e-300)


def check_compatibility(verts, defects):
    """Raise for the first of ``verts`` (ascending) whose patch data is
    incompatible: a patch mass above 1e-9 of its terms' size."""
    bad = np.flatnonzero(defects > 1e-9)
    if len(bad):
        raise CompatibilityError(
            f"patch of vertex {int(verts[bad[0]])}: divergence data incompatible "
            f"(defect {defects[bad[0]]:.2e}); the elementwise fit and the patch data disagree"
        )


def _columns(L, kernel):
    """The unknown of each column of an element elimination, for rows of
    multiplier numbering L (n, nt, 3(p+1)): (n, nt, 1 + 3(p+1)), -1 for
    none.  The columns: the constant-divergence coefficient (in place of the
    grounded multiplier 0 at kernel patches: it takes the data's
    incompatible part, roundoff included, which grounding alone leaves on
    one edge), then the edge multipliers."""
    mu = np.full(L.shape[:2] + (1,), 0 if kernel else -1, dtype=L.dtype)
    return np.concatenate([mu, np.where(kernel & (L == 0), -1, L)], axis=2)


def _slots(L, nl):
    """The equation of each numbered dof of rows L (n, ...), numbers below
    nl, when row r's system of nl equations follows row r - 1's; -1 where L
    is."""
    return np.where(L >= 0, np.arange(len(L)).reshape((-1,) + (1,) * (L.ndim - 1)) * nl + L, -1)


def _sum_into(shape, idx, vals):
    """``vals`` summed into zeros(shape) at flat indices ``idx`` in input
    order; negative indices are dropped (summed into a bin in front, cut
    off)."""
    return np.bincount(np.maximum(idx.ravel(), -1) + 1, vals.ravel(), int(np.prod(shape)) + 1)[1:].reshape(shape)


def build_patch_problem(group: PatchGroup, theta: BrokenRTNField, v, p, mesh, *, policy=None, data=None):
    """Assemble the equilibration problems of a ``PatchGroup`` in hybrid form
    as stacked arrays (a ``PatchGroupProblem``).

    def31: data = Pi_p(psi_a div v + grad psi_a . theta), target = the
    degree-p interpolant of psi_a theta.  def52: theta has degree p-1, the
    gradient term is already a degree-p polynomial and the target psi_a theta
    lies in broken RTN_p exactly; the same dof extraction realizes both.
    ``data`` holds the element tables and eliminations of ``patch_data``;
    without it they are built for the whole mesh, and ``patch_data`` gates
    the compatibility of every patch (CompatibilityError).  One multiplier
    system per class (``_multiplier_systems``): the signature's kept
    inverses (``PatchTables.class_systems``), or, where none are kept, the
    systems of the first row of each class present.
    """
    if data is None:
        data = patch_data(theta, v, p, mesh, policy=policy)
    chi, g = data.chi[group.tris, group.local], data.g[group.tris, group.local]
    n, ne = len(group.verts), 3 * (p + 1)
    x0, xe = chi + data.x[group.tris, :, group.local], data.x[group.tris, :, 3:]
    cols, slots, rep, cls = group.problem_maps
    whole = group.tables.signatures[group.sig]
    table = group.tables.class_systems("multiplier", group.sig, lambda r: _multiplier_systems(whole, r, data, p))
    if table is None:
        S, inv, size = _multiplier_systems(group, rep, data, p), None, None
    else:
        (S, inv, size), cls = table, group.cls
    b = _sum_into((n, group.nl), slots, group.sign * x0[..., :ne])
    return PatchGroupProblem(group, p, chi, g, S, cls, b, x0, xe, cols, data.defect[group.verts], inv, size)


def _multiplier_systems(group, rows, data, p):
    """The multiplier systems of ``rows`` of ``group`` (len(rows), nl, nl):
    the blocks E_k (K_k^-1)_ss E_k^T of the eliminations in ``data``, summed
    in triangle order.  They depend only on the mesh and p: the eliminations'
    edge columns do not depend on the data."""
    L, nl, ne = group.mult[rows], group.nl, 3 * (p + 1)
    cols, tris = _columns(L, group.kernel), group.tris[rows]
    idx = np.where(cols[:, :, None, :] >= 0, _slots(L, nl)[..., None] * nl + cols[:, :, None, :], -1)
    # a float sign: numpy broadcasts a mixed int8 product by a slower loop
    return _sum_into((len(L), nl, nl), idx, group.sign[rows, ..., None].astype(float) * data.x[tris, :ne, 3:])


def patch_equilibrate(problem: PatchGroupProblem):
    """Solve the hybrid patch problems of a stacked problem, then recover the
    element fluxes.  Returns each patch's fluxes on its triangles
    (n, nt, ndof), whose two sides of an interior edge agree and whose
    pinned slots vanish to roundoff, and the unknowns of the multiplier
    systems (n, nl).

    Every patch's multiplier residual b - S lam is checked as
    ``linsolve.solve_stacked`` checks its systems (relative to
    max(|b|, max|S| |lam|), at most 1e-8), with S lam formed from the
    patch's own element columns: z = xe lam, whose edge rows summed with
    their signs are S lam, and x = x0 - z.  Forming it from x instead
    would put the roundoff of the x0 terms into b.  The check runs per
    patch, against its class's max|S|, so it also catches a corrupted
    kept inverse or a patch filed under the wrong class, and names the
    patch's vertex."""
    group, ne = problem.group, 3 * (problem.p + 1)
    n = len(group.verts)
    lam = solve_stacked(problem.S, problem.b, problem.cls, problem.inv, name=None)
    row = np.arange(n)[:, None, None]
    z = (problem.xe @ np.append(lam, np.zeros((n, 1)), axis=1)[row, problem.cols][..., None])[..., 0]
    S_lam = _sum_into((n, group.nl), group.problem_maps[1], group.sign * z[..., :ne])
    size = max_abs(problem.S) if problem.size is None else problem.size
    if problem.cls is not None:
        size = size[problem.cls]
    check_residuals((problem.b - S_lam)[..., None], problem.b[..., None], lam[..., None], size,
                    lambda i: f"patch of vertex {group.verts[i]}")
    return problem.x0 - z, lam


# -- dual-norm surrogate for the patch stability constant ---------------------------


def patch_stability_ratio(problem: PatchGroupProblem, x, mesh):
    """Measured ratios ||s_a - chi_a|| over a discrete dual-norm surrogate,
    one per row of a stacked problem with fluxes ``x`` (n, nt, ndof) of
    ``patch_equilibrate``.

    The surrogate maximizes (g, w) + (chi, grad w) over patch-continuous
    P_{p+2} functions with unit gradient norm, mean-zero for interior and
    Neumann vertices, zero on the Dirichlet edges at the vertex for
    Dirichlet ones.  The functional is evaluated as -(s_a - chi_a, grad w):
    equal, since div s_a = g up to the kernel constant and s_a.n = 0 on the
    patch boundary wherever w is free, but free of the cancellation of two
    terms of size ||chi_a||.  The nodes are those of the mesh-wide numbering
    ``lagrange_nodes``, renumbered per row (``PatchGroup.surrogate``); the
    element tables are reference tables scaled by the affine maps.  The
    rows go in chunks whose systems fill at most ``POINT_BYTES``, and each
    chunk solves against the signature's kept surrogate systems
    (``PatchTables.class_systems``) or, where none are kept, assembles one
    system per surrogate class present.  Recorded, never asserted: the
    bound it witnesses is a cited stability result.
    """
    group, p = problem.group, problem.p
    return np.concatenate([_stability_ratios(group.rows(sl), part, p, problem.chi[sl], x[sl], mesh)
                           for sl, *part in group.surrogate(mesh)])


@lru_cache(maxsize=None)
def _surrogate_reference(p):
    """The surrogate's reference tables at degree p: a rule exact for the
    products of its element tables (degree 2p + 2), the P_{p+2} nodal
    gradients at its points and the integrals (1, phi_n)."""
    q = p + 2
    rule = quad_rule(q + p)
    vals = polys.lagrange_nodal(q).T @ polys.eval_monomials(q, rule.points) * rule.weights
    return rule, np.stack(lagrange_grads_ref(q, rule.points), axis=2), vals.sum(axis=1)


def _surrogate_systems(mesh, p, tris, loc, fixed, kernel):
    """The surrogate systems of patches ``tris`` (m, nt) with node numbers
    ``loc`` and ``fixed`` nodes (``PatchTables.surrogate``): the element
    tables (grad w, grad w)_K, by a reference rule exact in their degree
    (at most (p + 2) + p), summed with identity rows on the fixed nodes,
    and for kernel patches bordered by the mean-zero constraint (1, w);
    (m, nn, nn) or (m, nn + 1, nn + 1)."""
    rule, gref, mean_ref = _surrogate_reference(p)
    m, nn = fixed.shape
    flat = np.arange(m)[:, None, None] * nn + loc
    S = _sum_into((m, nn, nn), flat[..., :, None] * nn + loc[..., None, :], _stiffness_blocks(mesh, rule, gref, tris))
    S[fixed[:, :, None] | fixed[:, None, :]] = 0.0
    fr, fi = np.nonzero(fixed)
    S[fr, fi, fi] = 1.0
    if not kernel:
        return S
    mean = _sum_into((m, nn), flat, mesh.detB[tris][..., None] * mean_ref)
    K = np.zeros((m, nn + 1, nn + 1))
    K[:, :nn, :nn], K[:, nn, :nn], K[:, :nn, nn] = S, mean, mean
    return K


def _stability_ratios(group, part, p, chi, x, mesh):
    # p + 2 keeps the surrogate space nontrivial even on one-triangle corner
    # patches with two clamped edges
    q = p + 2
    space = rtn_space(mesh, p)
    tris = group.tris
    n = len(tris)
    row = np.arange(n)[:, None, None]
    loc, fixed, kcls = part
    nn = fixed.shape[1]
    # s_a - chi_a per triangle, and chi_a
    ref = space.to_ref(np.stack([x - chi, chi], axis=2), tris)
    ell = _sum_into((n, nn), row * nn + loc, -ref[:, :, 0] @ _coupling_reference(q, p).T)
    ell[fixed] = 0.0
    whole = group.tables.signatures[group.sig]
    nodes, whole_fixed, _ = group.tables.surrogate(mesh, group.sig)
    table = group.tables.class_systems("surrogate", group.sig, lambda r: _surrogate_systems(
        mesh, p, whole.tris[r], nodes[r], whole_fixed[r], whole.kernel))
    if table is None:  # one system per class present
        rep, cls = np.unique(kcls, return_index=True, return_inverse=True)[1:]
        K, inv = _surrogate_systems(mesh, p, tris[rep], loc[rep], fixed[rep], group.kernel), None
    else:
        (K, inv, _), cls = table, kcls
    rhs = np.append(ell, np.zeros((n, 1)), axis=1) if group.kernel else ell
    y = solve_stacked(K, rhs, cls, inv, lambda i: f"surrogate of vertex {group.verts[i]}")[:, :nn]
    dual = np.sqrt(np.maximum(np.sum(ell * y, axis=1), 0.0))
    # numerator: ||s_a - chi_a|| over the patch, beside ||chi_a||
    num, chi_norm = np.sqrt(np.sum(ref * space.mass(ref, tris), axis=(1, 3))).T
    return np.where(num <= 1e-12 * chi_norm, 0.0, num / np.maximum(dual, 1e-300))
