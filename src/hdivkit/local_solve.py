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
``linsolve.element_solve``), the patch problems in one pass over each chunk
of the ``PatchLayout`` and their surrogates in one pass over each of its
signatures.  The layout holds each patch once, in flat arrays over the
(triangle, local vertex) pairs of all patches, signature after signature
(multiplier count, triangle count and kernel); a signature is a range of
its patches, a chunk a range of whole patches across signatures, with its
runs, slices and numbering of equations and unknowns fixed when the
layout is built.  In a chunk one gather assembles the right-hand sides of every patch, one
stacked matmul recovers its fluxes and one ``bincount`` forms its
residuals; only the class solves go by signature, as systems of one size.
A layout of up to a few hundred triangles at p <= 3, or a few dozen at
p <= 6, is one chunk.  The surrogate numbers each patch's nodes from 0 in
the order of the mesh's continuous P_{p+2} numbering
(``elements.lagrange_nodes``) and builds its element blocks from reference tables, so no step loops over elements or
patches in Python.

A patch's systems depend only on the mesh and p; theta and v enter only
their right-hand sides.  Every patch is keyed on the exact bits of what
decides them: its elements' affine classes, edge signs, T_k edge factors
and multiplier numbering for the multiplier system (``PatchLayout.cls``);
its elements' maps, node numbering and fixed nodes for the surrogate
(``PatchLayout.surrogate``, built on first use).
``linsolve.solve_stacked`` solves every patch's system by itself, against
its class's system, as ``linsolve.element_solve`` solves an element's; the
right-hand sides, the recoveries and the surrogate's numerators stay per
patch.  A patch's bits depend only on its class's system and its own data,
so sigma has the same bits however the layout is chunked; the stability
ratios, measured by signature, do not see the chunks.

Where a kind's systems repeat, the layout keeps each distinct one
(``PatchTables``, which sets out the rule), assembled and inverted by the
first call that needs it and applied by every call, so a call's results do
not depend on the calls before it.  Every patch's multiplier residual
b - S lam is checked from its own element columns (``patch_equilibrate``),
on the kept path and on the per-call one alike, which also catches a patch
filed under the wrong class.  Elsewhere, as on a mesh without repeats,
each call assembles and factors one system per class present.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

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
from .linsolve import (KEEP_BYTES, check_norms, chunks, class_inverses, element_solve, eliminate, max_abs,
                       solve_stacked)
from .mesh import DIRICHLET, kept
from .projections import BrokenRTNField, hat_interpolants
from .quadpolicy import QuadPolicy
from .quadrature import quad_rule


class CompatibilityError(RuntimeError):
    pass


def constrained_fit(policy):
    """Divergence-constrained L2 fits of the policy's field in RTN_p on every
    element, from the moments of v and div v the policy keeps: the element
    KKT systems of the whole mesh in one ``linsolve.element_solve`` call;
    the divergence coefficients equal the projected data to solver
    precision.  (nt, ndof)."""
    space, b, g = rtn_space(policy.mesh, policy.p), policy.moments(), policy.div_moments()
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


def theta_field(policy, variant="def31"):
    """Elementwise constrained minimizer of the policy's field (``constrained_fit``)
    at the degree ``fit_degree`` gives the variant; def52 fits on a degree
    p - 1 policy of its own at the same quadrature degree."""
    q = fit_degree(policy.p, variant)
    fit = policy if q == policy.p else QuadPolicy(q, policy.mesh, policy.field, policy.degree, self_check=False)
    return BrokenRTNField(policy.mesh, q, constrained_fit(fit))


# -- patch layout ------------------------------------------------------------------


class PatchTables:
    """The patch systems a ``PatchLayout`` keeps, shared by all its passes.

    Two kinds of systems depend only on the mesh and p: the multiplier
    systems, one per class ``PatchLayout.cls``, and the stability
    surrogate's, one per class of ``PatchLayout.surrogate``.  A kept kind
    holds in ``systems``, per (kind, signature) (``mesh.kept``), each
    class's (system, inverse (``linsolve.class_inverses``), max|system|),
    read-only, assembled from the first patch of each class by the first
    call that needs them.  The multiplier kind keeps no system (None):
    ``patch_equilibrate`` checks each patch's residual from its element
    columns, against its class's kept max|S|.

    ``decide`` sets which kinds are kept (``keep``), whatever the chunks: a
    kind whose distinct systems number at most one per two patches, and
    the multiplier kind also where they number fewer than the patches and
    their inverses fit ``linsolve.KEEP_BYTES``, the one keep budget.  On a
    repeating mesh the tables are O(1) in mesh size: 14 multiplier and 9
    surrogate classes on structured:8 as on structured:32, about 2 MB in
    all at p = 6.  The layouts of up to a few dozen triangles keep their
    multiplier inverses (lshape:1 has 7 classes for 8 patches), 0.4 MB at
    most at p = 6.  On a mesh without repeats, about 55 MB of multiplier
    inverses and 760 MB of surrogate systems and inverses on a jittered
    structured:32 at p = 6 (counted from the system sizes), the rule keeps
    nothing, and each call assembles and factors one system per class
    present in each run.
    """

    def __init__(self, verts):
        # the layout's patch vertices name a class that fails
        self.verts, self.keep, self.systems, self._rep = verts, {}, {}, {}

    def decide(self, kind, signatures, cls, dims=None):
        """Keep ``kind`` when its classes, ``cls`` per patch of the
        ``signatures``, number at most half the patches; given ``dims``, the
        size of each signature's systems, also when they number fewer than
        the patches and their inverses fit ``KEEP_BYTES``."""
        rep = [g.patches.start + np.unique(cls[g.patches], return_index=True)[1] for g in signatures]
        self._rep[kind] = rep
        count, patches = [len(r) for r in rep], len(self.verts)
        fits = dims is not None and sum(count) < patches and sum(
            8 * c * d * d for c, d in zip(count, dims)) <= KEEP_BYTES
        self.keep[kind] = sum(count) <= patches / 2 or fits

    def class_systems(self, kind, sig, assemble):
        """The kept (systems, inverses, max|system|) of signature ``sig``'s
        ``kind`` classes, in class order, built on first use from
        ``assemble(rep)``, the systems of the layout's patches ``rep``; the
        multiplier kind keeps no systems (None); None when ``kind`` is not
        kept."""
        def build():
            rep = self._rep[kind][sig]
            A = assemble(rep)
            inv = class_inverses(A, lambda c: f"{kind} class {c}, patch of vertex {self.verts[rep[c]]}")
            return (None if kind == "multiplier" else A), inv, max_abs(A)

        return kept(self.systems, (kind, sig), build) if self.keep[kind] else None

    def select(self, kind, sig, cls, first, assemble):
        """The ``kind`` systems of the layout's patches ``first`` ..,
        ``first + len(cls)`` of signature ``sig``, of classes ``cls``:
        (systems, each patch's class among them, inverses, max|system|).
        The kept ones (``class_systems``), or, where none are kept, the
        systems ``assemble(rep)`` of the first patch of each class present,
        with neither inverses nor max|system| (None)."""
        table = self.class_systems(kind, sig, assemble)
        if table is None:
            rep, present = np.unique(cls, return_index=True, return_inverse=True)[1:]
            return assemble(first + rep), present, None, None
        return table[0], cls, *table[1:]


class PatchRun(NamedTuple):
    """The patches of one signature (``nl`` multipliers, ``nt``
    triangles, kernel) in a ``PatchRange``: slices ``patches`` and
    ``pairs`` of the range's, and equations ``eqs`` in its chunk's
    numbering (None for a signature, a run of the whole layout); their
    multiplier classes ``cls``."""

    sig: int
    patches: slice
    pairs: slice
    eqs: slice | None
    nl: int
    nt: int
    kernel: bool
    cls: np.ndarray

    @property
    def n(self):
        return self.patches.stop - self.patches.start


class PatchRange(NamedTuple):
    """Whole patches ``patches`` of a ``PatchLayout``, with their pairs
    ``pairs``, their equations ``eqs`` in their chunk's numbering, and each
    signature's run of them (``PatchRun``), in order."""

    patches: slice
    pairs: slice
    eqs: slice
    runs: list


class PatchLayout(NamedTuple):
    """Every vertex patch of a mesh at degree p, held once, as flat arrays:
    patch i, of vertex ``verts[i]``, signature after signature (multiplier
    count, triangle count, kernel) and then by vertex, has the (triangle,
    local vertex) pairs ``pair[i]`` .. ``pair[i + 1]``, by triangle; pair q
    is triangle ``tris[q]`` at local vertex ``local[q]`` of vertex
    ``vert[q]``.  A patch has one equation per multiplier: one per dof of
    each interior edge at the vertex (both sides), then of each pinned slot
    (opposite edge, Neumann edges), none on the free Dirichlet edges.  Its
    unknowns are its multipliers, the constant-divergence coefficient in
    place of a kernel patch's grounded one (``_columns``).  Both share one
    numbering per chunk, patch i's from ``eq[i]``: ``slots[q, j]`` is the
    equation of edge dof j of pair q, ``sign[q, j]`` its sign in
    ``linsolve.eliminate`` (+1 on the ``edge_tris[e, 0]`` side) and
    ``cols[q, c]`` the unknown of column c of its elimination, -1 for none.
    Patches of one multiplier class (``cls``, numbered per signature in
    order of first appearance) have bitwise-equal multiplier systems.

    ``signatures`` are ranges of whole patches, whose rows are (n, nt)
    views of the pair arrays; ``chunks`` are ranges of whole patches cut
    across signatures, whose problems allocate at most ``STACK_BYTES``
    (sized as ``linsolve.chunks`` sets out).  ``kernel`` holds per vertex
    whether its patch has a constant multiplier kernel, ``tables`` the kept
    systems and ``cache`` the surrogate's numbering.  Kept on the mesh, its
    arrays read-only."""

    p: int
    vert: np.ndarray  # (P,)
    tris: np.ndarray  # (P,)
    local: np.ndarray  # (P,)
    slots: np.ndarray  # (P, 3(p+1)), int32
    sign: np.ndarray  # (P, 3(p+1)), int8
    cols: np.ndarray  # (P, 1 + 3(p+1)), int32
    verts: np.ndarray  # (N,)
    cls: np.ndarray  # (N,), int32
    pair: np.ndarray  # (N + 1,)
    eq: np.ndarray  # (N,), int32
    kernel: np.ndarray  # (num_vertices,)
    signatures: list
    chunks: list
    tables: PatchTables
    cache: dict

    def patch_range(self, patches):
        """The ``PatchRange`` of whole patches ``patches``, a slice within one chunk."""
        a, b, runs = patches.start, patches.stop, []
        for g in self.signatures:
            lo, hi = max(a, g.patches.start), min(b, g.patches.stop)
            if lo < hi:
                pairs, e = slice(int(self.pair[lo] - self.pair[a]), int(self.pair[hi] - self.pair[a])), int(self.eq[lo])
                runs.append(g._replace(patches=slice(lo - a, hi - a), pairs=pairs, eqs=slice(e, e + (hi - lo) * g.nl),
                                       cls=self.cls[lo:hi]))
        return PatchRange(patches, slice(int(self.pair[a]), int(self.pair[b])),
                          slice(runs[0].eqs.start, runs[-1].eqs.stop), runs)

    def surrogate(self, mesh):
        """The stability surrogate's numbering, built on first use (it runs
        only in ``projector_report``), which decides whether its systems are
        kept: per pair, its P_{p+2} nodes (P, nloc), numbered within its
        patch from 0 in the ascending order of the mesh's
        (``elements.lagrange_nodes``); per signature, the ``fixed`` nodes
        (n, nn), nn the most nodes of a patch of the signature, with an
        identity row (padding past a patch's own nodes, and the clamped
        nodes); per patch, its surrogate class (N,).  What decides a
        surrogate system: its elements' maps, node numbering and fixed
        nodes."""
        def build():
            nodes, fixed, cls = [], [], []
            for g in self.signatures:
                tris, local = self.tris[g.pairs].reshape(g.n, g.nt), self.local[g.pairs].reshape(g.n, g.nt)
                loc, fx = _surrogate_nodes(mesh, self.p, tris, local, g.kernel)
                nodes.append(loc.reshape(g.n * g.nt, -1))
                fixed.append(fx)
                cls.append(_class_ids(mesh.Binv[tris], mesh.detB[tris], loc, fx))
            cls = np.concatenate(cls)
            self.tables.decide("surrogate", self.signatures, cls)
            return np.concatenate(nodes), fixed, cls

        return kept(self.cache, "surrogate", build)


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
    dirichlet = mesh.edge_label == DIRICHLET
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
    # patch-local numbers are small: int32 halves what the layout holds and
    # the class keys
    lam = np.where(key >= 0, np.searchsorted(uniq, key) - first[c_vert][:, None], -1).astype(np.int32)
    mult = np.where(lam[:, :, None] >= 0, lam[:, :, None] * (p + 1) + np.arange(p + 1), -1).reshape(3 * nt, -1)
    # what decides a patch's multiplier system: its elements' affine
    # classes, edge signs (``linsolve.eliminate``) and T_k edge factors, and
    # its multiplier numbering, a fixed function of its per-slot numbers lam
    own = mesh.edge_tris[mesh.tri_edges, 0] == np.arange(nt)[:, None]
    tri_cls = _class_ids(space.classes[0], own, space.edge_scale())
    sign = np.repeat(np.where(own, 1, -1).astype(np.int8), p + 1, axis=1)
    # patches signature after signature, then by vertex; pairs patch after
    # patch, then by triangle
    keys, which = np.unique(np.stack([np.diff(first) * (p + 1), count, kernel], axis=1), axis=0, return_inverse=True)
    verts = np.argsort(which.ravel(), kind="stable")
    nl, size = np.diff(first)[verts] * (p + 1), count[verts]
    pair = np.append(0, np.cumsum(size))
    c = np.repeat(start[verts] - pair[:-1], size) + np.arange(pair[-1])
    tris, L = c_tri[c], mult[c]
    bounds = np.searchsorted(which.ravel()[verts], np.arange(len(keys) + 1)).tolist()
    cls = np.concatenate([_class_ids(tri_cls[tris[pair[a]:pair[b]]].reshape(b - a, k[1]),
                                     lam[c[pair[a]:pair[b]]].reshape(b - a, k[1], 3))
                          for k, a, b in zip(keys, bounds, bounds[1:])])
    # a signature's classes are numbered in order of first appearance
    signatures = [PatchRun(s, slice(a, b), slice(int(pair[a]), int(pair[b])), None, int(k[0]), int(k[1]), bool(k[2]),
                           cls[a:b]) for s, (k, a, b) in enumerate(zip(keys, bounds, bounds[1:]))]
    tables = PatchTables(verts)
    tables.decide("multiplier", signatures, cls, [g.nl for g in signatures])
    # whole patches in signature order, cut across signatures: a pass
    # allocates per pair its element columns and five arrays of its
    # multiplier blocks, per patch its system (``linsolve.chunks``)
    m = 3 * (p + 1)
    cuts = chunks(len(verts), 8 * (size * (space.ref.dim * (4 + m) + 5 * m * (m + 1)) + nl**2))
    # a patch's equations and unknowns follow its chunk's earlier ones;
    # every index is below the size of a chunk's stack
    eq = np.cumsum(nl) - nl
    eq -= np.repeat([eq[sl.start] for sl in cuts], [sl.stop - sl.start for sl in cuts])
    owner = np.repeat(np.arange(len(verts)), size)
    slots, cols = (np.where(a >= 0, a + eq[owner][:, None], -1).astype(np.int32)
                   for a in (L, _columns(L, kernel[verts][owner][:, None])))
    layout = PatchLayout(p, verts[owner], tris, c_loc[c], slots, sign[tris], cols, verts, cls, pair,
                         eq.astype(np.int32), kernel, signatures, [], tables, {})
    return layout._replace(chunks=[layout.patch_range(sl) for sl in cuts])


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
        on = (mesh.edge_label == DIRICHLET)[mesh.tri_edges[tris]] & (np.arange(3) != local[..., None])
        at = np.any(on[..., :, None] & (lagrange_bary(q).T == 0), axis=-2)
        fixed[np.broadcast_to(row, at.shape)[at], loc[at]] = True
    return loc.astype(np.int32), fixed


# -- patch problems ----------------------------------------------------------------


@dataclass
class PatchProblem:
    """The degree-p equilibration problems of a ``PatchRange`` of a layout
    in hybrid form, over its pairs: ``chi`` (P, ndof), ``g`` (P, sdim), the
    element fluxes ``x0`` (P, ndof) and per unit of each column's unknown
    ``xe`` (P, ndof, 1 + 3(p+1)); the right-hand sides ``b`` in the chunk's
    numbering, up to the range's last equation; per run, its multiplier
    systems ``systems``: (S, one per class present (nc, nl, nl), or None
    beside the signature's kept inverses; each patch's class among them;
    the kept inverses or None; their classes' max|S|, or None beside S)."""

    layout: PatchLayout
    chunk: PatchRange
    chi: np.ndarray
    g: np.ndarray
    x0: np.ndarray
    xe: np.ndarray
    b: np.ndarray
    systems: list


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


def patch_data(theta: BrokenRTNField, policy) -> PatchData:
    """Patch equilibration data on every triangle, at the policy's p.

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
    mesh, p = policy.mesh, policy.p
    space = rtn_space(mesh, p)
    chi = hat_interpolants(theta, p)
    _, G = hat_operators(theta.p, p)
    ref = theta.space.to_ref(theta.coeffs)
    grad = np.einsum("imb,kb->kim", G, ref) / np.sqrt(space.detB)[:, None, None]
    div, div_scale = _hat_div_moments(space, policy)
    # (f, 1)_K = sqrt|K| f_0 = sqrt(det B_k / 2) f_0 in the orthonormal basis
    grad_scale = np.sqrt(0.5) * np.outer(np.linalg.norm(ref, axis=1), np.linalg.norm(G[:, 0], axis=1))
    g = div + grad
    n = mesh.num_triangles
    data = np.zeros((n, space.sdim, 4))
    data[:, :, :3] = np.swapaxes(g - space.div(chi), 1, 2)
    data[:, 0, 3] = np.sqrt(mesh.area)
    x = eliminate(space, np.zeros((n, space.ref.dim, 4)), data)[1]
    out = PatchData(chi, g, div_scale + grad_scale, x)
    out.defect = _mass_defects(patch_layout(mesh, p), out, mesh)
    check_compatibility(np.arange(mesh.num_vertices), out.defect)
    return out


def _hat_div_moments(space, policy):
    """(lambda_i div v, phi_m)_K over the policy's quadrature groups,
    (n, 3, sdim), and (lambda_i |div v|, 1)_K, (n, 3), for every triangle;
    zeros for a divergence-free field."""
    out = np.zeros((space.mesh.num_triangles, 3, space.sdim))
    mag = np.zeros((space.mesh.num_triangles, 3))
    if policy.divergence_free:
        return out, mag
    for g, dv in zip(policy.groups(), policy.values(div=True)):
        lam = g.barycentric()
        for i in range(3):
            out[g.tris, i] = scalar_moments(space.mesh, space.p, g, lam[i] * dv)
        mag[g.tris] = np.einsum("ikq,kq->ki", lam, g.w * np.abs(dv))
    return out, mag


def _mass_defects(layout, data, mesh):
    """Relative patch mass |(g, 1)_omega| against the size of its
    cancelling terms, per vertex (zero without a kernel), summed over each
    patch's pairs in triangle order."""
    tris, local, nv = layout.tris, layout.local, mesh.num_vertices
    mass = np.bincount(layout.vert, np.sqrt(mesh.area[tris]) * data.g[tris, local, 0], nv)
    scale = np.bincount(layout.vert, data.mass_scale[tris, local], nv)
    return np.where(layout.kernel, np.abs(mass) / np.maximum(scale, 1e-300), 0.0)


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
    multiplier numbering L (..., 3(p+1)) at kernel patches ``kernel`` (a
    bool, or an array of them broadcasting against L): (..., 1 + 3(p+1)),
    -1 for none.  The columns: the constant-divergence coefficient (in
    place of the grounded multiplier 0 at kernel patches: it takes the
    data's incompatible part, roundoff included, which grounding alone
    leaves on one edge), then the edge multipliers."""
    mu = np.broadcast_to(np.where(kernel, 0, -1), L.shape[:-1] + (1,)).astype(L.dtype)
    return np.concatenate([mu, np.where(kernel & (L == 0), -1, L).astype(L.dtype)], axis=-1)


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


def build_patch_problem(layout: PatchLayout, chunk: PatchRange, data: PatchData):
    """Assemble the equilibration problems of a ``PatchRange`` of the
    layout in hybrid form over its pairs (a ``PatchProblem``), at the
    layout's degree p.

    def31: data = Pi_p(psi_a div v + grad psi_a . theta), target = the
    degree-p interpolant of psi_a theta.  def52: theta has degree p-1, the
    gradient term is already a degree-p polynomial and the target psi_a theta
    lies in broken RTN_p exactly; the same dof extraction realizes both.
    ``data`` holds the element tables and eliminations of ``patch_data``,
    which gated the compatibility of every patch.  The right-hand sides of
    the whole range are one ``bincount``; per run, one multiplier system
    per class (``_multiplier_systems``): the signature's kept inverses
    (``PatchTables.class_systems``), or, where none are kept, the systems
    of the first patch of each class present in the run.
    """
    p, pairs = layout.p, chunk.pairs
    tris, local = layout.tris[pairs], layout.local[pairs]
    chi, g = data.chi[tris, local], data.g[tris, local]
    x0, xe = chi + data.x[tris, :, local], data.x[tris, :, 3:]
    b = _sum_into((chunk.eqs.stop,), layout.slots[pairs], layout.sign[pairs] * x0[:, :3 * (p + 1)])
    systems = [layout.tables.select("multiplier", run.sig, run.cls, chunk.patches.start + run.patches.start,
                                    lambda r: _multiplier_systems(layout, run, r, data)) for run in chunk.runs]
    return PatchProblem(layout, chunk, chi, g, x0, xe, b, systems)


def _multiplier_systems(layout, run, patches, data):
    """The multiplier systems of the layout's patches ``patches`` of the
    signature of ``run`` (len(patches), nl, nl): the blocks E_k (K_k^-1)_ss
    E_k^T of the eliminations in ``data``, summed in triangle order.  They
    depend only on the mesh and p: the eliminations' edge columns do not
    depend on the data."""
    pairs, nl, ne = layout.pair[patches, None] + np.arange(run.nt), run.nl, 3 * (layout.p + 1)
    base = layout.eq[patches][:, None, None]
    L, cols = (np.where(a >= 0, a - base, -1) for a in (layout.slots[pairs], layout.cols[pairs]))
    idx = np.where(cols[:, :, None, :] >= 0, _slots(L, nl)[..., None] * nl + cols[:, :, None, :], -1)
    # a float sign: numpy broadcasts a mixed int8 product by a slower loop
    vals = layout.sign[pairs, ..., None].astype(float) * data.x[layout.tris[pairs], :ne, 3:]
    return _sum_into((len(L), nl, nl), idx, vals)


def patch_equilibrate(problem: PatchProblem):
    """Solve the hybrid patch problems of a range, then recover the element
    fluxes.  Returns each pair's fluxes (P, ndof), whose two sides of an
    interior edge agree within a patch and whose pinned slots vanish to
    roundoff, and the unknowns (E,) of the multiplier systems.

    Each run's patches are solved against its class systems
    (``linsolve.solve_stacked``), each system by itself; the rest is one
    pass over the range.  Every patch's multiplier residual b - S lam is
    checked as ``solve_stacked`` checks its systems (relative to
    max(|b|, max|S| |lam|), at most 1e-8), with S lam formed from the
    patch's own element columns: z = xe lam, whose edge rows summed with
    their signs are S lam, and x = x0 - z.  Forming it from x instead
    would put the roundoff of the x0 terms into b.  The check runs per
    patch, against its class's max|S|, so it also catches a corrupted
    kept inverse or a patch filed under the wrong class, and names the
    patch's vertex."""
    layout, chunk, ne = problem.layout, problem.chunk, 3 * (problem.layout.p + 1)
    verts = layout.verts[chunk.patches]
    # one more unknown, zero, for the columns of none
    lam, size = np.zeros(len(problem.b) + 1), np.empty(len(verts))
    for run, (S, cls, inv, top) in zip(chunk.runs, problem.systems):
        lam[run.eqs] = solve_stacked(S, problem.b[run.eqs].reshape(run.n, run.nl), cls, inv, name=None).ravel()
        size[run.patches] = (max_abs(S) if top is None else top)[cls]
    z = (problem.xe @ lam[layout.cols[chunk.pairs]][..., None])[..., 0]
    lam = lam[:-1]
    S_lam = _sum_into(lam.shape, layout.slots[chunk.pairs], layout.sign[chunk.pairs] * z[:, :ne])

    def norm(a):
        return np.sqrt(np.add.reduceat(a * a, layout.eq[chunk.patches]))

    check_norms(norm(problem.b - S_lam), norm(problem.b), norm(lam), size, lambda i: f"patch of vertex {verts[i]}")
    return problem.x0 - z, lam[chunk.eqs]


# -- dual-norm surrogate for the patch stability constant ---------------------------


def patch_stability_ratio(layout: PatchLayout, data: PatchData, x, mesh):
    """Measured ratios ||s_a - chi_a|| over a discrete dual-norm surrogate,
    one per patch of the layout, from every pair's fluxes ``x`` (P, ndof)
    of ``patch_equilibrate`` and the targets chi_a of ``data``.

    The surrogate maximizes (g, w) + (chi, grad w) over patch-continuous
    P_{p+2} functions with unit gradient norm, mean-zero for interior and
    Neumann vertices, zero on the Dirichlet edges at the vertex for
    Dirichlet ones.  The functional is evaluated as -(s_a - chi_a, grad w):
    equal, since div s_a = g up to the kernel constant and s_a.n = 0 on the
    patch boundary wherever w is free, but free of the cancellation of two
    terms of size ||chi_a||.  The nodes are those of the mesh-wide numbering
    ``lagrange_nodes``, numbered per patch (``PatchLayout.surrogate``); the
    element tables are reference tables scaled by the affine maps.  The
    reference dofs are mapped once for the layout, the functional formed
    once per signature, its products taken per patch as a stack.  Each
    signature's patches then go in pieces whose systems fill at most
    ``POINT_BYTES``: each piece solves against the signature's kept
    surrogate systems (``PatchTables.class_systems``) or, where none are
    kept, assembles one system per surrogate class present, and forms its
    numerators, whose mass products are one gemm over the piece's pairs.
    The pieces depend on the signature alone, so the ratios keep their bits
    however the layout is chunked.  Recorded, never asserted: the bound it
    witnesses is a cited stability result.
    """
    # p + 2 keeps the surrogate space nontrivial even on one-triangle corner
    # patches with two clamped edges
    p, space = layout.p, rtn_space(mesh, layout.p)
    nodes, fixed, kcls = layout.surrogate(mesh)
    chi = data.chi[layout.tris, layout.local]
    # s_a - chi_a per pair, and chi_a
    ref = space.to_ref(np.stack([x - chi, chi], axis=1), layout.tris)
    C = _coupling_reference(p + 2, p).T
    out = np.empty(len(layout.verts))
    for g, fx in zip(layout.signatures, fixed):
        nn = fx.shape[1]
        lin = (-ref[g.pairs, 0]).reshape(g.n, g.nt, -1) @ C
        ell = _sum_into(fx.shape, _slots(nodes[g.pairs].reshape(g.n, g.nt, -1), nn), lin)
        ell[fx] = 0.0
        for sl in chunks(g.n, 8 * (g.nt * nodes.shape[1]) ** 2, points=True):  # 8 nn^2 bytes a patch
            e, patches = ell[sl], slice(g.patches.start + sl.start, g.patches.start + sl.stop)
            K, cls, inv, _ = layout.tables.select("surrogate", g.sig, kcls[patches], patches.start,
                                                  lambda r: _patch_surrogates(layout, mesh, g, r))
            rhs = np.append(e, np.zeros((len(e), 1)), axis=1) if g.kernel else e
            y = solve_stacked(K, rhs, cls, inv, lambda i: f"surrogate of vertex {layout.verts[patches][i]}")[:, :nn]
            dual = np.sqrt(np.maximum(np.sum(e * y, axis=1), 0.0))
            # numerator: ||s_a - chi_a|| over the patch, beside ||chi_a||
            pairs = slice(int(layout.pair[patches.start]), int(layout.pair[patches.stop]))
            r, t = ref[pairs].reshape(len(e), g.nt, 2, -1), layout.tris[pairs].reshape(len(e), g.nt)
            num, chi_norm = np.sqrt(np.sum(r * space.mass(r, t), axis=(1, 3))).T
            out[patches] = np.where(num <= 1e-12 * chi_norm, 0.0, num / np.maximum(dual, 1e-300))
    return out


def _patch_surrogates(layout, mesh, g, patches):
    """The surrogate systems (``_surrogate_systems``) of the layout's
    patches ``patches`` of signature ``g``."""
    nodes, fixed, _ = layout.surrogate(mesh)
    pairs = layout.pair[patches, None] + np.arange(g.nt)
    return _surrogate_systems(mesh, layout.p, layout.tris[pairs], nodes[pairs], fixed[g.sig][patches - g.patches.start],
                              g.kernel)


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
    ``loc`` and ``fixed`` nodes (``PatchLayout.surrogate``): the element
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
