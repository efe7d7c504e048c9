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
equal dof count, triangle count and kernel give systems of one size).
The surrogate numbers its nodes by the mesh's continuous P_{p+2} numbering
(``elements.lagrange_nodes``) and builds its element blocks from reference
tables, so no step loops over elements or patches in Python.

A patch's systems depend only on the mesh and p; theta and v enter only
their right-hand sides.  Every patch is keyed on the exact bits of what
decides them: its elements' affine classes, edge signs, T_k edge factors
and multiplier numbering for the multiplier system (``PatchGroup.cls``,
per signature, with the layout); its elements' maps, node numbering and
clamped nodes for the surrogate (``PatchGroup.surrogate``, per layout
group, built with the surrogate's node numbering on first use).  Each call
assembles and factors one system per class present, and
``linsolve.solve_stacked`` solves every patch against its class's system;
the right-hand sides, the recoveries and the surrogate's numerators stay
per patch.  A patch's place in its class's blocks is fixed over the whole
signature, so sigma has the same bits however the layout is chunked.  Only
integers are kept: on a mesh without repeats a stored inverse or factor per
patch would cost more than it saves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

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
from .linsolve import Blocks, chunks, class_blocks, class_slots, element_solve, eliminate, solve_stacked
from .mesh import DIRICHLET
from .projections import BrokenRTNField, hat_interpolants
from .quadpolicy import QuadPolicy
from .quadrature import quad_rule


class CompatibilityError(RuntimeError):
    pass


def element_moments(space, v, policy):
    """Moments of v against the RTN basis of ``space`` (nt, ndof) and of
    div v against the scalar P_p bases (nt, sdim) on every element, over
    the policy's quadrature groups."""
    mesh = space.mesh
    b, g = np.empty((mesh.num_triangles, space.ref.dim)), np.empty((mesh.num_triangles, space.sdim))
    for group, vals, dvals in policy.samples(v, mesh):
        b[group.tris] = space.moments(group, vals)
        g[group.tris] = scalar_moments(mesh, space.p, group, dvals)
    return b, g


def constrained_fit(space, v, policy):
    """Divergence-constrained L2 fits of v in ``space`` on every element,
    from the policy's samples: the element KKT systems of the whole mesh in
    one ``linsolve.element_solve`` call; the divergence coefficients equal
    the projected data to solver precision.  (nt, ndof)."""
    b, g = element_moments(space, v, policy)
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
    """Vertex patches of one signature (patch dofs, triangle count, kernel)
    as arrays; row r is the patch of vertex ``verts[r]``.

    ``tris[r]`` lists its triangles (ascending) and ``local[r]`` the local
    index of the vertex in each; ``elem_map[r, t, j]`` is the patch dof of
    local dof j of triangle t (-1 where pinned to zero); ``dofs[r]`` holds
    the global dof of each patch dof: the dofs of the active edges in
    ascending edge order, then the interior dofs of each triangle.
    ``mult[r, t, j]`` numbers the nt ndof - nd edge multipliers: one per dof
    of each interior edge at the vertex (both sides), then of each pinned
    slot (opposite edge, Neumann edges); -1 on free Dirichlet edges.
    Rows of one multiplier class (``cls``, numbered over the signature in
    order of first appearance) have bitwise-equal multiplier systems;
    ``slot`` and ``width`` place each row in its class's blocks of
    ``linsolve.solve_stacked`` (``linsolve.class_slots`` over the
    signature).
    """

    verts: np.ndarray  # (n,)
    tris: np.ndarray  # (n, nt)
    local: np.ndarray  # (n, nt)
    elem_map: np.ndarray  # (n, nt, ndof)
    dofs: np.ndarray  # (n, nd)
    mult: np.ndarray  # (n, nt, 3(p+1))
    cls: np.ndarray  # (n,)
    slot: np.ndarray  # (n,)
    kernel: bool  # interior and Neumann vertices: constant multiplier kernel
    width: int
    _surrogate: list | None = field(default=None, repr=False, compare=False)

    def rows(self, sl):
        return PatchGroup(self.verts[sl], self.tris[sl], self.local[sl], self.elem_map[sl], self.dofs[sl],
                          self.mult[sl], self.cls[sl], self.slot[sl], self.kernel, self.width)

    @cached_property
    def problem_maps(self):
        """Index maps of the group's multiplier systems, integers built on
        first use: ``cols`` (n, nt, 1 + 3(p+1)), the unknown of each column
        of an element elimination (-1: none); ``slots`` (n, nt, 3(p+1)), the
        equation of each edge dof, one row's system after another
        (``_slots``); ``rep``, the first row of each multiplier class
        present, and ``blocks``, the ``linsolve.Blocks`` of the rows against
        their systems; ``count`` (n, nd), the number of element dofs on
        each patch dof."""
        (n, nt, ndof), nd, L = self.elem_map.shape, self.dofs.shape[1], self.mult
        # columns: the constant-divergence coefficient (in place of the
        # grounded multiplier 0 at kernel patches: it takes the data's
        # incompatible part, roundoff included, which grounding alone leaves
        # on one edge), then the edge multipliers
        mu = np.full((n, nt, 1), 0 if self.kernel else -1, dtype=L.dtype)
        cols = np.concatenate([mu, np.where(self.kernel & (L == 0), -1, L)], axis=2)
        rep, cls = np.unique(self.cls, return_index=True, return_inverse=True)[1:]
        count = _sum_into((n, nd), _slots(self.elem_map, nd), np.ones(self.elem_map.shape))
        # every index is below the size of a group's stack (``chunks``)
        blocks = class_blocks(cls.reshape(-1), self.slot, self.width)
        return cols, _slots(L, nt * ndof - nd).astype(np.int32), rep, blocks, count.astype(np.int8)

    def surrogate(self, mesh):
        """The stability surrogate's integers, built on first use (the
        surrogate runs only in ``projector_report``) and kept with the
        group: for each chunk of rows whose systems fill at most
        ``POINT_BYTES`` (8 width^2 bytes a row, a row having at most
        width = nt tri_dim(p + 2) nodes), (rows, ``nodes``, ``fixed``,
        ``rep``, ``blocks``).  ``nodes[r, t, m]`` numbers local node m of
        triangle t by row r's P_{p+2} nodes in ascending global order;
        ``fixed`` (n, nn) marks the nodes with an identity row (padding past
        a row's own node count, and the clamped nodes); ``rep`` is the first
        row of each surrogate class present and ``blocks`` the
        ``linsolve.Blocks`` of the rows against their systems.  What decides
        a surrogate system, and so its class over the group: its elements'
        maps, the node numbering and the clamped nodes."""
        if self._surrogate is None:
            p = self.mult.shape[2] // 3 - 1
            nodes, clamped = _surrogate_nodes(mesh, p, self.tris, self.local, self.kernel)
            kcls = _class_ids(mesh.Binv[self.tris], mesh.detB[self.tris], nodes, clamped)
            slot, width = class_slots(kcls)
            count = nodes.reshape(len(nodes), -1).max(axis=1) + 1
            self._surrogate = []
            for sl in chunks(len(nodes), 8 * (nodes.shape[1] * nodes.shape[2]) ** 2, points=True):
                nn = int(count[sl].max())
                fixed = (np.arange(nn) >= count[sl, None]) | clamped[sl, :nn]
                rep, cls = np.unique(kcls[sl], return_index=True, return_inverse=True)[1:]
                self._surrogate.append((sl, nodes[sl], fixed, rep, class_blocks(cls.reshape(-1), slot[sl], width)))
        return self._surrogate


@dataclass
class PatchLayout:
    """Every vertex patch of a mesh at degree p, in signature groups cut
    into chunks whose problems allocate at most ``STACK_BYTES`` (sized as
    ``linsolve.chunks`` sets out)."""

    groups: list
    where: np.ndarray  # (nv, 2): group index and row of each vertex

    def group_of(self, vertex):
        """The group of one row holding the patch of ``vertex``."""
        gi, r = self.where[vertex]
        return self.groups[gi].rows(slice(r, r + 1))


def patch_layout(mesh, p) -> PatchLayout:
    """The patch layout of ``mesh`` at degree p, built once and cached."""
    key = ("patch_layout", p)
    if key not in mesh._cache:
        mesh._cache[key] = _build_patch_layout(mesh, p)
    return mesh._cache[key]


def _build_patch_layout(mesh, p):
    space = rtn_space(mesh, p)
    nt, nv, ne = mesh.num_triangles, mesh.num_vertices, mesh.num_edges
    n_int = space.n_int
    # triangle corners by vertex, then triangle
    corner = np.argsort(mesh.triangles.ravel(), kind="stable")
    c_vert, c_tri, c_loc = mesh.triangles.ravel()[corner], corner // 3, corner % 3
    count = np.bincount(c_vert, minlength=nv)
    start = np.cumsum(count) - count
    # active edges: interior ones at the vertex and, at Dirichlet vertices,
    # the Dirichlet edges (a vertex on a Dirichlet edge is a Dirichlet vertex)
    dirichlet = np.zeros(ne, dtype=bool)
    dirichlet[np.array(mesh.edges_with_label(DIRICHLET), dtype=int)] = True
    kernel = np.bincount(mesh.edges[dirichlet].ravel(), minlength=nv) == 0
    active = (mesh.edge_tris[:, 1] != -1) | dirichlet
    a_vert, a_edge = mesh.edges[active].ravel(), np.repeat(np.flatnonzero(active), 2)
    order = np.lexsort((a_edge, a_vert))
    a_vert, a_edge = a_vert[order], a_edge[order]
    n_act = np.bincount(a_vert, minlength=nv)
    a_start = np.cumsum(n_act) - n_act
    # patch dof of every local dof of every corner
    keys = np.append(a_vert * ne + a_edge, nv * ne)  # ascending, with a sentinel
    want = c_vert[:, None] * ne + mesh.tri_edges[c_tri]
    pos = np.searchsorted(keys, want)
    rank = np.where(keys[pos] == want, pos - a_start[c_vert][:, None], -1)
    edge_map = np.where(rank[:, :, None] >= 0, rank[:, :, None] * (p + 1) + np.arange(p + 1), -1)
    t_idx = np.arange(3 * nt) - start[c_vert]
    int_map = (n_act[c_vert] * (p + 1) + t_idx * n_int)[:, None] + np.arange(n_int)
    # patch-local maps are small: int32 halves what every cached layout holds
    elem_map = np.hstack([edge_map.reshape(3 * nt, -1), int_map]).astype(np.int32)
    # multipliers: interior edges at the vertex by edge, pinned slots by
    # corner and slot, within one key range per vertex; none on free edges
    slot_e = mesh.tri_edges[c_tri]
    shared = (rank >= 0) & (mesh.edge_tris[slot_e, 1] >= 0)
    span = ne + 9 * nt
    key = np.where(shared, slot_e, ne + 3 * np.arange(3 * nt)[:, None] + np.arange(3)) + c_vert[:, None] * span
    key[(rank >= 0) & ~shared] = -1
    uniq = np.unique(key[key >= 0])
    lam = np.where(key >= 0, np.searchsorted(uniq, key) - np.searchsorted(uniq, c_vert * span)[:, None], -1)
    mult = np.where(lam[:, :, None] >= 0, lam[:, :, None] * (p + 1) + np.arange(p + 1), -1).reshape(3 * nt, -1)
    mult = mult.astype(np.int32)
    nd = n_act * (p + 1) + count * n_int
    sig = np.stack([nd, count, kernel], axis=1)
    # what decides a patch's multiplier system: its elements' affine
    # classes, edge signs (``linsolve.eliminate``) and T_k edge factors, and
    # its multiplier numbering
    own = mesh.edge_tris[mesh.tri_edges, 0] == np.arange(nt)[:, None]
    tri_cls = _class_ids(space.classes[0], own, space.edge_scale())
    groups, where = [], np.empty((nv, 2), dtype=int)
    for s in np.unique(sig, axis=0):
        vs = np.flatnonzero((sig == s).all(axis=1))
        c = start[vs][:, None] + np.arange(s[1])
        tris = c_tri[c]
        edges = a_edge[a_start[vs][:, None] + np.arange(n_act[vs[0]])]
        dofs = np.hstack([
            (edges[:, :, None] * (p + 1) + np.arange(p + 1)).reshape(len(vs), -1),
            (space.ndof_edge + tris[:, :, None] * n_int + np.arange(n_int)).reshape(len(vs), -1),
        ])
        cls = _class_ids(tri_cls[tris], mult[c])
        slot, width = class_slots(cls)
        group = PatchGroup(vs, tris, c_loc[c], elem_map[c], dofs, mult[c], cls, slot, bool(s[2]), width)
        # a pass allocates per patch its element columns, five arrays of its
        # multiplier blocks and its system (``linsolve.chunks``)
        nl, m = s[1] * space.ref.dim - s[0], 3 * (p + 1)
        for sl in chunks(len(vs), 8 * (s[1] * (space.ref.dim * (4 + m) + 5 * m * (m + 1)) + nl**2)):
            where[vs[sl], 0] = len(groups)
            where[vs[sl], 1] = np.arange(len(vs[sl]))
            groups.append(group.rows(sl))
    return PatchLayout(groups, where)


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
    in ascending order, (n, nt, nloc), and the clamped ones at Dirichlet
    vertices, those on the Dirichlet edges there, (n, most nodes of a row)."""
    q, n = p + 2, len(tris)
    row = np.arange(n)[:, None, None]
    nodes = lagrange_nodes(mesh, q)
    stride = nodes.max() + 1
    uniq, loc = np.unique(row * stride + nodes[tris], return_inverse=True)
    start = np.searchsorted(uniq, np.arange(n + 1) * stride)
    loc = loc.reshape(tris.shape + (-1,)) - start[:-1, None, None]
    clamped = np.zeros((n, int(np.diff(start).max())), dtype=bool)
    if not kernel:
        dirichlet = np.zeros(mesh.num_edges, dtype=bool)
        dirichlet[np.array(mesh.edges_with_label(DIRICHLET), dtype=int)] = True
        # edge z of a triangle lies opposite its local vertex z
        on = dirichlet[mesh.tri_edges[tris]] & (np.arange(3) != local[..., None])
        at = np.any(on[..., :, None] & (lagrange_bary(q).T == 0), axis=-2)
        clamped[np.broadcast_to(row, at.shape)[at], loc[at]] = True
    return loc.astype(np.int32), clamped


def sum_patch_fields(parts, ndof):
    """Zero extensions of patch solutions, summed into one global dof vector
    in ascending vertex order; ``parts`` holds (PatchGroup, solutions (n, nd))."""
    verts = np.concatenate([np.repeat(g.verts, g.dofs.shape[1]) for g, _ in parts])
    dofs = np.concatenate([g.dofs.ravel() for g, _ in parts])
    vals = np.concatenate([np.ravel(s) for _, s in parts])
    order = np.argsort(verts, kind="stable")
    return np.bincount(dofs[order], vals[order], ndof)


# -- patch problems ----------------------------------------------------------------


@dataclass
class PatchGroupProblem:
    """The degree-p equilibration problems of a ``PatchGroup`` in hybrid
    form, stacked: ``chi`` (n, nt, ndof), ``g`` (n, nt, sdim), the systems
    ``S`` (one per multiplier class present, (nc, nl, nl)) with the
    ``linsolve.Blocks`` of the rows against them, ``blocks`` (``None``: one
    system per row), ``b`` (n, nl), the element fluxes ``x0``
    (n, nt, ndof) and per unit of each column's unknown ``xe``
    (n, nt, ndof, 1 + 3(p+1)), ``cols`` those unknowns, and
    ``compat_defect`` with one row per patch."""

    group: PatchGroup
    p: int
    chi: np.ndarray
    g: np.ndarray
    S: np.ndarray
    blocks: Blocks | None
    b: np.ndarray
    x0: np.ndarray
    xe: np.ndarray
    cols: np.ndarray
    compat_defect: np.ndarray


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
    sign: np.ndarray | None = None  # (n, 3(p+1)): the edge signs of ``linsolve.eliminate``
    x: np.ndarray | None = None  # (n, ndof, 4 + 3(p+1)): element eliminations, see patch_data


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
    sign, x, _ = eliminate(space, np.zeros((n, space.ref.dim, 4)), data)
    return PatchData(chi, g, div_scale + grad_scale, sign, x)


def _hat_div_moments(v, space, policy):
    """(lambda_i div v, phi_m)_K over the policy's quadrature groups,
    (n, 3, sdim), and (lambda_i |div v|, 1)_K, (n, 3), for every triangle."""
    out = np.empty((space.mesh.num_triangles, 3, space.sdim))
    mag = np.empty((space.mesh.num_triangles, 3))
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


def patch_defects(layout, data, mesh):
    """``_mass_defects`` of every vertex patch, in vertex order."""
    out = np.zeros(len(layout.where))
    for group in layout.groups:
        out[group.verts] = _mass_defects(group, data, mesh)
    return out


def check_compatibility(verts, defects):
    """Raise for the first of ``verts`` (ascending) whose patch data is
    incompatible: a patch mass above 1e-9 of its terms' size."""
    bad = np.flatnonzero(defects > 1e-9)
    if len(bad):
        raise CompatibilityError(
            f"patch of vertex {int(verts[bad[0]])}: divergence data incompatible "
            f"(defect {defects[bad[0]]:.2e}); the elementwise fit and the patch data disagree"
        )


def _slots(L, nl):
    """The equation of each numbered dof of rows L (n, ...), numbers below
    nl, when row r's system of nl equations follows row r - 1's; -1 where L
    is."""
    return np.where(L >= 0, np.arange(len(L)).reshape((-1,) + (1,) * (L.ndim - 1)) * nl + L, -1)


def _sum_into(shape, idx, vals):
    """``vals`` summed into zeros(shape) at flat indices ``idx`` in input
    order; negative indices are dropped."""
    keep = idx >= 0
    return np.bincount(idx[keep], vals[keep], int(np.prod(shape))).reshape(shape)


def build_patch_problem(group: PatchGroup, theta: BrokenRTNField, v, p, mesh, *, policy=None, data=None):
    """Assemble the equilibration problems of a ``PatchGroup`` in hybrid form
    as stacked arrays (a ``PatchGroupProblem``); ``PatchLayout.group_of``
    gives the group of one vertex patch.

    def31: data = Pi_p(psi_a div v + grad psi_a . theta), target = the
    degree-p interpolant of psi_a theta.  def52: theta has degree p-1, the
    gradient term is already a degree-p polynomial and the target psi_a theta
    lies in broken RTN_p exactly; the same dof extraction realizes both.
    ``data`` holds the element tables and eliminations of ``patch_data``;
    without it they are built for the whole mesh.  The blocks E_k
    (K_k^-1)_ss E_k^T are summed in triangle order, into one system per
    multiplier class: for the first row of each class present.  Raises
    CompatibilityError for the lowest vertex whose patch data has a nonzero
    mass against the constant multiplier kernel.
    """
    space = rtn_space(mesh, p)
    if data is None:
        data = patch_data(theta, v, p, mesh, policy=policy)
    defect = _mass_defects(group, data, mesh)
    check_compatibility(group.verts, defect)
    chi, g = data.chi[group.tris, group.local], data.g[group.tris, group.local]
    (n, nt), nd, ne = group.tris.shape, group.dofs.shape[1], 3 * (p + 1)
    x0, xe = chi + data.x[group.tris, :, group.local], data.x[group.tris, :, 3:]
    cols, slots, rep, blocks, _ = group.problem_maps
    nl = nt * space.ref.dim - nd
    entry = _slots(group.mult[rep], nl)[..., None] * nl + cols[rep, :, None, :]
    idx = np.where(cols[rep, :, None, :] >= 0, entry, -1)
    sgn = data.sign[group.tris]
    S = _sum_into((len(rep), nl, nl), idx, sgn[rep, :, :, None] * data.x[group.tris[rep], :ne, 3:])
    b = _sum_into((n, nl), slots, sgn * x0[..., :ne])
    return PatchGroupProblem(group, p, chi, g, S, blocks, b, x0, xe, cols, defect)


def patch_equilibrate(problem: PatchGroupProblem):
    """Solve the hybrid patch problems of a stacked problem, then recover the
    element fluxes; the two sides of an interior edge agree to roundoff and
    are averaged.  Returns the patch coefficients (n, nd) and the unknowns
    of the multiplier systems (n, nl)."""
    group = problem.group
    n, nd = group.dofs.shape
    lam = solve_stacked(problem.S, problem.b, problem.blocks)
    row = np.arange(n)[:, None, None]
    x = problem.x0 - (problem.xe @ np.append(lam, np.zeros((n, 1)), axis=1)[row, problem.cols][..., None])[..., 0]
    *_, count = group.problem_maps
    return _sum_into((n, nd), _slots(group.elem_map, nd), x) / count, lam


# -- dual-norm surrogate for the patch stability constant ---------------------------


def patch_stability_ratio(problem: PatchGroupProblem, s, mesh):
    """Measured ratios ||s_a - chi_a|| over a discrete dual-norm surrogate,
    one per row of a stacked problem with solutions ``s`` (n, nd).

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
    chunk assembles one system per surrogate class present.  Recorded,
    never asserted: the bound it witnesses is a cited stability result.
    """
    group, p = problem.group, problem.p
    return np.concatenate([_stability_ratios(group.rows(sl), part, p, problem.chi[sl], s[sl], mesh)
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


def _stability_ratios(group, part, p, chi, s, mesh):
    # p + 2 keeps the surrogate space nontrivial even on one-triangle corner
    # patches with two clamped edges
    q = p + 2
    space = rtn_space(mesh, p)
    tris = group.tris
    n = len(tris)
    row = np.arange(n)[:, None, None]
    loc, fixed, rep, blocks = part
    nn = fixed.shape[1]
    # s_a - chi_a per triangle (-1 in elem_map is a pinned dof), and chi_a
    diff = np.append(s, np.zeros((n, 1)), axis=1)[row, group.elem_map] - chi
    ref = space.to_ref(np.stack([diff, chi], axis=2), tris)
    ell = _sum_into((n, nn), row * nn + loc, -ref[:, :, 0] @ _coupling_reference(q, p).T)
    ell[fixed] = 0.0
    # the systems of the first row of each surrogate class present: element
    # tables (grad w, grad w)_K and (1, w)_K by reference rules exact in
    # their degree (at most q + p)
    rule, gref, mean_ref = _surrogate_reference(p)
    rep_flat = np.arange(len(rep))[:, None, None] * nn + loc[rep]
    S = _sum_into((len(rep), nn, nn), rep_flat[..., :, None] * nn + loc[rep][..., None, :],
                  _stiffness_blocks(mesh, rule, gref, tris[rep]))
    fix = fixed[rep]
    S[fix[:, :, None] | fix[:, None, :]] = 0.0
    fr, fi = np.nonzero(fix)
    S[fr, fi, fi] = 1.0
    if group.kernel:  # bordered by the mean-zero constraint
        mean = _sum_into((len(rep), nn), rep_flat, mesh.detB[tris[rep]][..., None] * mean_ref)
        K = np.zeros((len(rep), nn + 1, nn + 1))
        K[:, :nn, :nn], K[:, nn, :nn], K[:, :nn, nn] = S, mean, mean
        y = solve_stacked(K, np.append(ell, np.zeros((n, 1)), axis=1), blocks)[:, :nn]
    else:
        y = solve_stacked(S, ell, blocks)
    dual = np.sqrt(np.maximum(np.sum(ell * y, axis=1), 0.0))
    # numerator: ||s_a - chi_a|| over the patch, beside ||chi_a||
    num, chi_norm = np.sqrt(np.sum(ref * space.mass(ref, tris), axis=(1, 3))).T
    return np.where(num <= 1e-12 * chi_norm, 0.0, num / np.maximum(dual, 1e-300))
