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
"""

from __future__ import annotations

from dataclasses import dataclass

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
)
from .linsolve import chunks, element_solve, eliminate, solve_stacked
from .mesh import DIRICHLET
from .projections import BrokenRTNField, hat_interpolants
from .quadpolicy import QuadPolicy
from .quadrature import quad_rule


class CompatibilityError(RuntimeError):
    pass


def constrained_fit(space, group, vals, dvals):
    """Divergence-constrained L2 fits in ``space`` on the elements of a
    quadrature group, from field and divergence values at its points: the
    element KKT systems by ``linsolve.element_solve``; the divergence
    coefficients equal the projected data to solver precision.  (n, ndof)."""
    b, g = space.moments(group, vals), space.scalar_moments(group, dvals)
    return element_solve(space, b[:, :, None], g[:, :, None], group.tris)[0][:, :, 0]


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


def elem_constrained_min(v, p, mesh, k, *, variant="def31", policy=None, quad_degree=None):
    """Divergence-constrained local L2 fit on one element: the one-element
    slice of ``theta_field``, i.e. the minimizer of
    ``best_approx.local_best_constrained`` at the variant's fit degree.

    Returns its coefficient vector in RTN_p(K) (``def52``: RTN_{p-1}(K)).
    """
    from .best_approx import local_best_constrained

    q = fit_degree(p, variant)
    return local_best_constrained(v, q, mesh, k, policy=policy, quad_degree=quad_degree)["coeffs"]


def theta_field(v, p, mesh, *, variant="def31", policy=None, quad_degree=None):
    """Elementwise constrained minimizer over the whole mesh, stacked over
    the policy's quadrature groups, at the degree ``fit_degree`` gives the
    variant.
    """
    q = fit_degree(p, variant)
    if policy is None:
        policy = QuadPolicy(q, field=v, degree=quad_degree)
    space = rtn_space(mesh, q)
    out = BrokenRTNField(mesh, q)
    for group, vals, dvals in policy.samples(v, mesh):
        out.coeffs[group.tris] = constrained_fit(space, group, vals, dvals)
    return out


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
    """

    verts: np.ndarray  # (n,)
    tris: np.ndarray  # (n, nt)
    local: np.ndarray  # (n, nt)
    elem_map: np.ndarray  # (n, nt, ndof)
    dofs: np.ndarray  # (n, nd)
    mult: np.ndarray  # (n, nt, 3(p+1))
    kernel: bool  # interior and Neumann vertices: constant multiplier kernel

    def rows(self, sl):
        return PatchGroup(self.verts[sl], self.tris[sl], self.local[sl], self.elem_map[sl], self.dofs[sl],
                          self.mult[sl], self.kernel)


@dataclass
class PatchLayout:
    """Every vertex patch of a mesh at degree p, in signature groups cut
    into chunks whose hybrid systems fill at most ``STACK_BYTES``."""

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
        group = PatchGroup(vs, tris, c_loc[c], elem_map[c], dofs, mult[c], bool(s[2]))
        ndof, nl = space.ref.dim, s[1] * space.ref.dim - s[0]
        # the temporaries of build_patch_problem come to about twice this
        for sl in chunks(len(vs), 16 * (s[1] * ndof * (ndof + 4) + nl**2)):
            where[vs[sl], 0] = len(groups)
            where[vs[sl], 1] = np.arange(len(vs[sl]))
            groups.append(group.rows(sl))
    return PatchLayout(groups, where)


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
    ``S`` (n, nl, nl), ``b`` (n, nl), the element fluxes ``x0`` (n, nt, ndof)
    and per unit of each column's unknown ``xe`` (n, nt, ndof, 1 + 3(p+1)),
    ``cols`` those unknowns, and ``compat_defect`` with one row per patch."""

    group: PatchGroup
    p: int
    chi: np.ndarray
    g: np.ndarray
    S: np.ndarray
    b: np.ndarray
    x0: np.ndarray
    xe: np.ndarray
    cols: np.ndarray
    compat_defect: np.ndarray


@dataclass
class PatchData:
    """Equilibration data of every (triangle, local vertex i) pair.

    On triangle ``tris[r]`` with hat function lambda_i:
    ``chi[r, i]`` = dofs of I_p(lambda_i theta) and
    ``g[r, i]`` = Pi_p(lambda_i div v + grad lambda_i . theta), in the
    orthonormal scalar basis.  Vertex patch a takes, on each of its
    triangles, the row of its local vertex.
    """

    tris: np.ndarray  # ascending triangle indices
    chi: np.ndarray  # (n, 3, ndof)
    g: np.ndarray  # (n, 3, sdim)
    mass_scale: np.ndarray  # (n, 3): magnitudes of the two terms of (g, 1)_K, see patch_data
    sign: np.ndarray | None = None  # (n, 3(p+1)): the edge signs of ``linsolve.eliminate``
    x: np.ndarray | None = None  # (n, ndof, 4 + 3(p+1)): element eliminations, see patch_data


def patch_data(theta: BrokenRTNField, v, p, mesh, *, policy=None, tris=None) -> PatchData:
    """Patch equilibration data on ``tris`` (default: every triangle).

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
    tris = np.arange(mesh.num_triangles) if tris is None else np.unique(tris)
    if policy is None:
        policy = QuadPolicy(p, field=v, degree=None)
    chi = hat_interpolants(theta, p, tris)
    _, G = hat_operators(theta.p, p)
    ref = theta.space.to_ref(theta.coeffs[tris], tris)
    grad = np.einsum("imb,kb->kim", G, ref) / np.sqrt(space.detB[tris])[:, None, None]
    div, div_scale = _hat_div_moments(v, space, policy, tris)
    # (f, 1)_K = sqrt|K| f_0 = sqrt(det B_k / 2) f_0 in the orthonormal basis
    grad_scale = np.sqrt(0.5) * np.outer(np.linalg.norm(ref, axis=1), np.linalg.norm(G[:, 0], axis=1))
    g = div + grad
    data = np.zeros((len(tris), space.sdim, 4))
    data[:, :, :3] = np.swapaxes(g - space.div(chi, tris), 1, 2)
    data[:, 0, 3] = np.sqrt(mesh.area[tris])
    sign, x, _ = eliminate(space, np.zeros((len(tris), space.ref.dim, 4)), data, tris)
    return PatchData(tris, chi, g, div_scale + grad_scale, sign, x)


def _hat_div_moments(v, space, policy, tris):
    """(lambda_i div v, phi_m)_K over the policy's quadrature groups,
    (n, 3, sdim), and (lambda_i |div v|, 1)_K, (n, 3), for ascending ``tris``."""
    out = np.empty((len(tris), 3, space.sdim))
    mag = np.empty((len(tris), 3))
    for g, _, dv in policy.samples(v, space.mesh, tris):
        lam = g.barycentric()
        r = np.searchsorted(tris, g.tris)
        for i in range(3):
            out[r, i] = space.scalar_moments(g, lam[i] * dv)
        mag[r] = np.einsum("ikq,kq->ki", lam, g.w * np.abs(dv))
    return out, mag


def _mass_defects(group, data, mesh):
    """Relative patch mass |(g, 1)_omega| against the size of its
    cancelling terms, per row of ``group`` (zero without a kernel)."""
    if not group.kernel:
        return np.zeros(len(group.verts))
    r = np.searchsorted(data.tris, group.tris)
    mass = np.sum(np.sqrt(mesh.area[group.tris]) * data.g[r, group.local, 0], axis=1)
    scale = np.sum(data.mass_scale[r, group.local], axis=1)
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
    without it they are built for the patches' triangles.  The blocks E_k
    (K_k^-1)_ss E_k^T are summed in triangle order.  Raises
    CompatibilityError for the lowest vertex whose patch data has a nonzero
    mass against the constant multiplier kernel.
    """
    space = rtn_space(mesh, p)
    if data is None:
        data = patch_data(theta, v, p, mesh, policy=policy, tris=group.tris.ravel())
    defect = _mass_defects(group, data, mesh)
    check_compatibility(group.verts, defect)
    r = np.searchsorted(data.tris, group.tris)
    chi, g, X = data.chi[r, group.local], data.g[r, group.local], data.x[r]
    (n, nt), nd, ne = group.tris.shape, group.dofs.shape[1], 3 * (p + 1)
    x0 = chi + np.take_along_axis(X[..., :3], group.local[..., None, None], axis=3)[..., 0]
    # columns: the constant-divergence coefficient (in place of the grounded
    # multiplier 0 at kernel patches: it takes the data's incompatible part,
    # roundoff included, which grounding alone leaves on one edge), then the
    # edge multipliers
    L, nl = group.mult, nt * space.ref.dim - nd
    mu = np.full((n, nt, 1), 0 if group.kernel else -1)
    cols = np.concatenate([mu, np.where(group.kernel & (L == 0), -1, L)], axis=2)
    rows = np.where(L >= 0, np.arange(n)[:, None, None] * nl + L, -1)
    idx = np.where(cols[..., None, :] >= 0, rows[..., :, None] * nl + cols[..., None, :], -1)
    sgn = data.sign[r]
    S = _sum_into((n, nl, nl), idx, sgn[..., :, None] * X[..., :ne, 3:])
    b = _sum_into((n, nl), rows, sgn * x0[..., :ne])
    return PatchGroupProblem(group, p, chi, g, S, b, x0, X[..., 3:], cols, defect)


def patch_equilibrate(problem: PatchGroupProblem):
    """Solve the hybrid patch problems of a stacked problem, then recover the
    element fluxes; the two sides of an interior edge agree to roundoff and
    are averaged.  Returns the patch coefficients (n, nd) and the unknowns
    of the multiplier systems (n, nl)."""
    group = problem.group
    n, nd = group.dofs.shape
    lam = solve_stacked(problem.S, problem.b)
    row = np.arange(n)[:, None, None]
    x = problem.x0 - (problem.xe @ np.append(lam, np.zeros((n, 1)), axis=1)[row, problem.cols][..., None])[..., 0]
    at = np.where(group.elem_map >= 0, row * nd + group.elem_map, -1)
    return _sum_into((n, nd), at, x) / _sum_into((n, nd), at, np.ones_like(x)), lam


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
    ``lagrange_nodes``, renumbered per row; the element tables are
    reference tables scaled by the affine maps, in chunks of rows whose
    systems fill at most ``STACK_BYTES``.  Recorded, never asserted: the
    bound it witnesses is a cited stability result.
    """
    group, p = problem.group, problem.p
    width = group.tris.shape[1] * polys.tri_dim(p + 2)  # bounds a row's node count
    return np.concatenate([_stability_ratios(group.rows(sl), p, problem.chi[sl], s[sl], mesh)
                           for sl in chunks(len(s), 8 * width**2)])


def _stability_ratios(group, p, chi, s, mesh):
    # p + 2 keeps the surrogate space nontrivial even on one-triangle corner
    # patches with two clamped edges
    q = p + 2
    space = rtn_space(mesh, p)
    tris = group.tris
    n = len(tris)
    row = np.arange(n)[:, None, None]
    # patch-local numbering: the global nodes of each row, in ascending order
    nodes = lagrange_nodes(mesh, q)
    stride = nodes.max() + 1
    uniq, loc = np.unique(row * stride + nodes[tris], return_inverse=True)
    start = np.searchsorted(uniq, np.arange(n + 1) * stride)
    loc = loc.reshape(tris.shape + (-1,)) - start[:-1, None, None]
    nn = int(np.diff(start).max())
    # fixed nodes get an identity row: padding past a row's own node count
    # and, at Dirichlet vertices, the nodes on the Dirichlet edges there
    fixed = np.arange(nn) >= np.diff(start)[:, None]
    if not group.kernel:
        dirichlet = np.zeros(mesh.num_edges, dtype=bool)
        dirichlet[np.array(mesh.edges_with_label(DIRICHLET), dtype=int)] = True
        # edge z of a triangle lies opposite its local vertex z
        clamped = dirichlet[mesh.tri_edges[tris]] & (np.arange(3) != group.local[..., None])
        on_edge = lagrange_bary(q).T == 0  # (3, nloc)
        at = np.any(clamped[..., :, None] & on_edge, axis=-2)
        fixed[np.broadcast_to(row, at.shape)[at], loc[at]] = True
    # s_a - chi_a per triangle; -1 in elem_map is a pinned dof
    diff = np.append(s, np.zeros((n, 1)), axis=1)[row, group.elem_map] - chi
    # element tables: (grad w, grad w)_K, -(s_a - chi_a, grad w)_K, (1, w)_K,
    # by reference rules exact in their degree (at most q + p)
    rule = quad_rule(q + p)
    vals = polys.lagrange_nodal(q).T @ polys.eval_monomials(q, rule.points) * rule.weights
    detB = mesh.detB[tris][..., None]
    stiff = _stiffness_blocks(mesh, rule, np.stack(lagrange_grads_ref(q, rule.points), axis=2), tris)
    ell = -space.to_ref(diff, tris) @ _coupling_reference(q, p).T
    flat = row * nn + loc
    S = _sum_into((n, nn, nn), flat[..., :, None] * nn + loc[..., None, :], stiff)
    ell = _sum_into((n, nn), flat, ell)
    S[fixed[:, :, None] | fixed[:, None, :]] = 0.0
    fr, fi = np.nonzero(fixed)
    S[fr, fi, fi] = 1.0
    ell[fixed] = 0.0
    if group.kernel:  # bordered by the mean-zero constraint
        mean = _sum_into((n, nn), flat, detB * vals.sum(axis=1))
        K = np.zeros((n, nn + 1, nn + 1))
        K[:, :nn, :nn], K[:, nn, :nn], K[:, :nn, nn] = S, mean, mean
        y = solve_stacked(K, np.append(ell, np.zeros((n, 1)), axis=1))[:, :nn]
    else:
        y = solve_stacked(S, ell)
    dual = np.sqrt(np.maximum(np.sum(ell * y, axis=1), 0.0))
    # numerator: ||s_a - chi_a|| over the patch
    Mk = space.M[tris]
    num = np.sqrt(np.sum(diff * (Mk @ diff[..., None])[..., 0], axis=(1, 2)))
    chi_norm = np.sqrt(np.sum(chi * (Mk @ chi[..., None])[..., 0], axis=(1, 2)))
    return np.where(num <= 1e-12 * chi_norm, 0.0, num / np.maximum(dual, 1e-300))
