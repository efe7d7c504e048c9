"""The hybridized global solve against the unhybridized saddle oracle."""

import numpy as np
import pytest

from hdivkit import fields
from hdivkit.best_approx import error_report, global_best
from hdivkit.elements import rtn_space, scalar_moments
from hdivkit.linsolve import SparseFactor, hybrid_saddle_solve
from hdivkit.mesh import build_lshape, build_structured
from hdivkit.model_problems import _data_moments, manufactured_sine, solve_ls_mixed, solve_mixed
from hdivkit.projector import ConformingRTNField
from hdivkit.quadpolicy import QuadPolicy
from oracles import conforming_saddle_oracle, samples

TOL = 1e-12
LABELS = ("all-dirichlet", "left-neumann", "all-neumann")
MESHES = {"structured4": lambda labels: build_structured(4, labels=labels),
          "lshape2": lambda labels: build_lshape(2, labels=labels)}
CASES = [(name, labels, p) for name in MESHES for labels in LABELS for p in range(4)]


@pytest.fixture(scope="module")
def meshes():
    return {(name, labels): make(labels) for name, make in MESHES.items() for labels in LABELS}


def _rel(got, want):
    return np.linalg.norm(np.asarray(got) - want) / max(np.linalg.norm(want), 1e-300)


def gradient_field():
    """grad of cos(pi x) cos(pi y): zero normal trace on the boundaries of the
    unit square and the L-shape, divergence -2 pi^2 cos(pi x) cos(pi y) of
    zero mean on both, so every labelling admits it."""

    def v(pts):
        x, y = pts[:, 0], pts[:, 1]
        return -np.pi * np.stack(
            [np.sin(np.pi * x) * np.cos(np.pi * y), np.cos(np.pi * x) * np.sin(np.pi * y)], axis=1
        )

    def div(pts):
        return -2 * np.pi**2 * np.cos(np.pi * pts[:, 0]) * np.cos(np.pi * pts[:, 1])

    return fields.AnalyticField("gradient", v, div)


def _oracle_best(v, p, mesh, policy):
    """Global best through the saddle oracle: (dofs, E_glob_l2, KKT residual)."""
    space = rtn_space(mesh, p)
    rhs = np.zeros(space.dof_map.shape)
    g = np.zeros((mesh.num_triangles, space.sdim))
    for grp, vvals, dvvals in samples(policy):
        rhs[grp.tris] = space.moments(grp, vvals)
        g[grp.tris] = scalar_moments(mesh, p, grp, dvvals)
    dofs, _, res = conforming_saddle_oracle(space, rhs, g)
    sigma = ConformingRTNField(mesh, p, dofs)
    l2_sq = sum(grp.norm_sq(vv - grp.eval(sigma)).sum() for grp, vv, _ in samples(policy))
    return dofs, np.sqrt(l2_sq), res


@pytest.mark.parametrize("name,labels,p", CASES)
def test_hybrid_matches_saddle_oracle_on_random_data(meshes, name, labels, p):
    mesh = meshes[name, labels]
    space = rtn_space(mesh, p)
    rng = np.random.default_rng(p)
    rhs = rng.standard_normal(space.dof_map.shape)
    g = rng.standard_normal((mesh.num_triangles, space.sdim))
    s, u, info = hybrid_saddle_solve(space, rhs, g)
    so, uo, res = conforming_saddle_oracle(space, rhs, g)
    assert _rel(s, so) <= TOL
    assert _rel(u, uo) <= TOL
    assert info["kkt_residual"] <= TOL and res <= TOL
    assert s[space.neumann_edge_dofs()].tolist() == [0.0] * len(space.neumann_edge_dofs())


@pytest.mark.parametrize("name,labels,p", CASES)
def test_global_best_matches_saddle_oracle(meshes, name, labels, p):
    mesh = meshes[name, labels]
    v = gradient_field()
    policy = QuadPolicy(p, mesh, v)
    out = global_best(v, p, mesh)
    dofs, e_l2, res = _oracle_best(v, p, mesh, policy)
    assert _rel(out["minimizer"].dofs, dofs) <= TOL
    assert abs(out["Eglob_l2"] - e_l2) <= TOL * e_l2
    assert out["kkt_residual"] <= TOL and res <= TOL


@pytest.mark.parametrize("p", range(4))
def test_global_best_matches_saddle_oracle_on_corner_groups(p):
    mesh = build_lshape(2)
    v = fields.catalog("lshape_singular", {"alpha": 2.0 / 3.0})
    policy = QuadPolicy(p, mesh, v)
    assert any(not g.shared for g in policy.groups())  # corner wedges in play
    out = global_best(v, p, mesh)
    dofs, e_l2, res = _oracle_best(v, p, mesh, policy)
    assert _rel(out["minimizer"].dofs, dofs) <= TOL
    assert abs(out["Eglob_l2"] - e_l2) <= TOL * e_l2
    assert out["kkt_residual"] <= TOL and res <= TOL


@pytest.mark.parametrize("name", MESHES)
@pytest.mark.parametrize("p", range(4))
def test_solve_mixed_matches_saddle_oracle(meshes, name, p):
    mesh = meshes[name, "all-dirichlet"]
    prob = manufactured_sine(mesh)
    res = solve_mixed(prob, p)
    space = rtn_space(mesh, p)
    fmom = _data_moments(prob, p)
    so, uo, kkt = conforming_saddle_oracle(space, np.zeros(space.dof_map.shape), fmom)
    assert _rel(res["sigma"].dofs, so) <= TOL
    assert _rel(res["u"].coeffs, -uo) <= TOL  # u is minus the divergence multiplier
    assert res["kkt_residual"] <= TOL and kkt <= TOL
    assert res["div_constraint_defect"] <= TOL * np.abs(fmom).max()


@pytest.mark.parametrize("name,labels", [(n, lab) for n in MESHES for lab in LABELS])
@pytest.mark.parametrize("p", [0, 2])
def test_system_size_counts_the_edge_multipliers(meshes, name, labels, p):
    mesh = meshes[name, labels]
    n_edges = len(mesh.interior_edges()) + np.sum(mesh.edge_label == "neumann")
    expected = (p + 1) * n_edges - (labels == "all-neumann")
    rep = error_report(gradient_field(), p, mesh)
    assert rep.metadata["system_size"] == expected
    assert rep.metadata["nnz_lu"] > 0
    if labels == "all-dirichlet":
        res = solve_mixed(manufactured_sine(mesh), p)
        assert res["system_size"] == expected and res["nnz_lu"] > 0


@pytest.mark.parametrize(
    "solve,mesh,p",
    [
        (solve_mixed, lambda: build_structured(8), 1),
        (lambda prob, p: solve_ls_mixed(prob, p, 2), lambda: build_lshape(4), 2),
    ],
    ids=["mixed-structured8", "ls-lshape4"],
)
def test_nnz_lu_is_the_count_superlu_stores(monkeypatch, solve, mesh, p):
    # nnz_lu reads SuperLU's own count of its stored entries, which takes
    # the explicit zeros of its supernodes, and builds no copy of L and U;
    # on these systems it exceeds the nonzeros of L and U as built
    import hdivkit.linsolve
    import hdivkit.model_problems

    factors = []

    class Captured(SparseFactor):
        def __init__(self, A, **kw):
            super().__init__(A, **kw)
            factors.append(self)

    for module in (hdivkit.linsolve, hdivkit.model_problems):
        monkeypatch.setattr(module, "SparseFactor", Captured)
    prob = manufactured_sine(mesh())
    for calls in (1, 2):  # the mesh keeps the matrix, not its factor
        res = solve(prob, p)
        assert len(factors) == calls
        factor = factors[-1]
        assert res["nnz_lu"] == factor.lu.nnz
        assert factor.lu.nnz > factor.lu.L.nnz + factor.lu.U.nnz
    assert factors[0].lu is not factors[1].lu and np.shares_memory(factors[0].A.data, factors[1].A.data)


def test_single_element_has_no_multiplier(ref_triangle_mesh):
    # every edge is Dirichlet: the edge system is empty and the element
    # solve alone is the answer
    v = gradient_field()
    out = global_best(v, 1, ref_triangle_mesh)
    dofs, e_l2, _ = _oracle_best(v, 1, ref_triangle_mesh, QuadPolicy(1, ref_triangle_mesh, v))
    assert out["system_size"] == 0
    assert _rel(out["minimizer"].dofs, dofs) <= TOL
    assert abs(out["Eglob_l2"] - e_l2) <= TOL * e_l2
