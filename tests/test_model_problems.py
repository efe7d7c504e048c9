import dataclasses

import numpy as np
import pytest

import oracles
from hdivkit import polys
from hdivkit.fields import FieldError
from hdivkit.best_approx import global_best
from hdivkit.mesh import build_lshape, build_structured, refine_uniform
from hdivkit.model_problems import (
    LagrangeSpace,
    ModelProblemError,
    PoissonProblem,
    apriori_checks,
    _div_oscillation,
    _flux_error,
    _random_pairs,
    coercivity_witness,
    flux_error,
    h1_best_global,
    h1_best_local_sum,
    manufactured_bubble,
    manufactured_sine,
    potential_h1_error,
    solve_ls_mixed,
    solve_mixed,
)
from hdivkit.quadrature import quad_rule
from test_projector import _not_finite_in


def galerkin_orthogonality(res):
    """Residual of the least-squares orthogonality on random discrete pairs.

    The exact pair satisfies A(s, u; p, v) = l^2 (f, div p); the discrete
    residual y^T (A x - b) against discrete test pairs y measures solver fidelity.
    """
    A, b = res["system"]
    Ax = A @ np.concatenate([res["sigma"].dofs, res["u"][res["space"].free_index]])
    worst = 0.0
    for y in _random_pairs(res):
        lhs, rhs = float(y @ Ax), float(y @ b)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
    return worst


def node_coords(ls):
    """Physical coordinates of every node of the ``LagrangeSpace`` ls; (n_nodes, 2)."""
    coords = np.zeros((ls.n_nodes, 2))
    xs = ls.mesh.vertices[ls.mesh.triangles]
    coords[ls._elem_nodes] = np.einsum("mi,kid->kmd", ls.bary / ls.q, xs)
    return coords


def eval_element(ls, nodal_values, k, refpts):
    """Values of the P_q function of ``nodal_values`` on element k at reference points."""
    basis = polys.lagrange_nodal(ls.q).T @ polys.eval_monomials(ls.q, refpts)
    return nodal_values[ls._elem_nodes[k]] @ basis


def test_neumann_labels_rejected():
    m = build_structured(2, labels="left-neumann")
    with pytest.raises(ModelProblemError):
        manufactured_sine(m)


def test_manufactured_pairs_consistent(unit_square_2):
    manufactured_sine(unit_square_2).residual_check()
    manufactured_bubble(unit_square_2).residual_check()


def test_zero_load_gives_zero(unit_square_2):
    prob = PoissonProblem(
        mesh=unit_square_2,
        f=lambda pts: np.zeros(len(pts)),
    )
    res = solve_mixed(prob, 1)
    assert np.abs(res["sigma"].dofs).max() < 1e-12
    assert np.abs(res["u"].coeffs).max() < 1e-12
    prob.sigma = None
    ls = solve_ls_mixed(prob, 1, 1)
    assert np.abs(ls["sigma"].dofs).max() < 1e-12
    assert np.abs(ls["u"]).max() < 1e-12


def test_mixed_divergence_constraint_exact(unit_square_4):
    prob = manufactured_sine(unit_square_4)
    for p in (0, 1):
        res = solve_mixed(prob, p)
        scale = max(1.0, np.abs(res["sigma"].dofs).max())
        assert res["div_constraint_defect"] < 1e-11 * scale


@pytest.mark.parametrize("p", [0, 1])
def test_mixed_flux_is_constrained_global_best(p, unit_square_4):
    prob = manufactured_sine(unit_square_4)
    res = solve_mixed(prob, p)
    err = flux_error(prob, res["sigma"])
    glob = global_best(prob.sigma, p, unit_square_4)
    assert abs(err - glob["Eglob_l2"]) <= 1e-8 * glob["Eglob_l2"]


def test_exact_discrete_pair_reproduced():
    # flux in RTN_3, potential in P_4: all errors vanish
    m = build_structured(2)
    prob = manufactured_bubble(m)
    res = solve_mixed(prob, 3)
    assert flux_error(prob, res["sigma"]) < 1e-9
    ls = solve_ls_mixed(prob, 3, 4)
    assert flux_error(prob, ls["sigma"]) < 1e-9
    assert potential_h1_error(prob, ls["space"], ls["u"]) < 1e-9


def test_coercivity_witness(unit_square_4):
    prob = manufactured_sine(unit_square_4)
    res = solve_ls_mixed(prob, 1, 1)
    w = coercivity_witness(res)
    assert w >= -1e-9


def test_galerkin_orthogonality(unit_square_4):
    prob = manufactured_sine(unit_square_4)
    res = solve_ls_mixed(prob, 1, 2)
    assert galerkin_orthogonality(res) < 1e-9


@pytest.mark.parametrize("mesh", ["structured:4", "lshape:2"])
@pytest.mark.parametrize("p,q", [(0, 1), (1, 2), (2, 3)])
def test_ls_checks_read_the_assembled_form(mesh, p, q):
    # the assembled system against the block-wise form of the oracle: its
    # values on random pairs, the coercivity witness and the orthogonality
    kind, n = mesh.split(":")
    prob = manufactured_sine({"structured": build_structured, "lshape": build_lshape}[kind](int(n)))
    res = solve_ls_mixed(prob, p, q)
    blocks = oracles.ls_blocks_oracle(prob, p, q)
    (A, _), nf, fr = res["system"], len(res["sigma"].dofs), res["space"].free_index

    def pair(x):
        v = np.zeros(res["space"].n_nodes)
        v[fr] = x[nf:]
        return x[:nf], v

    X = np.random.default_rng(1).standard_normal((4, A.shape[0]))
    for x in X:
        for y in X:
            want = oracles.ls_form_oracle(blocks, *pair(x), *pair(y))
            scale = np.sqrt(float(x @ (A @ x)) * float(y @ (A @ y)))  # Cauchy-Schwarz
            assert abs(float(y @ (A @ x)) - want) <= 1e-13 * scale
    assert abs(coercivity_witness(res) - oracles.coercivity_witness_oracle(blocks)) <= 1e-12
    assert galerkin_orthogonality(res) < 1e-9
    assert oracles.galerkin_orthogonality_oracle(blocks, res["sigma"].dofs, res["u"]) < 1e-9


def test_apriori_checks_sine(unit_square_4):
    out = apriori_checks(manufactured_sine, 1, 1, [unit_square_4])
    c = out[0]
    assert c["mixed_vs_globalbest"] <= 1e-8
    assert c["ls_ratio"] <= 17.0
    assert c["div_bound_slack"] >= -1e-9
    assert c["coercivity_witness"] >= -1e-9
    assert np.isfinite(c["h1_glob_over_loc"])


def test_h1_best_global_below_any_candidate(unit_square_2):
    prob = manufactured_sine(unit_square_2)
    ls, uh, best = h1_best_global(prob, 2)
    # candidate: nodal interpolation of u
    coords = node_coords(ls)
    cand = np.zeros(ls.n_nodes)
    cand[ls.free_index] = prob.u(coords[ls.free_index])
    other = potential_h1_error(prob, ls, cand)
    assert best <= other + 1e-12


def test_h1_local_le_global(unit_square_2):
    prob = manufactured_sine(unit_square_2)
    _, _, glob = h1_best_global(prob, 1)
    loc = h1_best_local_sum(prob, 1)
    assert loc <= glob + 1e-12


def test_lagrange_space_continuity(unit_square_2):
    # nodal values at shared nodes agree: evaluate along a shared edge from
    # both sides
    ls = LagrangeSpace(unit_square_2, 3)
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(ls.n_nodes)
    m = unit_square_2
    for e in m.interior_edges():
        k0, k1 = m.edge_tris[e]
        a, b = m.edges[e]
        t = np.linspace(0.1, 0.9, 5)
        pts = m.vertices[a][None, :] + t[:, None] * m.edge_vector(e)[None, :]
        # reference coordinates of the points in either triangle
        r0 = (pts - m.X0[k0]) @ m.Binv[k0].T
        r1 = (pts - m.X0[k1]) @ m.Binv[k1].T
        v0 = eval_element(ls, vals, int(k0), r0)
        v1 = eval_element(ls, vals, int(k1), r1)
        assert np.abs(v0 - v1).max() < 1e-11


@pytest.mark.parametrize("q", [1, 2, 3, 4])
@pytest.mark.parametrize("mesh", [lambda: build_structured(3), lambda: build_lshape(2),
                                  lambda: refine_uniform(build_lshape(1))], ids=["structured3", "lshape2", "refined"])
def test_lagrange_node_count_is_vertices_edges_and_interiors(mesh, q):
    # the numbering uses every node once: q - 1 per edge, (q-1)(q-2)/2 inside each triangle
    m = mesh()
    ls = LagrangeSpace(m, q)
    assert ls.n_nodes == m.num_vertices + m.num_edges * (q - 1) + m.num_triangles * (q - 1) * (q - 2) // 2
    assert np.array_equal(np.unique(ls._elem_nodes), np.arange(ls.n_nodes))


def test_lagrange_high_degree_warns(unit_square_2):
    with pytest.warns(RuntimeWarning):
        LagrangeSpace(unit_square_2, 5)


def test_mixed_convergence_rates():
    prob_builder = manufactured_sine
    for p in (0, 1, 2):
        errs, hs = [], []
        m = build_structured(2)
        for _ in range(4):
            prob = prob_builder(m)
            res = solve_mixed(prob, p)
            errs.append(flux_error(prob, res["sigma"]))
            hs.append(m.h_max)
            m = __import__("hdivkit.mesh", fromlist=["refine_uniform"]).refine_uniform(m)
        slope = np.polyfit(np.log(hs[-3:]), np.log(errs[-3:]), 1)[0]
        assert abs(slope - (p + 1)) <= 0.1


def test_h1_best_global_samples_grad_u_once():
    # its error reads the samples of grad u its right-hand side took, and
    # keeps the bits of potential_h1_error on the same rule
    prob = manufactured_sine(build_structured(8))
    calls = []

    def counted(pts):
        calls.append(len(pts))
        return prob.grad_u(pts)

    ls, u_h, err = h1_best_global(dataclasses.replace(prob, grad_u=counted), 2)
    assert calls == [prob.mesh.num_triangles * len(quad_rule(2 * 2 + 10).weights)]
    assert err == potential_h1_error(prob, ls, u_h)


def test_non_finite_source_or_exact_flux_is_a_field_error():
    # a NaN sample of f, grad u or the exact flux is blamed on it and on its
    # lowest element, not on a solve, and no call returns NaN
    m = build_structured(4)
    prob = manufactured_sine(m)
    bad_f = dataclasses.replace(prob, f=_not_finite_in(prob.f, m, 5))
    for run in (lambda q: solve_mixed(q, 1), lambda q: solve_ls_mixed(q, 1, 2)):
        with pytest.raises(FieldError, match="^f is not finite at a point of element 5$"):
            run(bad_f)
    ls, u_h, _ = h1_best_global(prob, 2)
    bad_grad = dataclasses.replace(prob, grad_u=_not_finite_in(prob.grad_u, m, 5))
    for run in (lambda q: potential_h1_error(q, ls, u_h), lambda q: h1_best_global(q, 2),
                lambda q: h1_best_local_sum(q, 2)):
        with pytest.raises(FieldError, match="^grad u is not finite at a point of element 5$"):
            run(bad_grad)
    sigma_h = solve_mixed(prob, 1)["sigma"]
    calls = [("sigma", "v", lambda q: flux_error(q, sigma_h)),
             ("div sigma", "div", lambda q: _flux_error(q, sigma_h, div=True)),
             ("div sigma", "div", lambda q: _div_oscillation(q, 1))]
    for kind, attr, run in calls:
        flux = dataclasses.replace(prob.sigma, **{attr: _not_finite_in(getattr(prob.sigma, attr), m, 5)})
        with pytest.raises(FieldError, match=f"^{kind} is not finite at a point of element 5$"):
            run(dataclasses.replace(prob, sigma=flux))
