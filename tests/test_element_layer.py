"""The element layer from one reference element against per-element oracles.

``RTNSpace`` stacks C_k = C_ref T_k^{-1}, M_k and Bdiv_k over the mesh and
``QuadPolicy.groups`` batches the quadrature; ``tests/oracles.py`` keeps the
per-element paths: a dual basis by quadrature and a dense solve on every
element, and error and fit loops one element at a time.
"""

import ast
import gc
from pathlib import Path

import numpy as np
import pytest

import oracles
from hdivkit import fields
from hdivkit.best_approx import error_report, global_best, local_best
from hdivkit.elements import rtn_space
from hdivkit.mesh import Mesh, build_lshape, build_structured
from hdivkit.model_problems import (
    LagrangeSpace,
    PoissonProblem,
    _flux_system,
    flux_error,
    manufactured_sine,
    potential_h1_error,
    solve_mixed,
)
from hdivkit.projector import random_conforming_field
from hdivkit.quadpolicy import QuadPolicy
from hdivkit.quadrature import quad_rule


def jitter(m, seed):
    """``m`` with every interior vertex moved by up to 0.3 of the shortest edge."""
    verts = m.vertices.copy()
    inner = np.ones(len(verts), dtype=bool)
    inner[m.edges[m.boundary_edges()].ravel()] = False
    h = np.linalg.norm(m.vertices[m.edges[:, 1]] - m.vertices[m.edges[:, 0]], axis=1).min()
    verts[inner] += np.random.default_rng(seed).uniform(-0.3, 0.3, (int(inner.sum()), 2)) * h
    labels = [(tuple(m.edges[e]), lab) for e, lab in m.boundary_labels.items()]
    return Mesh(verts, m.triangles, labels)


MESHES = {
    "jittered-structured3": lambda: jitter(build_structured(3, labels="left-neumann"), 1),
    "jittered-lshape2": lambda: jitter(build_lshape(2, labels="left-neumann"), 2),
}


@pytest.fixture(scope="module", params=sorted(MESHES))
def mesh(request):
    return MESHES[request.param]()


def _rel(got, want):
    return np.linalg.norm(np.asarray(got) - want) / max(np.linalg.norm(want), 1e-300)


@pytest.mark.parametrize("p", range(7))
def test_stacked_tables_and_views_match_quadrature_dual(mesh, p):
    # relative in the Frobenius norm; at p = 6 the oracle itself moves by up
    # to 1e-12 between two exact rules (monomial evaluation roundoff), so
    # there the bound is that spread
    space = rtn_space(mesh, p)
    assert len(space.elements) == mesh.num_triangles
    for k, el in enumerate(space.elements):
        want = oracles.element_tables_oracle(el)
        spread = [_rel(a, b) for a, b in zip(oracles.element_tables_oracle(el, extra=3), want)]
        for got, w, s in zip((space.C[k], space.M[k], space.Bdiv[k]), want, spread):
            assert _rel(got, w) <= max(1e-13, s)
        assert el.C is not None and np.array_equal(el.M, space.M[k])
        assert np.array_equal(el.Bdiv, space.Bdiv[k]) and np.array_equal(el.C, space.C[k])
        assert np.array_equal(space.dof_map[k], space.element_dof_map(k))
    assert space.elements[3] is space.elements[3]  # views are memoized


def _scoped_nodes(tree):
    """(top-level def or class enclosing it, node) for every node of a module."""
    stack = [(None, tree)]
    while stack:
        scope, node = stack.pop()
        yield scope, node
        for child in ast.iter_child_nodes(node):
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            stack.append((child.name if scope is None and named else scope, child))


def test_only_the_element_module_uses_element_views():
    # every runtime path runs on the stacked tables: no other module builds
    # an ElementRTN, reads space.elements or asks for per-element rules; and
    # element tables are built one way, RTNSpace only inside rtn_space and
    # ElementRTN only inside _ElementViews, in the library and the tests
    src = Path(__file__).resolve().parents[1] / "src" / "hdivkit"
    builders = {"RTNSpace": "rtn_space", "ElementRTN": "_ElementViews"}
    found = []
    for path in sorted(src.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        other_module = path.parent == src and path.name != "elements.py"
        for scope, node in _scoped_nodes(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = getattr(node.func, "attr", getattr(node.func, "id", None))
                if func in builders and (path.name, scope) != ("elements.py", builders[func]):
                    found.append((path.name, node.lineno, func))
                elif other_module and func == "element_rules":
                    found.append((path.name, node.lineno, func))
            elif other_module and isinstance(node, ast.Attribute) and node.attr == "elements":
                found.append((path.name, node.lineno, "elements"))
    assert found == []


def test_views_are_built_lazily():
    space = rtn_space(build_structured(4), 1)
    assert len(space.elements) == 32
    assert sum(v is not None for v in space.elements._views) == 0
    space.elements[5]
    assert sum(v is not None for v in space.elements._views) == 1


def _sigma_problem(m, v):
    """A Poisson problem whose flux is ``v`` (only the flux is used)."""
    return PoissonProblem(mesh=m, f=v.eval_div, sigma=v, l_omega=1.0)


CASES = [
    ("sine", lambda: jitter(build_structured(3), 3), "sine_divfree", 2),
    ("singular", lambda: build_lshape(2), "lshape_singular", 3),
    ("cubic-mixed", lambda: jitter(build_lshape(2), 4), "cubic", 1),
]


@pytest.mark.parametrize("name,build,field,p", CASES, ids=[c[0] for c in CASES])
def test_batched_fits_and_errors_match_element_loops(name, build, field, p):
    m = build()
    v = fields.catalog(field)
    policy = QuadPolicy(p, field=v)
    if field == "lshape_singular":  # the corner wedges form their own group
        assert any(not g.shared for g in policy.groups(m))
    rep = error_report(v, p, m)
    for k in range(m.num_triangles):
        want = oracles.local_best_oracle(v, p, m, k, policy)
        got = local_best(v, p, m, k)
        for key in ("l2_part", "div_part", "E_loc"):
            assert abs(got[key] - want[key]) <= 1e-12 * want[key]
        assert abs(rep.Eloc[k] - want["E_loc"]) <= 1e-12 * want["E_loc"]
        assert _rel(got["coeffs"], want["coeffs"]) <= 1e-12
    glob = global_best(v, p, m)
    want_l2, want_dofs = oracles.global_best_oracle(v, p, m, policy)
    assert abs(glob["Eglob_l2"] - want_l2) <= 1e-12 * want_l2
    assert _rel(glob["minimizer"].dofs, want_dofs) <= 1e-12
    # flux error of a discrete field against the element loop
    sig = random_conforming_field(m, p, seed=1)
    got = flux_error(_sigma_problem(m, v), sig)
    want = np.sqrt(oracles.element_norm_sq_oracle(v, sig, p, m, policy).sum())
    assert abs(got - want) <= 1e-12 * want


def test_discrete_fields_evaluate_through_their_tables(mesh):
    p = 2
    sig = random_conforming_field(mesh, p, seed=2)
    broken = sig.to_broken()
    policy = QuadPolicy(p, field=fields.catalog("sine_divfree"))
    for g in policy.groups(mesh):
        for field in (sig, broken):
            vals, div = g.eval(field), g.eval(field, div=True)
            for i, k in enumerate(g.tris):
                el = oracles.element(rtn_space(mesh, p), k)
                c = broken.coeffs[k]
                assert _rel(vals[i], el.eval_coeffs(c, g.pts[i])) <= 1e-12
                assert _rel(div[i], el.eval_div_coeffs(c, g.pts[i])) <= 1e-11
    M = np.sum([c @ el.M @ c for c, el in zip(broken.coeffs, rtn_space(mesh, p).elements)])
    assert abs(broken.norm() ** 2 - M) <= 1e-12 * M
    want = [el.Bdiv @ c for c, el in zip(broken.coeffs, rtn_space(mesh, p).elements)]
    assert _rel(broken.div().coeffs, np.array(want)) <= 1e-13


@pytest.mark.parametrize("p", [0, 1, 2])
def test_solver_blocks_match_element_loops(p):
    m = jitter(build_structured(3), 5)
    prob = manufactured_sine(m)
    policy = QuadPolicy(p, field=prob.sigma)
    space, M, B, fmom = _flux_system(prob, p, policy)
    Mo, Bo, _ = oracles.conforming_blocks_oracle(space)
    assert (M != Mo).nnz == 0 and (B != Bo).nnz == 0
    want = []
    for k, el in enumerate(oracles.elements(space)):
        tri, _, _ = policy.element_rules(el, key=("tri", k))
        want.append(el.scalar_moments(prob.f(el.quad_points(tri)), tri))
    assert _rel(fmom, np.concatenate(want)) <= 1e-12
    res = solve_mixed(prob, p)
    got = flux_error(prob, res["sigma"])
    want = np.sqrt(oracles.element_norm_sq_oracle(prob.sigma, res["sigma"], p, m, policy).sum())
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("q", [1, 2, 3])
def test_potential_h1_error_matches_element_loop(q):
    m = jitter(build_lshape(2), 6)
    prob = manufactured_sine(m)
    ls = LagrangeSpace(m, q)
    u = np.random.default_rng(q).standard_normal(ls.n_nodes)
    got = potential_h1_error(prob, ls, u)
    want = oracles.potential_h1_error_oracle(prob, ls, u, quad_rule(2 * q + 10))
    assert abs(got - want) <= 1e-12 * want


def test_conforming_blocks_keep_the_neumann_pattern(mesh):
    space = rtn_space(mesh, 1)
    M, B, fidx = space.conforming_blocks()
    assert len(fidx) < space.ndof
    assert abs(M - M.T).max() == 0


def test_policy_caches_stay_with_their_mesh():
    # a freed mesh's id can go to the next mesh built; the cached groups and
    # samples must serve only the mesh they were built for
    v = fields.catalog("sine_divfree")
    policy = QuadPolicy(1, field=v)
    for i in range(50):
        m = build_structured(2 + i % 3)
        covered = np.concatenate([g.tris for g in policy.groups(m)])
        assert np.array_equal(np.sort(covered), np.arange(m.num_triangles))
        fresh = QuadPolicy(1, field=v).samples(v, m)
        for (g, vals, dvals), (h, want, dwant) in zip(policy.samples(v, m), fresh, strict=True):
            assert np.array_equal(g.tris, h.tris)
            assert np.array_equal(vals, want) and np.array_equal(dvals, dwant)
        del m, fresh, g, h
        gc.collect()
