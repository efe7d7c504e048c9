"""The element layer from one reference element against per-element oracles.

``RTNSpace`` stores the dof scaling T_k and c_k and applies A(c_k), C_ref
and D_ref = div_rows C_ref through T_k^{-1}; ``QuadPolicy.groups`` batches the
quadrature.  ``tests/oracles.py`` keeps the stored stacks C_k, M_k and
Bdiv_k of the closed formulas and the per-element paths: a dual basis by
quadrature and a dense solve on every element, and error and fit loops one
element at a time.
"""

import ast
import gc
from pathlib import Path

import numpy as np
import pytest

import oracles
from hdivkit import fields
from hdivkit.best_approx import error_report, global_best, local_best
from hdivkit.elements import _coupling_reference, _mass_blocks, lagrange_grads_ref, rtn_space, scalar_values
from hdivkit.linsolve import assemble_csr
from hdivkit.mesh import Mesh, build_lshape, build_structured
from hdivkit.model_problems import (
    LagrangeSpace,
    PoissonProblem,
    flux_error,
    manufactured_sine,
    potential_h1_error,
    solve_mixed,
)
from hdivkit.projections import BrokenRTNField
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
    blocks = _mass_blocks(space)  # the M_k that ``conforming_blocks`` assembles
    for k, el in enumerate(space.elements):
        want = oracles.element_tables_oracle(el)
        spread = [_rel(a, b) for a, b in zip(oracles.element_tables_oracle(el, extra=3), want)]
        for got, w, s in zip((el.C, el.M, el.Bdiv), want, spread):
            assert _rel(got, w) <= max(1e-13, s)
        assert np.array_equal(el.M, blocks[k])
    assert space.elements[3] is space.elements[3]  # views are memoized


def _rel_rows(got, want):
    """Largest relative difference of one element's rows (leading axis)."""
    d = np.reshape(got, (len(want), -1)) - np.reshape(want, (len(want), -1))
    w = np.linalg.norm(np.reshape(want, (len(want), -1)), axis=1)
    return float(np.max(np.linalg.norm(d, axis=1) / np.maximum(w, 1e-300)))


@pytest.mark.parametrize("p", range(7))
def test_applied_tables_match_the_stored_stacks(mesh, p):
    # the space stores T_k and c_k and applies A(c_k), C_ref and D_ref; the
    # oracle keeps C_k, M_k and Bdiv_k stored whole by the closed formulas
    space = rtn_space(mesh, p)
    C, M, Bdiv = oracles.stacked_tables_oracle(mesh, p)
    assert _rel_rows([el.M for el in space.elements], M) <= 1e-13
    assert _rel_rows([el.C for el in space.elements], C) <= 1e-13
    assert _rel_rows([el.Bdiv for el in space.elements], Bdiv) <= 1e-13
    rng = np.random.default_rng(p)
    c = rng.standard_normal((mesh.num_triangles, space.ref.dim))
    # M_k x = rows_to_elem(A(c_k) y) and x^T M_k x = y^T A(c_k) y, y = T_k^{-1} x,
    # on rows of every element and on stacked rows named by a 2-d index
    y = space.to_ref(c)
    assert _rel_rows(space.rows_to_elem(space.mass(y)), (M @ c[:, :, None])[:, :, 0]) <= 1e-13
    form = np.einsum("ki,kij,kj->k", c, M, c)
    assert np.max(np.abs(np.sum(y * space.mass(y), axis=1) - form) / form) <= 1e-13
    tris = rng.integers(0, mesh.num_triangles, (5, 3))
    x = rng.standard_normal(tris.shape + (2, space.ref.dim))
    y = space.to_ref(x, tris)
    want = (M[tris][:, :, None] @ x[..., None])[..., 0]
    assert _rel_rows(space.rows_to_elem(space.mass(y, tris), tris).reshape(15, -1), want.reshape(15, -1)) <= 1e-13
    form = np.sum(x * want, axis=-1)
    assert np.max(np.abs(np.sum(y * space.mass(y, tris), axis=-1) - form) / form) <= 1e-13
    assert _rel_rows(BrokenRTNField(mesh, p, c).div().coeffs, (Bdiv @ c[:, :, None])[:, :, 0]) <= 1e-13
    for g in QuadPolicy(p, field=fields.catalog("sine_divfree")).groups(mesh):
        t, prim = g.tris, g.prim(p)
        Bt = np.swapaxes(mesh.B[t], 1, 2) / mesh.detB[t, None, None]
        want = g.combine((C[t] @ c[t, :, None])[:, :, 0], prim) @ Bt
        assert _rel_rows(space.values(g, c[t]), want) <= 1e-13
        want = scalar_values(mesh, p, g, (Bdiv[t] @ c[t, :, None])[:, :, 0])
        assert _rel_rows(space.div_values(g, c[t]), want) <= 1e-13
        vals = rng.standard_normal(g.pts.shape)
        F = vals @ mesh.B[t] * (g.w / mesh.detB[t, None])[:, :, None]
        want = (g.contract(prim, F)[:, None, :] @ C[t])[:, 0]
        assert _rel_rows(space.moments(g, vals), want) <= 1e-13
    for q in (1, 2, p + 2):
        rule = quad_rule(q + p)
        grads = np.stack(lagrange_grads_ref(q, rule.points), axis=2)
        ref = np.einsum("q,nqd,iqd->ni", rule.weights, grads, space.ref.eval(rule.points))
        assert _rel_rows(space.rows_to_elem(_coupling_reference(q, p)[None]), ref @ C) <= 1e-13
    Mc, Bc, free = space.conforming_blocks()
    pos = -np.ones(space.ndof, dtype=int)
    pos[free] = np.arange(len(free))
    dofs, rows = pos[space.dof_map], np.arange(Bdiv[:, :, 0].size).reshape(Bdiv.shape[:2])
    wants = (assemble_csr(dofs, dofs, M, Mc.shape), assemble_csr(rows, dofs, Bdiv, Bc.shape))
    for got, want in zip((Mc, Bc), wants):
        assert abs(got - want).max() <= 1e-13 * abs(want).max()
    # the sparse M has the bits of the blocks the space used to store
    stored = space.rows_to_elem(np.swapaxes(space.rows_to_elem(space.mass_ref(space.coef)), 1, 2))
    assert (Mc != assemble_csr(dofs, dofs, (stored + np.swapaxes(stored, 1, 2)) / 2, Mc.shape)).nnz == 0


def _arrays(value):
    """The ndarrays of an attribute value: itself, or those of a tuple."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for v in value:
            yield from _arrays(v)


def test_space_stores_order_ndof_per_element():
    # with its class tables built, an RTN space keeps per element its dof
    # scaling, c_k, geometry and dof map, and the mesh keeps its classes,
    # O(ndof) numbers each: no M_k, C_k or Bdiv_k, of which one stack alone
    # would be ndof = 63 times the bound
    m, p = build_structured(4), 6
    space = rtn_space(m, p)
    space.kkt_table, space.mass_table
    n, d = m.num_triangles, space.ref.dim
    assert not any(hasattr(space, name) for name in ("M", "C", "Bdiv"))
    kept = {"classes": space.classes, "kkt_table": space.kkt_table, "mass_table": space.mass_table}
    per_element = {k: a for k, v in [*vars(space).items(), *kept.items()] for a in _arrays(v) if a.shape[:1] == (n,)}
    assert {"dof_map", "_phys", "_ref", "coef", "classes"} <= set(per_element)
    assert sum(a.nbytes for a in per_element.values()) <= 4 * n * d * 8


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


# functions the library defines without calling them, each with its reason
UNCALLED = {
    ("linsolve.py", "dense_solve"): "perfbench/tracing.py wraps it; it moves with the per-element layer",
    ("projections.py", "interp_product_with_hat"): "perfbench/tracing.py wraps it; it moves with the per-element layer",
    ("quadpolicy.py", "QuadPolicy.element_rules"): "perfbench/tracing.py wraps it; the oracles call it",
    ("cli.py", "_Parser.error"): "argparse calls it: it overrides ArgumentParser.error",
}


def _defined(node, prefix=""):
    """The qualified name of every function and method under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            if isinstance(child, ast.FunctionDef):
                yield prefix + child.name
            yield from _defined(child, prefix + child.name + ".")


def test_every_library_function_has_a_library_caller():
    # a function or method of src/ is referenced from src/ code (names and
    # attributes, not docstrings), exported in __all__, called by Python
    # (a dunder) or listed in UNCALLED; test-only helpers live in the tests
    import hdivkit

    src = Path(__file__).resolve().parents[1] / "src" / "hdivkit"
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    used = set(hdivkit.__all__)
    for tree in trees.values():
        for node in ast.walk(tree):
            used.add(node.id if isinstance(node, ast.Name) else getattr(node, "attr", None))
    defined = {(name, qual) for name, tree in trees.items() for qual in _defined(tree)}
    found = sorted((name, qual) for name, qual in defined - set(UNCALLED)
                   if qual.split(".")[-1] not in used and not qual.endswith("__"))
    assert found == [] and set(UNCALLED) <= defined


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
    broken = oracles.to_broken(sig)
    policy = QuadPolicy(p, field=fields.catalog("sine_divfree"))
    for g in policy.groups(mesh):
        for field in (sig, broken):
            vals, div = g.eval(field), g.eval(field, div=True)
            for i, k in enumerate(g.tris):
                el = oracles.element(rtn_space(mesh, p), k)
                c = broken.coeffs[k]
                assert _rel(vals[i], el.eval_coeffs(c, g.pts[i])) <= 1e-12
                assert _rel(div[i], el.eval_div_coeffs(c, g.pts[i])) <= 1e-11
    M = np.einsum("ki,kij,kj->", broken.coeffs, oracles.stacked_mass(mesh, p), broken.coeffs)
    assert abs(broken.norm() ** 2 - M) <= 1e-12 * M
    want = [el.Bdiv @ c for c, el in zip(broken.coeffs, rtn_space(mesh, p).elements)]
    assert _rel(broken.div().coeffs, np.array(want)) <= 1e-13


@pytest.mark.parametrize("p", [0, 1, 2])
def test_solver_blocks_match_element_loops(p):
    m = jitter(build_structured(3), 5)
    prob = manufactured_sine(m)
    policy = QuadPolicy(p, field=prob.sigma)
    space, M, B, fmom = oracles.flux_system(prob, p, policy)
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
        fresh = oracles.samples(QuadPolicy(1, field=v), v, m)
        for (g, vals, dvals), (h, want, dwant) in zip(oracles.samples(policy, v, m), fresh, strict=True):
            assert np.array_equal(g.tris, h.tris)
            assert np.array_equal(vals, want) and np.array_equal(dvals, dwant)
        del m, fresh, g, h
        gc.collect()
