"""The global systems a mesh keeps: the hybridization's multiplier matrix
(``RTNSpace.multipliers``), with its packed Cholesky factor where that fits
``linsolve.KEEP_BYTES``, and the least-squares matrix (kept per p, q and
the bits of l^2); and, under the same budget, the flux parts of the
eliminations' data-independent element columns (``linsolve.element_columns``).
A repeated call reuses them, and solves with the kept factor or factors the
kept matrix afresh, so it gives the bits of the first call and of a call on
a fresh mesh; the kept arrays are read-only, and the kept columns give the
bits of the columns built per call.  The quadrature tables and layouts
(``test_kept_quadrature.py``) give a fresh mesh's bits in any call order."""

import numpy as np
import pytest
import scipy.sparse as sp

import hdivkit.linsolve
import hdivkit.model_problems
import hdivkit.quadpolicy
from hdivkit import fields
from hdivkit.best_approx import error_report, global_best
from hdivkit.elements import RTNSpace, lagrange_nodes, rtn_space
from hdivkit.linsolve import KEEP_BYTES, element_columns, hybrid_saddle_solve, multiplier_system
from hdivkit.local_solve import patch_layout
from hdivkit.mesh import build_lshape, build_structured
from hdivkit.model_problems import h1_best_global, manufactured_sine, solve_ls_mixed, solve_mixed
from hdivkit.projections import canonical_interp
from hdivkit.projector import _projector_report, project_hdiv, projector_report, random_conforming_field
from hdivkit.quadpolicy import QuadPolicy
from test_batched_projector import stream_field
from test_element_layer import jitter
from test_hybrid_solve import gradient_field

MESHES = {"structured4": lambda labels: build_structured(4, labels=labels),
          "lshape2": lambda labels: build_lshape(2, labels=labels)}


def _mixed(prob, p):
    res = solve_mixed(prob, p)
    return [res["sigma"].dofs, res["u"].coeffs, res["kkt_residual"], res["system_size"], res["nnz_lu"]]


def _ls(prob, p):
    res = solve_ls_mixed(prob, p, p + 1)
    A, b = res["system"]
    return [res["sigma"].dofs, res["u"], res["kkt_residual"], res["nnz_lu"], A.data, A.indices, A.indptr, b]


def _best(v, p, mesh):
    rep, glob = error_report(v, p, mesh), global_best(v, p, mesh)
    return [rep.Eloc, rep.Eglob_l2, rep.Eglob_div, rep.metadata["minimizer"].dofs, rep.metadata["nnz_lu"],
            glob["minimizer"].dofs, glob["Eglob"], glob["Eglob_div"], glob["kkt_residual"], glob["system_size"]]


def _same(a, b):
    return all(np.asarray(x).tobytes() == np.asarray(y).tobytes() for x, y in zip(a, b, strict=True))


@pytest.mark.parametrize("name", sorted(MESHES))
@pytest.mark.parametrize("labels", ["all-dirichlet", "left-neumann", "all-neumann"])
@pytest.mark.parametrize("p", [0, 2, 6])
def test_repeated_calls_give_the_bits_of_a_fresh_mesh(name, labels, p):
    mesh = MESHES[name](labels)
    runs = [lambda m, v=v: _best(v, p, m) for v in (gradient_field(), stream_field())]
    runs.append(lambda m: [project_hdiv(stream_field(), p, m).dofs])  # the kept constant-divergence column
    if labels == "all-dirichlet" and p < 6:  # the model problems are all-Dirichlet; q = 7 nodes are ill-conditioned
        runs += [lambda m: _mixed(manufactured_sine(m), p), lambda m: _ls(manufactured_sine(m), p)]
    for run in runs:
        first = run(mesh)
        assert _same(run(mesh), first)
        assert _same(run(MESHES[name](labels)), first)
    assert ("element_columns", p) in mesh._cache  # these meshes keep their element columns


def test_calls_in_any_degree_order_give_the_bits_of_a_fresh_mesh(monkeypatch):
    # the reference tables the process keeps and the quadrature layouts the
    # mesh keeps, found in another order: p = 6, 5, 4, def52 between, then
    # 4, 5, 6; each call gives the bits of a fresh mesh, its tables fresh too
    mesh, v, fresh = build_lshape(2), fields.catalog("lshape_singular"), {}

    def run(m, p, variant):
        rep = error_report(v, p, m)
        return [project_hdiv(v, p, m, variant=variant).dofs, rep.Eloc, rep.Eglob_l2, rep.metadata["minimizer"].dofs,
                canonical_interp(v, p, m).coeffs]

    order = [(6, "def31"), (5, "def31"), (4, "def31"), (6, "def52"), (5, "def52"), (4, "def52"), (4, "def31"),
             (5, "def31"), (6, "def31")]
    for p, variant in order:
        got = run(mesh, p, variant)
        if (p, variant) not in fresh:
            with monkeypatch.context() as m:
                m.setattr(hdivkit.quadpolicy, "_REFERENCE", {})
                fresh[p, variant] = run(build_lshape(2), p, variant)
        assert _same(got, fresh[p, variant])


def test_single_element_keeps_an_empty_system(ref_triangle_mesh):
    first = _best(gradient_field(), 1, ref_triangle_mesh)
    assert first[-1] == 0 and rtn_space(ref_triangle_mesh, 1).multipliers.A.shape == (0, 0)
    assert _same(_best(gradient_field(), 1, ref_triangle_mesh), first)


@pytest.mark.parametrize("p", [0, 1])
def test_second_call_assembles_nothing(monkeypatch, p):
    # the kept matrices are the whole assembly: a repeated call forms only
    # its data and factors
    calls = []
    for module in (hdivkit.linsolve, hdivkit.model_problems):
        real = module.assemble_csr
        monkeypatch.setattr(module, "assemble_csr", lambda *a, real=real: calls.append(1) or real(*a))
    prob = manufactured_sine(build_lshape(2))
    for solve in (lambda: solve_mixed(prob, p), lambda: global_best(prob.sigma, p, prob.mesh),
                  lambda: solve_ls_mixed(prob, p, p + 1)):
        solve()
        calls.clear()
        solve()
        assert not calls


def test_kept_matrices_are_checked_for_symmetry_once(monkeypatch):
    # a kept matrix is checked where it is built, not at every
    # factorization; a fresh matrix (h1_best_global) at every one
    checks = []
    real = hdivkit.linsolve.check_symmetric
    for module in (hdivkit.linsolve, hdivkit.model_problems):
        monkeypatch.setattr(module, "check_symmetric", lambda A: checks.append(1) or real(A))
    prob = manufactured_sine(build_lshape(2))
    runs = [lambda: solve_mixed(prob, 1), lambda: global_best(prob.sigma, 1, prob.mesh), lambda: solve_mixed(prob, 1),
            lambda: solve_ls_mixed(prob, 1, 2), lambda: solve_ls_mixed(prob, 1, 2),
            lambda: h1_best_global(prob, 2), lambda: h1_best_global(prob, 2)]
    counts = []
    for run in runs:
        checks.clear()
        run()
        counts.append(len(checks))
    assert counts == [1, 0, 0, 1, 0, 1, 1]


def test_kept_arrays_are_read_only():
    prob = manufactured_sine(build_structured(4))
    res = solve_ls_mixed(prob, 1, 2)
    first = _ls(prob, 1)
    A = res["system"][0]
    for a in (A.data, A.indices, A.indptr):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1
    with pytest.raises(ValueError, match="read-only"):
        res["space"].free_index[0] = 0
    assert _same(_ls(prob, 1), first)
    solve_mixed(prob, 1)
    space = rtn_space(prob.mesh, 1)
    kept = space.multipliers
    for a in (kept.lam, kept.A.data, kept.A.indices, kept.A.indptr, kept.chol, element_columns(space, const=True),
              element_columns(space), space.edge_sign, space.free_dofs()):
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 1


def _arrays(entry):
    """The arrays of a kept entry: those in its tuples, lists and sparse
    matrices."""
    if isinstance(entry, np.ndarray):
        return [entry]
    if isinstance(entry, (tuple, list)):
        return [a for part in entry for a in _arrays(part)]
    return _arrays([entry.data, entry.indices, entry.indptr]) if sp.issparse(entry) else []


def test_entries_kept_through_the_helper_are_read_only():
    # after a projector_report, a solve_mixed and a solve_ls_mixed: the
    # continuous P_q numbering, the patch class inverses, the patch layout
    # and its surrogate numbering, the policy's samples and moments, the
    # element classes and class tables, the multiplier system and the
    # least-squares A and B; reading them builds nothing
    prob, p = manufactured_sine(build_structured(4)), 1
    mesh, v = prob.mesh, fields.catalog("cubic")
    policy = QuadPolicy(p, mesh, v)
    _projector_report(policy, "def31")
    solve_mixed(prob, p)
    solve_ls_mixed(prob, p, p + 1)
    held = len(mesh._cache), len(policy._cache)
    layout, space = patch_layout(mesh, p), rtn_space(mesh, p)
    tables = layout.tables
    assert {kind for kind, _ in tables.systems} == {"multiplier", "surrogate"}
    entries = [lagrange_nodes(mesh, p + 1), lagrange_nodes(mesh, p + 2), [e[-1] for e in tables.systems.values()],
               layout, layout.surrogate(mesh),
               policy.values(), policy.values(div=True), policy.moments(), policy.div_moments(),
               space.classes, space.kkt_table, space.mass_table, space.multipliers,
               element_columns(space, const=True), hdivkit.model_problems._ls_system(prob, p, p + 1)[:2]]
    assert (len(mesh._cache), len(policy._cache)) == held
    for entry in entries:
        arrays = _arrays(entry)
        assert arrays and not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError, match="read-only"):
            arrays[0].flat[0] = 0


def test_another_l2_rebuilds_the_least_squares_system():
    prob = manufactured_sine(build_lshape(2))
    first = _ls(prob, 1)
    for l_omega in (0.37, np.nextafter(prob.mesh.diameter(), 0.0)):  # exact bits: a last-place change counts
        other = manufactured_sine(build_lshape(2))
        prob.l_omega = other.l_omega = l_omega
        assert _same(_ls(prob, 1), _ls(other, 1))
        assert not _same(_ls(prob, 1), first)


# -- the kept packed Cholesky factor of the multiplier system -------------------------


def test_kept_factor_is_built_once_per_mesh_and_degree(monkeypatch):
    builds = []
    real = hdivkit.linsolve.packed_cholesky
    monkeypatch.setattr(hdivkit.linsolve, "packed_cholesky", lambda A: builds.append(A.shape[0]) or real(A))

    def superlu(*args, **kw):
        raise AssertionError("SuperLU factored a system with a kept factor")

    monkeypatch.setattr(hdivkit.linsolve, "SparseFactor", superlu)
    mesh = build_lshape(2, labels="all-neumann")
    for p in (0, 1, 0, 1):
        rep = error_report(gradient_field(), p, mesh)
        n = rtn_space(mesh, p).multipliers.A.shape[0]
        assert rep.metadata["nnz_lu"] == n * (n + 1) // 2  # the stored entries of the kept factor
    # every edge carries p + 1 multipliers, one grounded
    assert builds == [mesh.num_edges - 1, 2 * mesh.num_edges - 1]
    for p in (0, 1):
        kept = rtn_space(mesh, p).multipliers
        n = kept.A.shape[0]
        assert kept.chol.shape == (n * (n + 1) // 2,) and kept.chol.nbytes <= KEEP_BYTES
        assert all(isinstance(part, (np.ndarray, bool, sp.csc_matrix)) for part in kept)  # no SuperLU object
        with pytest.raises(ValueError, match="read-only"):
            kept.chol[0] = 1.0


def test_the_budget_is_the_bytes_of_the_packed_factor(monkeypatch):
    space = rtn_space(build_structured(2), 1)
    n = space.multipliers.A.shape[0]
    for budget, keeps in ((4 * n * (n + 1), True), (4 * n * (n + 1) - 1, False)):
        monkeypatch.setattr(hdivkit.linsolve, "KEEP_BYTES", budget)
        assert (multiplier_system(space).chol is not None) == keeps


FACTOR_CASES = [("structured4", labels) for labels in ("all-dirichlet", "left-neumann", "all-neumann")]
FACTOR_CASES.append(("lshape2", "all-neumann"))


@pytest.fixture(scope="module")
def factor_meshes():
    return {case: MESHES[case[0]](case[1]) for case in FACTOR_CASES}


@pytest.mark.parametrize("case", FACTOR_CASES, ids="-".join)
@pytest.mark.parametrize("p", range(7))
def test_kept_factor_solves_as_superlu_does(monkeypatch, factor_meshes, case, p):
    # the same kept A, solved with its kept packed factor and with a SuperLU
    # factor of its own
    mesh = factor_meshes[case]
    space = rtn_space(mesh, p)
    rng = np.random.default_rng(p)
    rhs = rng.standard_normal(space.dof_map.shape)
    g = rng.standard_normal((mesh.num_triangles, space.sdim))
    s, u, info = hybrid_saddle_solve(space, rhs, g)
    assert space.multipliers.chol is not None and info["nnz_lu"] == len(space.multipliers.chol)
    kept = RTNSpace.multipliers
    monkeypatch.setattr(RTNSpace, "multipliers", property(lambda sp: kept.fget(sp)._replace(chol=None)))
    s_lu, u_lu, info_lu = hybrid_saddle_solve(space, rhs, g)
    for got, want in ((s, s_lu), (u, u_lu)):
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    assert info["kkt_residual"] <= 2 * info_lu["kkt_residual"]



@pytest.mark.parametrize("path", ["kept-factor", "superlu"])
@pytest.mark.parametrize("build", [build_structured, build_lshape], ids=["structured2", "lshape1"])
def test_all_neumann_solve_keeps_the_digits_of_left_neumann(monkeypatch, path, build):
    # the all-Neumann solve borders its grounded multiplier system with the
    # constant-divergence column, so an exact member at p = 10 is an exact
    # zero, as with left-Neumann labels; dropping the grounded multiplier's
    # equation gave a KKT residual of 3.4e-9 and a ratio of 72.8 on structured:2
    if path == "superlu":
        monkeypatch.setattr(hdivkit.linsolve, "KEEP_BYTES", 0)
    reports = {}
    for labels in ("all-neumann", "left-neumann"):
        mesh = build(2 if build is build_structured else 1, labels=labels)
        reports[labels] = error_report(random_conforming_field(mesh, 10, seed=0), 10, mesh)
    assert (rtn_space(mesh, 10).multipliers.chol is None) == (path == "superlu")
    rep = reports["all-neumann"]
    assert rep.metadata["kkt_residual"] <= 1e-13 and rep.metadata["compat_defect"] <= 1e-10
    glob = {labels: r.Eglob / r.metadata["v_norm"] for labels, r in reports.items()}
    assert glob["all-neumann"] <= 2 * glob["left-neumann"]
    assert rep.exact_zero and rep.ratio_glob_over_loc == 0.0


# -- the kept element columns of the eliminations ------------------------------------

COLUMN_MESHES = {"structured4": lambda: build_structured(4),
                 "lshape2-all-neumann": lambda: build_lshape(2, labels="all-neumann"),
                 "jittered-lshape2": lambda: jitter(build_lshape(2), 2)}


@pytest.fixture(scope="module")
def column_meshes():
    return {name: build() for name, build in COLUMN_MESHES.items()}


@pytest.mark.parametrize("name", sorted(COLUMN_MESHES))
@pytest.mark.parametrize("p", range(7))
def test_kept_columns_give_the_bits_of_the_columns_built_per_call(monkeypatch, column_meshes, name, p):
    # every entry point that eliminates elements, first with the columns
    # kept, then with a budget of 0 on the same mesh, which builds them on
    # every call (the multiplier factor and the patch tables stay kept)
    mesh = column_meshes[name]
    v = random_conforming_field(mesh, p + 1, seed=p)

    def run():
        out = [project_hdiv(v, p, mesh).dofs]
        if p >= 1:
            out.append(project_hdiv(v, p, mesh, variant="def52").dofs)
        rep = projector_report(v, p, mesh)
        out += [rep["sigma"].dofs, rep["stability_ratios"], rep["max_C_approx"], rep["commute_residual"]]
        out += _best(v, p, mesh)
        if name != "lshape2-all-neumann":  # the model problems are all-Dirichlet
            out += _mixed(manufactured_sine(mesh), p)
        return out

    want = run()
    space = rtn_space(mesh, p)
    cols = element_columns(space, const=True)
    assert mesh._cache[("element_columns", p)][1] is cols and cols.nbytes <= KEEP_BYTES
    monkeypatch.setattr(hdivkit.linsolve, "KEEP_BYTES", 0)
    fresh = element_columns(space, const=True)
    assert fresh is not cols and fresh.tobytes() == cols.tobytes()
    assert element_columns(space).tobytes() == np.ascontiguousarray(cols[:, :, 1:]).tobytes()
    assert _same([multiplier_system(space).A.data], [space.multipliers.A.data])
    assert _same(run(), want)


def test_the_budget_is_the_bytes_of_the_element_columns(monkeypatch):
    # 8 nt ndof (1 + 3(p+1)) bytes, the constant column counted on every path
    space = rtn_space(build_structured(2), 2)
    need = 8 * len(space) * space.ref.dim * (1 + 3 * (space.p + 1))
    for budget, keeps in ((need, True), (need - 1, False)):
        monkeypatch.setattr(hdivkit.linsolve, "KEEP_BYTES", budget)
        space = rtn_space(build_structured(2), 2)
        element_columns(space)
        assert (("element_columns", space.p) in space.mesh._cache) == keeps


def test_the_hybrid_path_builds_no_constant_column_per_call(monkeypatch):
    # above the budget a mesh-wide solve builds only the 3(p+1) edge columns
    built = []
    real = hdivkit.linsolve._element_columns
    monkeypatch.setattr(hdivkit.linsolve, "_element_columns", lambda space, const: built.append(const) or real(space, const))
    monkeypatch.setattr(hdivkit.linsolve, "KEEP_BYTES", 0)
    mesh = build_structured(2)
    error_report(gradient_field(), 1, mesh)
    assert built and not any(built)
    assert not any(key[0] == "element_columns" for key in mesh._cache if isinstance(key, tuple))
