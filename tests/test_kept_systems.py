"""The global systems a mesh keeps: the hybridization's multiplier matrix
(``RTNSpace.multipliers``) and the least-squares matrix (kept per p, q and
the bits of l^2).  A repeated call reuses them and factors them afresh, so
it gives the bits of the first call and of a call on a fresh mesh; the kept
arrays are read-only."""

import numpy as np
import pytest
import scipy.sparse as sp

import hdivkit.linsolve
import hdivkit.model_problems
from hdivkit import fields
from hdivkit.best_approx import error_report, global_best
from hdivkit.elements import lagrange_nodes, rtn_space
from hdivkit.local_solve import patch_layout
from hdivkit.mesh import build_lshape, build_structured
from hdivkit.model_problems import h1_best_global, manufactured_sine, solve_ls_mixed, solve_mixed
from hdivkit.projector import _projector_report
from hdivkit.quadpolicy import QuadPolicy
from test_batched_projector import stream_field
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
@pytest.mark.parametrize("p", [0, 2])
def test_repeated_calls_give_the_bits_of_a_fresh_mesh(name, labels, p):
    mesh = MESHES[name](labels)
    runs = [lambda m, v=v: _best(v, p, m) for v in (gradient_field(), stream_field())]
    if labels == "all-dirichlet":  # the model problems are all-Dirichlet
        runs += [lambda m: _mixed(manufactured_sine(m), p), lambda m: _ls(manufactured_sine(m), p)]
    for run in runs:
        first = run(mesh)
        assert _same(run(mesh), first)
        assert _same(run(MESHES[name](labels)), first)


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
    kept = rtn_space(prob.mesh, 1).multipliers
    for a in (kept.lam, kept.A.data, kept.A.indices, kept.A.indptr):
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
    # with its chunks and their surrogate numbering, the policy's samples and moments, the element
    # classes and class tables, the multiplier system and the
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
               layout, [chunk.surrogate(mesh) for chunk in layout.chunks],
               policy.values(), policy.values(div=True), policy.moments(), policy.div_moments(),
               space.classes, space.kkt_table, space.mass_table, space.multipliers,
               hdivkit.model_problems._ls_system(prob, p, p + 1)[:2]]
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
