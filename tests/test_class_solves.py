"""Element solves per affine class against the per-element stacked solves.

``linsolve.element_solve`` and ``linsolve.eliminate`` solve every element
system once per class of bitwise-equal c_k, in the reference frame, from
tables cached with the ``RTNSpace``.  ``oracles.use_stacked_element_solves``
routes the library back through one factorization per element of the
physical systems (stored M_k, formed Bdiv_k); the two agree to 1e-13
relative in theta, sigma, u and E_glob.  The error norms E_glob and E_loc
are differences ||v - sigma||: their roundoff is of the size of ||sigma||,
not of their value (up to 1e-11 of E = 4e-5 .. 1e-4 for the stream field
at p = 5, 6), so they are compared relative to max(E, ||sigma||).  On the
discrete field of degree p + 1, a genuine fit, E is of the size of
||sigma|| and that is their own value.
"""

import re

import numpy as np
import pytest

import oracles
from hdivkit import fields, linsolve
from hdivkit.best_approx import error_report
from hdivkit.elements import RTNSpace, rtn_space
from hdivkit.linsolve import SingularSystemError, element_solve, eliminate
from hdivkit.local_solve import theta_field
from hdivkit.mesh import Mesh, build_lshape, build_structured
from hdivkit.model_problems import manufactured_sine, solve_mixed
from hdivkit.projector import project_hdiv, random_conforming_field
from hdivkit.quadpolicy import QuadPolicy
from test_batched_projector import stream_field
from test_element_layer import jitter

TOL = 1e-13
LABELS = ("all-dirichlet", "left-neumann", "all-neumann")
MESHES = {
    "jittered-structured3": lambda labels: jitter(build_structured(3, labels=labels), 1),
    "jittered-lshape2": lambda labels: jitter(build_lshape(2, labels=labels), 2),
}
# every degree once; the mesh alternates and the labelling cycles, so each
# (mesh, labelling) pair comes up
CASES = [(p, sorted(MESHES)[p % 2], LABELS[p % 3]) for p in range(7)]


def _rel(got, want):
    return np.linalg.norm(np.asarray(got) - want) / max(np.linalg.norm(want), 1e-300)


def _results(v, p, mesh, mixed_mesh=None):
    sig = project_hdiv(v, p, mesh)
    rep = error_report(v, p, mesh, include_constrained=True)
    space = rtn_space(mesh, p)
    dofs = sig.dofs[space.dof_map]
    out = {
        "norm": np.sqrt(np.einsum("ki,kij,kj->", dofs, oracles.stacked_mass(mesh, p), dofs)),
        "theta": theta_field(QuadPolicy(p, mesh, v)).coeffs,
        "projector theta": sig.info["theta"].coeffs,
        "sigma": sig.dofs,
        "E_glob": rep.Eglob,
        "E_loc": rep.Eloc,
        "E_loc constrained": rep.Eloc_constrained,
    }
    if mixed_mesh is not None:  # the model problems are all-Dirichlet
        out["u"] = solve_mixed(manufactured_sine(mixed_mesh), p)["u"].coeffs
    return out


def _assert_agree(got, want):
    for key in want:
        scale = max(np.linalg.norm(want[key]), want["norm"] if key.startswith("E_") else 0.0)
        assert np.linalg.norm(got[key] - want[key]) <= TOL * scale, key


@pytest.mark.parametrize("field", ["discrete", "stream"])
@pytest.mark.parametrize("p,mesh_name,labels", CASES)
def test_class_solves_match_stacked_oracle(monkeypatch, p, mesh_name, labels, field):
    mesh = MESHES[mesh_name](labels)
    v = random_conforming_field(mesh, p + 1, seed=p) if field == "discrete" else stream_field()
    mixed_mesh = MESHES[mesh_name]("all-dirichlet")
    got = _results(v, p, mesh, mixed_mesh)
    with monkeypatch.context() as mp:
        oracles.use_stacked_element_solves(mp)
        want = _results(v, p, mesh, mixed_mesh)
    _assert_agree(got, want)


@pytest.mark.parametrize("p", [0, 3, 6])
def test_class_solves_match_stacked_oracle_on_corner_groups(monkeypatch, p):
    mesh = MESHES["jittered-lshape2"]("all-dirichlet")
    v = fields.catalog("lshape_singular", {"alpha": 2.0 / 3.0})
    got = _results(v, p, mesh)
    with monkeypatch.context() as mp:
        oracles.use_stacked_element_solves(mp)
        want = _results(v, p, mesh)
    _assert_agree(got, want)


def _data(space, r, seed=0):
    rng = np.random.default_rng(seed)
    n = len(space)
    return rng.standard_normal((n, space.ref.dim, r)), rng.standard_normal((n, space.sdim, r))


def test_repeated_classes_give_equal_bits(monkeypatch):
    mesh = build_structured(4)
    space = rtn_space(mesh, 3)
    rhs, g = _data(space, 2)
    first = eliminate(space, rhs, g)
    assert len(space.classes[1]) == 2 < mesh.num_triangles
    for a, b in zip(first, eliminate(space, rhs, g)):
        assert np.array_equal(a, b)
    monkeypatch.setattr(linsolve, "STACK_BYTES", 1)  # one element per chunk
    for a, b in zip(first, eliminate(space, rhs, g)):
        assert np.array_equal(a, b)
    v = stream_field()
    assert np.array_equal(project_hdiv(v, 3, mesh).dofs, project_hdiv(v, 3, mesh).dofs)


@pytest.mark.parametrize("p", range(7))
def test_mass_ref_rows_do_not_depend_on_the_other_rows(p):
    # numpy sends a one-row product to gemv, which rounds differently from
    # gemm: a row alone must get the bits it gets among the others
    for build in MESHES.values():
        space = rtn_space(build("left-neumann"), p)
        full = space.mass_ref(space.coef)
        for k in range(len(space)):
            assert np.array_equal(space.mass_ref(space.coef[[k]])[0], full[k]), k


@pytest.mark.parametrize("p", range(7))
def test_class_tables_do_not_depend_on_the_chunks(monkeypatch, p):
    def table():  # on a new mesh, which holds no space yet; a class per element
        return rtn_space(_jitter_every_vertex(build_structured(3, labels="left-neumann"), 7), p).kkt_table

    want = table()
    monkeypatch.setattr(linsolve, "STACK_BYTES", 1)  # one class per chunk
    for a, b in zip(table(), want):
        assert np.array_equal(a, b)


def _jitter_every_vertex(m, seed):
    """``m`` with every vertex, boundary ones too, moved by up to 0.1 of the
    shortest edge: no two triangles share their c_k."""
    h = np.linalg.norm(m.vertices[m.edges[:, 1]] - m.vertices[m.edges[:, 0]], axis=1).min()
    verts = m.vertices + np.random.default_rng(seed).uniform(-0.1, 0.1, m.vertices.shape) * h
    labels = [(tuple(e), lab) for e, lab in zip(m.edges, m.edge_label) if lab]
    return Mesh(verts, m.triangles, labels)


@pytest.mark.parametrize("p", [0, 2])
def test_mesh_without_repeats_runs_the_class_path(p):
    mesh = _jitter_every_vertex(build_structured(3, labels="left-neumann"), 7)
    space = rtn_space(mesh, p)
    rhs, g = _data(space, 1, seed=p)
    got = eliminate(space, rhs, g)
    assert len(space.kkt_table[0]) == mesh.num_triangles  # a class per element
    want = oracles.eliminate_oracle(space, rhs, g)
    for a, b in zip(got, want):
        assert _rel(a, b) <= TOL
    none, tris = np.empty((len(space), 0, 1)), np.arange(len(space))  # mass systems
    x, _ = element_solve(space, rhs, none, tris)
    assert _rel(x, oracles.element_solve_oracle(space, rhs, none, tris)[0]) <= TOL


@pytest.mark.parametrize("table", ["kkt_table", "mass_table"])
def test_poisoned_class_table_names_the_system(monkeypatch, table):
    mesh = build_structured(2)
    space = rtn_space(mesh, 1)
    inv, big = getattr(space, table)
    bad = inv.copy()
    bad[1, 0, 0] = np.nan
    monkeypatch.setattr(RTNSpace, table, property(lambda self: (bad, big)))
    rhs, g = _data(space, 1)
    if table == "mass_table":
        g = np.empty((len(space), 0, 1))
    with pytest.raises(SingularSystemError, match=r"residual nan \(system of element \d+, class 1\)") as err:
        element_solve(space, rhs, g, np.arange(len(space)))
    k = int(re.search(r"element (\d+)", str(err.value)).group(1))
    assert space.classes[0][k] == 1


@pytest.mark.parametrize("defect", [np.nan, 1e-5])
def test_edge_columns_are_checked_when_built(monkeypatch, defect):
    """An edge column of class 1's K(c)^{-1} goes wrong while the table is
    built.  The eliminations against zero data, whose solutions come from
    the edge columns alone (no residual of theirs is checked per call),
    raise before any use."""
    build = RTNSpace._class_table

    def poisoned(self, inverse, size, floor, checked):
        def bad(sl, A, out):
            inverse(sl, A, out)
            out[1 - sl.start, 3, 0] += defect  # class 1, edge column 0

        return build(self, bad, size, floor, checked)

    monkeypatch.setattr(RTNSpace, "_class_table", poisoned)
    space = rtn_space(build_structured(2), 1)
    rhs, g = np.zeros((len(space), space.ref.dim, 1)), np.zeros((len(space), space.sdim, 1))
    with pytest.raises(SingularSystemError, match=r"residual \S+ \(class 1, element \d+\)") as err:
        eliminate(space, rhs, g)
    k = int(re.search(r"element (\d+)", str(err.value)).group(1))
    assert space.classes[0][k] == 1
