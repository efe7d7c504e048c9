"""The hybrid patch solves against the per-patch oracle.

``build_patch_problem`` / ``patch_equilibrate`` solve each vertex patch as
element eliminations shared by the three patches of every triangle plus one
small system in the patch's edge multipliers.  The reference is the loop
assembly of ``oracles.build_patch_problem_oracle`` solved by one dense
Bunch-Kaufman KKT solve (``oracles.saddle_solve_dense``, bordered on kernel
patches), on the library's own patch data, so the two differ only in the
solve.
"""

import numpy as np
import pytest

import oracles
from hdivkit.elements import rtn_space
from hdivkit.local_solve import build_patch_problem, patch_data, patch_equilibrate, patch_layout, theta_field
from hdivkit.mesh import Mesh, build_lshape, build_structured, vertex_patches
from hdivkit.projector import project_hdiv, random_conforming_field
from hdivkit.quadpolicy import QuadPolicy
from test_element_layer import jitter

TOL = 1e-13


def _check_patches(m, p, v):
    """Every patch of ``m`` at degree p against the oracle; returns the
    layout's signatures."""
    policy = QuadPolicy(p, m, v)
    theta = theta_field(policy)
    data = patch_data(theta, policy)
    patches = vertex_patches(m)
    layout = patch_layout(m, p)
    for chunk in layout.chunks:
        problem = build_patch_problem(layout, chunk, data)
        x, lam = patch_equilibrate(problem)
        assert lam.shape == (chunk.eqs.stop - chunk.eqs.start,)
        for run, (verts, xs) in zip(chunk.runs, oracles.run_fluxes(layout, chunk, x)):
            # each patch of the run owns nl equations, patch after patch
            eq = layout.eq[chunk.patches][run.patches]
            assert np.array_equal(eq, run.eqs.start + run.nl * np.arange(run.n)) and run.eqs.stop == eq[-1] + run.nl
            for a, xa, chi in zip(verts, xs, problem.chi[run.pairs].reshape(run.n, run.nt, -1)):
                want = oracles.build_patch_problem_oracle(patches[a], p, m, data)
                assert run.nl == run.nt * rtn_space(m, p).ref.dim - want.pspace.ndof
                s, _ = oracles.saddle_solve_dense(want.M, want.B, want.rhs, want.grhs, kernel=want.kernel)
                ref, act = oracles.elem_rows(want.pspace, s), oracles.elem_maps(want.pspace) >= 0
                assert xa.shape == ref.shape
                assert np.linalg.norm(xa[act] - ref[act]) <= TOL * np.linalg.norm(ref), (int(a), patches[a].kind)
                # the pinned slots vanish to the roundoff of the target
                assert np.linalg.norm(xa[~act]) <= TOL * np.linalg.norm(chi), (int(a), patches[a].kind)
    return oracles.signature_rows(layout)


def _scaled(m, c):
    labels = [(tuple(e), lab) for e, lab in zip(m.edges, m.edge_label) if lab]
    return Mesh(c * m.vertices, m.triangles, labels)


@pytest.mark.parametrize("p", range(7))
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("labels", ["all-dirichlet", "left-neumann", "all-neumann"])
def test_patches_match_the_oracle(labels, scale, p):
    # all-Neumann: every patch is a kernel patch
    m = _scaled(jitter(build_structured(2, labels=labels), 3), scale)
    _check_patches(m, p, random_conforming_field(m, p + 1, seed=p))


@pytest.mark.parametrize("p", [0, 1])
def test_one_triangle_neumann_corner(p):
    # the corner vertex of lshape:4 has one triangle and only pinned edges;
    # at p = 0 its patch has no free dof at all
    m = build_lshape(4, labels="all-neumann")
    v = random_conforming_field(m, p + 1, seed=5)
    signatures = _check_patches(m, p, v)
    corner = [g for g in signatures if g.tris.shape[1] == 1]
    assert corner and all(g.kernel for g in corner)
    assert all(g.nl == rtn_space(m, p).ref.dim for g in corner) == (p == 0)
    assert project_hdiv(v, p, m).info["projector"].commute_residual <= 1e-10


@pytest.mark.parametrize("p", range(4))
def test_bowtie_vertex(p):
    # vertex 0 joins two triangles at a point and shares a signature with
    # the two-triangle fans of vertices 1 and 2
    edges = [(0, 1), (1, 3), (3, 2), (2, 0), (0, 4), (4, 5)]
    labels = [(e, "dirichlet") for e in edges] + [((0, 5), "neumann")]
    m = Mesh([(0, 0), (1, 0), (0, 1), (1, 1), (-1, 0), (0, -1)], [(0, 1, 2), (1, 3, 2), (0, 4, 5)], labels)
    layout = patch_layout(m, p)
    assert oracles.signature_rows(layout)[oracles.patch_place(layout, 0)[0]].verts.tolist() == [0, 1, 2]
    v = random_conforming_field(m, p + 1, seed=p)
    _check_patches(m, p, v)
    want = oracles.project_hdiv_oracle(v, p, m)
    got = project_hdiv(v, p, m).dofs
    assert np.linalg.norm(got - want["dofs"]) <= TOL * np.linalg.norm(want["dofs"])


def test_patch_system_size_is_the_largest_multiplier_system():
    # two multipliers per triangle and degree at an interior vertex:
    # 2 * 6 * 7 = 84 at p = 6 on structured:4
    m = build_structured(4)
    info = project_hdiv(random_conforming_field(m, 6, seed=1), 6, m).info["projector"]
    assert info.patch_system_size == 84
