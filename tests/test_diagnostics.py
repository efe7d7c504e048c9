"""The projector's diagnostics on the stacked tables against the loops in
``tests/oracles.py``: normal-trace residuals from edge points read through
``QuadGroup.at``, and ``projector_report``'s neighborhood sums from the
triangle-vertex incidence."""

import numpy as np
import pytest

import oracles
from hdivkit.mesh import Mesh, build_lshape, build_structured
from hdivkit.projections import random_broken_field
from hdivkit.projector import ConformingRTNField, projector_report, random_conforming_field

MESHES = {
    "structured4-left-neumann": lambda: build_structured(4, labels="left-neumann"),
    "lshape2-all-neumann": lambda: build_lshape(2, labels="all-neumann"),
}


class JumpingField(ConformingRTNField):
    """A conforming field whose elements read independent coefficient rows,
    so its normal traces jump across edges and do not vanish on Neumann
    edges."""

    def __init__(self, mesh, p, rows):
        super().__init__(mesh, p)
        self.rows = rows

    def element_coeffs(self, tris):
        return self.rows[tris]


def jumping(mesh, p, seed):
    return JumpingField(mesh, p, random_broken_field(mesh, p, seed=seed).coeffs)


@pytest.mark.parametrize("name", MESHES)
@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_trace_residuals_match_edge_loop(name, p):
    m = MESHES[name]()
    for field in (random_conforming_field(m, p, seed=p), jumping(m, p, seed=p)):
        want = oracles.trace_residuals_oracle(field)
        got = (field.jump_residual(), field.neumann_trace_residual())
        for g, w in zip(got, want):
            # unit-normal dofs give O(1) traces: 1e-13 absolute is roundoff
            assert abs(g - w) <= 1e-13 * max(w, 1.0)


def test_jump_residual_detects_a_jump():
    # both sides read from one triangle would give 0 here
    m = build_lshape(2, labels="left-neumann")
    field = jumping(m, 0, seed=3)
    jump, neumann = field.jump_residual(), field.neumann_trace_residual()
    assert (jump, neumann) == pytest.approx(oracles.trace_residuals_oracle(field), rel=1e-13)
    assert jump == pytest.approx(4.2338, abs=1e-4)
    assert neumann == pytest.approx(0.5841, abs=1e-4)


def test_residuals_of_empty_edge_sets():
    one = Mesh(
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        [[0, 1, 2]],
        [((0, 1), "neumann"), ((1, 2), "neumann"), ((0, 2), "dirichlet")],
    )
    field = jumping(one, 1, seed=0)
    assert field.jump_residual() == 0.0  # no interior edge
    assert field.neumann_trace_residual() > 0.1
    field = jumping(build_structured(2), 1, seed=0)
    assert field.neumann_trace_residual() == 0.0  # no Neumann edge
    assert field.jump_residual() > 0.1


@pytest.mark.parametrize("name", MESHES)
@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_projector_report_matches_neighborhood_loop(name, p):
    m = MESHES[name]()
    v = random_conforming_field(m, p + 1, seed=p)
    got = projector_report(v, p, m)["records"]
    want = oracles.projector_report_oracle(v, p, m)
    assert len(got) == len(want) == m.num_triangles
    for g, w in zip(got, want):
        assert g.keys() == w.keys()
        assert g["element"] == w["element"]
        assert g["lhs_sq"] == w["lhs_sq"]
        for key in w:
            assert g[key] == pytest.approx(w[key], rel=1e-14, abs=0.0)
    assert max(r["neighborhood_locbest_sq"] for r in want) > 0
