"""The shared sparse assembly against the hand-written COO loops in
``tests/oracles.py``: given the same element blocks the matrices must agree
to the bit.  The least-squares blocks come from reference tables; they must
match per-element quadrature to roundoff."""

import numpy as np
import pytest

from hdivkit.elements import _coupling_reference, _stiffness_blocks, lagrange_grads_ref, rtn_space
from hdivkit.mesh import build_structured
from hdivkit.model_problems import manufactured_sine, solve_ls_mixed
from hdivkit.quadrature import quad_rule

from oracles import conforming_blocks_oracle, coo_oracle, ls_coupling_oracle


def _same(A, B):
    return A.shape == B.shape and np.array_equal(A.toarray(), B.toarray())


@pytest.mark.parametrize("labels", ["all-dirichlet", "left-neumann", "all-neumann"])
@pytest.mark.parametrize("p", [0, 1, 2])
def test_conforming_blocks_bit_identical(labels, p):
    space = rtn_space(build_structured(4, labels=labels), p)
    M, B, fidx = space.conforming_blocks()
    Mo, Bo, fo = conforming_blocks_oracle(space)
    assert np.array_equal(fidx, fo)
    assert _same(M, Mo)
    assert _same(B, Bo)
    if labels != "all-dirichlet":
        assert len(fidx) < space.ndof  # Neumann dofs really were dropped


@pytest.mark.parametrize("p,q", [(0, 1), (1, 2)])
def test_ls_blocks_bit_identical(unit_square_4, p, q):
    # G and S enter the assembled system on the free Lagrange nodes
    res = solve_ls_mixed(manufactured_sine(unit_square_4), p, q)
    ls, space = res["space"], rtn_space(unit_square_4, p)
    (A, _), nf, fr = res["system"], space.ndof, ls.free_index
    nodes, shape = ls._elem_nodes, (ls.n_nodes, ls.n_nodes)
    blocks = space.rows_to_elem(_coupling_reference(q, p)[None])
    G = coo_oracle(nodes, space.dof_map, blocks, (ls.n_nodes, space.ndof))
    assert _same(A[nf:, :nf], G[fr])
    rule = quad_rule(2 * q)
    S = _stiffness_blocks(ls.mesh, rule, np.stack(lagrange_grads_ref(ls.q, rule.points), axis=2))
    assert _same(A[nf:, nf:], coo_oracle(nodes, nodes, S, shape)[fr][:, fr])
    Go, So = ls_coupling_oracle(ls, space, p, q)
    for got, want in ((A[nf:, :nf], Go[fr]), (A[nf:, nf:], So[fr][:, fr])):
        assert np.abs((got - want).toarray()).max() <= 1e-13 * np.abs(want.toarray()).max()
