"""The shared sparse assembly against the hand-written COO loops in
``tests/oracles.py``: the matrices must agree to the bit."""

import numpy as np
import pytest

from hdivkit.elements import rtn_space
from hdivkit.mesh import build_structured
from hdivkit.model_problems import manufactured_sine, solve_ls_mixed

from oracles import conforming_blocks_oracle, ls_coupling_oracle


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
    res = solve_ls_mixed(manufactured_sine(unit_square_4), p, q)
    Go, So = ls_coupling_oracle(res["space"], rtn_space(unit_square_4, p), p, q)
    assert _same(res["blocks"]["G"], Go)
    assert _same(res["blocks"]["S"], So)
