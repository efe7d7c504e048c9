"""Patch systems once per class against the stacked patch layer.

``build_patch_problem`` assembles the multiplier system S, and the
stability surrogate its (bordered) stiffness K, once per class of patches
whose systems agree to the bit; ``solve_stacked`` solves every patch
against its class matrix.  ``oracles.patch_layer_stacked_oracle`` keeps one
S and one K per patch.  The two agree to 1e-13 relative in sigma and in
every stability ratio, on meshes where classes repeat and on jittered ones
where each patch is its own class.
"""

import numpy as np
import pytest

import oracles
from hdivkit import local_solve
from hdivkit.linsolve import SingularSystemError, class_blocks, class_slots, solve_stacked
from hdivkit.local_solve import (build_patch_problem, patch_data, patch_layout, patch_stability_ratio,
                                 theta_field)
from hdivkit.mesh import build_lshape, build_structured
from hdivkit.projector import projector_report, random_conforming_field
from test_element_layer import jitter

LABELS = ("all-dirichlet", "left-neumann", "all-neumann")
MESHES = {
    "structured4": lambda labels: build_structured(4, labels=labels),
    "lshape2": lambda labels: build_lshape(2, labels=labels),
    "jittered-structured3": lambda labels: jitter(build_structured(3, labels=labels), 1),
    "jittered-lshape2": lambda labels: jitter(build_lshape(2, labels=labels), 2),
}
CASES = [(p, "def31") for p in range(7)] + [(p, "def52") for p in range(1, 7)]


@pytest.fixture(scope="module")
def meshes():
    return {(name, labels): make(labels) for name, make in MESHES.items() for labels in LABELS}


@pytest.mark.parametrize("p,variant", CASES)
@pytest.mark.parametrize("labels", LABELS)
@pytest.mark.parametrize("mesh_name", list(MESHES))
def test_class_path_matches_stacked_oracle(meshes, mesh_name, labels, p, variant):
    m = meshes[mesh_name, labels]
    v = random_conforming_field(m, p + 1, seed=p)
    sig = projector_report(v, p, m, variant=variant)["sigma"]
    dofs, ratios = oracles.patch_layer_stacked_oracle(v, p, m, variant=variant)
    assert np.linalg.norm(sig.dofs - dofs) <= 1e-13 * np.linalg.norm(dofs)
    got = np.array(sig.info["projector"].stability_ratios)
    assert np.all(np.abs(got - ratios) <= 1e-13 * ratios)
    # the patches of a structured or L-shape mesh fall into 14 multiplier
    # classes; jittered, only two corner patches of lshape:2 stay alike
    n_cls = len({(g.nl, g.tris.shape[1], g.kernel, c) for g in patch_layout(m, p).groups
                 for c in g.cls.tolist()})
    assert n_cls >= m.num_vertices - 1 if mesh_name.startswith("jittered") else n_cls == 14


@pytest.mark.parametrize("p", [1, 3])
def test_class_counts_are_the_distinct_oracle_systems(monkeypatch, p):
    # structured:32 has 1089 patches, but only 14 distinct multiplier
    # systems and 9 distinct surrogate systems.  In every chunk the class
    # path assembles one system per distinct oracle system, and each row's
    # class system is its oracle system to the bit
    m = build_structured(32)
    v = random_conforming_field(m, p + 1, seed=p)
    theta = theta_field(v, p, m)
    data = patch_data(theta, v, p, m)
    calls = []

    def record(A, b, blocks=None):
        calls.append((np.asarray(A), _classes(blocks, len(b))))
        return solve_stacked(A, b, blocks)

    monkeypatch.setattr(oracles, "solve_stacked", record)
    monkeypatch.setattr(local_solve, "solve_stacked", record)
    paths = ((oracles.build_patch_problem_stacked_oracle, oracles.patch_stability_ratio_stacked_oracle),
             (lambda g, p, m, d: build_patch_problem(g, theta, v, p, m, data=d), patch_stability_ratio))
    distinct = {"S": set(), "K": set()}
    for group in patch_layout(m, p).groups:
        x = np.zeros(data.chi[group.tris, group.local].shape)
        (oracle, ours) = [], []
        for (build, ratios), out in zip(paths, (oracle, ours)):
            problem = build(group, p, m, data)
            calls.clear()
            ratios(problem, x, m)
            out += [("S", problem.S, _classes(problem.blocks, len(x)))] + [("K", *call) for call in calls]
        assert len(oracle) == len(ours)
        for (kind, A, _), (_, C, cls) in zip(oracle, ours):
            assert len(C) == len({a.tobytes() for a in A})
            assert all(a.tobytes() == C[c].tobytes() for a, c in zip(A, cls))
            distinct[kind].update((c.shape, c.tobytes()) for c in C)
    assert [len(distinct["S"]), len(distinct["K"])] == [14, 9]


def _classes(blocks, n):
    """The class of each right-hand side of ``blocks``."""
    return np.arange(n) if blocks is None else blocks.cls[blocks.block]


def test_solve_stacked_solves_each_system_against_its_class():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((3, 5, 5)) + 5 * np.eye(5)
    cls = np.array([2, 0, 2, 2, 1, 2, 0, 2])
    b = rng.standard_normal((len(cls), 5, 2))
    slot, width = class_slots(cls)
    assert width == 3
    x = solve_stacked(A, b, class_blocks(cls, slot, width))
    want = np.linalg.solve(A[cls], b)
    assert np.abs(x - want).max() <= 1e-14 * np.abs(want).max()
    # every system is checked against its class matrix, and named
    bad = b.copy()
    bad[6, 0, 1] = np.nan
    with pytest.raises(SingularSystemError, match=r"\(system 6\)"):
        solve_stacked(A, bad, class_blocks(cls, slot, width))
    # with the places fixed, a right-hand side's bits do not depend on the
    # others solved with it
    for i in range(len(cls)):
        one = solve_stacked(A, b[i:i + 1], class_blocks(cls[i:i + 1], slot[i:i + 1], width))
        assert np.array_equal(one[0], x[i])
    # one class per right-hand side: the plain stacked solve, to the bit
    assert np.array_equal(solve_stacked(A[cls], b), np.linalg.solve(A[cls], b))
    want = np.linalg.solve(A[cls], b[..., :1])[..., 0]
    own = np.arange(len(cls))
    assert np.array_equal(solve_stacked(A[cls], b[..., 0], class_blocks(own, *class_slots(own))), want)
