import dataclasses

import numpy as np
import pytest

from conftest import x2_field, x3_field
from oracles import element, optimality_check, random_broken_field
from hdivkit import fields
from hdivkit.best_approx import (
    error_report,
    global_best,
    local_best,
    local_best_constrained,
)
from hdivkit.elements import RTNSpace, rtn_space, scalar_moments
from hdivkit.fields import FieldError
from hdivkit.mesh import build_lshape, build_structured
from hdivkit.model_problems import manufactured_sine
from hdivkit.projector import random_conforming_field
from hdivkit.quadpolicy import QuadPolicy
from hdivkit.quadrature import quad_rule


def test_member_has_zero_local_error(unit_square_2):
    vb = random_broken_field(unit_square_2, 1, seed=3)
    for k in range(unit_square_2.num_triangles):
        loc = local_best(vb, 1, unit_square_2, k)
        assert loc["E_loc"] < 1e-12 * max(1.0, np.abs(vb.coeffs[k]).max())


def test_div_part_frozen_value(ref_triangle_mesh):
    # v = (x^3, 0) at p = 0 on the reference triangle: the divergence misfit
    # is 0.175 exactly and the diameter is sqrt(2), so div_part^2 = 0.35
    loc = local_best(x3_field(), 0, ref_triangle_mesh, 0)
    assert abs(loc["div_part"] ** 2 - 0.35) < 1e-13


def test_l2_part_vs_normal_equation_oracle(ref_triangle_mesh):
    v = x2_field()
    loc = local_best(v, 0, ref_triangle_mesh, 0)
    # dense normal equations at high quadrature order
    space = rtn_space(ref_triangle_mesh, 0)
    el = element(space, 0)
    rule = quad_rule(30)
    pts = el.map_to_phys(rule.points)
    w = rule.weights * el.detB
    bv = el.basis_values_ref(rule.points)
    M = np.einsum("q,kqd,lqd->kl", w, bv, bv)
    b = np.einsum("q,kqd,qd->k", w, bv, v.eval(pts))
    c = np.linalg.solve(M, b)
    resid = v.eval(pts) - np.einsum("k,kqd->qd", c, bv)
    ref = np.sqrt(np.sum(w * np.einsum("qd,qd->q", resid, resid)))
    assert abs(loc["l2_part"] - ref) < 1e-12


def test_constrained_ge_unconstrained(unit_square_2):
    rng = np.random.default_rng(1)
    m = unit_square_2
    for trial in range(50):
        k = int(rng.integers(m.num_triangles))
        p = int(rng.integers(3))
        coeffs = rng.standard_normal((m.num_triangles, rtn_space(m, p + 1).elements[0].ndof))
        vb = random_broken_field(m, p + 1, seed=trial)
        lb = local_best(vb, p, m, k)
        lc = local_best_constrained(vb, p, m, k)
        assert lc["E_loc_c"] >= lb["E_loc"] - 1e-12


def test_constrained_zero_for_members(ref_triangle_mesh):
    vb = random_broken_field(ref_triangle_mesh, 2, seed=0)
    lc = local_best_constrained(vb, 2, ref_triangle_mesh, 0)
    assert lc["E_loc_c"] < 1e-12 * max(1.0, np.abs(vb.coeffs).max())


def test_p_robust_sweep(ref_triangle_mesh, exp_field):
    ratios = []
    for p in range(7):
        lb = local_best(exp_field, p, ref_triangle_mesh, 0)
        lc = local_best_constrained(exp_field, p, ref_triangle_mesh, 0)
        num = lc["l2_part"] + lc["div_part"]
        assert num >= lb["E_loc"] - 1e-12
        ratios.append(num / lb["E_loc"])
    r = np.array(ratios)
    assert r.max() / r.min() <= 1.5


def test_global_zero_for_conforming_members(unit_square_2):
    vh = random_conforming_field(unit_square_2, 1, seed=12)
    out = global_best(vh, 1, unit_square_2)
    assert out["Eglob"] < 1e-10 * np.linalg.norm(vh.dofs)


def test_ordering_global_ge_local(unit_square_2):
    for name in ("sine_divfree", "cubic"):
        v = fields.catalog(name)
        for p in (0, 1, 2):
            rep = error_report(v, p, unit_square_2)
            slack = rep.Eglob**2 - rep.sum_Eloc_sq
            assert slack >= -1e-9 * max(rep.Eglob**2, 1e-30)


def test_divergence_parts_identical(unit_square_2, cubic_field):
    rep = error_report(cubic_field, 1, unit_square_2)
    assert abs(rep.Eglob_div**2 - np.sum(rep.Eloc_div**2)) < 1e-12 * max(
        rep.Eglob_div**2, 1e-30
    )


def test_minimizer_first_order_optimality(unit_square_2, sine_field):
    out = global_best(sine_field, 1, unit_square_2)
    worst = optimality_check(sine_field, 1, unit_square_2, out["minimizer"])
    assert worst < 1e-9


def test_all_neumann_infeasible_field_rejected(exp_field):
    m = build_structured(2, labels="all-neumann")
    with pytest.raises(FieldError):
        global_best(exp_field, 1, m)


def test_all_neumann_kernel_path():
    m = build_structured(2, labels="all-neumann")
    vh = random_conforming_field(m, 1, seed=6)
    out = global_best(vh, 1, m)
    assert out["Eglob"] < 1e-10 * np.linalg.norm(vh.dofs)


def test_report_pm1_and_constrained(unit_square_2, sine_field):
    rep = error_report(
        sine_field, 1, unit_square_2, include_constrained=True, include_pm1=True
    )
    assert np.all(rep.Eloc_constrained >= rep.Eloc_l2 - 1e-12)
    assert np.all(rep.Eloc_pm1 >= rep.Eloc - 1e-12)  # coarser space is worse


@pytest.mark.parametrize(
    "name,mesh,p",
    [("sine_divfree", lambda: build_structured(2), 1), ("lshape_singular", lambda: build_lshape(1), 2)],
    ids=["structured2", "lshape1"],
)
def test_local_best_is_row_k_of_the_report_bitwise(name, mesh, p):
    # one element's fit is row k of the whole-mesh fits on the same samples
    m, v = mesh(), fields.catalog(name)
    rep = error_report(v, p, m, include_constrained=True)
    for k in range(m.num_triangles):
        lb, lc = local_best(v, p, m, k), local_best_constrained(v, p, m, k)
        assert (lb["l2_part"], lb["div_part"], lb["E_loc"]) == (rep.Eloc_l2[k], rep.Eloc_div[k], rep.Eloc[k])
        assert lc["E_loc_c"] == rep.Eloc_constrained[k]


@pytest.mark.parametrize("k", [-1, 8, 1.0, "0", True])
@pytest.mark.parametrize("fit", [local_best, local_best_constrained])
def test_local_best_rejects_a_bad_element_index(fit, k):
    with pytest.raises(ValueError, match=rf"k={k!r}.*8 triangles"):
        fit(fields.catalog("sine_divfree"), 1, build_structured(2), k)


def _field_on(name, mesh):
    """A catalog field, or ``sine_flux``: the flux of ``manufactured_sine``
    on ``mesh``, a field with a divergence."""
    return manufactured_sine(mesh).sigma if name == "sine_flux" else fields.catalog(name, {"alpha": 2 / 3})


@pytest.mark.parametrize("name", ["lshape_singular", "sine_flux"])
@pytest.mark.parametrize("p", [0, 2])
def test_error_report_reads_the_global_divergence_part_off_the_local_fits(monkeypatch, name, p):
    # div sigma is fixed elementwise by the constraint, so E_glob's
    # divergence part is sqrt(sum Eloc_div^2); error_report takes it from the
    # local fits and solves as global_best.  Both read the oscillation off
    # the P_p moments of div v the policy keeps (one contraction per group,
    # none for a divergence-free field, and no oscillation_sq pass)
    import hdivkit.best_approx as ba
    import hdivkit.quadpolicy as qp

    m = build_lshape(2)
    v = _field_on(name, m)
    contractions = []
    monkeypatch.setattr(qp, "scalar_moments", lambda *a: contractions.append(1) or scalar_moments(*a))
    want = 0 if v.divergence_free else len(QuadPolicy(p, m, v).groups())
    glob = global_best(v, p, m)
    assert len(contractions) == want
    contractions.clear()
    rep = error_report(v, p, m)
    assert not hasattr(ba, "oscillation_sq")
    assert len(contractions) == want
    assert (rep.Eglob_div == 0.0) == v.divergence_free
    assert rep.Eglob_div == np.sqrt(np.sum(rep.Eloc_div**2))
    assert (rep.Eglob_l2, rep.Eglob_div, rep.Eglob) == (glob["Eglob_l2"], glob["Eglob_div"], glob["Eglob"])


@pytest.mark.parametrize("p", [1, 2])
def test_global_best_and_error_report_agree_bit_for_bit(p):
    # both take the divergence part from one helper over the local
    # oscillations, so their sums round alike
    m = build_lshape(2)
    v = manufactured_sine(m).sigma
    glob, rep = global_best(v, p, m), error_report(v, p, m)
    assert glob["Eglob_div"] > 0
    assert (rep.Eglob_l2, rep.Eglob_div, rep.Eglob) == (glob["Eglob_l2"], glob["Eglob_div"], glob["Eglob"])


@pytest.mark.parametrize(
    "mesh", [lambda: build_structured(4), lambda: build_lshape(2)], ids=["structured4", "lshape2"]
)
@pytest.mark.parametrize("p", [0, 2])
def test_error_report_forms_the_element_moments_once_per_group(monkeypatch, mesh, p):
    # the unconstrained fits, the global solve and the constrained fits read
    # the RTN moments of v and the P_p moments of div v the policy keeps:
    # each is contracted once per group of the policy
    import hdivkit.quadpolicy as qp

    m = mesh()
    v = manufactured_sine(m).sigma
    rtn, div = [], []
    moments = RTNSpace.moments
    monkeypatch.setattr(RTNSpace, "moments", lambda self, *a: rtn.append(1) or moments(self, *a))
    monkeypatch.setattr(qp, "scalar_moments", lambda *a: div.append(1) or scalar_moments(*a))
    error_report(v, p, m, include_constrained=True)
    groups = len(QuadPolicy(p, m, v).groups())
    assert len(rtn) == groups and len(div) == groups


@pytest.mark.parametrize("p", [1, 2])
def test_a_member_at_its_own_degree_is_an_exact_zero(p):
    # both errors are roundoff (about 1e-14 on a unit-size field), so both
    # ratios read 0.0, as the study's exact-zero rows do
    m = build_structured(2)
    rep = error_report(random_conforming_field(m, p), p, m)
    assert rep.exact_zero
    assert rep.ratio_glob_over_loc == 0.0 and rep.ratio_loc_over_glob == 0.0


@pytest.mark.parametrize("c", [1e-12, 1e8])
def test_exact_zero_rule_is_relative_to_the_field(c):
    # v -> c v scales both errors by c: no scale turns a real error into an
    # exact zero, and the ratios do not move
    m = build_structured(2)
    v = fields.catalog("sine_divfree")
    w = dataclasses.replace(v, v=lambda x: c * v.eval(x), div=lambda x: c * v.eval_div(x))
    want, got = error_report(v, 1, m), error_report(w, 1, m)
    assert not got.exact_zero
    for ratio in ("ratio_glob_over_loc", "ratio_loc_over_glob"):
        assert getattr(want, ratio) > 0
        assert abs(getattr(got, ratio) - getattr(want, ratio)) <= 1e-12 * getattr(want, ratio)
