"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 5 checks the paper's degree-robust variant of the equivalence as the
one-sided bound it is: E_glob(p)^2 <= Q sum_K E_loc,K(p-1)^2 over p = 1..5,
with one p-independent constant Q (the divergence terms of the bound vanish
for the divergence-free fields used).  The paper promises no lower bound, so
the quotient is not flat: a conforming member of degree p has E_glob(p) = 0
but E_loc(p-1) > 0, and for an analytic field the quotient decays with p by
the squared one-degree reduction of the local errors.  It is checked on the
analytic sine field and on the minimal-regularity L-shape field, whose
quotients climb towards the bound.
"""

import numpy as np
import pytest

import oracles
from conftest import x2_field, x3_field
from hdivkit import fields
from hdivkit.best_approx import error_report, global_best, local_best, local_best_constrained
from hdivkit.elements import rtn_space
from hdivkit.local_solve import theta_field
from hdivkit.mesh import build_lshape, build_structured, refine_uniform, vertex_patches
from hdivkit.model_problems import flux_error, manufactured_sine, solve_mixed
from hdivkit.projections import canonical_interp, project_scalar
from hdivkit.projector import project_hdiv, random_conforming_field
from hdivkit.quadpolicy import QuadPolicy
from hdivkit.quadrature import gauss01, quad_rule


def report(name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {name}: {detail}")
    return passed


# -- shared sweeps (session scope keeps the heavy solves single-run) ---------------


@pytest.fixture(scope="session")
def sine_sweep():
    """error_report for sine_divfree on n = 2, 4, 8, 16 at p = 0, 1, 2."""
    v = fields.catalog("sine_divfree")
    out = {}
    m = build_structured(2)
    meshes = [m]
    for _ in range(3):
        m = refine_uniform(m)
        meshes.append(m)
    for p in (0, 1, 2):
        out[p] = [(mm.h_max, error_report(v, p, mm)) for mm in meshes]
    return out


@pytest.fixture(scope="session")
def cubic_sweep():
    """error_report for cubic on per-degree windows (see criterion 3)."""
    v = fields.catalog("cubic")
    out = {}
    # the oscillation term of the non-solenoidal cubic field masks the L2
    # ratio on coarse meshes at low degree; the window shifts accordingly
    starts = {0: 8, 1: 4, 2: 2}
    for p in (0, 1, 2):
        m = build_structured(starts[p])
        meshes = [m]
        for _ in range(3):
            m = refine_uniform(m)
            meshes.append(m)
        out[p] = [(mm.h_max, error_report(v, p, mm)) for mm in meshes]
    return out


@pytest.fixture(scope="session")
def lshape_sweep():
    v = fields.catalog("lshape_singular", {"alpha": 2 / 3})
    out = {}
    m0 = build_lshape(2)
    meshes = [m0]
    for _ in range(3):
        meshes.append(refine_uniform(meshes[-1]))
    for p in (1, 2):
        out[p] = [(mm.h_max, error_report(v, p, mm)) for mm in meshes]
    return out


@pytest.fixture(scope="session")
def sine_pm1_sweep():
    """error_report with degree-(p-1) local errors for sine_divfree on
    structured:2 at p = 1..5 (criterion 5 and the variant projector)."""
    v = fields.catalog("sine_divfree")
    m = build_structured(2)
    return {p: error_report(v, p, m, include_pm1=True) for p in range(1, 6)}


# -- criterion 1: commuting property ------------------------------------------------


def test_criterion_1_commuting():
    worst = 0.0
    for n in (2, 4):
        m = build_structured(n)
        for p in range(4):
            for name in ("sine_divfree", "cubic", "lshape_singular", "random_rtn"):
                params = {"p": p, "seed": 3} if name == "random_rtn" else None
                v = fields.catalog(name, params, mesh=m)
                sig = project_hdiv(v, p, m)
                worst = max(worst, sig.info["projector"].commute_residual)
    assert report(
        "criterion 1 (commuting property)",
        worst <= 1e-10,
        f"worst relative residual {worst:.2e} <= 1e-10",
    )


# -- criterion 2: projection property ----------------------------------------------


def test_criterion_2_projection():
    worst = 0.0
    for labels, seeds in (("all-dirichlet", range(5)), ("left-neumann", range(5, 10))):
        m = build_structured(2, labels=labels)
        for p in range(4):
            for seed in seeds:
                vh = random_conforming_field(m, p, seed=seed)
                sig = project_hdiv(vh, p, m)
                err = np.linalg.norm(sig.dofs - vh.dofs) / np.linalg.norm(vh.dofs)
                worst = max(worst, err)
    assert report(
        "criterion 2 (projection property)",
        worst <= 1e-10,
        f"worst relative coefficient error {worst:.2e} <= 1e-10",
    )


# -- criterion 3: equivalence ordering and constants ---------------------------------


def test_criterion_3_equivalence(sine_sweep, cubic_sweep):
    worst_slack = 0.0
    spreads = []
    for sweep, fname in ((sine_sweep, "sine"), (cubic_sweep, "cubic")):
        for p, seq in sweep.items():
            ratios = []
            for h, rep in seq:
                slack = rep.Eglob**2 - rep.sum_Eloc_sq
                worst_slack = max(worst_slack, -slack / max(rep.Eglob**2, 1e-30))
                ratios.append(rep.ratio_glob_over_loc)
            spread = max(ratios) / min(ratios)
            spreads.append((fname, p, spread))
    ok = worst_slack <= 1e-9 and all(s <= 2.0 for _, _, s in spreads)
    detail = (
        f"ordering slack {worst_slack:.2e} <= 1e-9; spreads "
        + ", ".join(f"{f} p={p}: {s:.3f}" for f, p, s in spreads)
        + " (all <= 2)"
    )
    assert report("criterion 3 (equivalence constants)", ok, detail)


# -- criterion 4: hp rates ----------------------------------------------------------


def test_criterion_4_rates(sine_sweep, lshape_sweep):
    ok = True
    details = []
    for p, seq in sine_sweep.items():
        hs = [h for h, _ in seq][-3:]
        es = [rep.Eglob for _, rep in seq][-3:]
        slope = np.polyfit(np.log(hs), np.log(es), 1)[0]
        good = abs(slope - (p + 1)) <= 0.1
        ok = ok and good
        details.append(f"sine p={p}: slope {slope:.3f} vs {p + 1}")
    for p, seq in lshape_sweep.items():
        hs = [h for h, _ in seq][-3:]
        es = [rep.Eglob for _, rep in seq][-3:]
        slope = np.polyfit(np.log(hs), np.log(es), 1)[0]
        good = abs(slope - 2 / 3) <= 0.15
        ok = ok and good
        details.append(f"lshape p={p}: slope {slope:.3f} vs 0.667")
    # divergence-free fields carry no divergence contribution
    worst_div = 0.0
    for sweep in (sine_sweep, lshape_sweep):
        for seq in sweep.values():
            for _, rep in seq:
                worst_div = max(worst_div, rep.Eglob_div)
    ok = ok and worst_div <= 1e-12
    details.append(f"div part of divergence-free fields {worst_div:.1e} <= 1e-12")
    assert report("criterion 4 (hp rates)", ok, "; ".join(details))


# -- criterion 5: degree-robust variant (one-sided bound) ----------------------------

# Bound on E_glob(p)^2 / sum E_loc(p-1)^2 over p = 1..5.  A test constant: the
# paper proves that such a p-independent constant C' exists but gives no value.
DEGREE_ROBUST_Q = 2.0


def test_criterion_5_degree_robust_quotient(sine_pm1_sweep):
    """Degree-robust variant: E_glob(p)^2 <= Q sum_K E_loc,K(p-1)^2, p = 1..5.

    The paper bounds the global-best error of degree p by the local-best
    errors of degree p-1 (plus divergence terms, zero here) with a constant
    C' independent of p.  Q = DEGREE_ROBUST_Q is a test constant, not the
    paper's C', which is not given; one Q must hold for every p and field.

    Only an upper bound is promised, so the quotient need not be flat: a
    conforming member of degree p has E_glob(p) = 0 but E_loc(p-1) > 0
    (cubic at p = 3: 2e-15 against 9.5e-4), and for the analytic sine field
    the quotient decays with p by the squared one-degree reduction of the
    local errors.  The minimal-regularity L-shape field (alpha = 2/3), whose
    local errors barely improve from one degree to the next, drives the
    quotient up towards the bound.
    """
    v_sing = fields.catalog("lshape_singular", {"alpha": 2 / 3})
    m_sing = build_lshape(1)
    reps = {
        "sine_divfree/structured:2": sine_pm1_sweep,
        "lshape_singular/lshape:1": {
            p: error_report(v_sing, p, m_sing, include_pm1=True) for p in range(1, 6)
        },
    }
    quotients = {
        name: {p: rep.Eglob**2 / float(np.sum(rep.Eloc_pm1**2)) for p, rep in sweep.items()}
        for name, sweep in reps.items()
    }
    worst = max(max(qs.values()) for qs in quotients.values())
    passed = worst <= DEGREE_ROBUST_Q
    detail = "; ".join(
        f"{name} quotients " + ", ".join(f"p={p}: {q:.4g}" for p, q in qs.items())
        for name, qs in quotients.items()
    )
    assert report(
        "criterion 5 (degree-robust one-sided bound)",
        passed,
        f"{detail}; max {worst:.4g} (checked <= Q = {DEGREE_ROBUST_Q:g})",
    )


def test_degree_robust_variant_projector(sine_pm1_sweep):
    """Reduced-degree projector error against the degree-(p-1) local best.

    The paper bounds this quotient from above only, uniformly in p.  For the
    sine field it also stays within a factor 2 over p = 1..5; max/min <= 2 is
    checked as a regression guard on the def52 variant, not as a statement
    of the paper.
    """
    v = fields.catalog("sine_divfree")
    m = build_structured(2)
    quotients = []
    for p, rep in sine_pm1_sweep.items():
        sig = project_hdiv(v, p, m, variant="def52")
        policy = QuadPolicy(p, m, v)
        space = rtn_space(m, p)
        err2 = 0.0
        for k in range(m.num_triangles):
            el = oracles.element(space, k)
            tri, _, _ = policy.element_rules(el, key=("tri", k))
            pts = el.quad_points(tri)
            diff = v.eval(pts, elem=k) - sig.eval(pts, elem=k)
            err2 += el.norm_sq(diff, tri)
        quotients.append(err2 / float(np.sum(rep.Eloc_pm1**2)))
    vals = np.array(quotients)
    spread = vals.max() / vals.min()
    assert report(
        "degree-robust variant projector quotient",
        spread <= 2.0,
        f"quotients {[float(f'{q:.4f}') for q in quotients]}, max/min {spread:.2f} <= 2",
    )


# -- criterion 6: patch orthogonality ------------------------------------------------


def test_criterion_6_patch_orthogonality():
    m = build_structured(4)
    v = fields.catalog("cubic")
    worst = 0.0
    for p in range(3):
        theta = theta_field(QuadPolicy(p, m, v))
        space = rtn_space(m, p)
        rule = quad_rule(2 * p + 12)
        for patch in vertex_patches(m):
            if patch.kind != "interior":
                continue
            total = 0.0
            scale = 0.0
            for k in patch.tris:
                k = int(k)
                el = oracles.element(space, k)
                pts = el.map_to_phys(rule.points)
                w = rule.weights * el.detB
                hat = oracles.hat_values(patch, m, k, pts)
                grad = oracles.hat_grad(patch, m, k)
                dv = v.eval_div(pts)
                th = theta.eval(pts, elem=k)
                total += float(np.sum(w * hat * dv)) + float(np.sum(w * (th @ grad)))
                scale += float(np.sum(w * np.abs(hat * dv))) + float(
                    np.sum(w * np.abs(th @ grad))
                )
            worst = max(worst, abs(total) / max(scale, 1e-30))
    assert report(
        "criterion 6 (patch orthogonality)",
        worst <= 1e-9,
        f"worst interior-vertex residual {worst:.2e} <= 1e-9",
    )


# -- criterion 7: mixed characterization ---------------------------------------------


def test_criterion_7_mixed_characterization():
    worst = 0.0
    m = build_structured(2)
    meshes = [m, refine_uniform(m)]
    meshes.append(refine_uniform(meshes[-1]))
    for mm in meshes:
        prob = manufactured_sine(mm)
        for p in range(3):
            res = solve_mixed(prob, p)
            err = flux_error(prob, res["sigma"])
            glob = global_best(prob.sigma, p, mm)
            worst = max(worst, abs(err - glob["Eglob_l2"]) / glob["Eglob_l2"])
    assert report(
        "criterion 7 (mixed flux = constrained best)",
        worst <= 1e-8,
        f"worst relative defect {worst:.2e} <= 1e-8",
    )


# -- criterion 8: least-squares bounds -----------------------------------------------


def test_criterion_8_least_squares():
    from hdivkit.model_problems import apriori_checks

    worst_ratio = 0.0
    worst_slack = 0.0
    worst_coer = 0.0
    for n in (2, 4):
        for p, q in ((0, 1), (1, 1), (1, 2)):
            out = apriori_checks(
                manufactured_sine, p, q, [build_structured(n)]
            )[0]
            worst_ratio = max(worst_ratio, out["ls_ratio"])
            worst_slack = max(worst_slack, -out["div_bound_slack"])
            worst_coer = max(worst_coer, -out["coercivity_witness"])
    ok = worst_ratio <= 17.0 and worst_slack <= 1e-9 and worst_coer <= 1e-9
    assert report(
        "criterion 8 (least-squares bounds)",
        ok,
        f"max error ratio {worst_ratio:.3f} <= 17; divergence-bound slack "
        f">= -{worst_slack:.1e}; coercivity witness >= -{worst_coer:.1e}",
    )


# -- criterion 9: constrained-unconstrained equivalence on a simplex ------------------


def test_criterion_9_simplex_equivalence(ref_triangle_mesh, exp_field):
    ratios = []
    for p in range(7):
        lb = local_best(exp_field, p, ref_triangle_mesh, 0)
        lc = local_best_constrained(exp_field, p, ref_triangle_mesh, 0)
        num = lc["l2_part"] + lc["div_part"]
        assert num >= lb["E_loc"] - 1e-12  # lower bound with constant one
        ratios.append(num / lb["E_loc"])
    r = np.array(ratios)
    spread = r.max() / r.min()
    assert report(
        "criterion 9 (p-robust constrained/unconstrained)",
        spread <= 1.5,
        f"ratios {[float(f'{x:.4f}') for x in ratios]}, max/min {spread:.3f} <= 1.5",
    )


# -- criterion 10: oracle equivalence -------------------------------------------------


def test_criterion_10_oracles(ref_triangle_mesh, unit_square_2):
    details = []
    ok = True
    # element KKT vs null-space oracle
    v = x2_field()
    theta = local_best_constrained(v, 0, ref_triangle_mesh, 0)["coeffs"]
    ref = oracles.element_kkt_oracle(ref_triangle_mesh, 0, 0, v.eval, v.eval_div)
    e1 = np.abs(theta - ref).max()
    ok &= e1 < 1e-12
    details.append(f"element KKT {e1:.1e}")
    # patch KKT vs oracle
    from hdivkit.local_solve import build_patch_problem, patch_data, patch_equilibrate, patch_layout

    cubic = fields.catalog("cubic")
    th = theta_field(QuadPolicy(0, unit_square_2, cubic))
    patch = [p for p in vertex_patches(unit_square_2) if p.kind == "interior"][0]
    layout = patch_layout(unit_square_2, 0)
    prob = build_patch_problem(layout, oracles.chunk_of(layout, patch.vertex),
                               patch_data(th, QuadPolicy(0, unit_square_2, cubic)))
    x, _ = patch_equilibrate(prob)
    s, ps = oracles.patch_oracle(unit_square_2, patch, 0, th.coeffs, prob.chi, prob.g)
    sref = oracles.elem_rows(ps, s)
    e2 = np.abs(x - sref).max() / max(1.0, np.abs(sref).max())
    ok &= e2 < 1e-10
    details.append(f"patch KKT {e2:.1e}")
    # face projection vs dense 1D least squares
    m = ref_triangle_mesh
    e = [e for e in range(m.num_edges) if set(m.edges[e]) == {1, 2}][0]
    n = m.edge_normal(e)
    g = lambda pts: cubic.eval(pts) @ n
    from hdivkit.elements import edge_dof_values
    from hdivkit.projections import project_face

    coeffs = project_face(g, 1, m, e)
    t, w = gauss01(40)
    vals = coeffs @ edge_dof_values(1, t, m.edge_length(e))
    refvals = oracles.edge_projection_oracle(m, e, g, 1)
    e3 = np.abs(vals - refvals).max()
    ok &= e3 < 1e-12
    details.append(f"face projection {e3:.1e}")
    # scalar projection frozen values
    out = project_scalar(lambda pts: 3 * pts[:, 0] ** 2, 0, m, quad_degree=8)
    mean = out.eval_element(0, [[0.2, 0.2]])[0]
    rule = quad_rule(8)
    resid = 3 * rule.points[:, 0] ** 2 - out.eval_element(0, rule.points)
    misfit = float(np.sum(rule.weights * resid**2))
    e4 = max(abs(mean - 0.5), abs(misfit - 0.175))
    ok &= e4 < 1e-12
    details.append(f"scalar projection frozen values {e4:.1e}")
    # interpolation fluxes of (x^2, 0)
    iv = canonical_interp(x2_field(), 0, m)
    space = rtn_space(m, 0)
    el = oracles.element(space, 0)
    t6, w6 = gauss01(6)
    fluxes = {}
    for slot in range(3):
        refpts = el._edge_ref_points(slot, t6)
        vn = el.eval_coeffs(iv.coeffs[0], el.map_to_phys(refpts)) @ el.edge_normal[slot]
        fluxes[slot] = el.edge_len[slot] * float(np.sum(w6 * vn))
    want = [0.0, 1 / 3, 0.0]  # slots: hypotenuse is slot 0 (opposite vertex 0)
    e5 = max(abs(fluxes[0] - 1 / 3), abs(fluxes[1]), abs(fluxes[2]))
    ok &= e5 < 1e-13
    details.append(f"interp fluxes {e5:.1e}")
    # end-to-end projector on n = 2 vs doubled-quadrature dense path
    sig = project_hdiv(cubic, 0, unit_square_2)
    policy = QuadPolicy(0, unit_square_2, cubic)
    err2 = 0.0
    for k in range(unit_square_2.num_triangles):
        el = oracles.element(rtn_space(unit_square_2, 0), k)
        tri, _, _ = policy.element_rules(el, key=("tri", k))
        pts = el.quad_points(tri)
        diff = cubic.eval(pts, elem=k) - sig.eval(pts, elem=k)
        err2 += el.norm_sq(diff, tri)
    ref_err, _ = oracles.projector_oracle(cubic, 0, unit_square_2)
    e6 = abs(np.sqrt(err2) - ref_err) / ref_err
    ok &= e6 < 1e-9
    details.append(f"end-to-end projector {e6:.1e}")
    # global best equals dense mixed path on n = 2: covered by criterion 7 at
    # n = 2; local-best div part frozen value
    loc = local_best(x3_field(), 0, ref_triangle_mesh, 0)
    e7 = abs(loc["div_part"] ** 2 - 0.35)
    ok &= e7 < 1e-13
    details.append(f"local div part {e7:.1e}")
    assert report("criterion 10 (oracle equivalence)", bool(ok), "; ".join(details))
