import dataclasses
import json
import re

import numpy as np
import pytest

from hdivkit.fields import parse_field_spec
from hdivkit.projector import projector_report
from hdivkit.study import (
    CSV_COLUMNS,
    ConfigError,
    StudyConfig,
    build_mesh,
    fit_rate,
    run_study,
    verify,
)


def test_fit_rate_exact_geometric():
    fit = fit_rate([1e-1, 2.5e-2, 6.25e-3], [1.0, 0.5, 0.25], "h_slope")
    assert abs(fit.slope - 2.0) < 1e-12


def test_fit_rate_constant():
    fit = fit_rate([3.0, 3.0, 3.0], [1.0, 0.5, 0.25], "h_slope")
    assert abs(fit.slope) < 1e-12


def test_fit_rate_noisy_seeded():
    rng = np.random.default_rng(123)
    hs = np.array([1.0, 0.5, 0.25, 0.125, 0.0625])
    errs = hs**1.5 * (1 + 0.01 * rng.standard_normal(len(hs)))
    fit = fit_rate(errs, hs, "h_slope")
    assert abs(fit.slope - 1.5) < 0.05


def test_fit_rate_needs_three_points():
    with pytest.raises(ValueError):
        fit_rate([1.0, 0.5], [1.0, 0.5])


def test_fit_rate_p_exponential():
    ps = np.arange(1, 6)
    errs = 10.0 * np.exp(-0.8 * ps)
    fit = fit_rate(errs, ps, "p_exponential")
    assert abs(fit.slope + 0.8) < 1e-10


def test_run_study_csv_schema_and_reproducibility(tmp_path):
    cfg = dict(
        field="cubic",
        mesh="structured:2",
        refinements=3,
        degrees=[0, 1],
        out_dir=str(tmp_path / "a"),
        run_projector=True,
    )
    s1 = run_study(StudyConfig(**cfg))
    cfg["out_dir"] = str(tmp_path / "b")
    s2 = run_study(StudyConfig(**cfg))
    b1 = open(s1["csv_path"], "rb").read()
    b2 = open(s2["csv_path"], "rb").read()
    assert b1 == b2
    header = b1.decode().splitlines()[0].split(",")
    assert header == CSV_COLUMNS
    assert "np.float64" not in b1.decode()  # plain decimal formatting
    # summary JSON exists and carries fits + checks
    summary = json.load(open(str(tmp_path / "a" / "summary.json")))
    assert "fits" in summary and "checks" in summary


def test_run_study_samples_the_field_once_per_row(tmp_path, monkeypatch):
    # error_report and projector_report share the row's quadrature policy:
    # v is sampled once on its groups, 8 triangles x 81 points at p = 1,
    # not once per report (1296)
    import hdivkit.fields as fields

    counted = []

    def counting_field(spec, mesh=None):
        field = parse_field_spec(spec, mesh=mesh)
        return dataclasses.replace(field, v=lambda pts: counted.append(len(pts)) or field.v(pts))

    monkeypatch.setattr(fields, "parse_field_spec", counting_field)
    run_study(StudyConfig(mesh="structured:2", refinements=1, degrees=[1], out_dir=str(tmp_path)))
    assert sum(counted) == 648


def test_run_study_fits_the_field_once_per_row(tmp_path, monkeypatch):
    # error_report and projector_report share the row's local fits: one
    # fit per (policy, constrained), not one per report
    import hdivkit.best_approx as best_approx

    calls, fit = [], best_approx._local_fits

    def counting_fits(policy, constrained=False):
        calls.append((policy, constrained))  # holds the policy, so its id stays its own
        return fit(policy, constrained)

    monkeypatch.setattr(best_approx, "_local_fits", counting_fits)
    s = run_study(StudyConfig(mesh="structured:2", refinements=2, degrees=[1, 2], out_dir=str(tmp_path)))
    keys = [(id(policy), constrained) for policy, constrained in calls]
    assert len(s["rows"]) == 4 and len(set(keys)) == len(keys) == 4


def test_run_study_discrete_member_zero_sentinel(tmp_path):
    cfg = StudyConfig(
        field="random_rtn:p=1,seed=0",
        mesh="structured:2",
        refinements=1,
        degrees=[1],
        out_dir=str(tmp_path),
        run_projector=False,
    )
    s = run_study(cfg)
    row = s["rows"][0]
    assert row["notes"] == "exact-zero"
    assert row["ratio_glob_over_loc"] == 0.0
    assert row["E_glob"] < 1e-9


def test_discrete_field_study_fits_no_h_rate(tmp_path):
    # random_rtn draws an independent member on every level, so there is no
    # h-rate to fit; the equivalence-ratio and ordering checks still run
    s = run_study(StudyConfig(field="random_rtn:p=2", labels="all-neumann", refinements=3, degrees=[1, 2, 3],
                              out_dir=str(tmp_path)))
    names = [c["name"] for c in s["checks"]]
    assert s["ok"] and not s["fits"]
    assert not any(n.startswith("h-rate") for n in names)
    assert "equivalence ratio stability p=1" in names and "ordering level=2 p=1" in names


def test_field_spec_parameters_set_the_predicted_rate(tmp_path):
    # the predicted h-rate min(s, p + 1) reads alpha from the field spec
    a = run_study(StudyConfig(field="lshape_singular:alpha=0.5", mesh="lshape:1", refinements=3, degrees=[0],
                              run_projector=False, out_dir=str(tmp_path)))
    rate = next(c for c in a["checks"] if c["name"] == "h-rate p=0")
    assert rate["expected"] == 0.5


def test_invalid_config():
    with pytest.raises(ValueError):
        StudyConfig(refinements=0).validate()
    with pytest.raises(ValueError):
        StudyConfig(variant="nope").validate()
    for seed in (-1, 1.5):
        with pytest.raises(ConfigError, match="seed"):
            verify(seed=seed)
    with pytest.raises(ConfigError, match="variant"):
        verify(variant="nope")


@pytest.mark.parametrize("key,value", [("seed", 0), ("tol", 1e-3), ("field_params", {"alpha": 0.5})])
def test_config_with_a_dropped_setting_is_refused_by_name(tmp_path, key, value):
    # none is a study setting: verify takes its seed, the ordering check
    # keeps its tolerance, and the field spec carries its parameters
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: value}))
    with pytest.raises(ConfigError) as exc:
        StudyConfig.from_json(path)
    assert len(str(exc.value).splitlines()) == 1 and key in str(exc.value)


def test_repeated_degree_is_refused_before_any_work(tmp_path):
    # a repeated degree would compute its rows twice and fit the h-rate to
    # repeated levels
    with pytest.raises(ConfigError, match=re.escape("degrees must not repeat, got [1, 1]")):
        run_study(StudyConfig(degrees=[1, 1], refinements=2, out_dir=str(tmp_path / "out")))
    assert not (tmp_path / "out").exists()


def test_build_mesh_specs(tmp_path):
    m = build_mesh("structured:3")
    assert m.num_triangles == 18
    m = build_mesh("lshape:1")
    assert m.num_triangles == 6
    from hdivkit.mesh import save_mesh

    path = tmp_path / "m.json"
    save_mesh(m, path)
    m2 = build_mesh(str(path))
    assert m2.num_triangles == m.num_triangles


@pytest.fixture(scope="module")
def battery():
    return verify()


def test_verify_battery_passes(battery):
    failed = [r for r in battery if not r.passed]
    assert not failed, failed


def test_verify_records_the_margins_it_checks(battery):
    # the divergence bound slack and the coercivity witness are recorded
    # negated, so a pass prints the margin by which it holds
    from hdivkit.mesh import build_structured
    from hdivkit.model_problems import apriori_checks, manufactured_sine

    res = apriori_checks(manufactured_sine, 1, 1, [build_structured(4)])[0]
    got = {r.name: r.value for r in battery}
    assert got["coercivity witness nonnegative"] == -res["coercivity_witness"] < 0
    assert got["divergence bound slack"] == -res["div_bound_slack"] < 0


def test_def52_study_fits_at_the_quadrature_degree_asked_for(tmp_path):
    # def52 fits on a degree p - 1 policy of its own: it must take the
    # study's quadrature degree, as ``project --quad-degree`` does
    cfg = StudyConfig(mesh="structured:2", refinements=1, degrees=[1], variant="def52", quad_degree=4,
                      out_dir=str(tmp_path))
    row = run_study(cfg)["rows"][0]
    m = build_mesh(cfg.mesh)
    field = parse_field_spec(cfg.field, mesh=m)
    for degree, same in ((4, True), (None, False)):
        rep = projector_report(field, 1, m, variant="def52", quad_degree=degree)
        got = (np.sqrt(sum(r["lhs_sq"] for r in rep["records"])), rep["commute_residual"], max(rep["stability_ratios"]))
        assert (got == (row["proj_err"], row["commute_res"], row["stability_C"])) is same
