"""Self-tests of the benchmark: metric names, repeatable counts, the oracle.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import hdivkit as hk
from perfbench import oracle, run, runner, workloads

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# one cheap template per workload keeps a run to a few seconds
TINY = {
    "project": ("project_hdiv:s8/ln:p1:discrete:def31", "projector_report:l4/ad:p0:stream:def31"),
    "global": ("solve_mixed:s32/ad:p0:poisson",),
    "high-p": ("error_report:l1/ad:p4:singular", "project_hdiv:l1/an:p4:discrete:def52"),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink each workload to its TINY templates and keep outputs in tmp_path."""
    for name, keep in TINY.items():
        wl = workloads.WORKLOADS[name]
        templates = tuple({t.name: t for t in wl.templates if t.name in keep}.values())
        assert len(templates) == len(keep), f"{name}: TINY names a template that is gone"
        meshes = {t.mesh: wl.meshes[t.mesh] for t in templates}
        monkeypatch.setitem(workloads.WORKLOADS, name, workloads.Workload(meshes, templates))
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(run, "OUT", tmp_path)


def _args(name, trace, seed=1):
    return argparse.Namespace(workload=name, seed=seed, seconds=0.0, trace=trace)


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCH[kind]}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_run_emits_exactly_the_declared_metrics(tiny, name):
    _, summary, metrics = run.untraced_run(_args(name, 0))
    assert {k: m["unit"] for k, m in metrics.items()} == _declared("end_to_end")
    assert summary["unexplained_failures"] == 0
    _, _, metrics = run.traced_run(_args(name, 1))
    assert {k: m["unit"] for k, m in metrics.items()} == _declared("per_layer")


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)


def test_traced_counts_repeat_for_one_seed(tiny):
    counts = []
    for _ in range(2):
        _, _, metrics = run.traced_run(_args("project", 1, seed=7))
        counts.append({k: m["value"] for k, m in metrics.items()
                       if m["unit"] in ("count", "flop") or k == "quadpolicy.cache_hit_ratio"})
    assert counts[0] == counts[1]
    assert counts[0]["local_solve.build_patch_problem.calls"] > 0
    assert counts[0]["linsolve.sparse_factor.calls"] == 0


def test_perturbed_projector_result_counts_as_failed(monkeypatch):
    mesh = hk.build_structured(2)
    t = workloads.Template("project_hdiv", "m", 1, "discrete")
    x = workloads.make_inputs(t, mesh, np.random.default_rng(3))
    sigma = workloads.call("project_hdiv", t, mesh, x)
    assert all(c.passed for c in oracle.check("project_hdiv", t, x, sigma, mesh))

    real_call = workloads.call

    def perturbed(name, t, mesh, x, prev=None):
        out = real_call(name, t, mesh, x, prev)
        out.dofs = out.dofs + 1e-6 * np.random.default_rng(0).standard_normal(len(out.dofs))
        return out

    monkeypatch.setattr(workloads, "call", perturbed)
    monkeypatch.setitem(
        workloads.WORKLOADS, "perturbed",
        workloads.Workload({"m": ("structured", 2, "all-dirichlet")}, (t,)),
    )
    records = runner.run_cycle("perturbed", {"m": mesh}, [(t, x)], 0)
    failed = {c.name for c in records[0].checks if not c.passed}
    assert failed == {"commute", "reproduction"}
    summary = runner.summarize(records)
    assert summary["failed"] == 1 and summary["unexplained_failures"] == 1


def test_known_defects_are_counted_not_hidden(monkeypatch):
    mesh = hk.build_structured(2, labels="all-neumann")
    t = workloads.Template("project_hdiv", "m", 0, "discrete")
    x = workloads.make_inputs(t, mesh, np.random.default_rng(1))
    monkeypatch.setitem(
        workloads.WORKLOADS, "neumann-p0",
        workloads.Workload({"m": ("structured", 2, "all-neumann")}, (t,)),
    )
    recs = runner.run_cycle("neumann-p0", {"m": mesh}, [(t, x)], 0)
    assert recs[0].error.startswith("CompatibilityError")
    assert recs[0].known_defect == "all-neumann-p0"
    assert runner.summarize(recs)["failed"] == 1


def test_exact_zero_defect_covers_only_discrete_members(monkeypatch):
    for field, expected in (("discrete", "high-p-exact-zero"), ("stream", None),
                            ("singular", None)):
        t = workloads.Template("error_report", "m", 5, field)
        assert oracle.known_defect("error_report", t, "all-dirichlet", None, ["ordering"]) == expected

    # a report of a stream field at p=5 whose E_glob^2 falls short of sum E_loc^2
    mesh = hk.build_structured(2)
    t = workloads.Template("error_report", "m", 5, "stream")
    x = workloads.make_inputs(t, mesh, np.random.default_rng(5))
    broken = SimpleNamespace(Eglob=0.5, sum_Eloc_sq=1.0, Eloc_constrained=None,
                             metadata={"kkt_residual": 0.0})
    monkeypatch.setattr(workloads, "call", lambda *args: broken)
    monkeypatch.setitem(
        workloads.WORKLOADS, "ordering",
        workloads.Workload({"m": ("structured", 2, "all-dirichlet")}, (t,)),
    )
    recs = runner.run_cycle("ordering", {"m": mesh}, [(t, x)], 0)
    assert [c.name for c in recs[0].checks if not c.passed] == ["ordering"]
    assert recs[0].known_defect is None
    assert runner.summarize(recs)["unexplained_failures"] == 1


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "project", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "{" not in out.stdout


def test_tail_is_highest_percentile_with_ten_beyond():
    xs = list(range(40))
    value, pct, beyond = runner.tail(xs)
    assert value == 29 and pct == 75.0 and beyond == 10
    assert sum(x > value for x in xs) == 10
