"""Command-line interface: mesh tools, projections, studies, verification."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import fields as fields_mod
from . import mesh as mesh_mod
from .best_approx import error_report
from .model_problems import (
    flux_error,
    manufactured_bubble,
    manufactured_sine,
    potential_h1_error,
    solve_ls_mixed,
    solve_mixed,
)
from .projector import project_hdiv
from .study import ConfigError, StudyConfig, build_mesh, run_study, verify, verify_exit_code


def _add_common(p):
    p.add_argument("--mesh", default="structured:2", help="structured:<n> | lshape:<n> | file")
    p.add_argument("--labels", default=None,
                   help="all-dirichlet | all-neumann | left-neumann | file (default: "
                   "all-dirichlet for generated meshes, the file's own labels for a mesh file)")
    p.add_argument("--p", default="1", help="polynomial degree or comma list")
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--field", default="sine_divfree", help="name[:k=v,...]")
    p.add_argument("--refinements", type=int, default=4)
    p.add_argument("--variant", default="def31", choices=["def31", "def52"])
    p.add_argument("--quad-degree", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")


def _degrees(arg):
    return [int(x) for x in str(arg).split(",")]


def _get_mesh(args):
    return build_mesh(args.mesh, args.labels)


def cmd_mesh(args):
    if args.action == "gen":
        m = _get_mesh(args)
    elif args.action == "refine":
        m = mesh_mod.refine_uniform(_get_mesh(args))
    else:  # inspect
        m = _get_mesh(args)
        print(
            json.dumps(
                {
                    "vertices": m.num_vertices,
                    "edges": m.num_edges,
                    "triangles": m.num_triangles,
                    "h_max": m.h_max,
                    "kappa": m.kappa,
                    "dirichlet_edges": len(m.edges_with_label("dirichlet")),
                    "neumann_edges": len(m.edges_with_label("neumann")),
                },
                indent=1,
            )
        )
        return 0
    path = args.out if args.out != "." else "mesh.json"
    mesh_mod.save_mesh(m, path)
    print(f"wrote {path}")
    return 0


def cmd_project(args):
    m = _get_mesh(args)
    out = {}
    for p in _degrees(args.p):
        field = fields_mod.parse_field_spec(args.field, mesh=m)
        sig = project_hdiv(
            field, p, m, variant=args.variant, quad_degree=args.quad_degree
        )
        info = sig.info["projector"]
        out[f"p{p}"] = {
            "commute_residual": info.commute_residual,
            "commute_abs": info.commute_abs,
            "jump_residual": sig.jump_residual(),
            "warnings": info.warnings,
        }
    print(json.dumps(out, indent=1))
    return 0


def cmd_best_approx(args):
    m = _get_mesh(args)
    out = {}
    for p in _degrees(args.p):
        field = fields_mod.parse_field_spec(args.field, mesh=m)
        rep = error_report(field, p, m, quad_degree=args.quad_degree)
        out[f"p{p}"] = {
            "E_glob_l2": rep.Eglob_l2,
            "E_glob": rep.Eglob,
            "sum_Eloc": float(np.sqrt(rep.sum_Eloc_sq)),
            "ratio_glob_over_loc": rep.ratio_glob_over_loc,
        }
    print(json.dumps(out, indent=1))
    return 0


def _problem(name, mesh):
    if name == "sine":
        return manufactured_sine(mesh)
    if name == "bubble":
        return manufactured_bubble(mesh)
    raise ValueError(f"unknown problem {name!r}")


def cmd_solve_mixed(args):
    m = _get_mesh(args)
    prob = _problem(args.problem, m)
    out = {}
    for p in _degrees(args.p):
        res = solve_mixed(prob, p)
        out[f"p{p}"] = {
            "flux_error": flux_error(prob, res["sigma"]),
            "div_constraint_defect": res["div_constraint_defect"],
            "kkt_residual": res["kkt_residual"],
        }
    print(json.dumps(out, indent=1))
    return 0


def cmd_solve_ls(args):
    m = _get_mesh(args)
    prob = _problem(args.problem, m)
    out = {}
    for p in _degrees(args.p):
        res = solve_ls_mixed(prob, p, args.q)
        out[f"p{p}_q{args.q}"] = {
            "flux_error": flux_error(prob, res["sigma"]),
            "h1_error": potential_h1_error(prob, res["space"], res["u"]),
            "kkt_residual": res["kkt_residual"],
        }
    print(json.dumps(out, indent=1))
    return 0


def cmd_study(args):
    if args.config:
        cfg = StudyConfig.from_json(args.config)
    else:
        cfg = StudyConfig(
            field=args.field,
            mesh=args.mesh,
            labels=args.labels,
            refinements=args.refinements,
            degrees=_degrees(args.p),
            q=args.q,
            variant=args.variant,
            quad_degree=args.quad_degree,
            tol=args.tol,
            seed=args.seed,
            out_dir=args.out,
        )
    summary = run_study(cfg)
    n_pass = sum(1 for c in summary["checks"] if c["passed"])
    print(f"study: {n_pass}/{len(summary['checks'])} checks passed; "
          f"csv -> {summary['csv_path']}")
    for c in summary["checks"]:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"  [{status}] {c['name']}: value={c['value']:.4g} "
              f"expected={c['expected']:.4g} tol={c['tol']:.3g}")
    return 0 if summary["ok"] else 1


def cmd_verify(args):
    cfg = StudyConfig(seed=args.seed, variant=args.variant)
    results = verify(cfg)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name}: measured={r.value:.3e} tol={r.tol:.3g} {r.note}")
    code = verify_exit_code(results)
    print(f"verify: {sum(r.passed for r in results)}/{len(results)} checks passed")
    return code


def main(argv=None):
    ap = argparse.ArgumentParser(prog="hdivkit", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p_mesh = sub.add_parser("mesh", help="generate / refine / inspect meshes")
    p_mesh.add_argument("action", choices=["gen", "refine", "inspect"])
    _add_common(p_mesh)
    p_mesh.set_defaults(func=cmd_mesh)

    p_proj = sub.add_parser("project", help="run the commuting projector")
    _add_common(p_proj)
    p_proj.set_defaults(func=cmd_project)

    p_best = sub.add_parser("best-approx", help="local/global best approximation errors")
    _add_common(p_best)
    p_best.set_defaults(func=cmd_best_approx)

    p_mix = sub.add_parser("solve-mixed", help="mixed discretization of a model problem")
    _add_common(p_mix)
    p_mix.add_argument("--problem", default="sine", choices=["sine", "bubble"])
    p_mix.set_defaults(func=cmd_solve_mixed)

    p_ls = sub.add_parser("solve-ls", help="least-squares mixed discretization")
    _add_common(p_ls)
    p_ls.add_argument("--problem", default="sine", choices=["sine", "bubble"])
    p_ls.set_defaults(func=cmd_solve_ls)

    p_study = sub.add_parser("study", help="convergence / equivalence study")
    _add_common(p_study)
    p_study.add_argument("--config", default=None, help="JSON config mirroring the flags")
    p_study.set_defaults(func=cmd_study)

    p_ver = sub.add_parser("verify", help="run the invariant battery")
    _add_common(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (fields_mod.FieldError, mesh_mod.MeshError, ConfigError) as exc:
        print(f"hdivkit: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
