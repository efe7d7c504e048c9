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
    ModelProblemError,
    flux_error,
    manufactured_bubble,
    manufactured_sine,
    potential_h1_error,
    solve_ls_mixed,
    solve_mixed,
)
from .projector import project_hdiv
from .quadrature import UnsupportedDegreeError
from .study import ConfigError, StudyConfig, build_mesh, run_study, verify, verify_exit_code


def _degrees(arg):
    """``--p``: one degree or a comma list of nonnegative integers."""
    if not all(x.strip().isdigit() for x in arg.split(",")):
        raise argparse.ArgumentTypeError(f"expected nonnegative integer degrees, got {arg!r}")
    return [int(x) for x in arg.split(",")]


def _nonnegative(arg):
    """``--quad-degree``, ``--seed``: one nonnegative integer."""
    if not arg.strip().isdigit():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {arg!r}")
    return int(arg)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line, like every other CLI error
        self.exit(2, f"hdivkit: error: {message}\n")


# every argument once; each subcommand below names the ones its cmd_* reads
_FLAGS = {
    "action": dict(choices=["gen", "refine", "inspect"]),
    "--mesh": dict(default="structured:2", help="structured:<n> | lshape:<n> | file"),
    "--labels": dict(default=None, help="all-dirichlet | all-neumann | left-neumann | file "
                     "(default: all-dirichlet for generated meshes, the file's own labels "
                     "for a mesh file)"),
    "--p": dict(type=_degrees, default="1", help="polynomial degree or comma list"),
    "--q": dict(type=int, default=1),
    "--field": dict(default="sine_divfree", help="name[:k=v,...]"),
    "--refinements": dict(type=int, default=4),
    "--variant": dict(default="def31", choices=["def31", "def52"]),
    "--quad-degree": dict(type=_nonnegative, default=None),
    "--tol": dict(type=float, default=1e-9),
    "--seed": dict(type=_nonnegative, default=0),
    "--out": dict(default="."),
    "--problem": dict(default="sine", choices=["sine", "bubble"]),
    "--config": dict(default=None, help="JSON config mirroring the flags"),
}


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
    if args.variant == "def52" and 0 in args.p:
        raise ConfigError("variant def52 needs p >= 1")
    m = _get_mesh(args)
    out = {}
    for p in args.p:
        field = fields_mod.parse_field_spec(args.field, mesh=m)
        sig = project_hdiv(
            field, p, m, variant=args.variant, quad_degree=args.quad_degree
        )
        info = sig.info["projector"]
        out[f"p{p}"] = {
            "commute_residual": info.commute_residual,
            "commute_abs": info.commute_abs,
            "jump_residual": sig.jump_residual(),
            "patch_system_size": info.patch_system_size,
            "warnings": info.warnings,
        }
    print(json.dumps(out, indent=1))
    return 0


def cmd_best_approx(args):
    m = _get_mesh(args)
    out = {}
    for p in args.p:
        field = fields_mod.parse_field_spec(args.field, mesh=m)
        rep = error_report(field, p, m, quad_degree=args.quad_degree)
        out[f"p{p}"] = {
            "E_glob_l2": rep.Eglob_l2,
            "E_glob": rep.Eglob,
            "sum_Eloc": float(np.sqrt(rep.sum_Eloc_sq)),
            "ratio_glob_over_loc": rep.ratio_glob_over_loc,
            **{key: rep.metadata[key] for key in ("system_size", "nnz_lu")},
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
    for p in args.p:
        res = solve_mixed(prob, p)
        out[f"p{p}"] = {
            "flux_error": flux_error(prob, res["sigma"]),
            "div_constraint_defect": res["div_constraint_defect"],
            **{key: res[key] for key in ("kkt_residual", "system_size", "nnz_lu")},
        }
    print(json.dumps(out, indent=1))
    return 0


def cmd_solve_ls(args):
    m = _get_mesh(args)
    prob = _problem(args.problem, m)
    out = {}
    for p in args.p:
        res = solve_ls_mixed(prob, p, args.q)
        out[f"p{p}_q{args.q}"] = {
            "flux_error": flux_error(prob, res["sigma"]),
            "h1_error": potential_h1_error(prob, res["space"], res["u"]),
            **{key: res[key] for key in ("kkt_residual", "system_size", "nnz_lu")},
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
            degrees=args.p,
            variant=args.variant,
            quad_degree=args.quad_degree,
            tol=args.tol,
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


def build_parser():
    """The ``hdivkit`` argument parser."""
    ap = _Parser(prog="hdivkit", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, func, help_, flags in (
        ("mesh", cmd_mesh, "generate / refine / inspect meshes",
         ["action", "--mesh", "--labels", "--out"]),
        ("project", cmd_project, "run the commuting projector",
         ["--mesh", "--labels", "--p", "--field", "--variant", "--quad-degree"]),
        ("best-approx", cmd_best_approx, "local/global best approximation errors",
         ["--mesh", "--labels", "--p", "--field", "--quad-degree"]),
        ("solve-mixed", cmd_solve_mixed, "mixed discretization of a model problem",
         ["--mesh", "--labels", "--p", "--problem"]),
        ("solve-ls", cmd_solve_ls, "least-squares mixed discretization",
         ["--mesh", "--labels", "--p", "--q", "--problem"]),
        ("study", cmd_study, "convergence / equivalence study",
         ["--mesh", "--labels", "--p", "--field", "--refinements", "--variant",
          "--quad-degree", "--tol", "--out", "--config"]),
        ("verify", cmd_verify, "run the invariant battery", ["--seed", "--variant"]),
    ):
        # no prefix matching: a dropped --q must not turn into --quad-degree
        p = sub.add_parser(name, help=help_, allow_abbrev=False)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (fields_mod.FieldError, mesh_mod.MeshError, ConfigError, ModelProblemError,
            UnsupportedDegreeError) as exc:
        print(f"hdivkit: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
