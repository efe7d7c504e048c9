"""Command-line interface: mesh tools, projections, studies, verification."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from . import fields as fields_mod
from . import mesh as mesh_mod
from .best_approx import error_report
from .linsolve import SingularSystemError
from .local_solve import CompatibilityError
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
from .study import ConfigError, StudyConfig, build_mesh, run_study, verify


def _degrees(arg):
    """``--p``: one degree or a comma list of distinct nonnegative integers."""
    if not all(x.strip().isdigit() for x in arg.split(",")):
        raise argparse.ArgumentTypeError(f"expected nonnegative integer degrees, got {arg!r}")
    degrees = [int(x) for x in arg.split(",")]
    if len(set(degrees)) < len(degrees):
        raise argparse.ArgumentTypeError(f"degrees must not repeat, got {arg!r}")
    return degrees


def _nonnegative(arg):
    """``--quad-degree``, ``--seed``: one nonnegative integer."""
    if not arg.strip().isdigit():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {arg!r}")
    return int(arg)


class _Given(argparse.Action):
    """Store a value and note its flag as given, read by ``study --config``."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = getattr(namespace, "given", ()) + (option_string,)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line, like every other CLI error
        self.exit(2, f"hdivkit: error: {message}\n")


# every argument once; each subcommand below names the ones its cmd_* reads.  A
# study setting is stored under its StudyConfig field name
_FLAGS = {
    "action": dict(choices=["gen", "refine", "inspect"]),
    "--mesh": dict(default="structured:2", help="structured:<n> | lshape:<n> | file"),
    "--labels": dict(default=None, help="all-dirichlet | all-neumann | left-neumann "
                     "(default: all-dirichlet for generated meshes, the file's own labels "
                     "for a mesh file)"),
    "--p": dict(dest="degrees", type=_degrees, default="1", help="polynomial degree or comma list"),
    "--q": dict(type=int, default=1),
    "--field": dict(default="sine_divfree", help="name[:k=v,...]"),
    "--refinements": dict(type=int, default=4),
    "--variant": dict(default="def31", choices=["def31", "def52"]),
    "--quad-degree": dict(type=_nonnegative, default=None, help="analytic fields; polynomial ones get exact rules"),
    "--seed": dict(type=_nonnegative, default=0),
    "--out": dict(dest="out_dir", default="."),
    "--problem": dict(default="sine", choices=["sine", "bubble"]),
    "--config": dict(default=None, help="JSON config mirroring the flags, given with no other flag"),
}


def cmd_mesh(args):
    m = build_mesh(args.mesh, args.labels)
    if args.action == "refine":
        m = mesh_mod.refine_uniform(m)
    elif args.action == "inspect":
        print(
            json.dumps(
                {
                    "vertices": m.num_vertices,
                    "edges": m.num_edges,
                    "triangles": m.num_triangles,
                    "h_max": m.h_max,
                    "kappa": m.kappa,
                    "dirichlet_edges": int(np.sum(m.edge_label == mesh_mod.DIRICHLET)),
                    "neumann_edges": int(np.sum(m.edge_label == mesh_mod.NEUMANN)),
                },
                indent=1,
            )
        )
        return 0
    path = args.out_dir if args.out_dir != "." else "mesh.json"
    mesh_mod.save_mesh(m, path)
    print(f"wrote {path}")
    return 0


def _per_degree(record):
    """A subcommand that builds the mesh once and prints one JSON object of
    ``record(args, mesh, p)`` for each degree of ``--p``, keyed ``p<p>``
    (``p<p>_q<q>`` where the subcommand takes ``--q``)."""

    def run(args):
        m = build_mesh(args.mesh, args.labels)
        suffix = f"_q{args.q}" if "q" in args else ""
        print(json.dumps({f"p{p}{suffix}": record(args, m, p) for p in args.degrees}, indent=1))
        return 0

    return run


_PROBLEMS = {"sine": manufactured_sine, "bubble": manufactured_bubble}


@_per_degree
def cmd_project(args, m, p):
    if args.variant == "def52" and p == 0:
        raise ConfigError("variant def52 needs p >= 1")
    field = fields_mod.parse_field_spec(args.field, mesh=m)
    sig = project_hdiv(field, p, m, variant=args.variant, quad_degree=args.quad_degree)
    info = sig.info["projector"]
    return {
        "commute_residual": info.commute_residual,
        "commute_abs": info.commute_abs,
        "jump_residual": sig.jump_residual(),
        "patch_system_size": info.patch_system_size,
        "warnings": info.warnings,
    }


@_per_degree
def cmd_best_approx(args, m, p):
    rep = error_report(fields_mod.parse_field_spec(args.field, mesh=m), p, m, quad_degree=args.quad_degree)
    return {
        "E_glob_l2": rep.Eglob_l2,
        "E_glob": rep.Eglob,
        "sum_Eloc": float(np.sqrt(rep.sum_Eloc_sq)),
        "ratio_glob_over_loc": rep.ratio_glob_over_loc,
        **{key: rep.metadata[key] for key in ("system_size", "nnz_lu")},
    }


@_per_degree
def cmd_solve_mixed(args, m, p):
    prob = _PROBLEMS[args.problem](m)
    res = solve_mixed(prob, p)
    return {
        "flux_error": flux_error(prob, res["sigma"]),
        "div_constraint_defect": res["div_constraint_defect"],
        **{key: res[key] for key in ("kkt_residual", "system_size", "nnz_lu")},
    }


@_per_degree
def cmd_solve_ls(args, m, p):
    prob = _PROBLEMS[args.problem](m)
    res = solve_ls_mixed(prob, p, args.q)
    return {
        "flux_error": flux_error(prob, res["sigma"]),
        "h1_error": potential_h1_error(prob, res["space"], res["u"]),
        **{key: res[key] for key in ("kkt_residual", "system_size", "nnz_lu")},
    }


def cmd_study(args):
    if args.config:
        cfg = StudyConfig.from_json(args.config)
        others = [flag for flag in args.given if flag != "--config"]
        if others:
            raise ConfigError(f"--config takes no other study flag, got {others[0]}")
    else:
        cfg = StudyConfig(**{key: getattr(args, key) for key in asdict(StudyConfig())})
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
    results = verify(args.seed, args.variant)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name}: measured={r.value:.3e} tol={r.tol:.3g}")
    print(f"verify: {sum(r.passed for r in results)}/{len(results)} checks passed")
    return 0 if all(r.passed for r in results) else 1


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
          "--quad-degree", "--out", "--config"]),
        ("verify", cmd_verify, "run the invariant battery", ["--seed", "--variant"]),
    ):
        # no prefix matching: a dropped --q must not turn into --quad-degree
        p = sub.add_parser(name, help=help_, allow_abbrev=False)
        for flag in flags:
            p.add_argument(flag, action=_Given, **_FLAGS[flag])
        # a study's defaults are StudyConfig()'s, which override the flags' own
        p.set_defaults(func=func, **(asdict(StudyConfig()) if name == "study" else {}))
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (fields_mod.FieldError, mesh_mod.MeshError, ConfigError, ModelProblemError,
            UnsupportedDegreeError, CompatibilityError, SingularSystemError) as exc:
        print(f"hdivkit: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
