"""Batch studies: h/p convergence, equivalence constants, verification suite.

Studies emit one CSV row per (refinement level, degree) with a fixed column
order plus a JSON summary holding rate fits, measured constants and the
pass/fail status of every assertion; ``verify`` runs the cross-module
invariant battery and reports per-check results.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import asdict, dataclass, field as dfield, fields as dfields

import numpy as np

from . import fields as fields_mod
from . import mesh as mesh_mod
from .best_approx import _error_report, error_report, local_best, local_best_constrained
from .projector import _projector_report, project_hdiv, random_conforming_field
from .quadpolicy import QuadPolicy

CSV_COLUMNS = [
    "level",
    "h_max",
    "p",
    "E_glob_l2",
    "E_glob",
    "sum_Eloc_l2",
    "sum_Eloc",
    "ratio_glob_over_loc",
    "ratio_loc_over_glob",
    "proj_err",
    "commute_res",
    "stability_C",
    "notes",
]


class ConfigError(ValueError):
    """A study configuration that cannot be run."""


def _integer(x, low=0):
    return isinstance(x, int) and not isinstance(x, bool) and x >= low


@dataclass
class StudyConfig:
    field: str = "sine_divfree"
    mesh: str = "structured:2"  # structured:<n> | lshape:<n> | path to a JSON file
    labels: str | None = None  # rule for generated meshes; a mesh file keeps its own by default
    refinements: int = 4
    degrees: list = dfield(default_factory=lambda: [0, 1, 2])
    variant: str = "def31"
    quad_degree: int | None = None
    out_dir: str = "."
    run_projector: bool = True

    def validate(self):
        """Raise ConfigError for a field of the wrong type or out of range,
        for a degree listed twice, or for a def52 study with no degree it
        can run (p >= 1)."""
        rules = {
            "field": (isinstance(self.field, str), "a string"),
            "mesh": (isinstance(self.mesh, str), "a string"),
            "labels": (self.labels is None or isinstance(self.labels, str), "a string"),
            "refinements": (_integer(self.refinements, 1), "an integer >= 1"),
            "degrees": (isinstance(self.degrees, (list, tuple)) and len(self.degrees) > 0 and
                        all(map(_integer, self.degrees)), "a nonempty list of integers >= 0"),
            "variant": (self.variant in ("def31", "def52"), "def31 or def52"),
            "quad_degree": (self.quad_degree is None or _integer(self.quad_degree), "an integer >= 0"),
            "out_dir": (isinstance(self.out_dir, str), "a string"),
            "run_projector": (isinstance(self.run_projector, bool), "true or false"),
        }
        for name, (ok, need) in rules.items():
            if not ok:
                raise ConfigError(f"{name} must be {need}, got {getattr(self, name)!r}")
        if len(set(self.degrees)) < len(self.degrees):
            raise ConfigError(f"degrees must not repeat, got {self.degrees!r}")
        if self.variant == "def52" and max(self.degrees) < 1:
            raise ConfigError(f"variant def52 needs p >= 1, got degrees {self.degrees!r}")

    @classmethod
    def from_json(cls, path):
        try:
            with open(path) as f:
                data = json.load(f)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        unknown = sorted(set(data) - {f.name for f in dfields(cls)})
        if unknown:
            raise ConfigError(f"unknown config key(s) in {path}: {', '.join(unknown)}")
        cfg = cls(**data)
        cfg.validate()
        return cfg


@dataclass
class RateFit:
    abscissae: list
    errors: list
    slope: float
    residual: float


def fit_rate(errors, abscissae, mode="h_slope") -> RateFit:
    """Least-squares rate fit; h_slope fits log e vs log h, p_exponential
    fits log e vs p."""
    errors = np.asarray(errors, float)
    abscissae = np.asarray(abscissae, float)
    keep = errors > 0
    errors, abscissae = errors[keep], abscissae[keep]
    if len(errors) < 3:
        raise ValueError("rate fits need at least 3 positive data points")
    if mode == "h_slope":
        x = np.log(abscissae)
    elif mode == "p_exponential":
        x = abscissae
    else:
        raise ValueError(f"unknown fit mode {mode!r}")
    y = np.log(errors)
    coef, res = np.polyfit(x, y, 1, full=True)[:2]
    residual = float(np.sqrt(res[0])) if len(res) else 0.0
    return RateFit(list(abscissae), list(errors), float(coef[0]), residual)


def build_mesh(spec: str, labels: str | None = None):
    """Generated mesh labelled by a rule (default all-dirichlet), or a mesh
    file that keeps its own labels unless a rule is given."""
    for kind, build in (("structured", mesh_mod.build_structured), ("lshape", mesh_mod.build_lshape)):
        if spec.startswith(kind + ":"):
            try:
                n = int(spec[len(kind) + 1 :])
            except ValueError:
                raise mesh_mod.MeshError(
                    f"mesh spec {spec!r}: expected {kind}:<n> with an integer n"
                ) from None
            return build(n, labels=labels or "all-dirichlet")
    m = mesh_mod.load_mesh(spec)
    if labels is None:
        return m
    return mesh_mod.Mesh(
        m.vertices, m.triangles, mesh_mod._label_boundary(m.vertices, m.triangles, labels)
    )


def mesh_sequence(cfg: StudyConfig):
    m = build_mesh(cfg.mesh, cfg.labels)
    seq = [m]
    for _ in range(cfg.refinements - 1):
        m = mesh_mod.refine_uniform(m)
        seq.append(m)
    return seq


def _fmt(x):
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def run_study(cfg: StudyConfig):
    """Convergence / equivalence sweep; returns dict and writes CSV + JSON."""
    cfg.validate()
    try:  # before the work, so that a bad out_dir costs nothing
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write to out_dir {cfg.out_dir!r}: {exc.strerror or exc}") from None
    t0 = time.time()
    meshes = mesh_sequence(cfg)
    study_fields = [fields_mod.parse_field_spec(cfg.field, mesh=m) for m in meshes]
    rows = []
    warnings = []
    degrees = [p for p in cfg.degrees if cfg.variant == "def31" or p >= 1]  # def52 needs p >= 1
    for level, (m, field) in enumerate(zip(meshes, study_fields)):
        for p in degrees:
            # one sampling and one fit of the field per row, shared by both reports
            policy = QuadPolicy(p, m, field, cfg.quad_degree, self_check=cfg.run_projector)
            rep = _error_report(policy)
            proj_err = commute = stab = float("nan")
            if cfg.run_projector:
                prep = _projector_report(policy, cfg.variant, {"E_loc": rep.Eloc, "div_part": rep.Eloc_div})
                commute = prep["commute_residual"]
                stab = max(prep["stability_ratios"]) if prep["stability_ratios"] else 0.0
                proj_err = float(np.sqrt(sum(r["lhs_sq"] for r in prep["records"])))
                warnings.extend(prep["warnings"])
            rows.append(
                {
                    "level": level,
                    "h_max": m.h_max,
                    "p": p,
                    "E_glob_l2": rep.Eglob_l2,
                    "E_glob": rep.Eglob,
                    "sum_Eloc_l2": float(np.sqrt(rep.sum_Eloc_l2_sq)),
                    "sum_Eloc": float(np.sqrt(rep.sum_Eloc_sq)),
                    "ratio_glob_over_loc": rep.ratio_glob_over_loc,
                    "ratio_loc_over_glob": rep.ratio_loc_over_glob,
                    "proj_err": proj_err,
                    "commute_res": commute,
                    "stability_C": stab,
                    "notes": "exact-zero" if rep.exact_zero else "",
                }
            )
    fits = {}
    checks = []

    def check(name, value, expected, tol, passed):
        checks.append({"name": name, "value": value, "expected": expected, "tol": tol, "passed": bool(passed)})

    s = getattr(study_fields[0], "s", np.inf)
    for p in degrees:
        sub = [r for r in rows if r["p"] == p and r["notes"] != "exact-zero"]
        # a discrete field draws an independent member on every level: no rate to fit
        if len(sub) >= 3 and not getattr(study_fields[0], "is_discrete", False):
            hs = [r["h_max"] for r in sub][-3:]
            es = [r["E_glob"] for r in sub][-3:]
            if min(es) > 0:
                fit = fit_rate(es, hs, "h_slope")
                fits[f"p{p}"] = asdict(fit)
                predicted = min(s, p + 1)
                tol_slope = 0.15 if s < np.inf else 0.1
                if np.isfinite(predicted):
                    check(f"h-rate p={p}", fit.slope, predicted, tol_slope, abs(fit.slope - predicted) <= tol_slope)
        ratios = [r["ratio_glob_over_loc"] for r in sub]
        if ratios and all(np.isfinite(ratios)) and min(ratios) > 0:
            spread = max(ratios) / min(ratios)
            check(f"equivalence ratio stability p={p}", spread, 1.0, 2.0, spread <= 2.0)
        for r in sub:
            gap, tol = r["E_glob"] ** 2 - r["sum_Eloc"] ** 2, 1e-9 * max(r["E_glob"] ** 2, 1e-30)
            check(f"ordering level={r['level']} p={p}", gap, 0.0, tol, gap >= -tol)
    ok = all(c["passed"] for c in checks)
    summary = {
        "config": asdict(cfg),
        "fits": fits,
        "checks": checks,
        "warnings": warnings,
        "ok": ok,
        "metadata": {"runtime_s": time.time() - t0, "timestamp": time.time()},
    }
    csv_path = os.path.join(cfg.out_dir, "study.csv")
    with open(csv_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_COLUMNS)
        for r in rows:
            writer.writerow([_fmt(r[c]) for c in CSV_COLUMNS])
    with open(os.path.join(cfg.out_dir, "summary.json"), "w") as f:
        json.dump(summary, f, indent=1)
    summary["rows"] = rows
    summary["csv_path"] = csv_path
    return summary


# -- verification battery ---------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float
    tol: float


def verify(seed=0, variant="def31"):
    """Cross-module invariant suite at small sizes, from random draws of
    ``seed``, projecting by ``variant``; returns CheckResults."""
    if not _integer(seed):
        raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")
    StudyConfig(variant=variant).validate()
    rng = np.random.default_rng(seed)
    out = []

    def check(name, value, tol):
        out.append(CheckResult(name, bool(value <= tol), float(value), tol))

    # mesh invariants
    from .elements import _BARY_GRAD, barycentric
    from .local_solve import patch_layout
    from .mesh import build_structured

    for n in (2, 4):
        m = build_structured(n)
        lam = barycentric(rng.random((100, 2)) * 0.49 + 0.01)  # inside the reference triangle
        # the hats (and their gradients) of the patches holding each triangle,
        # summed over the layout the projector assembles from
        hats, grads = np.zeros((m.num_triangles, lam.shape[1])), np.zeros((m.num_triangles, 2))
        layout = patch_layout(m, 1)
        np.add.at(hats, layout.tris, lam[layout.local])
        np.add.at(grads, layout.tris, np.einsum("kj,kjd->kd", _BARY_GRAD[layout.local], m.Binv[layout.tris]))
        check(f"partition of unity n={n}", np.abs(hats - 1).max(), 1e-14)
        check(f"hat gradient sum n={n}", np.abs(grads).max(), 1e-12)
        # the signs an interior edge has in its two triangles cancel
        ie = m.interior_edges()
        on = m.edge_tris[ie]
        signs = np.sum(m.tri_edge_sign[on] * (m.tri_edges[on] == ie[:, None, None]), axis=(1, 2))
        check(f"orientation consistency n={n}", float(np.any(signs != 0)), 0.5)
    # quadrature exactness
    from .quadrature import check_exactness, quad_rule

    worst = max(check_exactness(quad_rule(d)) for d in range(0, 21))
    check("quadrature exactness degrees 0..20", worst, 1e-13)
    # unisolvence: the interpolant of each basis function of a triangle is its unit vector
    from .elements import rtn_dim
    from .projections import BrokenRTNField, canonical_interp, project_scalar

    tri = mesh_mod.one_triangle([[0.1, 0.05], [1.02, 0.11], [0.3, 0.95]])
    worst = 0.0
    for p in range(0, 4):
        for unit in np.eye(rtn_dim(p)):
            interp = canonical_interp(BrokenRTNField(tri, p, unit[None]), p, tri)
            worst = max(worst, np.abs(interp.coeffs[0] - unit).max())
    check("element duality p=0..3", worst, 1e-10)
    # projections, commuting, projector checks on catalog fields

    m = build_structured(2)
    worst_comm = 0.0
    worst_id = 0.0
    for name in ("sine_divfree", "cubic"):
        fld = fields_mod.catalog(name)
        for p in (0, 1, 2, 3):
            ih = canonical_interp(fld, p, m)
            div_ih = ih.div()
            pi_div = project_scalar(fld.div, p, m)
            scale = max(np.linalg.norm(pi_div.coeffs), ih.norm() * (p + 1) / m.h_max)
            worst_comm = max(
                worst_comm,
                np.linalg.norm(div_ih.coeffs - pi_div.coeffs) / max(scale, 1e-30),
            )
            pi2 = project_scalar(pi_div, p, m)
            worst_id = max(
                worst_id,
                np.abs(pi2.coeffs - pi_div.coeffs).max(),
            )
    check("interpolant commuting identity", worst_comm, 1e-10)
    check("scalar projection idempotent", worst_id, 1e-13)
    worst_proj = 0.0
    worst_commP = 0.0
    for n in (2, 4):
        m = build_structured(n)
        for p in (0, 1, 2):
            vh = random_conforming_field(m, p, seed=seed + p)
            sig = project_hdiv(vh, p, m)
            worst_proj = max(
                worst_proj,
                np.linalg.norm(sig.dofs - vh.dofs) / np.linalg.norm(vh.dofs),
            )
            fld = fields_mod.catalog("cubic")
            sig2 = project_hdiv(fld, p, m, variant=variant if p >= 1 else "def31")
            worst_commP = max(worst_commP, sig2.info["projector"].commute_residual)
    check("projector reproduces discrete members", worst_proj, 1e-10)
    check("projector commuting residual", worst_commP, 1e-10)
    # equivalence ordering on catalog fields
    m = build_structured(2)
    worst_ord = 0.0
    for name in ("sine_divfree", "cubic"):
        fld = fields_mod.catalog(name)
        for p in (0, 1, 2):
            rep = error_report(fld, p, m)
            slack = rep.Eglob**2 - rep.sum_Eloc_sq
            worst_ord = max(worst_ord, -slack / max(rep.Eglob**2, 1e-30))
    check("equivalence ordering", worst_ord, 1e-9)
    # constrained-unconstrained sweep on the reference triangle
    mref = mesh_mod.one_triangle([[0, 0], [1, 0], [0, 1]])
    expf = fields_mod.AnalyticField(
        "exp",
        lambda pts: np.stack([np.exp(pts[:, 0]), np.exp(pts[:, 1])], axis=1),
        lambda pts: np.exp(pts[:, 0]) + np.exp(pts[:, 1]),
    )
    ratios = []
    for p in range(7):
        lb = local_best(expf, p, mref, 0)
        lc = local_best_constrained(expf, p, mref, 0)
        ratios.append((lc["l2_part"] + lc["div_part"]) / lb["E_loc"])
    ratios = np.array(ratios)
    check("constrained/unconstrained p-sweep spread", ratios.max() / ratios.min(), 1.5)
    check("constrained >= unconstrained", float(-(ratios.min() - 1.0)), 1e-12)
    # model problem cross-checks
    from .model_problems import apriori_checks, manufactured_sine

    res = apriori_checks(manufactured_sine, 1, 1, [build_structured(4)])
    check("mixed flux equals constrained best", res[0]["mixed_vs_globalbest"], 1e-8)
    check("least-squares worst-case ratio", res[0]["ls_ratio"], 17.0)
    # the margins, negated: each passes at or below 1e-9 and prints its size
    check("divergence bound slack", -res[0]["div_bound_slack"], 1e-9)
    check("coercivity witness nonnegative", -res[0]["coercivity_witness"], 1e-9)
    return out
