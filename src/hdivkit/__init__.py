"""H(div) approximation toolkit on 2D simplicial meshes.

Conforming Raviart-Thomas-Nedelec spaces, a stable local commuting projector
built from patchwise equilibration, local/global best-approximation error
evaluation, mixed and least-squares mixed Poisson solvers, and a study
harness for h/p convergence and equivalence-constant measurements.
"""

from .best_approx import (
    ErrorReport,
    error_report,
    global_best,
    local_best,
    local_best_constrained,
)
from .elements import ElementRTN, RTNSpace, rtn_space
from .fields import AnalyticField, catalog, parse_field_spec
from .local_solve import build_patch_problem, patch_equilibrate
from .mesh import (
    Mesh,
    MeshError,
    VertexPatch,
    build_lshape,
    build_structured,
    load_mesh,
    refine_uniform,
    save_mesh,
    vertex_patches,
)
from .model_problems import (
    LagrangeSpace,
    PoissonProblem,
    apriori_checks,
    manufactured_sine,
    solve_ls_mixed,
    solve_mixed,
)
from .projections import BrokenRTNField, ScalarPWField, canonical_interp, project_scalar
from .projector import ConformingRTNField, project_hdiv, projector_report, random_conforming_field
from .quadrature import quad_rule
from .study import StudyConfig, fit_rate, run_study, verify

__version__ = "0.1.0"

__all__ = [
    "AnalyticField",
    "BrokenRTNField",
    "ConformingRTNField",
    "ElementRTN",
    "ErrorReport",
    "LagrangeSpace",
    "Mesh",
    "MeshError",
    "PoissonProblem",
    "RTNSpace",
    "ScalarPWField",
    "StudyConfig",
    "VertexPatch",
    "apriori_checks",
    "build_lshape",
    "build_patch_problem",
    "build_structured",
    "canonical_interp",
    "catalog",
    "error_report",
    "fit_rate",
    "global_best",
    "load_mesh",
    "local_best",
    "local_best_constrained",
    "manufactured_sine",
    "parse_field_spec",
    "patch_equilibrate",
    "project_hdiv",
    "project_scalar",
    "projector_report",
    "quad_rule",
    "random_conforming_field",
    "refine_uniform",
    "rtn_space",
    "run_study",
    "save_mesh",
    "solve_ls_mixed",
    "solve_mixed",
    "verify",
    "vertex_patches",
]
