"""Workload definitions: meshes, op templates and seeded inputs.

A workload is a fixed multiset of op templates, one cycle.  A run executes
whole cycles, each in a seeded order with freshly seeded inputs, so every
seed makes the same calls on the same meshes and degrees and only the data
differ.  That keeps the median and tail comparable across seeds.

A template names one public hdivkit call, or a chain of two where the second
call consumes the first result (``solve_mixed`` then ``flux_error``).  Every
call is one timed op.  Calls go through module attributes looked up at call
time, so the traced run's wrappers see them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import hdivkit as hk

AD, LN, AN = "all-dirichlet", "left-neumann", "all-neumann"

# The second call of a chain consumes the first call's result.
CHAINS = {
    "solve_mixed": ("solve_mixed", "flux_error"),
    "solve_ls_mixed": ("solve_ls_mixed", "potential_h1_error"),
}


@dataclass(frozen=True)
class Template:
    call: str
    mesh: str
    p: int
    field: str  # stream | discrete | singular | flux | poisson
    variant: str = "def31"
    constrained: bool = False

    @property
    def name(self):
        parts = [self.call, self.mesh, f"p{self.p}", self.field]
        if self.call in ("project_hdiv", "projector_report"):
            parts.append(self.variant)
        if self.constrained:
            parts.append("constrained")
        return ":".join(parts)

    @property
    def calls(self):
        return CHAINS.get(self.call, (self.call,))

    @property
    def discrete_degree(self):
        """def52 reproduces RTN_{p-1} members, def31 RTN_p members."""
        return self.p - 1 if self.variant == "def52" else self.p

    def degrees(self, labels):
        """Every degree whose rtn_space this template's calls touch."""
        out = {self.p}
        if self.variant == "def52":
            out.add(self.p - 1)
        if self.call == "solve_ls_mixed":
            out.add(0)  # Lagrange assembly and the H1 error use RTN_0 geometry
        if labels == AN and self.field != "discrete":
            out.add(0)  # the all-Neumann compatibility check integrates on RTN_0
        return out


@dataclass(frozen=True)
class Workload:
    meshes: dict  # key -> (kind, n, labels)
    templates: tuple  # one cycle; a template listed twice runs twice


def _t(*args, **kw):
    return Template(*args, **kw)


WORKLOADS = {
    # patch equilibration and small dense KKT solves, no sparse system
    "project": Workload(
        meshes={
            "s8/ad": ("structured", 8, AD),
            "s8/ln": ("structured", 8, LN),
            "s8/an": ("structured", 8, AN),
            "s16/ad": ("structured", 16, AD),
            "l4/ad": ("lshape", 4, AD),
            "l4/ln": ("lshape", 4, LN),
            "l4/an": ("lshape", 4, AN),
        },
        templates=2
        * (
            _t("project_hdiv", "s8/ln", 1, "discrete"),
            _t("project_hdiv", "s8/an", 0, "discrete"),
            _t("project_hdiv", "s8/an", 2, "stream", "def52"),
            _t("project_hdiv", "s16/ad", 0, "discrete"),
            _t("project_hdiv", "l4/ad", 1, "stream", "def52"),
            _t("project_hdiv", "l4/ln", 1, "discrete"),
            _t("project_hdiv", "l4/ln", 2, "stream"),
            _t("project_hdiv", "l4/an", 0, "stream"),
            _t("project_hdiv", "l4/an", 2, "discrete", "def52"),
            _t("project_hdiv", "l4/ad", 3, "discrete"),
            _t("projector_report", "s8/ad", 1, "stream"),
            _t("projector_report", "l4/ln", 2, "discrete"),
            _t("projector_report", "l4/ad", 0, "stream"),
        ),
    ),
    # element fits, global sparse assembly and SuperLU, no patches
    "global": Workload(
        meshes={"s32/ad": ("structured", 32, AD), "l16/ad": ("lshape", 16, AD)},
        # the solver chains run three times for each pair of error reports,
        # which are ten times slower, so the median sits among many samples.
        # The whole set runs twice: the cost of the 2-3 s constrained report
        # spreads by half between runs, and with one of it per run the run's
        # ops_per_ref spread 0.10 over ten seeds
        templates=2
        * (
            (
                _t("error_report", "s32/ad", 1, "flux"),
                _t("error_report", "l16/ad", 0, "stream", constrained=True),
            )
            + 3
            * (
                _t("solve_mixed", "s32/ad", 1, "poisson"),
                _t("solve_mixed", "s32/ad", 0, "poisson"),
                _t("solve_mixed", "l16/ad", 2, "poisson"),
                _t("solve_ls_mixed", "s32/ad", 0, "poisson"),
                _t("solve_ls_mixed", "l16/ad", 1, "poisson"),
            )
        ),
    ),
    # the element and patch layers with few large high-degree elements
    "high-p": Workload(
        meshes={
            "s4/ad": ("structured", 4, AD),
            "s4/ln": ("structured", 4, LN),
            "l1/ad": ("lshape", 1, AD),
            "l1/an": ("lshape", 1, AN),
            "l2/ad": ("lshape", 2, AD),
            "l2/an": ("lshape", 2, AN),
        },
        templates=2
        * (
            _t("project_hdiv", "s4/ad", 4, "stream"),
            _t("project_hdiv", "s4/ad", 5, "discrete"),
            _t("project_hdiv", "s4/ad", 6, "stream"),
            _t("project_hdiv", "s4/ln", 6, "discrete", "def52"),
            _t("project_hdiv", "l1/ad", 6, "singular"),
            _t("project_hdiv", "l1/ad", 5, "singular", "def52"),
            _t("project_hdiv", "l1/an", 4, "discrete", "def52"),
            _t("project_hdiv", "l2/ad", 5, "singular"),
            _t("project_hdiv", "l2/ad", 4, "discrete"),
            _t("project_hdiv", "l2/ad", 6, "discrete"),
            _t("project_hdiv", "l2/ad", 6, "singular", "def52"),
            _t("project_hdiv", "l2/an", 5, "stream"),
            _t("error_report", "s4/ad", 6, "stream"),
            _t("error_report", "s4/ln", 5, "discrete"),
            _t("error_report", "l1/ad", 4, "singular"),
            _t("error_report", "l2/ad", 5, "singular"),
            _t("error_report", "l2/ad", 6, "singular"),
            _t("error_report", "l2/an", 4, "stream"),
            _t("project_hdiv", "s4/ln", 4, "stream"),
            _t("project_hdiv", "s4/ln", 5, "discrete"),
            _t("project_hdiv", "s4/ad", 6, "discrete"),
            _t("project_hdiv", "s4/ad", 5, "stream", "def52"),
            _t("project_hdiv", "l1/ad", 4, "singular"),
            _t("project_hdiv", "l1/an", 6, "stream"),
            _t("project_hdiv", "l2/ad", 4, "singular", "def52"),
            _t("project_hdiv", "l2/an", 6, "discrete"),
            _t("project_hdiv", "l2/ad", 5, "discrete", "def52"),
            _t("error_report", "s4/ad", 4, "discrete"),
            _t("error_report", "s4/ln", 6, "stream"),
            _t("error_report", "l1/ad", 6, "singular"),
            _t("error_report", "l1/an", 5, "stream"),
            _t("error_report", "l2/ad", 4, "discrete"),
            _t("error_report", "l2/an", 6, "stream"),
            _t("error_report", "l2/ad", 6, "discrete"),
        ),
    ),
}


def build_mesh(spec):
    kind, n, labels = spec
    if kind == "structured":
        return hk.build_structured(n, labels=labels)
    return hk.build_lshape(n, labels=labels)


def setup(name, after_step=None):
    """Build every mesh of the workload and warm rtn_space for every
    (mesh, degree) pair its ops touch.  Returns the meshes by key.
    ``after_step``, if given, is called after each mesh and each rtn_space."""
    wl = WORKLOADS[name]
    after_step = after_step or (lambda: None)
    meshes = {}
    for key, spec in wl.meshes.items():
        meshes[key] = build_mesh(spec)
        after_step()
    degrees = {key: set() for key in meshes}
    for t in wl.templates:
        degrees[t.mesh] |= t.degrees(wl.meshes[t.mesh][2])
    for key, mesh in meshes.items():
        for d in sorted(degrees[key]):
            hk.rtn_space(mesh, d)
            after_step()
    return meshes


# -- seeded inputs ---------------------------------------------------------------------


@dataclass
class Inputs:
    v: object = None  # field handed to the projector / error report
    prob: object = None  # Poisson problem handed to the solvers


def _counted(fn, tracer):
    return fn if tracer is None else tracer.count_field(fn)


def stream_field(rng, tracer=None):
    """curl of psi = sum_j a_j sin(k_j pi x) sin(l_j pi y), integer k_j, l_j.

    psi vanishes on every line x, y in {-1, 0, 1}, so the field is
    divergence-free with zero normal trace on the whole boundary of the unit
    square and of the L-shape: it is admissible for every boundary labelling.
    """
    a = rng.standard_normal(3)
    k = rng.integers(1, 4, size=3)
    l = rng.integers(1, 4, size=3)

    def v(pts):
        x, y = pts[:, 0], pts[:, 1]
        out = np.zeros((len(pts), 2))
        for aj, kj, lj in zip(a, k * np.pi, l * np.pi):
            out[:, 0] += aj * lj * np.sin(kj * x) * np.cos(lj * y)
            out[:, 1] -= aj * kj * np.cos(kj * x) * np.sin(lj * y)
        return out

    def div(pts):
        return np.zeros(len(pts))

    return hk.AnalyticField(
        name="stream",
        v=_counted(v, tracer),
        div=_counted(div, tracer),
        divergence_free=True,
        params={"a": a.tolist(), "k": k.tolist(), "l": l.tolist()},
    )


def singular_field(tracer=None):
    v = hk.catalog("lshape_singular", {"alpha": 2.0 / 3.0})
    v.v = _counted(v.v, tracer)
    v.div = _counted(v.div, tracer)
    return v


def poisson_problem(mesh, rng, tracer=None):
    """u = A sin(k pi x) sin(l pi y) with seeded A, k, l; zero on the boundary
    of the unit square and of the L-shape."""
    amp = rng.uniform(0.5, 2.0)
    k, l = (int(i) * np.pi for i in rng.integers(1, 4, size=2))

    def u(pts):
        return amp * np.sin(k * pts[:, 0]) * np.sin(l * pts[:, 1])

    def grad_u(pts):
        x, y = pts[:, 0], pts[:, 1]
        return amp * np.stack(
            [k * np.cos(k * x) * np.sin(l * y), l * np.sin(k * x) * np.cos(l * y)], axis=1
        )

    def f(pts):
        return (k * k + l * l) * u(pts)

    def flux(pts):
        return -grad_u(pts)

    sigma = hk.AnalyticField(
        name="poisson_flux", v=_counted(flux, tracer), div=_counted(f, tracer)
    )
    return hk.PoissonProblem(
        mesh=mesh,
        f=_counted(f, tracer),
        u=_counted(u, tracer),
        grad_u=_counted(grad_u, tracer),
        sigma=sigma,
        name="poisson",
    )


def make_inputs(t: Template, mesh, rng, tracer=None) -> Inputs:
    if t.field == "stream":
        return Inputs(v=stream_field(rng, tracer))
    if t.field == "singular":
        return Inputs(v=singular_field(tracer))
    if t.field == "discrete":
        seed = int(rng.integers(2**31))
        return Inputs(v=hk.random_conforming_field(mesh, t.discrete_degree, seed=seed))
    prob = poisson_problem(mesh, rng, tracer)
    return Inputs(v=prob.sigma if t.field == "flux" else None, prob=prob)


# -- the calls ---------------------------------------------------------------------------


def call(name, t: Template, mesh, x: Inputs, prev=None):
    """One public hdivkit call; ``prev`` is the result of the chain's first call."""
    if name == "project_hdiv":
        return hk.project_hdiv(x.v, t.p, mesh, variant=t.variant)
    if name == "projector_report":
        return hk.projector_report(x.v, t.p, mesh, variant=t.variant)
    if name == "error_report":
        return hk.error_report(x.v, t.p, mesh, include_constrained=t.constrained)
    if name == "solve_mixed":
        return hk.solve_mixed(x.prob, t.p)
    if name == "flux_error":
        return hk.model_problems.flux_error(x.prob, prev["sigma"])
    if name == "solve_ls_mixed":
        return hk.solve_ls_mixed(x.prob, t.p, t.p + 1)
    if name == "potential_h1_error":
        return hk.model_problems.potential_h1_error(x.prob, prev["space"], prev["u"])
    raise ValueError(f"unknown call {name!r}")
