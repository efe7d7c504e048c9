"""Catalog of analytic vector fields and seeded discrete samples.

Every field object exposes ``eval(pts, elem=None)`` and ``eval_div(pts,
elem=None)``; analytic fields ignore the element index, discrete fields
require it and evaluate element ``elem`` from its row of their stacked
element tables.  Batched consumers (``quadpolicy.QuadGroup.eval``) call
analytic fields once for all points, read discrete fields' tables through
``element_coeffs`` and use the ``elem=`` form only for other evaluators.
``poly_degree`` (when set) lets consumers pick exact quadrature;
``singularity`` flags a corner point where the field behaves like r^gamma
times a smooth function, which switches the quadrature helpers to radially
weighted rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from fractions import Fraction

import numpy as np


class FieldError(ValueError):
    pass


@dataclass
class Singularity:
    center: tuple
    gamma: float


@dataclass
class AnalyticField:
    name: str
    v: callable
    div: callable
    s: float = np.inf  # elementwise Sobolev smoothness used for rate prediction
    divergence_free: bool = False
    is_discrete: bool = False
    poly_degree: int | None = None
    singularity: Singularity | None = None
    params: dict = dfield(default_factory=dict)

    def eval(self, pts, elem=None):
        return self.v(np.atleast_2d(np.asarray(pts, float)))

    def eval_div(self, pts, elem=None):
        return self.div(np.atleast_2d(np.asarray(pts, float)))


def _sine_divfree():
    def v(pts):
        x, y = pts[:, 0], pts[:, 1]
        return np.stack(
            [np.sin(np.pi * x) * np.sin(np.pi * y), np.cos(np.pi * x) * np.cos(np.pi * y)],
            axis=1,
        )

    return AnalyticField(
        name="sine_divfree",
        v=v,
        div=lambda pts: np.zeros(len(pts)),
        divergence_free=True,
    )


def _cubic():
    def v(pts):
        return np.stack([pts[:, 0] ** 3, pts[:, 1] ** 3], axis=1)

    def dv(pts):
        return 3 * pts[:, 0] ** 2 + 3 * pts[:, 1] ** 2

    return AnalyticField(name="cubic", v=v, div=dv, poly_degree=3)


def _lshape_singular(alpha: float):
    if not 0 < alpha <= 1:
        raise FieldError(f"alpha must lie in (0, 1], got {alpha}")

    def v(pts):
        x, y = pts[:, 0], pts[:, 1]
        r = np.hypot(x, y)
        theta = np.mod(np.arctan2(y, x), 2 * np.pi)
        out = np.zeros((len(pts), 2))
        ok = r > 0
        rad = alpha * r[ok] ** (alpha - 1)
        out[ok, 0] = rad * np.sin((alpha - 1) * theta[ok])
        out[ok, 1] = rad * np.cos((alpha - 1) * theta[ok])
        return out

    return AnalyticField(
        name="lshape_singular",
        v=v,
        div=lambda pts: np.zeros(len(pts)),
        s=alpha,
        divergence_free=True,
        singularity=Singularity(center=(0.0, 0.0), gamma=alpha - 1.0),
        params={"alpha": alpha},
    )


# the parameters each catalog field takes
_PARAMS = {
    "sine_divfree": (), "cubic": (), "lshape_singular": ("alpha",), "random_rtn": ("p", "seed"),
}


def catalog(name: str, params: dict | None = None, mesh=None):
    """Built-in test fields by name.

    ``random_rtn`` needs the mesh (and returns a conforming discrete member
    wrapped for elementwise evaluation); the other entries are analytic.
    A parameter the field does not take is an error.
    """
    params = params or {}
    if name not in _PARAMS:
        raise FieldError(f"unknown field {name!r}")
    unknown = sorted(set(params) - set(_PARAMS[name]))
    if unknown:
        takes = ", ".join(_PARAMS[name]) or "no parameters"
        raise FieldError(f"field {name!r} takes {takes}, not {', '.join(unknown)}")
    if name == "sine_divfree":
        return _sine_divfree()
    if name == "cubic":
        return _cubic()
    if name == "lshape_singular":
        return _lshape_singular(float(params.get("alpha", 2.0 / 3.0)))
    # random_rtn
    if mesh is None:
        raise FieldError("random_rtn needs a mesh")
    from .projector import random_conforming_field

    p, seed = params.get("p", 1), params.get("seed", 0)
    if not all(isinstance(x, (int, np.integer)) and x >= 0 for x in (p, seed)):
        raise FieldError(f"random_rtn needs integers p >= 0 and seed >= 0, got p={p}, seed={seed}")
    return random_conforming_field(mesh, int(p), seed=int(seed))


def parse_field_spec(spec: str, mesh=None):
    """Parse 'name' or 'name:key=val,key=val' into a catalog field.

    Values are integers (``seed=3``) or numbers that ``Fraction`` reads
    (``alpha=0.5``, ``alpha=2/3``), the latter converted to float.
    """
    name, _, rest = spec.partition(":")
    params = {}
    for item in filter(None, rest.split(",")):
        k, _, v = item.partition("=")
        try:
            value = int(v) if v.lstrip("+-").isdigit() else float(Fraction(v))
        except (ValueError, ZeroDivisionError):
            value = None
        if not k or value is None:
            raise FieldError(f"bad field parameter {item!r} in {spec!r}: expected key=number")
        params[k] = value
    return catalog(name, params, mesh=mesh)


def divergence_theorem_defect(field, coords):
    """Relative defect of div-theorem on one triangle (quadrature self-check)."""
    from .quadrature import gauss01, quad_rule

    xs = np.asarray(coords, float).reshape(3, 2)
    B = np.column_stack([xs[1] - xs[0], xs[2] - xs[0]])
    detB = B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0]
    rule = quad_rule(20)
    vol = float(np.sum(rule.weights * abs(detB) * field.eval_div(rule.points @ B.T + xs[0])))
    flux = 0.0
    abs_flux = 0.0
    t, w = gauss01(12)
    for a, b in ((1, 2), (2, 0), (0, 1)):
        vec = xs[b] - xs[a]
        L = float(np.linalg.norm(vec))
        # the tangent rotated by -90 degrees points out of a counterclockwise triangle
        n = np.sign(detB) * np.array([vec[1], -vec[0]]) / L
        vn = field.eval(xs[a] + np.outer(t, vec)) @ n
        flux += L * float(np.sum(w * vn))
        abs_flux += L * float(np.sum(w * np.abs(vn)))
    scale = max(abs(vol), abs_flux, 1e-30)
    return abs(vol - flux) / scale


def bump_field(center, radius):
    """Smooth vector bump supported in the disc of given center/radius.

    Used for locality experiments: the first component is the classical
    mollifier profile, the second is zero.
    """
    cx, cy = center

    def profile(pts):
        rho2 = ((pts[:, 0] - cx) ** 2 + (pts[:, 1] - cy) ** 2) / radius**2
        out = np.zeros(len(pts))
        inside = rho2 < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - rho2[inside]))
        return out

    def v(pts):
        return np.stack([profile(pts), np.zeros(len(pts))], axis=1)

    def dv(pts):
        rho2 = ((pts[:, 0] - cx) ** 2 + (pts[:, 1] - cy) ** 2) / radius**2
        out = np.zeros(len(pts))
        inside = rho2 < 1.0
        f = np.exp(1.0 - 1.0 / (1.0 - rho2[inside]))
        out[inside] = -f * 2 * (pts[inside, 0] - cx) / radius**2 / (1 - rho2[inside]) ** 2
        return out

    return AnalyticField(name="bump", v=v, div=dv)
