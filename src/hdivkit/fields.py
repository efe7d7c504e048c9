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
weighted rules; ``divergence_free`` declares div v = 0 everywhere, which the
library takes on trust: it never calls such a field's ``div``, takes every
divergence quantity (samples, P_p moments, oscillation) as exact zeros and
runs no quadrature self-check on it.  Discrete fields are never declared
divergence-free.
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
    """A vector field given by callables ``v`` (pts (n, 2) -> (n, 2)) and
    ``div`` (pts -> (n,)).

    ``divergence_free=True`` is a contract: div v = 0 everywhere.  The
    library then never calls ``div``, its divergence data are exact zeros
    and it gets no quadrature self-check; a field with a nonzero divergence
    must not declare it.  ``poly_degree`` and ``singularity`` select
    quadrature (see the module docstring).
    """

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
