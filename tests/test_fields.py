import numpy as np
import pytest

from hdivkit import fields
from hdivkit.fields import AnalyticField, FieldError, catalog, parse_field_spec
from hdivkit.quadrature import gauss01, quad_rule
from oracles import neumann_trace_residual


def divergence_theorem_defect(field, coords):
    """Relative defect of the divergence theorem on one triangle: the
    integral of div v against the outward flux of v."""
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
    """Smooth vector bump supported in the disc of given center/radius: the
    first component is the classical mollifier profile, the second is zero."""
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


def test_sine_divfree_values():
    v = catalog("sine_divfree")
    out = v.eval([[0.5, 0.5]])
    assert np.abs(out - [[1.0, 0.0]]).max() < 1e-15
    assert v.divergence_free


def test_cubic_divergence():
    v = catalog("cubic")
    assert abs(v.eval_div([[1.0, 1.0]])[0] - 6.0) < 1e-15


def test_lshape_divergence_free_by_quadrature():
    # harmonic potential: the divergence vanishes; check by the divergence
    # theorem on triangles away from the corner
    v = catalog("lshape_singular", {"alpha": 2 / 3})
    rng = np.random.default_rng(5)
    for _ in range(10):
        base = rng.random(2) * 0.5 + 0.25  # stays away from the origin
        coords = base + rng.random((3, 2)) * 0.2
        B = np.column_stack([coords[1] - coords[0], coords[2] - coords[0]])
        if np.linalg.det(B) < 0:
            coords[[1, 2]] = coords[[2, 1]]
        if abs(np.linalg.det(B)) < 1e-3:
            continue
        assert divergence_theorem_defect(v, coords) < 1e-9


def test_invalid_alpha():
    with pytest.raises(FieldError):
        catalog("lshape_singular", {"alpha": 1.5})
    with pytest.raises(FieldError):
        catalog("lshape_singular", {"alpha": 0.0})


def test_unknown_name():
    with pytest.raises(FieldError):
        catalog("nope")


def test_divergence_theorem_selfcheck_catalog():
    # every analytic catalog field's flux through random triangles matches
    # its declared divergence.  The library takes a divergence_free
    # declaration on trust (it never calls that field's div and takes its
    # divergence data as zeros), so each field declaring it is checked here
    # to have zero flux; lshape_singular, singular at its corner, is checked
    # away from it in test_lshape_divergence_free_by_quadrature
    rng = np.random.default_rng(11)
    analytic = [catalog(name) for name in fields._PARAMS if name != "random_rtn"]
    declared = {v.name for v in analytic if v.divergence_free}
    assert declared == {"sine_divfree", "lshape_singular"}
    for v in analytic:
        if v.singularity is not None:
            continue
        for _ in range(20):
            coords = rng.random((3, 2))
            B = np.column_stack([coords[1] - coords[0], coords[2] - coords[0]])
            if np.linalg.det(B) < 0:
                coords[[1, 2]] = coords[[2, 1]]
            if abs(np.linalg.det(B)) < 5e-2:
                continue
            if v.divergence_free:
                assert np.all(v.eval_div(coords) == 0.0)
            assert divergence_theorem_defect(v, coords) < 1e-9, v.name


def test_random_rtn_is_conforming(unit_square_2):
    v = catalog("random_rtn", {"p": 1, "seed": 4}, mesh=unit_square_2)
    assert v.is_discrete
    assert v.jump_residual() < 1e-11


def test_random_rtn_neumann_trace_zero():
    from hdivkit.mesh import build_structured

    m = build_structured(2, labels="left-neumann")
    v = catalog("random_rtn", {"p": 2, "seed": 1}, mesh=m)
    assert neumann_trace_residual(v) < 1e-12


def test_random_rtn_needs_mesh():
    with pytest.raises(FieldError):
        catalog("random_rtn", {"p": 1})


@pytest.mark.parametrize(
    "name,params",
    [
        ("sine_divfree", {"alpha": 0.5}),
        ("cubic", {"p": 1}),
        ("lshape_singular", {"alpa": 0.5}),
        ("lshape_singular", {"alpha": 0.5, "seed": 1}),
        ("random_rtn", {"p": 1, "alpha": 0.5}),
    ],
    ids=["sine", "cubic", "lshape-typo", "lshape-extra", "random-alpha"],
)
def test_unknown_field_parameter_is_an_error(unit_square_2, name, params):
    with pytest.raises(FieldError, match="takes"):
        catalog(name, params, mesh=unit_square_2)


@pytest.mark.parametrize(
    "params", [{"p": 1.5}, {"seed": 2.7}, {"p": 1.5, "seed": 2.7}, {"p": 2.0}, {"seed": "1"}]
)
def test_random_rtn_needs_integer_p_and_seed(unit_square_2, params):
    with pytest.raises(FieldError, match="integers"):
        catalog("random_rtn", params, mesh=unit_square_2)


def test_random_rtn_takes_numpy_integers(unit_square_2):
    v = catalog("random_rtn", {"p": np.int64(1), "seed": np.int64(4)}, mesh=unit_square_2)
    w = catalog("random_rtn", {"p": 1, "seed": 4}, mesh=unit_square_2)
    assert np.array_equal(v.dofs, w.dofs)


def test_parse_field_spec_unknown_key():
    with pytest.raises(FieldError, match="alpa"):
        parse_field_spec("lshape_singular:alpa=0.5")


def test_parse_field_spec():
    v = parse_field_spec("lshape_singular:alpha=0.5")
    assert v.params["alpha"] == 0.5
    v = parse_field_spec("cubic")
    assert v.name == "cubic"


def test_parse_field_spec_fraction():
    v = parse_field_spec("lshape_singular:alpha=2/3")
    assert abs(v.params["alpha"] - 2 / 3) <= 1e-15


@pytest.mark.parametrize("item", ["alpha", "alpha=x", "=0.5", "alpha=1/0"])
def test_parse_field_spec_malformed(item):
    with pytest.raises(FieldError, match="bad field parameter"):
        parse_field_spec(f"lshape_singular:{item}")


def test_bump_field_support_and_divergence():
    b = bump_field((0.5, 0.5), 0.2)
    pts = np.array([[0.5, 0.5], [0.55, 0.5], [0.9, 0.9]])
    vals = b.eval(pts)
    assert vals[0, 0] == pytest.approx(1.0)
    assert vals[2, 0] == 0.0
    # finite-difference check of the divergence inside the support
    eps = 1e-7
    fd = (b.eval([[0.55 + eps, 0.5]])[0, 0] - b.eval([[0.55 - eps, 0.5]])[0, 0]) / (
        2 * eps
    )
    assert abs(fd - b.eval_div([[0.55, 0.5]])[0]) < 1e-6
