import numpy as np
import pytest

import oracles
from hdivkit.quadrature import (
    UnsupportedDegreeError,
    check_exactness,
    corner_rules,
    gauss01,
    jacobi01,
    quad_rule,
)


@pytest.mark.parametrize("degree", list(range(0, 21)) + [25, 30])
def test_exactness_all_monomials(degree):
    rule = quad_rule(degree)
    assert rule.degree >= degree
    assert check_exactness(rule) <= 1e-13


def test_weights_sum_to_area():
    for degree in range(0, 21):
        rule = quad_rule(degree)
        assert abs(rule.weights.sum() - 0.5) < 1e-14
        assert np.all(np.isfinite(rule.weights))


def test_specific_integrals():
    rule = quad_rule(6)
    pts, w = rule.points, rule.weights
    assert abs(w.sum() - 0.5) < 1e-15  # integral of 1
    xy = pts[:, 0] * pts[:, 1]
    assert abs(w @ xy - 1 / 24) < 1e-15  # a! b! / (a+b+2)! = 1/24
    x4 = pts[:, 0] ** 4
    assert abs(w @ x4 - 1 / 30) < 1e-15


def test_unsupported_degree():
    with pytest.raises(UnsupportedDegreeError):
        quad_rule(-1)
    with pytest.raises(UnsupportedDegreeError):
        quad_rule(10_000)


def test_gauss01_exactness():
    t, w = gauss01(5)
    for k in range(10):
        assert abs(w @ t**k - 1 / (k + 1)) < 1e-14


def test_jacobi01_weighted_exactness():
    gamma = -1 / 3
    t, w = jacobi01(6, gamma)
    # int_0^1 t^gamma t^k dt = 1 / (k + gamma + 1)
    for k in range(8):
        assert abs(w @ t**k - 1 / (k + gamma + 1)) < 1e-13


def test_corner_rule_radial_integrands():
    coords = np.array([[0.0, 0.0], [0.5, 0.0], [0.5, 0.5]])
    gamma = -1 / 3
    (pts,), (wts,) = corner_rules(coords[None], np.array([0]), gamma, 20, 12)
    r = np.linalg.norm(pts, axis=1)
    # r^gamma against 1 and against x*y, exact values via 1D angular quadrature
    from scipy.integrate import quad as squad

    exact1 = squad(
        lambda th: (0.5 / np.cos(th)) ** (gamma + 2) / (gamma + 2), 0, np.pi / 4
    )[0]
    got1 = np.sum(wts * r**gamma)
    assert abs(got1 - exact1) / exact1 < 1e-13
    exact2 = squad(
        lambda th: np.cos(th) * np.sin(th) * (0.5 / np.cos(th)) ** (gamma + 4) / (gamma + 4),
        0,
        np.pi / 4,
    )[0]
    got2 = np.sum(wts * r**gamma * pts[:, 0] * pts[:, 1])
    assert abs(got2 - exact2) / abs(exact2) < 1e-12


@pytest.mark.parametrize("corner", [0, 1, 2])
@pytest.mark.parametrize("gamma", [-1 / 3, 0.5])
def test_corner_rule_matches_point_loop(corner, gamma):
    # points to the bit, weights to roundoff, on a general triangle and on
    # one whose wedge straddles the branch cut of arctan2
    for coords in ([[0.1, -0.2], [0.7, 0.05], [0.3, 0.6]], [[0.0, 0.0], [-1.0, 0.1], [-1.0, -0.1]]):
        for n_th, n_r in ((20, 12), (33, 21)):
            (got_pts,), (got_wts,) = corner_rules(np.array(coords)[None], np.array([corner]), gamma, n_th, n_r)
            pts, wts = oracles.corner_rule_oracle(coords, corner, gamma, n_th, n_r)
            assert np.array_equal(got_pts, pts)
            assert np.abs(got_wts - wts).max() <= 1e-15 * np.abs(wts).max()


@pytest.mark.parametrize("gamma", [-1 / 3, 0.5])
def test_corner_rules_match_one_triangle_at_a_time(gamma):
    # a stack of wedges, every corner index and a wedge across the branch
    # cut of arctan2 among them, in one call: each row is the rule of its
    # triangle alone
    rng = np.random.default_rng(3)
    coords = np.concatenate([rng.uniform(-1, 1, (6, 3, 2)), [[[0.0, 0.0], [-1.0, 0.1], [-1.0, -0.1]]]])
    corners = np.array([0, 1, 2, 0, 1, 2, 0])
    pts, wts = corner_rules(coords, corners, gamma, 23, 17)
    assert pts.shape == (7, 23 * 17, 2) and wts.shape == (7, 23 * 17)
    for k in range(len(coords)):
        (one_pts,), (one_wts,) = corner_rules(coords[k : k + 1], corners[k : k + 1], gamma, 23, 17)
        assert np.abs(pts[k] - one_pts).max() <= 1e-15 * np.abs(one_pts).max()
        assert np.abs(wts[k] - one_wts).max() <= 1e-15 * np.abs(one_wts).max()
