import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from degeo import (ZeroBeta, area, energy, field_V_beta, homogeneous_length,
                   integrate_integral_curve, make_homogeneous,
                   minimizing_ellipse, rtilde, solve_beta_for_area,
                   solve_homogeneous, vertical_fiber_distance)
from degeo.homogeneous import _arc_area

RNG = np.random.default_rng(101)


def test_rtilde_and_fiber_distance():
    assert rtilde(np.array([2.0, 1.0]), 1.0, 3.0) == pytest.approx(3.5)
    assert vertical_fiber_distance(-0.4, 1.0, 3.0) == pytest.approx(1.6)


def test_field_has_unit_degenerate_speed():
    pot = make_homogeneous(1.2, 2.5)
    pts = RNG.normal(size=(30, 2))
    for beta in (0.3, math.pi / 2, -1.1):
        v = field_V_beta(pts, beta, 1.2, 2.5)
        speed = np.linalg.norm(v, axis=1) * pot.eval_F(pts)
        assert speed == pytest.approx(np.ones(30), rel=1e-12)


def test_homogeneous_length_closed_form():
    p0 = np.array([1.0, 0.5])
    rt = rtilde(p0, 1.0, 2.0)
    assert homogeneous_length(p0, 0.7, 1.0, 2.0) == pytest.approx(
        rt / math.sin(0.7))
    # negative beta spirals the other way at the same cost
    assert homogeneous_length(p0, -0.7, 1.0, 2.0) == pytest.approx(
        rt / math.sin(0.7))
    with pytest.raises(ZeroBeta):
        homogeneous_length(p0, 0.0, 1.0, 2.0)


def test_integrated_arc_reaches_well_at_predicted_cost():
    pot = make_homogeneous(1.0, 2.0)
    p0 = np.array([1.0, 0.0])
    for beta in (0.4, 1.2, -0.8):
        c = integrate_integral_curve(p0, beta, 1.0, 2.0, n_out=20000)
        assert c.vertices[0] == pytest.approx(p0)
        assert np.linalg.norm(c.vertices[-1]) == pytest.approx(0.0, abs=1e-12)
        e = energy(c, pot)
        assert e == pytest.approx(homogeneous_length(p0, beta, 1.0, 2.0),
                                  rel=2e-5)


def test_solve_beta_for_area_roundtrip():
    p0 = np.array([0.8, 0.3])
    for A in (0.05, 0.3, -0.2):
        beta = solve_beta_for_area(p0, A, 1.0, 2.0)
        assert math.copysign(1.0, beta) == math.copysign(1.0, A) or A == 0
        c = integrate_integral_curve(p0, beta, 1.0, 2.0, n_out=40000)
        assert area(c) == pytest.approx(A, abs=2e-6)


def test_huge_areas_solve_without_warning():
    # the root beta ~ rt(p0) / ((l1 + l2) A) is as small as 1.7e-19 here;
    # a numerical Lyapunov solve perturbed M and lost the bracket
    p0 = np.array([1.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for A in (1e15, -1e15, 1e18, -1e18):
            beta = solve_beta_for_area(p0, A, 1.0, 2.0)
            assert beta == pytest.approx(0.5 / (3.0 * A), rel=1e-10)
            assert _arc_area(p0, beta, 1.0, 2.0) == pytest.approx(A,
                                                                rel=1e-10)


def test_beta_area_map_is_monotone():
    p0 = np.array([1.0, 0.0])
    areas = []
    for beta in (0.3, 0.6, 1.0, 1.4):
        c = integrate_integral_curve(p0, beta, 1.0, 2.0, n_out=20000)
        areas.append(area(c))
    assert all(a > b for a, b in zip(areas, areas[1:]))


def test_minimizing_ellipse_rate():
    for lam1, lam2 in ((1.0, 2.0), (0.5, 0.5), (1.7, 3.1)):
        c, e = minimizing_ellipse(np.array([1.0, 0.4]), lam1, lam2, 4096)
        assert e / area(c) == pytest.approx(lam1 + lam2, rel=1e-4)


def test_minimizing_ellipse_needs_offset_point():
    with pytest.raises(ValueError):
        minimizing_ellipse(np.zeros(2), 1.0, 2.0, 64)


def test_solve_homogeneous_bundle():
    sol = solve_homogeneous(np.array([1.0, 0.0]), 0.1, 1.0, 2.0)
    assert sol.area == pytest.approx(0.1, abs=1e-5)
    assert sol.energy == pytest.approx(
        homogeneous_length(sol.p0, sol.beta, 1.0, 2.0), rel=1e-5)
    # mirror symmetry: opposite area costs the same
    neg = solve_homogeneous(np.array([1.0, 0.0]), -0.1, 1.0, 2.0)
    assert neg.energy == pytest.approx(sol.energy, rel=1e-6)
    assert neg.beta == pytest.approx(-sol.beta, rel=1e-6)


def test_solve_homogeneous_reports_the_exact_arc():
    p0 = np.array([0.8, 0.3])
    for A in (0.0, 0.05, -0.1, 3.0):
        sol = solve_homogeneous(p0, A, 1.0, 2.0)
        assert sol.energy == homogeneous_length(p0, sol.beta, 1.0, 2.0)
        assert sol.area == pytest.approx(A, abs=1e-12)
    flat = solve_homogeneous(np.array([1.0, 0.0]), 0.0, 1.0, 2.0)
    assert flat.beta == math.pi / 2


def test_energy_grows_with_enclosed_area():
    p0 = np.array([1.0, 0.0])
    sols = [solve_homogeneous(p0, A, 1.0, 2.0) for A in (0.0, 0.15, 0.3)]
    es = [s.energy for s in sols]
    assert es[0] < es[1] < es[2]
    # at large area the marginal cost approaches the ellipse rate l1 + l2
    s_hi = solve_homogeneous(p0, 3.0, 1.0, 2.0)
    s_hi2 = solve_homogeneous(p0, 3.2, 1.0, 2.0)
    slope = (s_hi2.energy - s_hi.energy) / 0.2
    assert slope == pytest.approx(3.0, rel=2e-2)


def test_bad_input_raises_value_error():
    for bad_p0 in ([1.0, 0.0, 3.0], [math.nan, 0.0], [math.inf, 1.0],
                   [0.0, 0.0], [[1.0, 0.0]]):
        with pytest.raises(ValueError):
            solve_beta_for_area(bad_p0, 0.1, 1.0, 2.0)
        with pytest.raises(ValueError):
            integrate_integral_curve(bad_p0, 0.5, 1.0, 2.0)
        with pytest.raises(ValueError):
            solve_homogeneous(bad_p0, 0.1, 1.0, 2.0)
        with pytest.raises(ValueError):
            minimizing_ellipse(bad_p0, 1.0, 2.0, 64)
    for n in (2, 1, 0):
        with pytest.raises(ValueError):
            minimizing_ellipse([1.0, 0.0], 1.0, 2.0, n)
    for bad_A in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            solve_beta_for_area([1.0, 0.0], bad_A, 1.0, 2.0)
        with pytest.raises(ValueError):
            solve_homogeneous([1.0, 0.0], bad_A, 1.0, 2.0)


BETAS = (0.1, 0.3, 0.7, 1.2, math.pi / 2, -0.2, -1.0)


@pytest.mark.parametrize("beta", BETAS)
def test_exact_arc_matches_rk45_shooting(beta):
    # independent route: shoot along field_V_beta in the original time t
    # with RK45, carrying the running integral of p1 dp2 as a third state
    lam1, lam2 = 1.0, 2.0
    p0 = np.array([1.0, 0.0])
    sign = math.copysign(1.0, beta)
    rt0 = float(rtilde(p0, lam1, lam2))

    def rhs(_t, y):
        v = sign * field_V_beta(y[:2], beta, lam1, lam2)
        return (v[0], v[1], y[0] * v[1])

    # rt falls at the rate |sin beta| in t, to 1e-14 rt0 at t_end
    t_end = (1.0 - 1e-14) * rt0 / abs(math.sin(beta))
    sol = solve_ivp(rhs, (0.0, t_end), (p0[0], p0[1], 0.0), method="RK45",
                    rtol=1e-11, atol=1e-14, dense_output=True)
    assert sol.success
    px, py, a = sol.y[:, -1]
    shot_area = a - 0.5 * px * py  # closing segment to the well
    assert _arc_area(p0, beta, lam1, lam2) == pytest.approx(shot_area,
                                                            abs=1e-9)

    # the sampled vertices lie on the shot path at t = (rt0 - rt(p)) / |sin|;
    # the shot's relative accuracy fades toward the well, where its speed
    # 1/F blows up, so the path is compared out to |p| = 0.1 |p0|
    v = integrate_integral_curve(p0, beta, lam1, lam2).vertices[:-1]
    r = np.linalg.norm(v, axis=1)
    v, r = v[r >= 0.1], r[r >= 0.1]
    t = (rt0 - rtilde(v, lam1, lam2)) / abs(math.sin(beta))
    err = np.linalg.norm(sol.sol(t)[:2].T - v, axis=1) / r
    assert len(v) > 100 and err.max() <= 1e-7


# property draws: p0 away from the well, rates and areas up to A = 50
_coord = st.floats(-2.0, 2.0)
_rate = st.floats(0.3, 3.0)
_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                     database=None)


def _p0(x, y):
    assume(math.hypot(x, y) >= 0.1)
    return np.array([x, y])


def _beta_energy(p0, A, lam1, lam2):
    # what solve_homogeneous returns as beta and energy, without its polyline
    beta = solve_beta_for_area(p0, A, lam1, lam2)
    return beta, homogeneous_length(p0, beta, lam1, lam2)


def _field_angle(beta):
    # beta = pi/2 and -pi/2 name the same radial field; modulo pi the field
    # depends continuously on beta across that point
    return beta % math.pi


@_PROPERTY
@given(_coord, _coord, _rate, _rate, st.floats(-50.0, 50.0),
       st.floats(0.2, 5.0))
def test_property_scaling(x, y, lam1, lam2, A, s):
    p0 = _p0(x, y)
    beta, E = _beta_energy(p0, A, lam1, lam2)
    big_beta, big_E = _beta_energy(s * p0, s * s * A, lam1, lam2)
    assert _field_angle(big_beta) == pytest.approx(_field_angle(beta),
                                                   rel=1e-9, abs=1e-14)
    assert big_E == pytest.approx(s * s * E, rel=1e-9)


@_PROPERTY
@given(_coord, _coord, _rate, _rate, st.floats(-50.0, 50.0))
def test_property_mirror(x, y, lam1, lam2, A):
    p0 = _p0(x, y)
    beta, E = _beta_energy(p0, A, lam1, lam2)
    mir_beta, mir_E = _beta_energy(p0 * [1.0, -1.0], -A, lam1, lam2)
    # beta -> -beta, which is pi - beta modulo pi
    assert _field_angle(mir_beta) == pytest.approx(
        math.pi - _field_angle(beta), rel=1e-9, abs=1e-14)
    assert mir_E == pytest.approx(E, rel=1e-9)


@_PROPERTY
@given(_coord, _coord, _rate, _rate, st.floats(-50.0, 50.0))
def test_property_quarter_turn(x, y, lam1, lam2, A):
    # the quarter turn (p1, p2) -> (-p2, p1) swaps the rates and turns the
    # area form p1 dp2 into p1 dp2 - d(p1 p2), so the arc into the well,
    # where p1 p2 = 0, encloses p1 p2 at p0 more
    p0 = _p0(x, y)
    beta = solve_beta_for_area(p0, A, lam1, lam2)
    turned = solve_beta_for_area([-y, x], A + x * y, lam2, lam1)
    assert _field_angle(turned) == pytest.approx(_field_angle(beta),
                                                 rel=1e-9, abs=1e-14)


@_PROPERTY
@given(_coord, _coord, _rate, _rate)
def test_property_slope_approaches_packing_rate(x, y, lam1, lam2):
    # dE/dA = (l1 + l2) cos(beta), and beta <= 1/100 at A = 50 |p0|^2
    p0 = _p0(x, y)
    A = 50.0 * float(p0 @ p0)
    h = 1e-3 * A
    (_, lo), (_, hi) = (_beta_energy(p0, a, lam1, lam2)
                        for a in (A - h, A + h))
    slope = (hi - lo) / (2.0 * h)
    assert slope < lam1 + lam2
    assert slope == pytest.approx(lam1 + lam2, rel=1e-3)
