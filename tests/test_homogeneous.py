import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from degeo import (GridTooCoarse, NonPositiveEigenvalue, ZeroBeta, area,
                   energy, field_V_beta, homogeneous_length,
                   integrate_integral_curve, make_homogeneous,
                   minimizing_ellipse, rtilde, solve_beta_for_area,
                   solve_homogeneous, vertical_fiber_distance)
from degeo.homogeneous import _arc_area, _exp_flow, _flow_matrix

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


def test_zero_beta_and_bad_rates_raise_everywhere():
    p0 = np.array([1.0, 0.0])
    for call in (homogeneous_length, integrate_integral_curve):
        with pytest.raises(ZeroBeta):
            call(p0, 0.0, 1.0, 2.0)
    # the rates make_homogeneous rejects; unchecked, (1, -2) solves to a
    # negative energy at A = 0.3
    for rates in ((1.0, -2.0), (0.0, 2.0), (math.nan, 2.0), (1.0, 1e200)):
        for call, arg in ((solve_homogeneous, 0.3),
                          (solve_beta_for_area, 0.3),
                          (integrate_integral_curve, 0.5),
                          (homogeneous_length, 0.5)):
            with pytest.raises(NonPositiveEigenvalue):
                call(p0, arg, *rates)


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


@pytest.mark.parametrize("call, error", [
    (lambda: homogeneous_length((1.0, 0.0), math.nan, 1.0, 2.0), ValueError),
    # integrate_integral_curve rejects |beta| > pi/2 too
    (lambda: homogeneous_length((1.0, 0.0), 2.0, 1.0, 2.0), ValueError),
    (lambda: homogeneous_length((math.nan, 0.0), 0.5, 1.0, 2.0), ValueError),
    (lambda: vertical_fiber_distance(math.nan, 1.0, 2.0), ValueError),
    (lambda: vertical_fiber_distance(math.inf, 1.0, 2.0), ValueError),
    (lambda: vertical_fiber_distance(0.3, -1.0, 2.0), NonPositiveEigenvalue),
    (lambda: minimizing_ellipse((1.0, 0.0), 1.0, -2.0, 16),
     NonPositiveEigenvalue)],
    ids=["length_nan_beta", "length_beta_past_pi_2", "length_nan_p0",
         "fiber_nan_A", "fiber_inf_A", "fiber_negative_rate",
         "ellipse_negative_rate"])
def test_closed_forms_reject_bad_input(call, error):
    # each of these returned a number (NaN, inf or a wrong finite value)
    # or a bare math domain error before the closed forms checked input
    with pytest.raises(error):
        call()


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


@_PROPERTY
@given(_coord, _coord, _rate, _rate, st.integers(-300, 300),
       st.sampled_from((1.0, -1.0)))
def test_property_beta_round_trip_at_every_decade(x, y, lam1, lam2, k, sign):
    p0 = _p0(x, y)
    A = sign * 10.0 ** k
    beta = solve_beta_for_area(p0, A, lam1, lam2)
    assert abs(_arc_area(p0, beta, lam1, lam2) - A) <= 1e-14 * (
        abs(A) + float(p0 @ p0))


def test_beta_round_trip_up_to_the_largest_areas():
    # beta ~ 1 / (6 A) here, subnormal past A = 1e307
    p0 = np.array([1.0, 0.0])
    for A in np.geomspace(1.71e59, 1e308, 200):
        for a in (float(A), -float(A)):
            beta = solve_beta_for_area(p0, a, 1.0, 2.0)
            assert abs(_arc_area(p0, beta, 1.0, 2.0) - a) <= 1e-14 * (
                abs(a) + 1.0)


def test_out_of_reach_areas_raise_naming_the_area():
    # beta underflows to 0
    with pytest.raises(ValueError, match=re.escape("1e+10")):
        solve_beta_for_area([1e-160, 0.0], 1e10, 1.0, 2.0)
    # beta is found, but exp(M tau) overflows on the stop-time bracket
    for A in (1e40, 1e59, 2e59, 1e100, -1e200, 1e308):
        beta = solve_beta_for_area([1.0, 0.0], A, 1.0, 2.0)
        with pytest.raises(ValueError, match=re.escape(f"{beta:g}")):
            integrate_integral_curve([1.0, 0.0], beta, 1.0, 2.0)
        with pytest.raises(ValueError, match=re.escape(f"{A:g}")):
            solve_homogeneous([1.0, 0.0], A, 1.0, 2.0)


def test_arc_samples_follow_the_arc_or_raise():
    # each sample turns by h, and the polyline misses the arc's area and
    # weighted length by about h^2/6; h passes 0.245 radians, a 1% miss,
    # near A = 630 from (1,0) with rates (1,2)
    pot = make_homogeneous(1.0, 2.0)
    sol = solve_homogeneous([1.0, 0.0], 600.0, 1.0, 2.0)
    assert area(sol.curve) == pytest.approx(600.0, rel=1e-2)
    assert energy(sol.curve, pot) == pytest.approx(sol.energy, rel=1e-2)
    for A in (700.0, -1e4):
        beta = solve_beta_for_area([1.0, 0.0], A, 1.0, 2.0)
        with pytest.raises(GridTooCoarse, match=re.escape(f"area {A:g} ")):
            integrate_integral_curve([1.0, 0.0], beta, 1.0, 2.0)
    # an explicit sample count is held to the same bound
    beta = solve_beta_for_area([1.0, 0.0], 10.0, 1.0, 2.0)
    with pytest.raises(GridTooCoarse):
        integrate_integral_curve([1.0, 0.0], beta, 1.0, 2.0, n_out=1000)


# (beta, l1, l2, sign of l1 l2 - a^2) for each branch of the closed form:
# complex eigenvalues, real ones near |sin beta| = 1 with l1 != l2 (and
# just past the repeated root, 2e-6 apart, where g needs expm1), and a
# repeated root: sin beta = 0.8 with rates (1, 4) gives a = -2 and
# a^2 = l1 l2 exactly, and M - aI is a nonzero nilpotent
_FLOW_BRANCHES = {
    "complex": (0.7, 1.0, 2.0, 1.0),
    "complex_reversed": (-0.3, 1.0, 2.0, 1.0),
    "real": (1.45, 1.0, 2.0, -1.0),
    "real_reversed": (-math.pi / 2, 1.0, 2.0, -1.0),
    "real_near_repeated": (math.asin(2.0 * math.sqrt(2.0) / 3.0 + 1e-12),
                           1.0, 2.0, -1.0),
    "repeated": (math.asin(0.8), 1.0, 4.0, 0.0),
}


@pytest.mark.parametrize("branch", sorted(_FLOW_BRANCHES))
def test_closed_form_flow_matches_expm(branch):
    beta, lam1, lam2, sign = _FLOW_BRANCHES[branch]
    a = -0.5 * abs(math.sin(beta)) * (lam1 + lam2)
    assert np.sign(lam1 * lam2 - a * a) == sign
    M = _flow_matrix(beta, lam1, lam2)
    taus = np.array([0.0, 1e-3, 0.1, 1.0, 3.0])
    flows = _exp_flow(beta, lam1, lam2, taus)
    assert flows.shape == (taus.size, 2, 2)
    for tau, flow in zip(taus, flows):
        ref = expm(M * tau)
        assert np.abs(flow - ref).max() <= 1e-13 * np.abs(ref).max()
    assert np.array_equal(_exp_flow(beta, lam1, lam2, 1.0), flows[3])


def test_closed_form_flow_does_not_overflow():
    # rates (1, 100) at beta = pi/2: eigenvalues a +- v = -1 and -100, so
    # e^{a tau} cosh(v tau) is 0 * inf at tau = 100, while exp(M tau) is
    # about e^{-100}
    M = _flow_matrix(math.pi / 2, 1.0, 100.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flow = _exp_flow(math.pi / 2, 1.0, 100.0, 100.0)
    ref = expm(M * 100.0)
    assert np.abs(flow - ref).max() <= 1e-12 * np.abs(ref).max()
