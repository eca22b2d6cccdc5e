import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from degeo import (Curve, DesingularizedPath, GapTooLarge, InvalidC1,
                   InvalidCoefficient, InvalidDensity, NonExistence,
                   NotInNonexistenceRegime, area_polar,
                   compare_b_negative, delivered_area, energy,
                   energy_RA, existence_threshold, figure1_bundle,
                   lagrange_multiplier_radial, make_radial_quartic,
                   parabola_energy, parabola_geodesic, path_from_csv,
                   path_to_csv, solve_C1_for_area, spiral_from_C1, to_RA,
                   vertical_segment_resolution)

RNG = np.random.default_rng(23)

NAN = math.nan


# unchecked, these return NaN (a path of NaNs, or (nan, nan) for the
# comparison) or fail with a bare ValueError that names no parameter
@pytest.mark.parametrize("call, args, error", [
    (parabola_energy, (0.5, NAN, 1.0), InvalidCoefficient),
    (parabola_energy, (NAN, 1.0, 1.0), InvalidC1),
    (delivered_area, (0.5, 1.0, NAN), InvalidCoefficient),
    (delivered_area, (0.5, 1.0, -1.0), InvalidCoefficient),
    (lagrange_multiplier_radial, (NAN,), InvalidC1),
    (parabola_geodesic, (0.5, NAN, 1.0, 8), InvalidCoefficient),
    (spiral_from_C1, (NAN, 1.0, 1.0, 0.1), InvalidC1),
    (spiral_from_C1, (0.5, NAN, 1.0, 0.1), InvalidCoefficient),
    (compare_b_negative, (-0.5, NAN), ValueError),
], ids=lambda x: getattr(x, "__name__", None))
def test_closed_forms_reject_nan_and_negative_parameters(call, args, error):
    with pytest.raises(error):
        call(*args)


def test_existence_threshold_values():
    assert existence_threshold(1.0, 1.0) == pytest.approx(0.5)
    assert existence_threshold(4.0, 1.0) == pytest.approx(1.0)
    assert existence_threshold(1.0, 4.0) == pytest.approx(0.25)
    with pytest.raises(InvalidCoefficient):
        existence_threshold(1.0, -1.0)
    with pytest.raises(InvalidCoefficient):
        existence_threshold(0.0, 1.0)
    # the last two: each is finite, but b R0 overflows
    for R0, b in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan),
                  (1.0, math.inf), (1e300, 1e10), (1e10, 1e300)):
        with pytest.raises(InvalidCoefficient):
            existence_threshold(R0, b)
    with pytest.raises(InvalidCoefficient):
        figure1_bundle(1e300, 0.3, 1e10)
    # b R0 = 1e210 is finite, but the parabola energy overflows on the way
    with pytest.raises(InvalidCoefficient, match="b R0 = 1e"):
        figure1_bundle(1e200, 0.3, 1e10)


def test_non_finite_area_rejected():
    for A in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            figure1_bundle(1.0, A, 1.0)
        with pytest.raises(ValueError):
            solve_C1_for_area(1.0, A, 1.0)
        with pytest.raises(ValueError):
            vertical_segment_resolution(1.0, A, 1.0)


def test_threshold_is_tangent_parabola_area():
    # the cap is exactly the area the |C1| = 1 parabola delivers
    for _ in range(10):
        R0 = float(RNG.uniform(0.3, 3.0))
        b = float(RNG.uniform(0.2, 4.0))
        assert delivered_area(1.0, R0, b) == pytest.approx(
            existence_threshold(R0, b), rel=1e-14)


def test_solve_C1_roundtrip_and_bounds():
    for _ in range(10):
        R0 = float(RNG.uniform(0.3, 3.0))
        b = float(RNG.uniform(0.2, 4.0))
        thr = existence_threshold(R0, b)
        At = float(RNG.uniform(-0.95, 0.95)) * thr
        c1 = solve_C1_for_area(R0, At, b)
        assert abs(c1) <= 1.0
        assert delivered_area(c1, R0, b) == pytest.approx(At, abs=1e-12)
        with pytest.raises(NonExistence):
            solve_C1_for_area(R0, 1.01 * thr, b)
    assert solve_C1_for_area(1.0, 0.0, 1.0) == 0.0


def test_parabola_energy_matches_quadrature():
    # closed form against the midpoint rule on the sampled graph
    for c1 in (0.0, 0.3, -0.7, 0.95):
        path = parabola_geodesic(c1, 1.5, 2.0, 20001)
        assert energy_RA(path) == pytest.approx(
            parabola_energy(c1, 2.0, 1.5), rel=1e-8)


def test_parabola_geodesic_endpoints_and_area():
    path = parabola_geodesic(0.6, 1.0, 1.0, 101)
    assert path.R[0] == pytest.approx(1.0)
    assert path.R[-1] == 0.0
    assert path.alpha[0] == 0.0
    # alpha gain is four times the delivered polar area
    assert path.alpha[-1] == pytest.approx(4.0 * delivered_area(0.6, 1.0, 1.0))
    with pytest.raises(InvalidC1):
        parabola_geodesic(1.2, 1.0, 1.0, 16)


def test_multiplier_linear_in_C1():
    assert lagrange_multiplier_radial(0.35) == pytest.approx(0.7)
    assert lagrange_multiplier_radial(-1.0) == pytest.approx(-2.0)
    with pytest.raises(InvalidC1):
        lagrange_multiplier_radial(1.5)


def test_energy_curves_up_in_area():
    # cost is even in the area and strictly convex on the existence window
    b, R0 = 1.0, 1.0
    areas = np.linspace(-0.45, 0.45, 7)
    es = [parabola_energy(solve_C1_for_area(R0, a, b), R0, b) for a in areas]
    assert es == pytest.approx(es[::-1], rel=1e-12)
    d2 = np.diff(es, 2)
    assert np.all(d2 > 0)


def test_to_RA_and_back_on_planar_spiral():
    pot = make_radial_quartic(1.0)
    c = spiral_from_C1(0.5, 1.0, 1.0, 0.05)
    path = to_RA(c, (0.0, 0.0), b=1.0)
    # desingularized energy of the plane curve equals its weighted length
    # (two independent midpoint rules, so only up to discretization error)
    assert energy_RA(path) == pytest.approx(energy(c, pot), rel=1e-4)
    # and alpha tracks four times the polar area
    assert path.alpha[-1] == pytest.approx(4.0 * area_polar(c), rel=1e-9)


def test_spiral_delivers_requested_multiplier_geometry():
    # winding direction follows the sign of C1
    cw = spiral_from_C1(-0.4, 1.0, 1.0, 0.1)
    ccw = spiral_from_C1(0.4, 1.0, 1.0, 0.1)
    assert area_polar(cw) < 0 < area_polar(ccw)
    r_end = np.linalg.norm(ccw.vertices[-1])
    assert r_end == pytest.approx(0.1, rel=1e-9)


def test_tangent_spiral_logarithmic_length():
    # |C1| = 1 winds like dtheta = dr / r, one ln(10) of arclength per decade
    c = spiral_from_C1(1.0, 1.0, 1.0, 0.01)
    v = c.vertices
    r = np.linalg.norm(v, axis=1)
    seg = np.linalg.norm(np.diff(v, axis=0), axis=1)
    for lo in (0.1, 0.01):
        mask = (r[:-1] >= lo) & (r[:-1] < 10.0 * lo)
        assert seg[mask].sum() >= math.log(10.0) * (1.0 - 1e-2)


def test_vertical_segment_above_threshold():
    path, extent = vertical_segment_resolution(1.0, 0.7, 1.0)
    assert extent == pytest.approx(4.0 * (0.7 - 0.5))
    assert path.R[-1] == 0.0
    assert path.alpha[-1] == pytest.approx(2.8)
    with pytest.raises(NotInNonexistenceRegime):
        vertical_segment_resolution(1.0, 0.3, 1.0)


def test_compare_b_negative_prefers_parabola():
    for b in (-0.2, -0.5, -0.9):
        for gap in (0.1, 1.0):
            par, vert = compare_b_negative(b, gap)
            assert par < vert
            assert vert == pytest.approx(gap / 2.0)
    with pytest.raises(GapTooLarge):
        compare_b_negative(-0.5, 5.0)
    with pytest.raises(InvalidCoefficient):
        compare_b_negative(0.5, 0.1)


def test_figure1_bundle_both_regimes():
    below = figure1_bundle(1.0, 0.3, 1.0)
    assert below["vertical_extent"] == 0.0
    assert below["total_cost"] == pytest.approx(
        parabola_energy(below["C1"], 1.0, 1.0))
    above = figure1_bundle(1.0, 0.8, 1.0)
    assert above["C1"] == 1.0
    assert above["vertical_cost"] == pytest.approx(0.5 * above["vertical_extent"])
    # marginal cost of excess area is the vertical rate 2 = 4 * (1/2)
    above2 = figure1_bundle(1.0, 0.9, 1.0)
    assert above2["total_cost"] - above["total_cost"] == pytest.approx(0.2)


def test_path_csv_roundtrip(tmp_path):
    path = parabola_geodesic(0.4, 1.0, 1.0, 50)
    path_to_csv(path, tmp_path / "table.csv")
    back = path_from_csv(tmp_path / "table.csv", b=1.0)
    assert back.R == pytest.approx(path.R, abs=0.0)
    assert back.alpha == pytest.approx(path.alpha, abs=0.0)
    assert back.b == 1.0


def test_path_validation():
    from degeo import DesingularizedPath
    with pytest.raises(ValueError):
        DesingularizedPath(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        DesingularizedPath(np.array([1.0, 1.0]), np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        DesingularizedPath(np.array([1.0, -0.5]), np.array([0.0, 1.0]))


# t = A / threshold stops at 0.99: the map C1 -> area has condition number
# about 2 t / (b R0 (1 - t^2)), so at b R0 = 1e-6 and t = 0.999 a single
# rounding of C1 moves the area by more than 1e-7 of itself
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), st.floats(-0.99, 0.99))
@example(1.0, 1.0, 2e-300)
def test_property_C1_delivers_its_area(R0, b, t):
    A = t * existence_threshold(R0, b)
    # a subnormal area holds too few bits for a relative bound
    assume(A == 0.0 or abs(A) >= 1e-300)
    c1 = solve_C1_for_area(R0, A, b)
    assert abs(c1) <= 1.0
    assert solve_C1_for_area(R0, -A, b) == -c1
    assert abs(delivered_area(c1, R0, b) - A) <= 1e-7 * abs(A)


def test_C1_near_the_threshold_delivers_its_area():
    # b R0 = 2.9e-5 and t = -0.9991: condition number about 4e7
    R0, b = 4.3e-3, 6.7e-3
    A = -0.9991 * existence_threshold(R0, b)
    c1 = solve_C1_for_area(R0, A, b)
    assert abs(delivered_area(c1, R0, b) - A) <= 1e-7 * abs(A)


def test_desingularized_path_checks_its_samples():
    with pytest.raises(ValueError, match="equal length"):
        DesingularizedPath(R=[0.0, 1.0, 2.0], alpha=[0.0, 1.0])
    # 1 + b R vanishes at the midpoint R = 1 for b = -1
    path = DesingularizedPath(R=[0.0, 2.0], alpha=[0.0, 1.0], b=-1.0)
    with pytest.raises(InvalidDensity):
        energy_RA(path)


def test_area_at_the_threshold_gives_the_extreme_slope():
    R0, b = 1.0, 1.0
    thr = existence_threshold(R0, b)
    assert solve_C1_for_area(R0, thr, b) == 1.0
    assert solve_C1_for_area(R0, -thr, b) == -1.0


@pytest.mark.parametrize("r_inner", [0.5, 0.8])
def test_spiral_needs_its_inner_radius_inside_the_outer(r_inner):
    with pytest.raises(ValueError, match="r_inner < r_outer"):
        spiral_from_C1(0.5, 1.0, 0.5, r_inner)
