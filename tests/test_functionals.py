import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degeo import (Curve, Curve3, area, area_polar, curve_from_csv,
                   curve_to_csv, discrete_area_gradient, energy, lift,
                   make_homogeneous)
from degeo.functionals import segment_geometry, table_from_csv, table_to_csv
from degeo.potential import _row_norms
from degeo.radial import path_from_csv
from degeo.solver import _one_pass
from degeo.wave import profile_from_csv

RNG = np.random.default_rng(11)


def _circle(radius, n, center=(0.0, 0.0)):
    th = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    pts = np.stack([center[0] + radius * np.cos(th),
                    center[1] + radius * np.sin(th)], axis=1)
    return Curve(np.vstack([pts, pts[:1]]))


def test_curve_shape_validation():
    with pytest.raises(ValueError):
        Curve(np.zeros((1, 2)))
    with pytest.raises(ValueError):
        Curve(np.zeros((4, 3)))
    with pytest.raises(ValueError):
        Curve3(np.zeros((4, 2)))


def test_segments_and_midpoints_closed_wrap():
    # a closed loop repeats its first vertex, so its last chord wraps
    v = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    geo = segment_geometry(v)
    assert geo.seg.shape == (3, 2)
    assert geo.seg[-1] == pytest.approx([-1.0, -1.0])
    assert geo.mid[-1] == pytest.approx([0.5, 0.5])
    assert area(Curve(v)) == 0.5
    assert segment_geometry(v[:-1]).seg.shape == (2, 2)


def test_area_of_polygonal_circle():
    # inscribed regular n-gon: area = (n/2) r^2 sin(2 pi / n)
    n, r = 1000, 1.3
    c = _circle(r, n)
    exact = 0.5 * n * r**2 * math.sin(2.0 * math.pi / n)
    assert area(c) == pytest.approx(exact, rel=1e-13)
    assert area(c) == pytest.approx(math.pi * r**2, rel=1e-5)
    # clockwise traversal flips the sign
    cw = Curve(c.vertices[::-1].copy())
    assert area(cw) == pytest.approx(-area(c), rel=1e-13)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
                min_size=2, max_size=40),
       st.booleans())
def test_area_equals_the_solver_pass_bit_for_bit(points, closed):
    # the solver's constraint gap, its gradient kernel and the reported
    # area are one number, on open polylines and explicit loops alike
    v = np.array(points)
    if closed:
        v = np.vstack([v, v[:1]])
    a = area(Curve(v))
    one = _one_pass(v, make_homogeneous(1.0, 2.0), 0.0, 0.0, 0.0)
    assert a == one.area
    assert a == discrete_area_gradient(v)[0]


def test_area_polar_matches_area_on_closed_curves():
    c = _circle(0.8, 257, center=(0.3, -0.2))
    assert area_polar(c) == pytest.approx(area(c), rel=1e-12)
    # recentring changes the open-curve value but not the closed one
    assert area_polar(c, center=(5.0, 1.0)) == pytest.approx(area(c), rel=1e-10)


def test_area_open_curve_is_x_dy_line_integral():
    # quarter turn on the unit circle from (1,0) to (0,1):
    # integral of x dy = pi/4 + shoelace triangle correction... compute
    # directly against dense quadrature of x(t) y'(t) dt instead.
    t = np.linspace(0.0, 0.5 * math.pi, 20001)
    v = np.stack([np.cos(t), np.sin(t)], axis=1)
    quad = np.trapezoid(np.cos(t) * np.cos(t), t)
    assert area(Curve(v)) == pytest.approx(quad, abs=1e-9)


def test_energy_straight_segment_homogeneous():
    # along the x axis F = lambda1 |x|, so the weighted length from a to b
    # is lambda1 (b^2 - a^2) / 2
    pot = make_homogeneous(1.4, 2.3)
    x = np.linspace(1.0, 2.0, 4001)
    c = Curve(np.stack([x, np.zeros_like(x)], axis=1))
    assert energy(c, pot) == pytest.approx(1.4 * 1.5, rel=1e-8)


def test_energy_midpoint_rule_second_order():
    pot = make_homogeneous(1.0, 2.0)
    vals = []
    for n in (64, 128):
        th = np.linspace(0.0, math.pi, n)
        c = Curve(np.stack([np.cos(th), np.sin(th)], axis=1))
        vals.append(energy(c, pot))
    # refined grid should land much closer to the n -> inf limit
    th = np.linspace(0.0, math.pi, 40001)
    ref = energy(Curve(np.stack([np.cos(th), np.sin(th)], axis=1)), pot)
    assert abs(vals[1] - ref) < 0.3 * abs(vals[0] - ref)


def test_lift_accumulates_area():
    c = _circle(1.0, 64)
    lifted = lift(c)
    assert lifted.vertices.shape == (65, 3)
    assert lifted.vertices[0, 2] == 0.0
    assert lifted.third_delta == pytest.approx(area(c), rel=1e-14)
    assert lifted.project().vertices.shape == (65, 2)
    open_c = Curve(RNG.normal(size=(10, 2)))
    assert lift(open_c).third_delta == pytest.approx(area(open_c), rel=1e-12)


def test_csv_roundtrip(tmp_path):
    c = Curve(RNG.normal(size=(17, 2)))
    path = tmp_path / "curve.csv"
    assert curve_to_csv(c, path) is None
    assert path.read_text().splitlines()[0] == "p1,p2"
    back = curve_from_csv(path)
    assert back.vertices == pytest.approx(c.vertices, abs=0.0)
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        curve_from_csv(bad)


def test_table_csv_streams_every_block_and_checks_headers(tmp_path):
    table = RNG.normal(size=(10_000, 3))  # several write blocks
    path = tmp_path / "t.csv"
    assert table_to_csv("a,b,c", table, path) is None
    rows = path.read_text().splitlines()
    assert rows[0] == "a,b,c" and len(rows) == 10_001
    assert rows[1] == ",".join(repr(float(x)) for x in table[0])
    assert np.array_equal(table_from_csv(path, "a,b,c"), table)
    with pytest.raises(ValueError):
        table_from_csv(path, "x,y")
    curve = tmp_path / "curve.csv"
    curve.write_text("p1,p2\n1.0,2.0\n3.0,4.0\n")
    with pytest.raises(ValueError):
        path_from_csv(curve)
    with pytest.raises(ValueError):
        profile_from_csv(path)


def test_segment_geometry_floors_and_options():
    pot = make_homogeneous(1.0, 2.0)
    v = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    bare = segment_geometry(v)
    assert bare.L.tolist() == [0.0, math.sqrt(2.0)]
    assert bare.T is None and bare.F is None and bare.gF is None
    geo = segment_geometry(v, pot, derivatives=True)
    assert geo.L[0] == 1e-300 and np.array_equal(geo.T[0], [0.0, 0.0])
    F, gF = pot.density(geo.mid)
    assert np.array_equal(geo.F, F) and np.array_equal(geo.gF, gF)
    only_F = segment_geometry(v, pot)
    assert only_F.gF is None and np.array_equal(only_F.F, F)


def test_row_norms_equal_numpy_norm_bit_for_bit():
    # the reference is np.linalg.norm(x, axis=1), which the segment
    # lengths, the vertex normals and the polish used before the helper
    tiny, inf, nan = 5e-324, math.inf, math.nan
    special = np.array([[0.0, 0.0], [-0.0, 0.0], [3.0, -4.0], [tiny, 0.0],
                        [tiny, -tiny], [1e-310, 2e-310], [1e-160, 1e-160],
                        [1e-150, -3e-150], [1e150, 1e150], [-2e154, 0.0],
                        [1e200, 1.0], [inf, 0.0], [nan, 1.0]])
    scales = 10.0 ** RNG.integers(-150, 151, size=(512, 1))
    v = np.cumsum(RNG.normal(size=(40, 2)), axis=0)
    v[12] = v[11]
    v[25:28] = v[24]
    for x in (special, RNG.normal(size=(512, 2)) * scales, v[1:] - v[:-1]):
        # squares past 1.8e308 overflow to inf on both sides
        with np.errstate(over="ignore"):
            assert np.array_equal(_row_norms(x), np.linalg.norm(x, axis=1),
                                  equal_nan=True)
    assert np.array_equal(segment_geometry(v).L,
                          np.linalg.norm(v[1:] - v[:-1], axis=1))
