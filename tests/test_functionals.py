import io
import math

import numpy as np
import pytest

from degeo import (Curve, Curve3, area, area_polar, curve3_to_csv,
                   curve_from_csv, curve_from_json, curve_from_json_dict,
                   curve_to_csv, curve_to_json, curve_to_json_dict, energy,
                   euclid_length, lift, make_homogeneous)
from degeo.functionals import segment_geometry, table_from_csv, table_to_csv
from degeo.radial import path_from_csv
from degeo.wave import profile_from_csv

RNG = np.random.default_rng(11)


def _circle(radius, n, center=(0.0, 0.0)):
    th = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    pts = np.stack([center[0] + radius * np.cos(th),
                    center[1] + radius * np.sin(th)], axis=1)
    return Curve(pts, closed=True)


def test_curve_shape_validation():
    with pytest.raises(ValueError):
        Curve(np.zeros((1, 2)))
    with pytest.raises(ValueError):
        Curve(np.zeros((4, 3)))
    with pytest.raises(ValueError):
        Curve3(np.zeros((4, 2)))


def test_segments_and_midpoints_closed_wrap():
    c = Curve(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]), closed=True)
    assert c.segments().shape == (3, 2)
    assert c.segments()[-1] == pytest.approx([-1.0, -1.0])
    assert c.midpoints()[-1] == pytest.approx([0.5, 0.5])
    open_c = Curve(c.vertices)
    assert open_c.segments().shape == (2, 2)


def test_euclid_length():
    c = Curve(np.array([[0.0, 0.0], [3.0, 4.0], [3.0, 6.0]]))
    assert euclid_length(c) == pytest.approx(7.0)


def test_area_of_polygonal_circle():
    # inscribed regular n-gon: area = (n/2) r^2 sin(2 pi / n)
    n, r = 1000, 1.3
    c = _circle(r, n)
    exact = 0.5 * n * r**2 * math.sin(2.0 * math.pi / n)
    assert area(c) == pytest.approx(exact, rel=1e-13)
    assert area(c) == pytest.approx(math.pi * r**2, rel=1e-5)
    # clockwise traversal flips the sign
    cw = Curve(c.vertices[::-1].copy(), closed=True)
    assert area(cw) == pytest.approx(-area(c), rel=1e-13)


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
    lifted = lift(c, p3_start=0.25)
    assert lifted.vertices.shape == (65, 3)
    assert lifted.vertices[0, 2] == pytest.approx(0.25)
    assert lifted.third_delta == pytest.approx(area(c), rel=1e-14)
    assert lifted.project().vertices.shape == (65, 2)
    open_c = Curve(RNG.normal(size=(10, 2)))
    assert lift(open_c).third_delta == pytest.approx(area(open_c), rel=1e-12)


def test_csv_roundtrip():
    c = Curve(RNG.normal(size=(17, 2)))
    text = curve_to_csv(c)
    assert text.splitlines()[0] == "p1,p2"
    back = curve_from_csv(text)
    assert back.vertices == pytest.approx(c.vertices, abs=0.0)
    c3 = lift(c)
    text3 = curve3_to_csv(c3)
    assert text3.splitlines()[0] == "p1,p2,p3"
    back3 = curve_from_csv(text3)
    assert isinstance(back3, Curve3)
    assert back3.vertices == pytest.approx(c3.vertices, abs=0.0)
    with pytest.raises(ValueError):
        curve_from_csv("a,b\n1,2\n")


def test_json_roundtrip_preserves_closed_flag():
    c = _circle(1.0, 12)
    back = curve_from_json(curve_to_json(c))
    assert back.closed
    assert back.vertices == pytest.approx(c.vertices, abs=0.0)
    d = curve_to_json_dict(c)
    assert set(d) == {"closed", "vertices"}
    open_back = curve_from_json_dict({"vertices": [[0, 0], [1, 1]]})
    assert not open_back.closed


def test_table_csv_streams_every_block_and_checks_headers(tmp_path):
    table = RNG.normal(size=(10_000, 3))  # several write blocks
    path = tmp_path / "t.csv"
    assert table_to_csv("a,b,c", table, path) is None
    text = path.read_text()
    assert text == table_to_csv("a,b,c", table)
    rows = text.splitlines()
    assert rows[0] == "a,b,c" and len(rows) == 10_001
    assert rows[1] == ",".join(repr(float(x)) for x in table[0])
    assert np.array_equal(table_from_csv(io.StringIO(text), "x,y", "a,b,c"),
                          table)
    with pytest.raises(ValueError):
        table_from_csv(io.StringIO(text), "x,y")
    with pytest.raises(ValueError):
        path_from_csv("p1,p2\n1.0,2.0\n3.0,4.0\n")
    with pytest.raises(ValueError):
        profile_from_csv(path)


def test_segment_geometry_floors_and_options():
    pot = make_homogeneous(1.0, 2.0)
    v = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    bare = segment_geometry(v)
    assert bare.L.tolist() == [0.0, math.sqrt(2.0)]
    assert bare.T is None and bare.F is None and bare.gF is None
    geo = segment_geometry(v, pot, floor=1e-300, tangents=True,
                           gradient=True)
    assert geo.L[0] == 1e-300 and np.array_equal(geo.T[0], [0.0, 0.0])
    F, gF = pot.density(geo.mid)
    assert np.array_equal(geo.F, F) and np.array_equal(geo.gF, gF)
    only_F = segment_geometry(v, pot)
    assert only_F.gF is None and np.array_equal(only_F.F, F)
