import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings
from collections import Counter

import numpy as np
import pytest
import scipy
from scipy.linalg import LinAlgError, solve_banded
from scipy.optimize import minimize

from degeo import (Curve, Potential, SolveResult, SolverConfig,
                   ZeroDensityInterior, area, area_sweep, detect_area_leakage,
                   discrete_area_gradient, discrete_energy_gradient,
                   el_residual, energy, estimate_multiplier,
                   geodesic_curvature, make_custom, make_homogeneous,
                   make_radial_quartic, make_two_well_k, minimize_constrained,
                   parabola_energy, solve_C1_for_area, solve_homogeneous,
                   spiral_from_C1, vertex_normals)
from degeo import solver
from degeo.errors import NonConvergence
from degeo.functionals import SegmentGeometry
from degeo.solver import _TOL_AREA, _packed_certificate

RNG = np.random.default_rng(31)
FAST = SolverConfig(n_vertices=96)


@pytest.fixture(scope="module")
def radial_solve():
    pot = make_radial_quartic(1.0)
    return pot, minimize_constrained((1.0, 0.0), (0.0, 0.0), 0.1, pot, FAST)


@pytest.fixture(scope="module")
def homogeneous_solve():
    pot = make_homogeneous(1.0, 2.0)
    return pot, minimize_constrained((1.0, 0.0), (0.0, 0.0), 0.05, pot, FAST)


def _random_loose_curve(n):
    # random open polyline kept away from the origin well
    base = np.linspace([1.0, 0.2], [2.0, -0.3], n)
    return base + 0.05 * RNG.normal(size=(n, 2))


def test_energy_gradient_matches_finite_differences():
    pot = make_radial_quartic(0.7)
    v = _random_loose_curve(12)
    E, g = discrete_energy_gradient(v, pot)
    assert E == pytest.approx(energy(Curve(v), pot), rel=1e-13)
    h = 1e-7
    for idx in [(0, 0), (3, 1), (7, 0), (11, 1)]:
        vp, vm = v.copy(), v.copy()
        vp[idx] += h
        vm[idx] -= h
        fd = (discrete_energy_gradient(vp, pot)[0]
              - discrete_energy_gradient(vm, pot)[0]) / (2 * h)
        assert g[idx] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_area_gradient_matches_finite_differences():
    v = _random_loose_curve(10)
    A, g = discrete_area_gradient(v)
    h = 1e-7
    for idx in [(0, 1), (4, 0), (9, 1)]:
        vp, vm = v.copy(), v.copy()
        vp[idx] += h
        vm[idx] -= h
        fd = (discrete_area_gradient(vp)[0]
              - discrete_area_gradient(vm)[0]) / (2 * h)
        assert g[idx] == pytest.approx(fd, rel=1e-7, abs=1e-12)


def _double_well_W(p):
    p = np.asarray(p, dtype=float)
    return (np.sum((p - [-1.0, 0.0]) ** 2, axis=-1)
            * np.sum((p - [1.0, 0.0]) ** 2, axis=-1))


def _double_well_grad(p):
    p = np.asarray(p, dtype=float)
    d0, d1 = p - [-1.0, 0.0], p - [1.0, 0.0]
    return (2.0 * d0 * np.sum(d1 * d1, axis=-1)[..., None]
            + 2.0 * d1 * np.sum(d0 * d0, axis=-1)[..., None])


def _kernel_curves():
    """Perturbed arcs across both wells, plus the special cases."""
    t = np.linspace(0.0, 1.0, 41)
    base = np.stack([-1.5 + 3.0 * t, 0.6 * np.sin(np.pi * t)], axis=1)
    curves = [base + 0.05 * RNG.normal(size=base.shape) for _ in range(4)]
    on_well = curves[0].copy()
    on_well[10], on_well[20], on_well[30] = (-1.0, 0.0), (0.0, 0.0), (1.0, 0.0)
    repeated = curves[1].copy()
    repeated[16] = repeated[15]
    # midpoints exactly on the well (1, 0), on p1 = 0 and on the unit
    # circles r = 1 of the two-well's split
    seams = np.array([[-2.5, 0.5], [-1.5, -0.5], [-0.25, 0.25], [0.25, -0.25],
                      [0.75, 0.25], [1.25, -0.25], [1.75, 0.5], [2.25, -0.5],
                      [3.0, 0.0]])
    return curves + [on_well, repeated, seams]


@pytest.mark.parametrize("pot", [
    make_homogeneous(1.0, 2.0), make_radial_quartic(1.0), make_two_well_k(4.0),
    make_custom(_double_well_W, wells=[(-1.0, 0.0), (1.0, 0.0)],
                grad_W=_double_well_grad),
    make_custom(_double_well_W, wells=[(-1.0, 0.0), (1.0, 0.0)])],
    ids=["homogeneous", "radial", "two_well", "custom", "custom_fd"])
def test_one_pass_equals_the_reference_bit_for_bit(pot):
    # the reference is the composition the solver used before the one-pass
    # kernel: energy and area gradients in every vertex, then E + w * area
    for v in _kernel_curves():
        E, gE = discrete_energy_gradient(v, pot)
        a, gA = discrete_area_gradient(v)
        one = solver._one_pass(v, pot, 0.0, 0.0, 0.0)
        assert one.f == E and one.area == a
        assert np.array_equal(one.gA, gA[1:-1])
        for w in (0.0, -0.7, 1.3 + 10.0 * (a - 0.25)):
            assert np.array_equal(solver._one_pass(v, pot, 0.0, -w, 0.0).g,
                                  (gE + w * gA)[1:-1])
        # the penalized Lagrangian of the inner solves, c = area - A
        for A, lam, rho in ((0.25, 0.0, 1.0), (-0.4, 0.7, 10.0),
                            (a + 0.01, -1.3, 1e8)):
            one = solver._one_pass(v, pot, A, lam, rho)
            c = a - A
            assert one.f == E - lam * c + 0.5 * rho * c * c
            assert np.array_equal(one.g, (gE - (lam - rho * c) * gA)[1:-1])


@pytest.mark.parametrize("pot, center", [
    (make_homogeneous(1.0, 2.0), (0.0, 0.0)),
    (make_radial_quartic(1.0), (0.0, 0.0)),
    # inside the right well's unit disc, off its plateau and the p1 = 0 split
    (make_two_well_k(4.0), (1.0, 0.0))])
def test_normal_hessian_matches_finite_differences(pot, center):
    # random arc 0.3 to 0.8 from the center, kept off the kinks of W
    n = 24
    theta = np.linspace(0.3, 2.0, n)
    r = 0.55 + 0.25 * np.sin(3.0 * theta) + 0.01 * RNG.normal(size=n)
    v = np.asarray(center) + r[:, None] * np.stack([np.cos(theta),
                                                      np.sin(theta)], axis=1)
    N = vertex_normals(v)[1:-1]
    lam = -0.7

    def gn(eta):
        vv = v.copy()
        vv[1:-1] += eta[:, None] * N
        g = (discrete_energy_gradient(vv, pot)[1]
             - lam * discrete_area_gradient(vv)[1])
        return np.einsum("ij,ij->i", g[1:-1], N)

    diag, off = solver._normal_hessian(
        solver._one_pass(v, pot, 0.0, lam, 0.0).geo, pot, lam, N)
    H = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    h = 1e-6
    fd = np.empty_like(H)
    for j in range(n - 2):
        e = np.zeros(n - 2)
        e[j] = h
        fd[:, j] = (gn(e) - gn(-e)) / (2.0 * h)
    assert np.abs(H - fd).max() <= 1e-5 * np.abs(fd).max()


def test_vertex_normals_unit_and_orthogonal():
    v = _random_loose_curve(20)
    N = vertex_normals(v)
    assert N.shape == v.shape
    assert np.linalg.norm(N, axis=1) == pytest.approx(np.ones(20), rel=1e-12)
    t_int = v[2:] - v[:-2]
    dots = np.einsum("ij,ij->i", N[1:-1], t_int)
    assert dots == pytest.approx(np.zeros(18), abs=1e-12)


def test_geodesic_curvature_euclidean_circle():
    # constant density reduces to plain curvature 1/R
    flat = make_custom(lambda p: np.ones(np.asarray(p).shape[:-1]), wells=())
    R = 0.7
    th = np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False)
    pts = np.stack([R * np.cos(th), R * np.sin(th)], axis=1)
    c = Curve(np.vstack([pts, pts[:1]]))
    kg = geodesic_curvature(c, flat)
    assert np.median(kg) == pytest.approx(1.0 / R, rel=1e-3)


def test_zero_density_at_an_interior_vertex_raises():
    # W = p1^2 vanishes on the p2 axis, where no well is declared
    pot = make_custom(lambda p: np.asarray(p)[..., 0] ** 2, wells=())
    c = Curve(np.array([[-1.0, 0.0], [0.0, 0.5], [1.0, 1.0]]))
    with pytest.raises(ZeroDensityInterior):
        el_residual(c, pot, 0.0)
    with pytest.raises(ZeroDensityInterior):
        geodesic_curvature(c, pot)


def test_estimate_multiplier_on_exact_spiral():
    pot = make_radial_quartic(1.0)
    for c1 in (0.25, 0.5, 0.8):
        c = spiral_from_C1(c1, 1.0, 1.0, 0.02)
        lam, iqr = estimate_multiplier(c, pot)
        assert lam == pytest.approx(2.0 * c1, abs=2e-3)
        assert iqr < 1e-3


def test_el_residual_discriminates_multiplier():
    pot = make_radial_quartic(1.0)
    c = spiral_from_C1(0.5, 1.0, 1.0, 0.02)
    assert el_residual(c, pot, 1.0) < 2e-3
    assert el_residual(c, pot, 0.0) > 0.1


def test_el_residual_rejects_a_multiplier_that_is_not_finite():
    # unchecked, a NaN multiplier scores a perfect 0.0 (the scale maps NaN
    # to 0), and inf gives NaN with an "invalid value" RuntimeWarning
    pot = make_radial_quartic(1.0)
    res = minimize_constrained((1.0, 0.0), (0.0, 0.0), 0.1, pot,
                               SolverConfig(n_vertices=32))
    assert 0.0 < res.el_residual_max < 1e-8
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for lam in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="multiplier"):
                el_residual(res.curve, pot, lam)
    # a result without a finite multiplier reports no residual
    res.multiplier = math.nan
    assert solver._finish(res, pot).el_residual_max == math.inf


def test_unconstrained_geodesic_on_radial_ray():
    # for F = |p| the ray through the well is the geodesic; cost r^2/2 gap
    pot = make_homogeneous(1.0, 1.0)
    res = minimize_constrained((1.0, 0.0), (2.0, 0.0), None, pot, FAST)
    assert res.converged
    assert res.energy == pytest.approx(1.5, rel=1e-6)
    assert np.abs(res.curve.vertices[:, 1]).max() < 1e-6
    assert res.multiplier == 0.0
    with pytest.raises(ValueError):
        minimize_constrained((1.0, 0.0), (1.0, 0.0), None, pot, FAST)
    with pytest.raises(ValueError):
        minimize_constrained((math.nan, 0.0), (2.0, 0.0), None, pot, FAST)


@pytest.mark.parametrize("pot", [make_homogeneous(1.0, 2.0),
                                 make_radial_quartic(1.0),
                                 make_two_well_k(4.0)],
                         ids=["homogeneous", "radial", "two_well"])
def test_unconstrained_overflow_raises_value_error(pot):
    # endpoints whose starts cannot be evaluated in floating point are bad
    # input, as they are for minimize_constrained: a ValueError, with no
    # RuntimeWarning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for q in ((1e160, 0.0), (1e200, 3.0)):
            with pytest.raises(ValueError):
                minimize_constrained((0.0, 0.0), q, None, pot,
                                     SolverConfig(n_vertices=16))


def test_unconstrained_polishes_every_start():
    # an arched start ends L-BFGS-B lowest (2.866363) but its polish fails
    # at 2.906966; the straight start polishes to a cheaper geodesic
    pot = make_two_well_k(4.0)
    res = minimize_constrained((-1.0, 0.3), (1.0, 0.2), None, pot,
                               SolverConfig(n_vertices=64))
    assert res.converged
    assert res.energy == pytest.approx(2.880226, abs=1e-6)


def test_unconstrained_arched_starts_find_the_way_around_two_bumps():
    # W = 1 + 5 (two Gaussian bumps on the chord): the straight start
    # polishes to the saddle over both bumps (3.297682); an arched start
    # finds the curve around them (2.477600, max |p2| 0.431)
    centers = np.array([[-0.5, 0.0], [0.5, 0.0]])

    def bumps(p):
        d = np.asarray(p, dtype=float)[..., None, :] - centers
        return d, 5.0 * np.exp(-np.sum(d * d, axis=-1) / 0.05)

    def W(p):
        return 1.0 + bumps(p)[1].sum(axis=-1)

    def grad(p):
        d, e = bumps(p)
        return np.sum(e[..., None] * (-2.0 / 0.05) * d, axis=-2)

    res = minimize_constrained((-1.0, 0.0), (1.0, 0.0), None,
                               make_custom(W, grad_W=grad),
                               SolverConfig(n_vertices=64))
    assert res.converged
    assert res.energy < 2.6


def test_agreement_rule_ends_a_geodesic_search(monkeypatch):
    # A=None shares the constrained driver's start rule: the straight start
    # and the first arch polish to the same geodesic within
    # _START_AGREEMENT, so the second arch is never polished.  All three
    # starts gave 0.750000001695987
    pot = make_homogeneous(1.0, 2.0)
    areas = []
    polish = solver._newton_polish

    def counted(v, potential, A, lam):
        areas.append(A)
        return polish(v, potential, A, lam)

    monkeypatch.setattr(solver, "_newton_polish", counted)
    res = minimize_constrained((1.0, 0.5), (0.0, 0.0), None, pot,
                               SolverConfig(n_vertices=64))
    assert areas == [None, None]
    assert res.converged and res.multiplier == 0.0
    assert res.area_achieved == res.A_target
    assert res.energy == pytest.approx(0.750000001695987,
                                       rel=solver._START_AGREEMENT)


def test_geodesic_between_two_wells_builds_no_certificate(monkeypatch):
    # without an area there is nothing to pack at a well, so no
    # certificate is built: building one would call None here
    monkeypatch.setattr(solver, "_packed_certificate", None)
    res = minimize_constrained((-1.0, 0.0), (1.0, 0.0), None,
                               make_two_well_k(4.0),
                               SolverConfig(n_vertices=128))
    assert res.packed is None and res.converged
    assert res.energy == pytest.approx(2.799927652214592, rel=1e-12)


def test_geodesic_messages_name_the_endpoints():
    pot = make_homogeneous(1.0, 2.0)
    with pytest.raises(ValueError, match=re.escape(
            "no start curve from [0. 0.] to [1.e+160 0.e+000] can be "
            "evaluated in floating point")):
        minimize_constrained((0.0, 0.0), (1e160, 0.0), None, pot,
                             SolverConfig(n_vertices=16))
    # a geodesic's multiplier is 0: a warm multiplier has nothing to warm
    with pytest.raises(ValueError, match="init_multiplier 0.5 must be 0 "
                                         "without an area"):
        minimize_constrained((1.0, 0.0), (0.0, 0.0), None, pot, FAST,
                             init_multiplier=0.5)


def test_constrained_matches_radial_closed_form(radial_solve):
    pot, res = radial_solve
    c1 = solve_C1_for_area(1.0, 0.1, 1.0)
    Eref = parabola_energy(c1, 1.0, 1.0)
    assert res.converged
    assert not res.nonexistence_suspected
    assert res.energy == pytest.approx(Eref, rel=1e-4)
    assert res.area_achieved == pytest.approx(0.1, abs=1e-12 * 1.1)
    assert res.multiplier == pytest.approx(2.0 * c1, abs=1e-3)
    assert res.el_residual_max <= 1e-7


def test_constrained_matches_homogeneous_closed_form(homogeneous_solve):
    pot, res = homogeneous_solve
    ref = solve_homogeneous(np.array([1.0, 0.0]), 0.05, 1.0, 2.0)
    assert res.converged
    assert res.energy == pytest.approx(ref.energy, rel=2e-6)
    assert res.area_achieved == pytest.approx(0.05, abs=1e-12 * 1.05)
    assert res.el_residual_max <= 1e-7


def test_result_json_dict_shape(radial_solve):
    _, res = radial_solve
    d = res.to_json_dict()
    assert d["converged"] is True
    assert set(d) == {"A_target", "area_achieved", "energy", "multiplier",
                      "el_residual_max", "converged",
                      "nonexistence_suspected", "leakage"}
    assert all({"well", "radius", "area_in", "arclength_in"} == set(e)
               for e in d["leakage"])


def test_mirror_symmetry_of_constrained_cost():
    pot = make_homogeneous(1.0, 2.0)
    up = minimize_constrained((1.0, 0.0), (0.0, 0.0), 0.05, pot, FAST)
    dn = minimize_constrained((1.0, 0.0), (0.0, 0.0), -0.05, pot, FAST)
    assert up.energy == pytest.approx(dn.energy, rel=1e-4)
    assert up.multiplier == pytest.approx(-dn.multiplier, abs=1e-3)


@pytest.mark.parametrize("case", ["homogeneous", "homogeneous_negative",
                                  "two_well"])
def test_swapping_the_endpoints_flips_the_area(case):
    # reversing the curve negates its signed area, so (q, p, -A) poses the
    # problem (p, q, A).  The discrete solves are not mirror images: the
    # bump shapes t^2 (1 - t) and t (1 - t)^2 trade places, and the starts
    # can stop at different spiral depths at a well endpoint (ROADMAP item
    # 2).  The gaps measured at n=64 are 2.3e-10, 2.3e-7 and 1.7e-6
    # relative (up to 1.4e-5 on radial b=1 at A=0.3), so 1e-5 bounds these
    # cases with room for the depth to move
    pot, p, q, A = {
        "homogeneous": (make_homogeneous(1.0, 2.0), (1.0, 0.0), (0.0, 0.0),
                        0.05),
        "homogeneous_negative": (make_homogeneous(1.0, 2.0), (1.0, 0.0),
                                 (0.0, 0.0), -0.2),
        "two_well": (make_two_well_k(4.0), (-1.0, 0.0), (0.6, 0.5), 0.2),
    }[case]
    cfg = SolverConfig(n_vertices=64)
    fwd = minimize_constrained(p, q, A, pot, cfg)
    back = minimize_constrained(q, p, -A, pot, cfg)
    assert fwd.converged and back.converged
    assert back.energy == pytest.approx(fwd.energy, rel=1e-5)
    assert back.multiplier == pytest.approx(-fwd.multiplier, abs=1e-3)


def test_graded_monitor_has_a_fixed_point(radial_solve):
    # the curve ends at the well; a monitor that is not integrable there
    # would pull the innermost vertex further in at every resample
    pot, res = radial_solve
    v = res.curve.vertices
    radii = []
    for _ in range(6):
        v = solver._remesh(v, pot)
        radii.append(np.linalg.norm(v[-2]))
    assert radii[-1] / radii[-2] >= 0.9


@pytest.mark.parametrize("case", ["radial", "homogeneous"])
def test_each_start_hands_off_to_the_newton_early(case, monkeypatch):
    pot, A = {"radial": (make_radial_quartic(1.0), 0.1),
              "homogeneous": (make_homogeneous(1.0, 2.0), 0.05)}[case]
    inner_solves, polishes = [], []
    inner, outer = solver._inner_solve, solver._augmented_lagrangian
    polish = solver._newton_polish

    def counted_inner(*args, **kwargs):
        inner_solves[-1] += 1
        return inner(*args, **kwargs)

    def counted_polish(*args, **kwargs):
        out = polish(*args, **kwargs)
        polishes[-1].append(solver._polish_converged(out[2], out[3],
                                                     solver._TOL_AREA
                                                     * (1.0 + abs(A))))
        return out

    def counted_outer(*args, **kwargs):
        inner_solves.append(0)
        polishes.append([])
        return outer(*args, **kwargs)

    monkeypatch.setattr(solver, "_inner_solve", counted_inner)
    monkeypatch.setattr(solver, "_newton_polish", counted_polish)
    monkeypatch.setattr(solver, "_augmented_lagrangian", counted_outer)
    res = minimize_constrained((1.0, 0.0), (0.0, 0.0), A, pot, FAST)
    assert res.converged
    # homogeneous start 1 agrees with start 0, which skips start 2
    assert len(inner_solves) == {"radial": 3, "homogeneous": 2}[case]
    assert max(inner_solves) <= 8
    # a start ends at its first converged polish
    for converged in polishes:
        assert converged and converged.index(True) == len(converged) - 1


def test_solve_logs_each_handoff(caplog):
    pot = make_homogeneous(1.0, 2.0)
    with caplog.at_level("DEBUG", logger="degeo.solver"):
        minimize_constrained((1.0, 0.0), (0.0, 0.0), 0.05, pot, FAST)
    messages = [r.getMessage() for r in caplog.records
                if r.name == "degeo.solver"]
    handoffs = [m for m in messages if m.startswith("handoff at outer ")]
    # start 1 agrees with start 0, so start 2 never runs
    assert len(handoffs) == 2
    outer = [m for m in messages if m.startswith("outer iteration ")]
    # each start logs iterations 0, 1, ... up to its handoff
    assert [m.split(":")[0] for m in outer].count("outer iteration 0") == 2
    for m in outer:
        rho = float(m.split("rho ")[1].split(",")[0])
        nit = int(m.split(", ")[-1].split(" ")[0])
        assert math.isfinite(float(m.split("lambda ")[1].split(",")[0]))
        assert solver._PENALTY_START <= rho <= solver._PENALTY_CAP
        assert float(m.split("area gap ")[1].split(",")[0]) >= 0.0
        assert 0 <= nit <= solver._INNER_ITERATIONS
        assert m.endswith(" inner iterations")
    for m in handoffs:
        k = int(m.split("iteration ")[1].split(",")[0])
        gap = float(m.split("area gap ")[1].split(":")[0])
        assert 0 <= k < solver._OUTER_ITERATIONS
        assert 0.0 < gap <= solver._HANDOFF_GAP * 1.05
        assert m.endswith(" steps")


def test_solve_survives_a_handoff_polish_that_raises(monkeypatch, caplog):
    # a handoff polish that raises NonConvergence is dropped: the start's
    # outer loop goes on, and a later polish finishes it.  Here the first
    # polish is the handoff of the first start; had it been the polish after
    # the outer loop, the error would leave the solve
    pot = make_homogeneous(1.0, 2.0)
    polish = solver._newton_polish
    calls = []

    def first_raises(v, potential, A, lam):
        calls.append(A)
        if len(calls) == 1:
            raise NonConvergence("the first polish fails")
        return polish(v, potential, A, lam)

    monkeypatch.setattr(solver, "_newton_polish", first_raises)
    with caplog.at_level("DEBUG", logger="degeo.solver"):
        res = minimize_constrained((1.0, 0.0), (0.0, 0.0), 0.05, pot,
                                   SolverConfig(n_vertices=64))
    assert len(calls) > 1
    assert res.converged and res.packed is None
    ref = solve_homogeneous(np.array([1.0, 0.0]), 0.05, 1.0, 2.0)
    assert res.energy == pytest.approx(ref.energy, rel=1e-6)
    messages = [r.getMessage() for r in caplog.records
                if r.name == "degeo.solver"]
    start0 = next(i for i, m in enumerate(messages)
                  if m.startswith("start 0:"))
    # the first start still ends at a handoff, a later one
    assert any(m.startswith("handoff at outer ") for m in messages[:start0])


def test_outer_loop_stalls_out_at_the_penalty_cap(monkeypatch, caplog):
    # stubs: every inner solve returns the same curve, so the area gap never
    # shrinks, and the polish never converges
    pot = make_homogeneous(1.0, 2.0)
    t = np.linspace(0.0, 1.0, 32)
    v_stuck = np.stack([1.0 - t, 0.3 * t * (1.0 - t)], axis=1)
    A = area(Curve(v_stuck)) - 1e-3
    penalties = []

    def stuck_inner(v, potential, A, lam, rho):
        penalties.append(rho)
        return v_stuck.copy(), False, solver._INNER_ITERATIONS

    def failed_polish(v, potential, A, lam):
        return v, lam, math.inf, area(Curve(v)) - A, 0

    monkeypatch.setattr(solver, "_inner_solve", stuck_inner)
    monkeypatch.setattr(solver, "_newton_polish", failed_polish)
    with caplog.at_level("DEBUG", logger="degeo.solver"):
        assert not solver._augmented_lagrangian(v_stuck, pot, A)[3]
    # one inner solve per penalty from 1 to the cap, plus the first, which
    # has no earlier gap to compare with
    assert penalties == [1.0] + [10.0 ** k for k in range(9)]
    assert solver._PENALTY_CAP == penalties[-1]
    messages = [r.getMessage() for r in caplog.records
                if r.name == "degeo.solver"]
    outer = [m for m in messages if m.startswith("outer iteration ")]
    assert [m.split(":")[0] for m in outer] == [f"outer iteration {k}"
                                                for k in range(10)]
    assert all(f"rho {rho:.3g}, area gap 0.001, {solver._INNER_ITERATIONS} "
               f"inner iterations" in m for m, rho in zip(outer, penalties))
    assert [m for m in messages if "stalled" in m] == [
        "outer loop stalled at iteration 9: area gap 0.001 at the penalty cap"]


def test_handoff_polish_runs_once_per_decade_of_the_gap(monkeypatch):
    # a handoff that fails is tried again only once the area gap has fallen
    # a decade; trying at every outer iteration below _HANDOFF_GAP makes a
    # fourth polish call on this solve
    steps = []
    polish = solver._newton_polish

    def counted(*args):
        out = polish(*args)
        steps.append(out[4])
        return out

    monkeypatch.setattr(solver, "_newton_polish", counted)
    minimize_constrained((-1.0, 0.0), (1.0, 0.0), 2.0, make_two_well_k(4.0),
                         SolverConfig(n_vertices=128))
    assert len(steps) == 3, steps


def _minimize_reference(v0, potential, A, mu, rho):
    """The inner solve through scipy's minimize(method="L-BFGS-B"), with the
    settings `_inner_solve` drives setulb with, on E + mu * c + rho c^2 / 2:
    `_inner_solve`'s objective at lam = -mu."""
    v = v0.copy()

    def objective(x):
        v[1:-1] = x.reshape(-1, 2)
        E, a, gE, gA, _ = solver._one_pass(v, potential, 0.0, 0.0, 0.0)
        c = a - A
        return (E + mu * c + 0.5 * rho * c * c,
                (gE + (mu + rho * c) * gA).ravel())

    res = minimize(objective, v0[1:-1].ravel(), jac=True, method="L-BFGS-B",
                   options={"maxiter": solver._INNER_ITERATIONS,
                            "maxfun": 4 * solver._INNER_ITERATIONS,
                            "maxcor": 20, "maxls": 40, "ftol": 1e-13,
                            "gtol": solver._TOL_GRAD})
    v[1:-1] = res.x.reshape(-1, 2)
    return v, res


def _nan_after(calls):
    """A smooth custom potential whose W turns NaN after `calls` calls."""
    count = [0]

    def W(p):
        count[0] += 1
        w = 1.0 + np.sum(np.asarray(p) ** 2, axis=-1)
        return w * np.nan if count[0] > calls else w

    return make_custom(W, grad_W=lambda p: 2.0 * np.asarray(p))


def _terraced():
    """W in steps of height 1 every 0.01 of |p2|, with a zero gradient:
    line searches fail often enough to reach the evaluation budget."""
    return make_custom(
        lambda p: 1.0 + np.floor(100.0 * np.abs(np.asarray(p)[..., 1])),
        grad_W=lambda p: np.zeros(np.shape(p)))


def _first_start(p, q, A, n):
    return solver._bump_inits(np.array(p), np.array(q), A, n)[0]


def _arched(p, q, n, amp):
    t = np.linspace(0.0, 1.0, n)
    return solver._straight(np.array(p), np.array(q), n) + np.outer(
        amp * t * (1.0 - t), [-(q[1] - p[1]), q[0] - p[0]])


# (potential factory, start, A, lam, rho, scipy's message, the logged stop)
_INNER_CASES = {
    # the first inner solve of a start: lam = 0, rho = 1
    "radial": (lambda: make_radial_quartic(1.0),
               _first_start((1.0, 0.0), (0.0, 0.0), 0.1, 64), 0.1, 0.0, 1.0,
               "STOP: TOTAL NO. OF ITERATIONS", "iteration budget"),
    "homogeneous": (lambda: make_homogeneous(1.0, 2.0),
                    _first_start((1.0, 0.0), (0.0, 0.0), 0.05, 96), 0.05,
                    0.0, 1.0, "STOP: TOTAL NO. OF ITERATIONS",
                    "iteration budget"),
    "two_well": (lambda: make_two_well_k(4.0),
                 _first_start((-1.0, 0.0), (1.0, 0.0), 0.3, 128), 0.3, 0.0,
                 1.0, "STOP: TOTAL NO. OF ITERATIONS", "iteration budget"),
    # lam = rho = 0: the objective is E alone, as in a geodesic's (A=None)
    # inner solve; converged within the budget
    "geodesic": (lambda: make_homogeneous(1.0, 2.0),
                 _arched((1.0, 0.0), (0.0, 0.0), 32, 0.2), 0.0, 0.0, 0.0,
                 "CONVERGENCE", "converged"),
    "nan_partway": (lambda: _nan_after(20),
                    _arched((-1.0, 0.0), (1.0, 0.0), 32, 0.15), 0.5, 0.0,
                    1.0, "ABNORMAL", "abnormal stop (8, 0)"),
    "evaluation_budget": (_terraced,
                          _arched((-1.0, 0.0), (1.0, 0.0), 24, 0.15), 0.5,
                          0.0, 1.0, "STOP: TOTAL NO. OF F,G",
                          "evaluation budget"),
    # with a budget of 51 iterations, 204 evaluations: this solve has made
    # exactly that many when its 11th iteration ends, and goes on, since
    # the stop needs more evaluations than that
    "evaluation_budget_met": (_terraced,
                              _arched((-1.0, 0.0), (1.0, 0.0), 24, 0.15),
                              0.5, 0.0, 1.0, "STOP: TOTAL NO. OF F,G",
                              "evaluation budget"),
}
_INNER_BUDGETS = {"evaluation_budget_met": 51}


@pytest.mark.parametrize("case", list(_INNER_CASES))
def test_inner_solve_matches_scipy_minimize_bit_for_bit(case, monkeypatch,
                                                       caplog):
    # the setulb driver keeps minimize's iterates, stopping rule and
    # evaluation count; a change in the private setulb signature fails here
    make_pot, v0, A, lam, rho, message, stop = _INNER_CASES[case]
    if case in _INNER_BUDGETS:
        monkeypatch.setattr(solver, "_INNER_ITERATIONS", _INNER_BUDGETS[case])
    v_ref, ref = _minimize_reference(v0, make_pot(), A, -lam, rho)
    assert ref.message.startswith(message)
    evaluations = []
    one_pass = solver._one_pass

    def counted(v, potential, *lagrangian):
        evaluations.append(v[1:-1].copy())
        return one_pass(v, potential, *lagrangian)

    monkeypatch.setattr(solver, "_one_pass", counted)
    with caplog.at_level("DEBUG", logger="degeo.solver"):
        v, ok, nit = solver._inner_solve(v0, make_pot(), A, lam, rho)
    assert np.array_equal(v, v_ref)
    assert (ok, nit, len(evaluations)) == (ref.success, ref.nit, ref.nfev)
    # x0 is the first evaluation, and no point is evaluated twice running
    assert np.array_equal(evaluations[0], v0[1:-1])
    assert not any(np.array_equal(a, b)
                   for a, b in zip(evaluations, evaluations[1:]))
    assert [r.getMessage() for r in caplog.records
            if r.name == "degeo.solver"] == [
        f"inner solve: {nit} iterations, {len(evaluations)} evaluations, "
        f"{stop}"]


_IMPORT_FOOTPRINT = '''
import json, sys
import numpy as np
import degeo, degeo.cli
subpackages = ("scipy.linalg", "scipy.sparse", "scipy.optimize")
loaded = [name for name in subpackages if name in sys.modules]
sol = degeo.solve_homogeneous([1.0, 0.0], 0.05, 1.0, 2.0)
after_solve = [name for name in subpackages if name in sys.modules]
import scipy.linalg
import scipy.optimize
from degeo import solver
res = scipy.optimize.minimize(
    lambda x: (float(np.sum((x - 1.0)**2)), 2.0 * (x - 1.0)), np.zeros(3),
    jac=True, method="L-BFGS-B")
band = np.random.default_rng(5).normal(size=(3, 24))
rhs = np.random.default_rng(6).normal(size=(24, 2))
ours = solver._flapack.dgtsv(band[2, :-1], band[1], band[0, 1:], rhs)[3]
theirs = scipy.linalg.lapack.dgtsv(band[2, :-1], band[1], band[0, 1:], rhs)[3]
print(json.dumps({"loaded": loaded, "after_solve": after_solve,
                  "attribute": hasattr(scipy.optimize, "_lbfgsb"),
                  "flapack": [scipy.linalg._flapack.__name__,
                              solver._flapack.__name__],
                  "dgtsv": ours.tobytes() == theirs.tobytes(),
                  "success": bool(res.success), "x": res.x.tolist(),
                  "energy": sol.energy, "area": sol.area}))
'''


def test_import_leaves_scipy_optimize_unloaded():
    # this module imports scipy.optimize and scipy.linalg itself, so the
    # check runs in a fresh interpreter.  degeo loads setulb and dgtsv from
    # their own copies of the extensions, and a later import of
    # scipy.optimize and scipy.linalg still binds and runs its own
    src = os.path.dirname(os.path.dirname(solver.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_FOOTPRINT],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["loaded"] == []
    # nor does a closed-form homogeneous solve
    assert out["after_solve"] == []
    assert out["attribute"] and out["success"]
    assert np.allclose(out["x"], 1.0, atol=1e-6)
    assert out["flapack"] == ["scipy.linalg._flapack", "degeo._flapack"]
    # the same LAPACK routine, bit for bit
    assert out["dgtsv"] is True
    # whose result in the fresh interpreter is the in-process one
    sol = solve_homogeneous([1.0, 0.0], 0.05, 1.0, 2.0)
    assert (out["energy"], out["area"]) == (sol.energy, sol.area)


def test_extension_loader_names_the_folder_it_searched():
    folder = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    with pytest.raises(ImportError, match=re.escape(folder)):
        solver._load_extension("linalg", "_no_such_extension")


def test_solve_logs_each_inner_solve(caplog):
    # one line per inner solve, and the outer loop reports the same count
    pot = make_radial_quartic(1.0)
    with caplog.at_level("DEBUG", logger="degeo.solver"):
        minimize_constrained((1.0, 0.0), (0.0, 0.0), 0.1, pot,
                             SolverConfig(n_vertices=32))
    messages = [r.getMessage() for r in caplog.records
                if r.name == "degeo.solver"]
    outer = [i for i, m in enumerate(messages)
             if m.startswith("outer iteration ")]
    assert outer
    for i in outer:
        inner = messages[i - 1]
        assert inner.startswith("inner solve: ")
        nit = int(inner.split(": ")[1].split(" ")[0])
        assert messages[i].endswith(f", {nit} inner iterations")
        assert inner.split(", ")[-1] in ("converged", "iteration budget",
                                         "evaluation budget")
    assert sum(m.startswith("inner solve: ") for m in messages) == len(outer)


def _coil(center, r, turns, n_per_turn=60):
    th = np.linspace(0.0, 2.0 * math.pi * turns, n_per_turn * turns + 1)
    return np.stack([center[0] + r * np.cos(th),
                     center[1] + r * np.sin(th)], axis=1)


def _fake_result(curve, multiplier, A_target):
    c = Curve(curve)
    return SolveResult(curve=c, energy=energy(c, make_two_well_k(4.0)),
                       area_achieved=A_target, multiplier=multiplier,
                       el_residual_max=0.0, A_target=A_target)


def test_leakage_reports_a_coil_and_flags_only_the_certificate_well():
    pot = make_two_well_k(4.0)
    # trunk plus a coil tighter than the smallest probe radius, at the
    # packing rate: every level holds its three turns, but only the
    # certificate carries the flag
    trunk = np.linspace([-1.0, 0.0], [1.0 - 1e-3, 0.0], 50)
    r = 8e-4
    v = np.vstack([trunk, _coil((1.0, 0.0), r, 3)])
    report = detect_area_leakage(_fake_result(v, 2.0, 0.5), pot)
    assert not any(w["flagged"] for w in report["wells"])
    turns = 3 * 30 * r * r * math.sin(math.pi / 30)
    for level in report["wells"][1]["levels"]:
        assert level["area_in"] == pytest.approx(turns, rel=1e-9)
    # a certificate flags the well holding its loops, and no other
    cert = _packed_certificate(np.array([-1.0, 0.0]), np.array([0.6, 0.5]),
                               -0.3, pot, 256)
    report = detect_area_leakage(cert, pot)
    assert cert.nonexistence_suspected
    assert [w["flagged"] for w in report["wells"]] == [
        i == cert.packed.well for i in range(len(pot.wells))]


def test_leakage_report_holds_only_what_is_read():
    # result.json reads each level; gate 9 reads the levels and the flag
    pot = make_two_well_k(4.0)
    trunk = np.linspace([-1.0, 0.0], [0.95, 0.0], 50)
    v = np.vstack([trunk, _coil((1.0, 0.0), 0.05, 2)])
    report = detect_area_leakage(_fake_result(v, 2.0, 0.5), pot)
    assert set(report) == {"wells"}
    assert [w["index"] for w in report["wells"]] == [0, 1]
    for well in report["wells"]:
        assert set(well) == {"index", "levels", "flagged"}
        assert all(set(level) == {"radius", "area_in", "arclength_in"}
                   for level in well["levels"])


@pytest.mark.parametrize("pot, p, q, A", [
    (make_homogeneous(1.0, 2.0), (1.0, 0.0), (0.0, 0.0), 0.05),
    (make_radial_quartic(1.0), (1.0, 0.0), (0.0, 0.0), 0.1),
    (make_two_well_k(4.0), (-1.0, 0.0), (1.0, 0.0), 0.5)])
def test_three_vertices_solve_in_both_drivers(pot, p, q, A):
    # one interior vertex: the polish system has order 1 and no
    # off-diagonal, which scipy's dgtsv wrapper still takes of length 1
    cfg = SolverConfig(n_vertices=3)
    res = minimize_constrained(p, q, A, pot, cfg)
    assert res.converged and res.curve.vertices.shape == (3, 2)
    geodesic = minimize_constrained(p, q, None, pot, cfg)
    assert geodesic.converged and geodesic.curve.vertices.shape == (3, 2)


def test_nonexistence_run_packs_area_at_a_well():
    pot = make_two_well_k(4.0)
    res = minimize_constrained((-1.0, 0.0), (1.0, 0.0), 2.0, pot,
                               SolverConfig(n_vertices=128))
    assert res.nonexistence_suspected
    # plateau cost: trunk plus the packing rate (l1 + l2) per unit area
    assert res.energy == pytest.approx(2.8 + 2.0 * 2.0, rel=1e-3)
    assert res.multiplier == pytest.approx(2.0, abs=1e-3)
    # the share of A inside the smallest probe radius
    trapped = max(abs(w["levels"][-1]["area_in"])
                  for w in res.leakage_report["wells"]) / 2.0
    assert trapped > 0.9


def _solve_counting_certificates(monkeypatch, caplog, p, q, A, pot, n):
    """The solve, its `start j:` log lines, its skip lines and how often
    it built the packed certificate."""
    built = []
    certificate = solver._packed_certificate

    def counted(*args):
        built.append(args)
        return certificate(*args)

    monkeypatch.setattr(solver, "_packed_certificate", counted)
    with caplog.at_level("DEBUG", logger="degeo.solver"):
        res = minimize_constrained(p, q, A, pot, SolverConfig(n_vertices=n))
    messages = [r.getMessage() for r in caplog.records
                if r.name == "degeo.solver"]
    starts = [m for m in messages if re.match(r"start \d+: ", m)]
    skips = [m for m in messages if "skipping the" in m]
    return res, starts, skips, len(built)


def test_packing_rate_ends_the_search(monkeypatch, caplog):
    # the first start converges with a multiplier above the packing rate 2
    # of the wells at both endpoints, and the certificate is cheaper
    A = 2.0
    res, starts, skips, built = _solve_counting_certificates(
        monkeypatch, caplog, (-1.0, 0.0), (1.0, 0.0), A, make_two_well_k(4.0),
        128)
    assert len(starts) == 1 and starts[0].startswith("start 0: ")
    assert "feasible True, ok True" in starts[0]
    assert len(skips) == 1 and skips[0].endswith("skipping the 2 remaining "
                                                 "starts")
    assert built == 1
    assert res.nonexistence_suspected and not res.converged
    assert res.packed is not None
    assert res.energy == pytest.approx(2.8 + 2.0 * A, rel=1e-3)


@pytest.mark.parametrize("case", ["radial", "two_well"])
def test_costlier_certificate_keeps_every_start(case, monkeypatch, caplog):
    # multipliers above the packing rate 2, but the certificate costs more
    # than each start; n=64 behaves as n=256 does and runs faster than any
    # smaller n, where the augmented-Lagrangian loop stalls longer
    if case == "radial":
        pot, p, q, A = make_radial_quartic(1.0), (1.0, 0.0), (0.0, 0.0), 0.55
    else:
        pot, p, q, A = make_two_well_k(4.0), (-1.0, 0.0), (1.0, 0.0), 0.8
    res, starts, skips, built = _solve_counting_certificates(
        monkeypatch, caplog, p, q, A, pot, 64)
    assert [m.split(":")[0] for m in starts] == ["start 0", "start 1",
                                                "start 2"]
    assert not skips and built == 1
    assert res.converged and res.packed is None
    assert abs(res.multiplier) > 2.0


def test_certificate_is_built_before_the_starts_and_competes(monkeypatch,
                                                            caplog):
    # the multiplier 0.89 is far below the packing rate 2 of the well at
    # the endpoint (0, 0), so no start meets the certificate: it is built
    # once anyway, competes with the winner and loses
    res, starts, skips, built = _solve_counting_certificates(
        monkeypatch, caplog, (1.0, 0.0), (0.0, 0.0), 0.1,
        make_radial_quartic(1.0), 64)
    assert built == 1
    assert res.converged and res.packed is None
    assert not res.nonexistence_suspected


def test_converged_warm_start_ends_the_search(caplog):
    # each sweep row after the first starts from the previous row's curve
    # and multiplier; it converges, so no cold start runs
    with caplog.at_level("DEBUG", logger="degeo.solver"):
        rows = area_sweep((1.0, 0.0), (0.0, 0.0), [0.08, 0.10, 0.12],
                          make_radial_quartic(1.0),
                          SolverConfig(n_vertices=64))
    solves = [[]]
    for record in caplog.records:
        if record.name == "degeo.solver":
            solves[-1].append(record.getMessage())
            if re.match(r"start \d+ of \d+ won", solves[-1][-1]):
                solves.append([])
    assert len(solves) == 4 and not solves[-1]
    for lines, prev, lam in zip(solves[1:3], rows, ("0.7346", "0.894368")):
        starts = [m for m in lines if re.match(r"start \d+: ", m)]
        assert len(starts) == 1 and starts[0].startswith("start 0: ")
        first = next(m for m in lines if m.startswith("outer iteration 0:"))
        assert first.startswith(f"outer iteration 0: lambda {lam}, ")
        assert f"{prev['multiplier']:.6g}" == lam
    assert all(row["converged"] for row in rows)


def _solve_without_the_agreement_rule(monkeypatch, p, q, A, pot, n):
    """The solve with the agreement rule off, so every start runs."""
    monkeypatch.setattr(solver, "_START_AGREEMENT", -1.0)
    return minimize_constrained(p, q, A, pot, SolverConfig(n_vertices=n))


def test_agreeing_starts_end_the_search(monkeypatch, caplog):
    # at n=64 start 1 ends 6.9e-11 from start 0 in relative energy, on the
    # same critical curve, so start 2 is skipped
    pot, p, q, A = make_homogeneous(1.0, 2.0), (1.0, 0.0), (0.0, 0.0), 0.05
    res, starts, skips, _ = _solve_counting_certificates(
        monkeypatch, caplog, p, q, A, pot, 64)
    assert [m.split(":")[0] for m in starts] == ["start 0", "start 1"]
    assert len(skips) == 1
    assert skips[0].startswith("start 1 agrees with start 0 within ")
    assert skips[0].endswith(": skipping the 1 remaining starts")
    full = _solve_without_the_agreement_rule(monkeypatch, p, q, A, pot, 64)
    assert res.converged and full.converged
    assert res.energy == pytest.approx(full.energy, rel=1e-8, abs=0.0)


def test_radial_starts_at_different_depths_all_run(monkeypatch, caplog):
    # at n=64 the radial starts stop at different spiral depths, 6.8e-6
    # apart in relative energy: all three run and the result is unchanged
    pot, p, q, A = make_radial_quartic(1.0), (1.0, 0.0), (0.0, 0.0), 0.25
    res, starts, skips, _ = _solve_counting_certificates(
        monkeypatch, caplog, p, q, A, pot, 64)
    assert [m.split(":")[0] for m in starts] == ["start 0", "start 1",
                                                "start 2"]
    assert not skips
    full = _solve_without_the_agreement_rule(monkeypatch, p, q, A, pot, 64)
    assert (res.energy, res.multiplier, res.converged) == (
        full.energy, full.multiplier, full.converged)
    assert np.array_equal(res.curve.vertices, full.curve.vertices)


@pytest.mark.parametrize("case", ["radial", "homogeneous", "two_well"])
def test_reflections_are_exact(case):
    # p -> (sx p1, sy p2) leaves each potential unchanged bit for bit and
    # maps the area integral of p1 dp2 to sx sy times itself.  IEEE
    # arithmetic flips signs exactly, so each image solve gives the same
    # energy and the multiplier times sx sy, bit for bit.  The two-well
    # split sends p1 = 0 to the left well, which breaks the x mirror
    every = [(-1, 1), (1, -1), (-1, -1)]
    pot, p, q, A, reflections = {
        "radial": (make_radial_quartic(1.0), (1.0, 0.0), (0.0, 0.0), 0.25,
                   every),
        "homogeneous": (make_homogeneous(1.0, 2.0), (1.0, 0.0), (0.0, 0.0),
                        0.05, every),
        "two_well": (make_two_well_k(4.0), (-1.0, 0.0), (1.0, 0.0), 0.3,
                     [(1, -1)]),
    }[case]
    cfg = SolverConfig(n_vertices=64)
    ref = minimize_constrained(p, q, A, pot, cfg)
    assert ref.converged
    for sx, sy in reflections:
        res = minimize_constrained((sx * p[0], sy * p[1]),
                                   (sx * q[0], sy * q[1]), sx * sy * A, pot,
                                   cfg)
        assert res.energy == ref.energy, (sx, sy)
        assert res.multiplier == sx * sy * ref.multiplier, (sx, sy)
        assert res.converged, (sx, sy)


def test_a_zero_multiplier_is_positive_zero():
    # the straight line between the two wells meets A = 0 and is critical
    # with multiplier exactly 0; the solver carries lambda itself, so no
    # negation turns that 0.0 into -0.0
    pot, cfg = make_two_well_k(2.0), SolverConfig(n_vertices=64)
    res = minimize_constrained((-1.0, 0.0), (1.0, 0.0), 0.0, pot, cfg)
    assert res.converged and res.multiplier == 0.0
    assert math.copysign(1.0, res.multiplier) == 1.0


@pytest.mark.parametrize("s", [0.5, 2.0, 4.0])
def test_homogeneous_scaling_scales_the_energy(homogeneous_solve, s):
    # F is homogeneous of degree 1, so p -> s p maps a curve of area A and
    # energy E to one of area s^2 A and energy s^2 E at the same
    # multiplier.  The image solve rounds differently: at n = 64 and 96 the
    # energies differ by at most 2.7e-9 relative and the multipliers by
    # 2.8e-7, so 1e-8 and 1e-6 bound them
    pot, ref = homogeneous_solve
    res = minimize_constrained((s, 0.0), (0.0, 0.0), s * s * 0.05, pot,
                               FAST)
    assert res.converged
    assert res.energy == pytest.approx(s * s * ref.energy, rel=1e-8)
    assert res.multiplier == pytest.approx(ref.multiplier, rel=1e-6)


@pytest.mark.parametrize("A", [0.1, 0.25])
def test_quarter_turn_about_the_radial_well(A):
    # a quarter turn about the well leaves W unchanged and maps (1, 0) to
    # (0, 1).  The area integral of p1 dp2 is the rotation-invariant
    # (1/2) of p1 dp2 - p2 dp1 plus (1/2)[p1 p2], which vanishes at both
    # ends, so A and the multiplier stay.  At n = 64 and 96 the energies
    # differ by at most 8.8e-7 relative and the multipliers by 8.8e-6; the
    # starts can stop at different spiral depths at the well (6.8e-6 apart
    # at A = 0.25, n = 64), so the bounds are the endpoint swap's 1e-5 on
    # the energy and ten times that on the multiplier
    pot, cfg = make_radial_quartic(1.0), SolverConfig(n_vertices=64)
    ref = minimize_constrained((1.0, 0.0), (0.0, 0.0), A, pot, cfg)
    res = minimize_constrained((0.0, 1.0), (0.0, 0.0), A, pot, cfg)
    assert ref.converged and res.converged
    assert res.energy == pytest.approx(ref.energy, rel=1e-5)
    assert res.multiplier == pytest.approx(ref.multiplier, rel=1e-4)


def test_cheaper_failed_solve_is_not_replaced_by_the_certificate():
    # every start ends feasible but unpolished, the cheapest at E 6.0366
    # (the exact arc costs 6.0208), while the flagged certificate costs
    # 6.8246; n=256 is the only n from 64 to 256 tried where no start
    # polishes
    pot, A = make_homogeneous(1.0, 2.0), 2.0
    res = minimize_constrained((1.0, 0.0), (0.0, 0.0), A, pot,
                               SolverConfig(n_vertices=256))
    exact = solve_homogeneous(np.array([1.0, 0.0]), A, 1.0, 2.0).energy
    assert res.packed is None and not res.converged
    assert abs(res.area_achieved - A) <= _TOL_AREA * (1.0 + abs(A))
    assert res.energy == pytest.approx(exact, rel=5e-3)


@pytest.mark.parametrize("A", [0.2, 0.3, 0.4])
def test_two_well_below_the_packing_rate_is_not_flagged(A):
    # a simple minimizer exists here, cheaper than the certificate's
    # trunk + packing rate * A, and its multiplier is below that rate
    pot = make_two_well_k(4.0)
    res = minimize_constrained((-1.0, 0.0), (1.0, 0.0), A, pot, FAST)
    assert res.converged
    assert not res.nonexistence_suspected
    assert res.packed is None
    assert abs(res.area_achieved - A) <= _TOL_AREA * (1.0 + abs(A))
    assert abs(res.multiplier) < 2.0
    assert res.energy < 2.8 + 2.0 * A


def _stretched_two_well(a):
    """W4(p1, a p2) for W4 the two-well k=4: wells at (-1, 0) and (1, 0)
    with rates (1, a) along the axes, exact derivatives through the
    stretch."""
    w4, s = make_two_well_k(4.0), np.array([1.0, a])
    return make_custom(lambda p: w4.eval_W(p * s),
                       wells=[(-1.0, 0.0), (1.0, 0.0)],
                       grad_W=lambda p: w4.grad_W(p * s) * s,
                       hess_W=lambda p: w4.hess_W(p * s) * np.outer(s, s))


def test_certificate_packs_at_the_rate_of_an_anisotropic_well():
    # the best polished curve (6.326413, multiplier 6.16) passes the
    # packing rate lambda1 + lambda2 = 6, so no minimizer exists; loops that
    # pack above 6 (a square packs at 7.21) lose to that curve
    pot = _stretched_two_well(5.0)
    res = minimize_constrained((-1.0, 0.0), (1.0, 0.0), 0.5, pot,
                               SolverConfig(n_vertices=128))
    assert res.packed is not None and not res.converged
    assert res.nonexistence_suspected
    assert res.energy == pytest.approx(5.8002, rel=1e-3)
    assert res.multiplier == pytest.approx(6.0, rel=1e-3)


@pytest.mark.parametrize("A", [0.08, -0.3])
def test_certificate_loop_turns_with_a_reflecting_frame(A):
    # finite differences give these wells a frame with swapped columns
    # (determinant -1): the loop is anchored on the first column and still
    # winds with the sign of the area excess
    pot = make_custom(_double_well_W, wells=[(-1.0, 0.0), (1.0, 0.0)],
                      grad_W=_double_well_grad)
    well = pot.wells[0]
    assert np.linalg.det(well.frame) < 0.0
    cert = _packed_certificate(np.array([-1.0, 0.0]), np.array([1.0, 0.0]),
                               A, pot, 256)
    assert cert.packed.orientation == math.copysign(1, A)
    loop = cert.packed.loop(cert.curve)
    assert math.copysign(1.0, area(loop)) == math.copysign(1, A)
    offset = loop.vertices[0] - well.location
    assert abs(offset @ well.frame[:, 1]) < 1e-12 * np.linalg.norm(offset)
    assert abs(cert.area_achieved - A) <= _TOL_AREA * (1.0 + abs(A))


@pytest.mark.parametrize("A", [5e-324, 1e-200])
def test_certificate_is_none_at_a_tiny_area_excess(A):
    # the loop radius, about sqrt(A / 2), is lost against the well's
    # coordinate -1, so the loop holds no area; the solve converges to the
    # straight geodesic as it does without a certificate
    pot = make_two_well_k(4.0)
    p, q = np.array([-1.0, 0.0]), np.array([1.0, 0.0])
    assert _packed_certificate(p, q, A, pot, 32) is None
    res = minimize_constrained(p, q, A, pot, SolverConfig(n_vertices=32))
    assert res.converged and res.packed is None
    assert res.energy == pytest.approx(2.8010365985535, rel=1e-12)


def test_certificate_is_none_where_the_loop_radius_has_no_root():
    # the straight legs through the anchor enclose -0.099575; 1e-9 below
    # it the anchor segments' area term outweighs the payload, so the
    # radius equation 2 n r^2 + b r = |payload| + b rho has no positive
    # root (its right-hand side is negative), and without the give-up the
    # square root raises "math domain error"
    pot, A = make_two_well_k(4.0), -0.099575 - 1e-9
    p, q = np.array([-1.0, 0.0]), np.array([0.6, 0.5])
    assert _packed_certificate(p, q, A, pot, 64) is None
    res = minimize_constrained(p, q, A, pot, SolverConfig(n_vertices=64))
    assert res.converged and not res.nonexistence_suspected
    assert res.energy == pytest.approx(3.244584093, rel=1e-9)


@pytest.mark.parametrize("q, A", [((1.0, 0.0), 6e-4), ((0.6, 0.5), -0.3)])
def test_certificate_totals_equal_the_literal_polyline(q, A):
    pot = make_two_well_k(4.0)
    cert = _packed_certificate(np.array([-1.0, 0.0]), np.array(q), A, pot,
                               256)
    packed = cert.packed
    assert packed.orientation == math.copysign(1, A)
    # write every loop out: the polyline the certificate stands for
    v, k = cert.curve.vertices, packed.anchor
    literal = Curve(np.vstack([v[:k + 1]]
                              + [v[k + 1:k + 5]] * packed.loop_count
                              + [v[k + 5:]]))
    assert energy(literal, pot) == pytest.approx(cert.energy, rel=1e-12)
    assert area(literal) == pytest.approx(cert.area_achieved, rel=1e-12)
    assert abs(area(literal) - A) <= _TOL_AREA * (1.0 + abs(A))
    report = detect_area_leakage(cert, pot)
    ref_report = detect_area_leakage(
        dataclasses.replace(cert, curve=literal, packed=None), pot)
    levels = [(mine, ref)
              for w_mine, w_ref in zip(report["wells"], ref_report["wells"])
              for mine, ref in zip(w_mine["levels"], w_ref["levels"])]
    assert len(levels) == 6
    for mine, ref in levels:
        for key in ("area_in", "arclength_in"):
            assert mine[key] == pytest.approx(ref[key], rel=1e-12, abs=0.0)



@pytest.mark.parametrize("p, q, A", [
    ((-1.0, 0.0), (1.0, 0.0), 2.0), ((-1.0, 0.0), (1.0, 0.0), 6e-4),
    ((-1.0, 0.0), (0.6, 0.5), -0.3), ((1.0, 0.0), (-1.0, 0.0), 2.0),
    ((-1.0 + 0.85 * 2e-3, 0.0), (1.0, 0.0), 2.0)])
def test_certificate_legs_share_the_longer_legs_spacing(p, q, A):
    # the longer leg gets the solve's n vertices and the shorter (1.7e-3
    # long, ending at the well (-1, 0)) the few its mean spacing needs, both
    # graded toward the wells by the resampler every start curve gets.  The
    # last p is the anchor itself (0.85 times the smallest probe radius
    # 2e-3 from the well): its leg of length 0 keeps its two vertices
    pot, n = make_two_well_k(4.0), 256
    p, q = np.array(p), np.array(q)
    cert = _packed_certificate(p, q, A, pot, n)
    packed = cert.packed
    v, k = cert.curve.vertices, packed.anchor
    assert np.array_equal(v[0], p) and np.array_equal(v[-1], q)
    assert np.array_equal(v[k], v[k + 4])
    legs = [v[:k + 1], v[k + 4:]]
    lengths = [math.dist(leg[0], leg[-1]) for leg in legs]
    long = int(lengths[1] > lengths[0])
    assert len(legs[long]) == n
    assert len(legs[1 - long]) == max(
        2, math.ceil((n - 1) * lengths[1 - long] / lengths[long]) + 1)
    for leg in (legs[0][:-1], legs[1][1:]):
        # each leg less the anchor, which the loop radius moves along e1,
        # lies on one line, in order
        chord = leg[-1] - leg[0]
        offset = leg - leg[0]
        across = offset[:, 0] * chord[1] - offset[:, 1] * chord[0]
        assert np.abs(across).max() <= 1e-12 * chord @ chord
        assert np.all(np.diff(offset @ chord) > 0.0)
    # graded: closer together at the anchor's well (0.44 to 0.54 of the
    # mean step, where a uniform leg has 1)
    steps = np.linalg.norm(np.diff(legs[long], axis=0), axis=1)
    assert steps[0 if long else -1] < 0.75 * steps.mean()
    # against the limit of this trunk, the legs through the written anchor
    # drawn finely plus the excess packed at the rate lambda1 + lambda2 = 2:
    # -2.2e-6, -2.1e-5, -7.0e-6, -2.2e-6 and -2.2e-6 relative, from the legs'
    # midpoint rule (O(n^-2)) less the loops' finite radius
    m = 2 ** 16 + 1
    trunk = Curve(np.vstack([np.linspace(p, v[k], m),
                             np.linspace(v[k], q, m)[1:]]))
    limit = energy(trunk, pot) + 2.0 * abs(A - area(trunk))
    assert cert.energy == pytest.approx(limit, rel=3e-5)


@pytest.mark.parametrize("A", [5.0, 50.0])
@pytest.mark.parametrize("c", [1e6, 1e7])
def test_certificate_far_from_the_origin(c, A):
    # millions of loops at a well near (c, 0): their area, taken about the
    # origin, would lose its digits against c and miss A by more than the
    # area tolerance, leaving no certificate
    cfg = SolverConfig(n_vertices=64)
    ref = minimize_constrained((1.0, 0.0), (0.0, 0.0), A,
                               make_radial_quartic(1.0), cfg)
    res = minimize_constrained((c + 1.0, 0.0), (c, 0.0), A,
                               make_radial_quartic(1.0, center=(c, 0.0)), cfg)
    assert ref.packed is not None and res.packed is not None
    assert res.nonexistence_suspected and not res.converged
    assert res.energy == pytest.approx(ref.energy, rel=1e-6)


def test_area_sweep_slope_tracks_multiplier():
    pot = make_radial_quartic(1.0)
    rows = area_sweep((1.0, 0.0), (0.0, 0.0), [0.08, 0.10, 0.12], pot, FAST)
    assert [r["A"] for r in rows] == [0.08, 0.10, 0.12]
    assert rows[0]["slope_fd"] is None and rows[-1]["slope_fd"] is None
    mid = rows[1]
    assert mid["converged"] and not mid["flagged"]
    assert mid["slope_fd"] == pytest.approx(mid["multiplier"], rel=5e-2)


def test_area_sweep_restarts_cold_after_a_flagged_row(monkeypatch):
    calls = []
    solve = solver.minimize_constrained

    def recorded(*args, **kwargs):
        calls.append(kwargs)
        return solve(*args, **kwargs)

    monkeypatch.setattr(solver, "minimize_constrained", recorded)
    rows = area_sweep((-1.0, 0.0), (1.0, 0.0), [1.0, 2.0, 2.5],
                      make_two_well_k(4.0), SolverConfig(n_vertices=64))
    assert rows[0]["converged"] and rows[1]["flagged"]
    # A=2 warm-starts from the converged A=1 curve; A=2.5 follows the
    # flagged certificate, so it starts cold, not from the A=1 curve
    assert calls[1]["init_curve"] is rows[0]["result"].curve
    assert calls[2]["init_curve"] is None
    assert calls[2]["init_multiplier"] == 0.0


@pytest.mark.parametrize("p, q", [((1.0,), (0.0,)), (1.0, 0.0),
                                  ([[1.0, 0.0]], [[0.0, 0.0]]),
                                  ((1.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
                                  (("a", 0), (0.0, 0.0)),
                                  ({"p1": 1.0, "p2": 0.0}, (0.0, 0.0))],
                         ids=["1-vectors", "scalars", "rows", "3-vectors",
                              "string", "dict"])
@pytest.mark.parametrize("driver", ["constrained", "unconstrained"])
def test_endpoints_must_be_points_in_the_plane(driver, p, q):
    pot, cfg = make_two_well_k(4.0), SolverConfig(n_vertices=16)
    solve = {"constrained": lambda: minimize_constrained(p, q, 0.1, pot, cfg),
             "unconstrained": lambda: minimize_constrained(p, q, None, pot,
                                                           cfg),
             }[driver]
    with pytest.raises(ValueError, match=r"endpoints .* must be points "
                                         r"\(p1, p2\)"):
        solve()


def test_init_curve_must_run_between_the_endpoints(homogeneous_solve):
    pot, res = homogeneous_solve
    p, q = (1.0, 0.0), (0.0, 0.0)
    cfg = SolverConfig(n_vertices=64)
    bad = [Curve(np.linspace([3.0, 1.0], [2.0, 0.5], 64)),  # wrong ends
           Curve(res.curve.vertices[::-1]),                 # reversed
           Curve(np.array([p, q])),                         # 2 vertices
           Curve(np.vstack([res.curve.vertices,
                            res.curve.vertices[:1]])),      # a loop
           Curve(np.where(np.arange(96)[:, None] == 40, np.nan,
                          res.curve.vertices))]             # a NaN vertex
    for init in bad:
        with pytest.raises(ValueError):
            minimize_constrained(p, q, 0.05, pot, cfg, init_curve=init)
    # a solver result carries the endpoints bit-exactly: area_sweep's warm
    # starts pass the check
    assert (res.curve.vertices[0] == p).all()
    assert (res.curve.vertices[-1] == q).all()


def test_warm_start_rejects_a_multiplier_estimate_that_is_not_finite(
        homogeneous_solve, monkeypatch):
    pot, res = homogeneous_solve
    ran = []
    monkeypatch.setattr(solver, "_augmented_lagrangian",
                        lambda *args, **kwargs: ran.append(args))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for lam0 in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="init_multiplier"):
                minimize_constrained((1.0, 0.0), (0.0, 0.0), 0.05, pot,
                                     SolverConfig(n_vertices=64),
                                     init_curve=res.curve,
                                     init_multiplier=lam0)
    # rejected before any start runs
    assert not ran


def test_solve_logs_every_start_and_the_winner(monkeypatch, caplog):
    # each start returned as given: the bump starts meet A exactly
    def as_given(v0, potential, A, init_multiplier=0.0):
        return v0, 0.0, area(Curve(v0)) - A, True

    monkeypatch.setattr(solver, "_augmented_lagrangian", as_given)
    pot = make_radial_quartic(1.0)
    with caplog.at_level("DEBUG", logger="degeo.solver"):
        res = minimize_constrained((1.0, 0.0), (0.0, 0.0), 0.1, pot,
                                   SolverConfig(n_vertices=32))
    messages = [r.getMessage() for r in caplog.records
                if r.name == "degeo.solver"]
    starts = [m for m in messages if m.startswith("start ") and ": " in m]
    assert len(starts) == 3
    energies = [float(m.split("energy ")[1].split(",")[0]) for m in starts]
    assert all("feasible True, ok True" in m for m in starts)
    best = int(np.argmin(energies))
    assert res.energy == pytest.approx(energies[best], rel=1e-10)
    won = [m for m in messages if " won" in m]
    margin = (sorted(energies)[1] - energies[best]) / energies[best]
    assert won == [f"start {best} of 3 won; next cheapest start is "
                   f"{margin:.3g} higher in relative energy"]


def test_unpolished_winner_is_not_converged(monkeypatch, caplog):
    # every start meets A exactly but its polish fails
    def unpolished(v0, potential, A, init_multiplier=0.0):
        return v0, 0.0, area(Curve(v0)) - A, False

    monkeypatch.setattr(solver, "_augmented_lagrangian", unpolished)
    with caplog.at_level("DEBUG", logger="degeo.solver"):
        res = minimize_constrained((1.0, 0.0), (0.0, 0.0), 0.1,
                                   make_radial_quartic(1.0),
                                   SolverConfig(n_vertices=32))
    assert any("feasible True, ok False" in r.getMessage()
               for r in caplog.records)
    assert not res.converged


def test_bump_inits_at_the_chord_area_is_one_straight_start():
    p, q, n = np.array([0.3, -0.2]), np.array([1.1, 0.7]), 40
    straight = np.linspace(p, q, n)
    a0, _ = discrete_area_gradient(straight)
    inits = solver._bump_inits(p, q, a0, n)
    assert len(inits) == 1
    assert inits[0] == pytest.approx(straight, abs=1e-15)
    assert len(solver._bump_inits(p, q, a0 + 0.1, n)) == 3


def test_solver_config_validation():
    with pytest.raises(TypeError):
        SolverConfig(tol_grad=1e-9)
    with pytest.raises(ValueError):
        SolverConfig(n_vertices=2)
    for n in (64.5, "96"):
        with pytest.raises(ValueError):
            SolverConfig(n_vertices=n)


def test_energy_gradient_evaluates_W_once(monkeypatch):
    pot = make_radial_quartic(1.0)  # its well set-up evaluates hess W
    calls = Counter()
    for name in ("eval_W", "grad_W", "hess_W", "W_and_grad"):
        def counted(self, p, _name=name, _method=getattr(Potential, name)):
            calls[_name] += 1
            return _method(self, p)
        monkeypatch.setattr(Potential, name, counted)
    t = np.linspace(0.0, 1.0, 40)
    v = np.stack([1.0 - t, 0.3 * t * (1.0 - t)], axis=1)
    discrete_energy_gradient(v, pot)
    assert calls == {"W_and_grad": 1}
    # one density call at the midpoints, one at the interior vertices
    calls.clear()
    el_residual(Curve(v), pot, 0.5)
    assert calls == {"W_and_grad": 2}


@pytest.mark.parametrize("case", ["dominant", "indefinite", "zero_column",
                                  "zero_pivot"])
def test_dgtsv_equals_solve_banded_bit_for_bit(case):
    # the polish hands the tridiagonal's three diagonals to LAPACK's dgtsv,
    # loaded from scipy's _flapack extension, the routine
    # solve_banded((1, 1), ...) dispatches to; a singular band must raise
    # LinAlgError there and report info > 0 here (both: lm *= 10)
    m = 48
    band = RNG.normal(size=(3, m))
    band[0, 0] = band[2, -1] = 0.0
    if case == "dominant":
        band[1] = 2.5 + np.abs(band[1])
    elif case == "zero_column":
        band[1, 0] = band[2, 0] = 0.0
    elif case == "zero_pivot":
        # rows 0 and 1 start [1, 1, 0 ...] and [1, 1, 0 ...]: elimination
        # leaves an exact zero on the diagonal
        band[:, :2] = [[0.0, 1.0], [1.0, 1.0], [1.0, 0.0]]
    rhs = RNG.normal(size=(m, 2))
    for lm in ((0.0,) if case.startswith("zero") else (0.0, 1e-9, 10.0)):
        band_lm = band.copy()
        band_lm[1] += lm
        try:
            ref = solve_banded((1, 1), band_lm, rhs)
        except LinAlgError:
            ref = None
        *_, x, info = solver._flapack.dgtsv(band[2, :-1], band[1] + lm,
                                            band[0, 1:], rhs, overwrite_d=1)
        assert (ref is None) == case.startswith("zero")
        if ref is None:
            assert info > 0
        else:
            assert info == 0 and np.array_equal(x, ref)


def _reference_geometry(v, potential):
    """The per-segment data before the row-norm helper and the one-root
    density: lengths by np.linalg.norm, grad F with a second sqrt."""
    seg = v[1:] - v[:-1]
    L = np.maximum(np.linalg.norm(seg, axis=1), 1e-300)
    mid = 0.5 * (v[1:] + v[:-1])
    w, g = potential.W_and_grad(mid)
    F = np.sqrt(np.maximum(w, 0.0))
    gF = g / (2.0 * np.sqrt(np.maximum(w, 1e-300)))[:, None]
    return SegmentGeometry(seg=seg, L=L, mid=mid, T=seg / L[:, None], F=F,
                           gF=gF)


def _reference_residual(v, potential, w):
    """The unsplit normal residual, in the arithmetic of the reference
    geometry: (N, g_n, u_n, area, max |g_n| / scale, geometry)."""
    geo = _reference_geometry(v, potential)
    wv, g = potential.W_and_grad(v[1:-1])
    Fv = np.sqrt(np.maximum(wv, 0.0))
    gFv = g / (2.0 * np.sqrt(np.maximum(wv, 1e-300)))[:, None]
    half = 0.5 * geo.gF * geo.L[:, None]
    FT = geo.F[:, None] * geo.T
    gE = (half - FT)[1:] + (half + FT)[:-1]
    seg2, mid1 = geo.seg[:, 1], geo.mid[:, 0]
    gA = np.empty_like(gE)
    gA[:, 0] = 0.5 * seg2[1:] + 0.5 * seg2[:-1]
    gA[:, 1] = mid1[:-1] - mid1[1:]
    a = float((mid1 * seg2).cumsum()[-1])
    s = 0.5 * (geo.L[:-1] + geo.L[1:])
    turn = np.linalg.norm(geo.T[1:] - geo.T[:-1], axis=1) / s
    scale = s * (np.linalg.norm(gFv, axis=1) + abs(w) + Fv * turn)
    t = np.empty_like(v)
    t[0], t[-1], t[1:-1] = v[1] - v[0], v[-1] - v[-2], v[2:] - v[:-2]
    t /= np.maximum(np.linalg.norm(t, axis=1), 1e-300)[:, None]
    N = np.stack([-t[:, 1], t[:, 0]], axis=1)[1:-1]
    gn = np.einsum("ij,ij->i", gE + w * gA, N)
    un = np.einsum("ij,ij->i", gA, N)
    res = np.where(scale > 0.0, np.abs(gn) / np.maximum(scale, 1e-300), 0.0)
    return N, gn, un, a, float(res.max()), geo


def _reference_polish(v, potential, A, mu):
    """The polish before dgtsv and the split residual, in the multiplier mu
    of E + mu * (area - A): every trial copies the band, solves with
    solve_banded and evaluates the whole residual."""
    tol_c = 0.0 if A is None else _TOL_AREA * (1.0 + abs(A))

    def evaluate(v, mu):
        N, gn, un, a, res, geo = _reference_residual(v, potential, mu)
        return N, gn, un, 0.0 if A is None else a - A, res, geo

    N, gn, un, c, res, geo = evaluate(v, mu)
    lm = 1e-9
    steps = 0
    for _ in range(solver._NEWTON_ITERATIONS):
        err = max(float(np.abs(gn).max()), abs(c))
        assert math.isfinite(err)
        if solver._polish_converged(res, c, tol_c):
            break
        diag, off = solver._normal_hessian(geo, potential, -mu, N)
        band = np.zeros((3, diag.size))
        band[0, 1:], band[1], band[2, :-1] = off, diag, off
        seg = np.linalg.norm(geo.seg, axis=1)
        cap = 0.4 * np.minimum(seg[:-1], seg[1:])
        for _ in range(25):
            band_lm = band.copy()
            band_lm[1] += lm
            try:
                d0, du = solve_banded((1, 1), band_lm,
                                      np.stack([-gn, un], axis=1)).T
            except LinAlgError:
                lm *= 10.0
                continue
            dlam = 0.0
            if A is not None:
                s = float(un @ du)
                dlam = (float(un @ d0) + c) / s if s else math.inf
            d = d0 - dlam * du
            if not (math.isfinite(dlam) and np.all(np.isfinite(d))):
                lm *= 10.0
                continue
            vt = v.copy()
            vt[1:-1] += np.clip(d, -cap, cap)[:, None] * N
            trial = evaluate(vt, mu + dlam)
            if max(float(np.abs(trial[1]).max()), abs(trial[3])) < err:
                v, mu = vt, mu + dlam
                N, gn, un, c, res, geo = trial
                steps += 1
                lm = max(lm / 3.0, 1e-12)
                break
            lm *= 10.0
        else:
            break
    return v, mu, res, c, steps


class _Captured(Exception):
    pass


def _polish_inputs(monkeypatch, solve, calls):
    """Arguments of the first `calls` polishes of `solve()`."""
    seen = []
    polish = solver._newton_polish

    def capture(v, potential, A, lam):
        seen.append((v.copy(), potential, A, lam))
        if len(seen) == calls:
            raise _Captured
        return polish(v, potential, A, lam)

    monkeypatch.setattr(solver, "_newton_polish", capture)
    with pytest.raises(_Captured):
        solve()
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("case", ["two_well_nonexistence", "radial_handoff",
                                  "homogeneous_geodesic",
                                  "two_well_geodesic"])
def test_newton_polish_equals_the_reference_bit_for_bit(case, monkeypatch):
    config = SolverConfig(n_vertices=64)
    if case == "two_well_nonexistence":
        # at n=128 the first start makes three polishes: two failed handoffs
        # and the converged one, after which the packing rate ends the search
        pot, calls = make_two_well_k(4.0), 3
        config = SolverConfig(n_vertices=128)
        solve = lambda: minimize_constrained((-1.0, 0.0), (1.0, 0.0), 2.0,
                                             pot, config)
    elif case == "radial_handoff":
        pot, calls = make_radial_quartic(1.0), 2
        solve = lambda: minimize_constrained((1.0, 0.0), (0.0, 0.0), 0.25,
                                             pot, config)
    elif case == "homogeneous_geodesic":
        pot, calls = make_homogeneous(1.0, 2.0), 1
        solve = lambda: minimize_constrained((1.0, 0.5), (0.0, 0.0), None,
                                             pot, config)
    else:
        # every start's polish; the two arched ones run their 150 steps
        # without converging
        pot, calls = make_two_well_k(4.0), 3
        solve = lambda: minimize_constrained((-1.0, 0.3), (1.0, 0.2), None,
                                             pot, config)
    inputs = _polish_inputs(monkeypatch, solve, calls)
    assert len(inputs) == calls
    total_steps = 0
    for v, potential, A, lam in inputs:
        got = solver._newton_polish(v, potential, A, lam)
        # the reference polishes in mu = -lam, the multiplier of E + mu c
        ref = _reference_polish(v, potential, A, -lam)
        assert np.array_equal(got[0], ref[0])
        assert got[1] == -ref[1] and got[2:] == ref[2:]
        total_steps += got[4]
    assert total_steps > 0


def test_non_finite_hessian_raises_value_error():
    # a user Hessian returning NaN must stop the solve, not steer it
    pot = make_custom(lambda p: 1.0 + np.sum(np.asarray(p) ** 2, axis=-1),
                      grad_W=lambda p: 2.0 * np.asarray(p),
                      hess_W=lambda p: np.full(np.shape(p) + (2,), np.nan))
    with pytest.raises(ValueError):
        minimize_constrained((1.0, 0.0), (-1.0, 0.0), 0.3, pot,
                             SolverConfig(n_vertices=16))
