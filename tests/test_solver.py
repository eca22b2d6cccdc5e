import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from degeo import (Curve, Potential, SolveResult, SolverConfig,
                   ZeroDensityInterior, area, area_sweep, detect_area_leakage,
                   discrete_area_gradient, discrete_energy_gradient,
                   el_residual, energy, estimate_multiplier,
                   geodesic_curvature, make_custom, make_homogeneous,
                   make_radial_quartic, make_two_well_k, minimize_constrained,
                   minimize_unconstrained, parabola_energy, solve_C1_for_area,
                   solve_homogeneous, spiral_from_C1, vertex_normals)
from degeo import solver
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
    w = 0.7

    def gn(eta):
        vv = v.copy()
        vv[1:-1] += eta[:, None] * N
        g = (discrete_energy_gradient(vv, pot)[1]
             + w * discrete_area_gradient(vv)[1])
        return np.einsum("ij,ij->i", g[1:-1], N)

    band = solver._normal_hessian(v, pot, w, N)
    H = np.diag(band[1]) + np.diag(band[0, 1:], 1) + np.diag(band[2, :-1], -1)
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
    c = Curve(np.stack([R * np.cos(th), R * np.sin(th)], axis=1), closed=True)
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


def test_unconstrained_geodesic_on_radial_ray():
    # for F = |p| the ray through the well is the geodesic; cost r^2/2 gap
    pot = make_homogeneous(1.0, 1.0)
    res = minimize_unconstrained((1.0, 0.0), (2.0, 0.0), pot, FAST)
    assert res.converged
    assert res.energy == pytest.approx(1.5, rel=1e-6)
    assert np.abs(res.curve.vertices[:, 1]).max() < 1e-6
    assert res.multiplier == 0.0
    with pytest.raises(ValueError):
        minimize_unconstrained((1.0, 0.0), (1.0, 0.0), pot, FAST)
    with pytest.raises(ValueError):
        minimize_unconstrained((math.nan, 0.0), (2.0, 0.0), pot, FAST)


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
    assert len(inner_solves) == 3
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
    assert len(handoffs) == 3
    outer = [m for m in messages if m.startswith("outer iteration ")]
    # each start logs iterations 0, 1, ... up to its handoff
    assert [m.split(":")[0] for m in outer].count("outer iteration 0") == 3
    for m in outer:
        rho = float(m.split("rho ")[1].split(",")[0])
        nit = int(m.split(", ")[-1].split(" ")[0])
        assert math.isfinite(float(m.split("mu ")[1].split(",")[0]))
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


def test_outer_loop_stalls_out_at_the_penalty_cap(monkeypatch, caplog):
    # stubs: every inner solve returns the same curve, so the area gap never
    # shrinks, and the polish never converges
    pot = make_homogeneous(1.0, 2.0)
    t = np.linspace(0.0, 1.0, 32)
    v_stuck = np.stack([1.0 - t, 0.3 * t * (1.0 - t)], axis=1)
    A = area(Curve(v_stuck)) - 1e-3
    penalties = []

    def stuck_inner(v, potential, A, mu, rho):
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


def _coil(center, r, turns, n_per_turn=60):
    th = np.linspace(0.0, 2.0 * math.pi * turns, n_per_turn * turns + 1)
    return np.stack([center[0] + r * np.cos(th),
                     center[1] + r * np.sin(th)], axis=1)


def _fake_result(curve, multiplier, A_target):
    c = Curve(curve)
    return SolveResult(curve=c, energy=energy(c, make_two_well_k(4.0)),
                       area_achieved=A_target, multiplier=multiplier,
                       el_residual_max=0.0, leakage_report={},
                       converged=True, nonexistence_suspected=False,
                       A_target=A_target)


def test_leakage_flags_persistent_coil_at_packing_rate():
    pot = make_two_well_k(4.0)
    # trunk plus a coil tighter than the smallest probe radius
    trunk = np.linspace([-1.0, 0.0], [1.0 - 1e-3, 0.0], 50)
    coil = _coil((1.0, 0.0), 8e-4, 3)
    v = np.vstack([trunk, coil])
    report = detect_area_leakage(_fake_result(v, 2.0, 0.5), pot)
    assert report["nonexistence_suspected"]
    flagged = report["wells"][1]
    assert flagged["flagged"]
    assert all(r > 0.5 for r in flagged["ratios"])
    assert not report["wells"][0]["flagged"]


def test_leakage_not_flagged_when_multiplier_low():
    pot = make_two_well_k(4.0)
    trunk = np.linspace([-1.0, 0.0], [1.0 - 1e-3, 0.0], 50)
    v = np.vstack([trunk, _coil((1.0, 0.0), 8e-4, 3)])
    report = detect_area_leakage(_fake_result(v, 0.9, 0.5), pot)
    assert not report["nonexistence_suspected"]


def test_leakage_not_flagged_when_area_escapes_shrinking_radii():
    pot = make_two_well_k(4.0)
    # coil radius sits between the first and second probe radii
    trunk = np.linspace([-1.0, 0.0], [0.95, 0.0], 50)
    v = np.vstack([trunk, _coil((1.0, 0.0), 0.05, 2)])
    report = detect_area_leakage(_fake_result(v, 2.0, 0.5), pot)
    assert not report["nonexistence_suspected"]


def test_nonexistence_run_packs_area_at_a_well():
    pot = make_two_well_k(4.0)
    res = minimize_constrained((-1.0, 0.0), (1.0, 0.0), 2.0, pot,
                               SolverConfig(n_vertices=128))
    assert res.nonexistence_suspected
    # plateau cost: trunk plus the packing rate (l1 + l2) per unit area
    assert res.energy == pytest.approx(2.8 + 2.0 * 2.0, rel=1e-3)
    assert res.multiplier == pytest.approx(2.0, abs=1e-3)
    trapped = max(w["trapped_fraction"] for w in res.leakage_report["wells"])
    assert trapped > 0.9


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


@pytest.mark.parametrize("q, A", [((1.0, 0.0), 6e-4), ((0.6, 0.5), -0.3)])
def test_certificate_totals_equal_the_literal_polyline(q, A):
    pot = make_two_well_k(4.0)
    cert = _packed_certificate(np.array([-1.0, 0.0]), np.array(q), A, pot)
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


def test_area_sweep_slope_tracks_multiplier():
    pot = make_radial_quartic(1.0)
    rows = area_sweep((1.0, 0.0), (0.0, 0.0), [0.08, 0.10, 0.12], pot, FAST)
    assert [r["A"] for r in rows] == [0.08, 0.10, 0.12]
    assert rows[0]["slope_fd"] is None and rows[-1]["slope_fd"] is None
    mid = rows[1]
    assert mid["converged"] and not mid["flagged"]
    assert mid["slope_fd"] == pytest.approx(mid["multiplier"], rel=5e-2)


def test_init_curve_must_run_between_the_endpoints(homogeneous_solve):
    pot, res = homogeneous_solve
    p, q = (1.0, 0.0), (0.0, 0.0)
    cfg = SolverConfig(n_vertices=64)
    bad = [Curve(np.linspace([3.0, 1.0], [2.0, 0.5], 64)),  # wrong ends
           Curve(res.curve.vertices[::-1]),                 # reversed
           Curve(np.array([p, q])),                         # 2 vertices
           Curve(res.curve.vertices, closed=True),          # closed
           Curve(np.where(np.arange(96)[:, None] == 40, np.nan,
                          res.curve.vertices))]             # a NaN vertex
    for init in bad:
        with pytest.raises(ValueError):
            minimize_constrained(p, q, 0.05, pot, cfg, init_curve=init)
    # a solver result carries the endpoints bit-exactly: area_sweep's warm
    # starts pass the check
    assert (res.curve.vertices[0] == p).all()
    assert (res.curve.vertices[-1] == q).all()


def test_solve_logs_every_start_and_the_winner(monkeypatch, caplog):
    # each start returned as given: the bump starts meet A exactly
    def as_given(v0, potential, A, mu0=0.0):
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
    def unpolished(v0, potential, A, mu0=0.0):
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
    for name in ("eval_W", "grad_W", "hess_W"):
        def counted(self, p, _name=name, _method=getattr(Potential, name)):
            calls[_name] += 1
            return _method(self, p)
        monkeypatch.setattr(Potential, name, counted)
    t = np.linspace(0.0, 1.0, 40)
    v = np.stack([1.0 - t, 0.3 * t * (1.0 - t)], axis=1)
    discrete_energy_gradient(v, pot)
    assert calls == {"eval_W": 1, "grad_W": 1}
    # one density call at the midpoints, one at the interior vertices
    calls.clear()
    el_residual(Curve(v), pot, 0.5)
    assert calls == {"eval_W": 2, "grad_W": 2}
