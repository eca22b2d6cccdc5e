"""End-to-end validation gates.

Each test prints one summary line (visible with -s or on failure) and holds
one numbered guarantee; `pytest -v tests/test_acceptance.py` therefore shows
one pass/fail line per gate.  Closed-form references are computed by
independent routes (ODE integration, exact antiderivatives), never copied
from solver output.
"""

import math
import time

import numpy as np
import pytest

from degeo import (NonExistence, SolverConfig, area, area_sweep,
                   discrete_area_gradient, discrete_energy_gradient, energy,
                   estimate_multiplier, existence_threshold,
                   hamiltonian_energy, homogeneous_length,
                   integrate_integral_curve, make_custom, make_homogeneous,
                   make_radial_quartic, make_two_well_k, minimize_constrained,
                   minimizing_ellipse, parabola_energy, rtilde,
                   second_variation_spectrum, solve_C1_for_area,
                   solve_beta_for_area, solve_homogeneous, spiral_from_C1,
                   to_traveling_wave, wave_residual, zero_mode_alignment)

N_BENCH = 256
WELLS = [(-1.0, 0.0), (1.0, 0.0)]


def _report(label, detail):
    print(f"PASS {label}: {detail}")


# ---------------------------------------------------------------------------
# shared expensive artifacts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def benchmark_solves():
    """Ten constrained solves against two independent closed-form routes."""
    cfg = SolverConfig(n_vertices=N_BENCH)
    runs = []
    pot_r = make_radial_quartic(1.0)
    for A in (0.05, 0.15, 0.25, 0.35, 0.45):
        res = minimize_constrained((1.0, 0.0), (0.0, 0.0), A, pot_r, cfg)
        c1 = solve_C1_for_area(1.0, A, 1.0)
        runs.append(("radial", A, pot_r, res, parabola_energy(c1, 1.0, 1.0)))
    pot_h = make_homogeneous(1.0, 2.0)
    for A in (-0.10, -0.05, 0.02, 0.05, 0.10):
        res = minimize_constrained((1.0, 0.0), (0.0, 0.0), A, pot_h, cfg)
        ref = solve_homogeneous(np.array([1.0, 0.0]), A, 1.0, 2.0).energy
        runs.append(("homogeneous", A, pot_h, res, ref))
    return runs


def _smooth_double_well():
    w0, w1 = np.array(WELLS[0]), np.array(WELLS[1])

    def W(p):
        p = np.asarray(p, dtype=float)
        return (np.sum((p - w0) ** 2, axis=-1)
                * np.sum((p - w1) ** 2, axis=-1))

    def grad(p):
        p = np.asarray(p, dtype=float)
        d0, d1 = p - w0, p - w1
        s0 = np.sum(d0 ** 2, axis=-1)[..., None]
        s1 = np.sum(d1 ** 2, axis=-1)[..., None]
        return 2.0 * d0 * s1 + 2.0 * d1 * s0

    return make_custom(W, wells=WELLS, grad_W=grad)


@pytest.fixture(scope="module")
def wave_runs():
    pot = _smooth_double_well()
    cfg = SolverConfig(n_vertices=384)
    standing = minimize_constrained(WELLS[0], WELLS[1], 0.0, pot, cfg)
    traveling = minimize_constrained(WELLS[0], WELLS[1], 0.08, pot, cfg)
    return pot, standing, traveling


# ---------------------------------------------------------------------------
# the twelve gates
# ---------------------------------------------------------------------------

def test_01_ellipse_energy_per_area_rate():
    t0 = time.time()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(10):
        lam1, lam2 = (float(x) for x in rng.uniform(0.4, 3.0, size=2))
        p0 = rng.uniform(-2.0, 2.0, size=2)
        while np.linalg.norm(p0) < 0.2:
            p0 = rng.uniform(-2.0, 2.0, size=2)
        c, e = minimizing_ellipse(p0, lam1, lam2, 4096)
        worst = max(worst, abs(e / area(c) - (lam1 + lam2)) / (lam1 + lam2))
    elapsed = time.time() - t0
    assert worst <= 1e-4
    assert elapsed < 1.0
    _report("01 ellipse rate", f"worst rel {worst:.2e} in {elapsed:.2f}s")


def test_02_arc_length_identity():
    t0 = time.time()
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        p0 = rng.uniform(-1.5, 1.5, size=2)
        while np.linalg.norm(p0) < 0.3:
            p0 = rng.uniform(-1.5, 1.5, size=2)
        beta = float(rng.uniform(0.15, math.pi / 2)
                     * rng.choice([-1.0, 1.0]))
        lam1, lam2 = (float(x) for x in rng.uniform(0.5, 2.5, size=2))
        c = integrate_integral_curve(p0, beta, lam1, lam2, n_out=20000)
        e = energy(c, make_homogeneous(lam1, lam2))
        ref = homogeneous_length(p0, beta, lam1, lam2)
        worst = max(worst, abs(e - ref) / ref)
    elapsed = time.time() - t0
    assert worst <= 1e-4
    assert elapsed < 10.0
    _report("02 arc length", f"worst rel {worst:.2e} in {elapsed:.1f}s")


def test_03_energy_slope_in_area_closed_form():
    t0 = time.time()
    lam1, lam2 = 1.0, 2.0
    p0 = np.array([1.0, 0.0])
    rt0 = float(rtilde(p0, lam1, lam2))
    As = np.linspace(0.15, 0.35, 21)
    betas = [solve_beta_for_area(p0, float(A), lam1, lam2) for A in As]
    L = rt0 / np.sin(betas)
    fd = (L[2:] - L[:-2]) / (As[2:] - As[:-2])
    formula = (lam1 + lam2) * np.cos(betas[1:-1])
    worst = float(np.max(np.abs(fd - formula) / np.abs(formula)))
    elapsed = time.time() - t0
    assert worst <= 1e-3
    assert elapsed < 30.0
    _report("03 dE/dA closed form", f"worst rel {worst:.2e} in {elapsed:.1f}s")


def test_04_radial_existence_threshold():
    t0 = time.time()
    rng = np.random.default_rng(7)
    for _ in range(10):
        R0 = float(rng.uniform(0.3, 3.0))
        b = float(rng.uniform(0.2, 4.0))
        thr = existence_threshold(R0, b)
        sign = float(rng.choice([-1.0, 1.0]))
        c1 = solve_C1_for_area(R0, sign * 0.99 * thr, b)
        assert abs(c1) <= 1.0
        with pytest.raises(NonExistence):
            solve_C1_for_area(R0, sign * 1.01 * thr, b)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report("04 threshold", f"10 random (R0, b) in {elapsed:.2f}s")


def test_05_multiplier_identity_on_spirals():
    t0 = time.time()
    pot = make_radial_quartic(1.0)
    worst = 0.0
    for c1 in np.arange(0.1, 1.0001, 0.1):
        c = spiral_from_C1(float(c1), 1.0, 1.0, 0.02)
        lam, _ = estimate_multiplier(c, pot)
        worst = max(worst, abs(lam - 2.0 * c1))
        assert abs(lam) <= 2.0 + 1e-2
    elapsed = time.time() - t0
    assert worst <= 1e-2
    assert elapsed < 10.0
    _report("05 multiplier 2C1", f"worst dev {worst:.2e} in {elapsed:.1f}s")


def test_06_solver_matches_closed_forms(benchmark_solves):
    t0 = time.time()
    worst = 0.0
    for family, A, _pot, res, ref in benchmark_solves:
        assert res.converged, f"{family} A={A} failed to converge"
        assert not res.nonexistence_suspected
        rel = abs(res.energy - ref) / abs(ref)
        worst = max(worst, rel)
        assert rel <= 5e-3, f"{family} A={A}: rel {rel:.2e}"
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report("06 solver vs closed form",
            f"10 solves, worst rel {worst:.2e} in {elapsed:.1f}s")


def test_07_criticality_residual(benchmark_solves):
    worst_iqr, worst_res = 0.0, 0.0
    for family, A, pot, res, _ref in benchmark_solves:
        lam, iqr = estimate_multiplier(res.curve, pot)
        budget = 1e-2 * (1.0 + abs(lam))
        worst_iqr = max(worst_iqr, iqr / budget)
        worst_res = max(worst_res, res.el_residual_max)
        assert iqr <= budget, f"{family} A={A}: dispersion {iqr:.2e}"
        assert res.el_residual_max <= 1e-2
    _report("07 criticality", f"worst dispersion frac {worst_iqr:.2e}, "
                              f"worst residual {worst_res:.2e}")


def test_08_sweep_slope_tracks_multiplier():
    t0 = time.time()
    cfg = SolverConfig(n_vertices=N_BENCH)
    rows = area_sweep((1.0, 0.0), (0.0, 0.0), [0.06, 0.08, 0.10, 0.12, 0.14],
                      make_radial_quartic(1.0), cfg)
    worst = 0.0
    for row in rows[1:-1]:
        assert row["converged"]
        rel = abs(row["slope_fd"] - row["multiplier"]) / abs(row["multiplier"])
        worst = max(worst, rel)
        assert rel <= 1e-2, f"A={row['A']}: slope rel {rel:.2e}"
    # at the unconstrained geodesic's own area the slope vanishes
    rows0 = area_sweep((1.0, 0.0), (0.0, 0.0), [-0.05, 0.0, 0.05],
                       make_homogeneous(1.0, 2.0), cfg)
    slope0 = rows0[1]["slope_fd"]
    assert slope0 == pytest.approx(0.0, abs=1e-2)
    elapsed = time.time() - t0
    _report("08 dE/dA vs multiplier",
            f"worst interior rel {worst:.2e}, slope at A0 {slope0:.1e}, "
            f"{elapsed:.1f}s")


def test_09_nonexistence_flag_and_trapped_area():
    t0 = time.time()
    k = 4.0
    pot = make_two_well_k(k)
    cfg = SolverConfig(n_vertices=N_BENCH)
    res = minimize_constrained((-1.0, 0.0), (1.0, 0.0), 2.0, pot, cfg)
    assert res.nonexistence_suspected
    report = res.leakage_report
    flagged = [w for w in report["wells"] if w["flagged"]]
    assert flagged
    radii = [lv["radius"] for lv in flagged[0]["levels"]]
    assert radii[0] / radii[-1] >= 100.0  # neighborhood shrinks 100x
    floor = 0.5 / math.sqrt(k * k - 1.0)
    trapped = min(abs(lv["area_in"]) for lv in flagged[0]["levels"])
    assert trapped >= floor
    # plateau cost: trunk plus packing rate (lambda1+lambda2) per unit area
    trunk = 2.0 * (16.0 ** 1.5 - 1.0) / 45.0
    assert res.energy == pytest.approx(trunk + 2.0 * 2.0, rel=1e-3)
    elapsed = time.time() - t0
    assert elapsed < 600.0
    _report("09 non-existence", f"trapped {trapped:.3f} >= {floor:.3f} "
                                f"across radii {radii}, {elapsed:.1f}s")


def test_10_tangent_spiral_arclength_diverges():
    t0 = time.time()

    def total_len(r_inner):
        v = spiral_from_C1(1.0, 1.0, 1.0, r_inner).vertices
        return float(np.linalg.norm(np.diff(v, axis=0), axis=1).sum())

    lengths = [total_len(10.0 ** -k) for k in range(1, 6)]
    gains = [b - a for a, b in zip(lengths, lengths[1:])]
    assert all(g >= math.log(10.0) * (1.0 - 1e-2) for g in gains)
    elapsed = time.time() - t0
    _report("10 spiral arclength", "per-decade gains "
            + ", ".join(f"{g:.4f}" for g in gains)
            + f" >= {math.log(10.0) * 0.99:.4f}, {elapsed:.1f}s")


def test_11_traveling_wave_construction(wave_runs):
    pot, standing, traveling = wave_runs
    worst_res = 0.0
    for res in (standing, traveling):
        assert res.converged
        prof = to_traveling_wave(res, pot)
        assert prof.nu == pytest.approx(math.sqrt(2.0) * res.multiplier)
        worst_res = max(worst_res, wave_residual(prof, pot))
        assert wave_residual(prof, pot) <= 5e-2
    prof0 = to_traveling_wave(standing, pot)
    H = hamiltonian_energy(prof0, pot)
    target = math.sqrt(2.0) * standing.energy
    gap = abs(H - target) / target
    assert gap <= 1e-3
    vals, mode = second_variation_spectrum(prof0, pot, 4)
    align = zero_mode_alignment(prof0, mode)
    assert align >= 0.99
    assert abs(vals[0]) < 0.05  # translation zero mode
    _report("11 wave construction",
            f"worst residual {worst_res:.2e}, H gap {gap:.2e}, "
            f"alignment {align:.5f}")


def test_12_gradient_hygiene():
    t0 = time.time()
    rng = np.random.default_rng(12)
    pots = [make_homogeneous(1.0, 2.0), make_radial_quartic(0.7),
            make_two_well_k(3.0)]
    worst = 0.0
    h = 1e-6
    for i in range(100):
        pot = pots[i % 3]
        n = int(rng.integers(8, 24))
        v = (np.linspace([0.8, 0.1], [2.0, -0.4], n)
             + 0.08 * rng.normal(size=(n, 2)))
        _, gE = discrete_energy_gradient(v, pot)
        _, gA = discrete_area_gradient(v)
        scE = max(float(np.abs(gE).max()), 1.0)
        scA = max(float(np.abs(gA).max()), 1.0)
        for idx in np.ndindex(v.shape):
            vp, vm = v.copy(), v.copy()
            vp[idx] += h
            vm[idx] -= h
            fdE = (discrete_energy_gradient(vp, pot)[0]
                   - discrete_energy_gradient(vm, pot)[0]) / (2.0 * h)
            fdA = (discrete_area_gradient(vp)[0]
                   - discrete_area_gradient(vm)[0]) / (2.0 * h)
            worst = max(worst, abs(gE[idx] - fdE) / scE,
                        abs(gA[idx] - fdA) / scA)
    elapsed = time.time() - t0
    assert worst <= 1e-5
    assert elapsed < 30.0
    _report("12 gradient hygiene", f"worst rel {worst:.2e} in {elapsed:.1f}s")
