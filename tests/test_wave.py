import math

import numpy as np
import pytest
from scipy.linalg import eigh

from degeo import wave
from degeo import (BubbleDetected, Curve, GridTooCoarse, SolveResult,
                   SolverConfig, WaveProfile, hamiltonian_energy,
                   hamiltonian_splits, make_custom, make_two_well_k,
                   minimize_constrained, profile_from_csv, profile_to_csv,
                   second_variation_spectrum, to_traveling_wave,
                   wave_residual, zero_mode_alignment)
from degeo.solver import PackedLoops

WELLS = [(-1.0, 0.0), (1.0, 0.0)]


def _double_well():
    w0 = np.array(WELLS[0])
    w1 = np.array(WELLS[1])

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
def standing():
    pot = _double_well()
    res = minimize_constrained(WELLS[0], WELLS[1], 0.0, pot,
                               SolverConfig(n_vertices=384))
    return pot, res, to_traveling_wave(res, pot)


@pytest.fixture(scope="module")
def traveling():
    pot = _double_well()
    res = minimize_constrained(WELLS[0], WELLS[1], 0.08, pot,
                               SolverConfig(n_vertices=384))
    return pot, res, to_traveling_wave(res, pot)


def test_profile_validation():
    y = np.linspace(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        WaveProfile(y, np.zeros((7, 2)), 0.0)
    with pytest.raises(ValueError):
        WaveProfile(y[::-1].copy(), np.zeros((8, 2)), 0.0)
    with pytest.raises(ValueError):
        WaveProfile(y, np.full((8, 2), np.nan), 0.0)


def test_standing_wave_solves_the_profile_equation(standing):
    pot, res, prof = standing
    assert prof.nu == pytest.approx(math.sqrt(2.0) * res.multiplier)
    assert abs(prof.nu) < 1e-6
    assert wave_residual(prof, pot) <= 5e-2
    # ends approach the two wells
    assert np.linalg.norm(prof.U[0] - WELLS[0]) < 1e-2
    assert np.linalg.norm(prof.U[-1] - WELLS[1]) < 1e-2


def test_heteroclinic_energy_value(standing):
    # straight connection of the quartic double well costs 4/3
    _, res, _ = standing
    assert res.energy == pytest.approx(4.0 / 3.0, rel=1e-3)


def test_hamiltonian_equals_sqrt2_energy(standing):
    pot, res, prof = standing
    H = hamiltonian_energy(prof, pot)
    target = math.sqrt(2.0) * res.energy
    assert H == pytest.approx(target, rel=2e-3)
    kin, potential_part = hamiltonian_splits(prof, pot)
    assert kin + potential_part == pytest.approx(H, rel=1e-12)
    # equipartition along a standing front
    assert kin == pytest.approx(potential_part, rel=2e-2)


def test_second_variation_spectrum(standing):
    pot, _, prof = standing
    vals, mode = second_variation_spectrum(prof, pot, 4)
    assert len(vals) == 4
    assert vals == sorted(vals)
    # translation zero mode, then the transverse gap at 6
    assert abs(vals[0]) < 0.01
    assert vals[1] == pytest.approx(6.0, abs=0.1)
    assert vals[2] == pytest.approx(6.0, abs=0.1)
    assert vals[3] >= 7.5
    assert zero_mode_alignment(prof, mode) >= 0.999
    with pytest.raises(ValueError):
        second_variation_spectrum(prof, pot, 0)
    with pytest.raises(ValueError):
        zero_mode_alignment(prof, mode[:-1])


def _dense_spectrum(prof, pot, k):
    """The k lowest eigenpairs of K phi = theta M phi, assembled densely
    from the definition and solved by LAPACK's dense generalized eigh."""
    h = np.diff(prof.y_grid)
    mass = 0.5 * (h[:-1] + h[1:])
    hess = pot.hess_W(prof.U[1:-1])
    m = mass.size
    K = np.zeros((2 * m, 2 * m))
    for i in range(m):
        K[2 * i:2 * i + 2, 2 * i:2 * i + 2] = (
            (1.0 / h[i] + 1.0 / h[i + 1]) * np.eye(2) + mass[i] * hess[i])
        if i + 1 < m:
            for c in (0, 1):
                K[2 * i + c, 2 * i + 2 + c] = -1.0 / h[i + 1]
                K[2 * i + 2 + c, 2 * i + c] = -1.0 / h[i + 1]
    vals, vecs = eigh(K, np.diag(np.repeat(mass, 2)))
    modes = np.zeros((k, len(prof), 2))
    modes[:, 1:-1] = vecs[:, :k].T.reshape(k, m, 2)
    return vals[:k], modes


@pytest.mark.parametrize("case", ["smooth_double_well", "two_well_cluster"])
def test_banded_spectrum_matches_dense_eigh(case):
    # the traveling double-well profile leaves the axis, so the Hessian's
    # off-diagonal enters; the standing two-well profile's two lowest
    # eigenvalues lie 1.0e-3 apart, and neither mode aligns with U'
    if case == "smooth_double_well":
        pot, k, A = _double_well(), 4, 0.08
    else:
        pot, k, A = make_two_well_k(2.0), 2, 0.0
    res = minimize_constrained(WELLS[0], WELLS[1], A, pot,
                               SolverConfig(n_vertices=48))
    prof = to_traveling_wave(res, pot)
    vals, mode = second_variation_spectrum(prof, pot, k)
    dense_vals, dense_modes = _dense_spectrum(prof, pot, k)
    assert np.max(np.abs(np.subtract(vals, dense_vals))) <= 1e-9
    if case == "two_well_cluster":
        assert dense_vals[1] - dense_vals[0] < 4e-3
    alignments = [zero_mode_alignment(prof, m) for m in dense_modes]
    assert zero_mode_alignment(prof, mode) == pytest.approx(
        max(alignments), abs=1e-9)
    if max(alignments) > 1e-6:
        # the same zero mode, up to sign and rounding
        best = dense_modes[int(np.argmax(alignments))]
        cos = abs(np.sum(mode * best)) / math.sqrt(
            np.sum(mode * mode) * np.sum(best * best))
        assert cos == pytest.approx(1.0, abs=1e-9)


def test_lowest_pairs_separate_a_degenerate_pair():
    # one tridiagonal matrix twice, interleaved and uncoupled: every
    # eigenvalue is double, and inverse iteration alone would return one
    # vector for both
    m = 40
    band = np.zeros((7, 2 * m))
    band[4] = 2.0 + np.repeat(np.linspace(0.0, 1.0, m), 2)
    band[6, :-2] = band[2, 2:] = -1.0
    dense = (np.diag(band[4]) + np.diag(band[6, :-2], -2)
             + np.diag(band[2, 2:], 2))
    vals, vecs = wave._lowest_pairs(band, 4)
    assert vals == pytest.approx(np.linalg.eigvalsh(dense)[:4], abs=1e-12)
    assert np.abs(vecs.T @ vecs - np.eye(4)).max() <= 1e-12
    assert np.abs(dense @ vecs - vecs * vals).max() <= 1e-10


def test_spectrum_rejects_a_non_finite_second_variation():
    # a user potential whose Hessian overflows on the profile
    pot = make_custom(lambda p: np.sum(np.asarray(p)**2, axis=-1),
                      hess_W=lambda p: np.full(np.shape(p)[:-1] + (2, 2),
                                               np.inf))
    y = np.linspace(-1.0, 1.0, 32)
    prof = WaveProfile(y, np.stack([y, np.zeros_like(y)], axis=1), 0.0)
    with pytest.raises(ValueError, match="not finite"):
        second_variation_spectrum(prof, pot, 2)


def test_traveling_wave_speed_and_residual(traveling):
    pot, res, prof = traveling
    assert res.converged
    assert prof.nu == pytest.approx(math.sqrt(2.0) * res.multiplier)
    assert prof.nu > 0.1
    assert wave_residual(prof, pot) <= 5e-2


def test_wave_rejects_bad_results():
    pot = _double_well()
    y = np.linspace(-1.0, 1.0, 32)
    curve = Curve(np.stack([y, np.zeros_like(y)], axis=1))
    base = dict(curve=curve, energy=1.0, area_achieved=0.0, multiplier=0.0,
                A_target=0.0)
    # an EL residual far above tolerance: not converged
    with pytest.raises(ValueError):
        to_traveling_wave(SolveResult(el_residual_max=1.0, **base), pot)
    # a non-existence certificate is flagged and not converged
    packed = PackedLoops(well=0, loop_radius=0.1, loop_count=2,
                         orientation=1, anchor=0)
    with pytest.raises(BubbleDetected):
        to_traveling_wave(SolveResult(packed=packed, el_residual_max=0.0,
                                      **base), pot)


def test_bubble_detected_on_interior_well_revisit():
    pot = _double_well()
    # curve that dives back into the left well mid-way
    t = np.linspace(0.0, 1.0, 201)
    x = -1.0 + 2.0 * t
    y = 0.4 * np.sin(2.0 * math.pi * t)
    v = np.stack([x, y], axis=1)
    v[100] = [-1.0 + 1e-9, 0.0]  # revisit of the starting well
    res = SolveResult(curve=Curve(v), energy=1.0, area_achieved=0.0,
                      multiplier=0.0, el_residual_max=0.0, A_target=0.0)
    with pytest.raises(BubbleDetected):
        to_traveling_wave(res, pot)


def test_end_runs_inside_a_well_trim_to_their_outer_vertex():
    pot = _double_well()
    # an arc between the wells, then three more vertices within 1e-4 of
    # the well separation at each end: each end run trims to its outermost
    # vertex, which is snapped onto the well, so the profile is the arc's
    t = np.linspace(0.0, 1.0, 101)
    arc = np.stack([-1.0 + 2.0 * t, 0.4 * np.sin(math.pi * t)], axis=1)
    near = np.array([[3e-5, 1e-5], [8e-5, 3e-5], [1.2e-4, 6e-5]])
    crowded = np.vstack([arc[:1], WELLS[0] + near, arc[1:-1],
                         (WELLS[1] - near)[::-1], arc[-1:]])
    base = dict(energy=1.0, area_achieved=0.0, multiplier=0.05,
                el_residual_max=0.0, A_target=0.0)
    got = to_traveling_wave(SolveResult(curve=Curve(crowded), **base), pot)
    ref = to_traveling_wave(SolveResult(curve=Curve(arc), **base), pot)
    assert np.array_equal(got.y_grid, ref.y_grid)
    assert np.array_equal(got.U, ref.U)
    assert got.nu == ref.nu


def test_grid_too_coarse():
    pot = _double_well()
    y = np.linspace(-1.0, 1.0, 10)
    prof = WaveProfile(y, np.stack([y, np.zeros_like(y)], axis=1), 0.0)
    with pytest.raises(GridTooCoarse):
        wave_residual(prof, pot)
    with pytest.raises(GridTooCoarse):
        second_variation_spectrum(prof, pot, 2)


def test_profile_csv_roundtrip(tmp_path, standing):
    _, _, prof = standing
    path = tmp_path / "profile.csv"
    profile_to_csv(prof, str(path))
    back = profile_from_csv(str(path), nu=prof.nu)
    assert back.y_grid == pytest.approx(prof.y_grid, abs=0.0)
    assert back.U == pytest.approx(prof.U, abs=0.0)
    assert back.nu == prof.nu
    header = path.read_text().splitlines()[0]
    assert header == "y,u1,u2"


def test_profile_checks_its_grid():
    with pytest.raises(ValueError, match="one-dimensional"):
        WaveProfile(np.zeros((2, 2)), np.zeros((4, 2)), 0.0)
    with pytest.raises(ValueError, match="two samples"):
        WaveProfile(np.zeros(1), np.zeros((1, 2)), 0.0)


def test_three_vertex_result_is_too_short_for_a_profile():
    curve = Curve(np.array([[-1.0, 0.0], [0.0, 0.3], [1.0, 0.0]]))
    res = SolveResult(curve=curve, energy=1.0, area_achieved=0.0,
                      multiplier=0.0, el_residual_max=0.0, A_target=0.0)
    assert res.converged
    with pytest.raises(ValueError, match="too short"):
        to_traveling_wave(res, _double_well())


def test_zero_mode_has_no_alignment():
    y = np.linspace(-1.0, 1.0, 9)
    prof = WaveProfile(y, np.stack([y, y * y], axis=1), 0.0)
    assert zero_mode_alignment(prof, np.zeros_like(prof.U)) == 0.0
