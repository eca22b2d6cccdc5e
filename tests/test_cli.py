import json
import math
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from degeo import (Curve, NonConvergence, SolverConfig, area,
                   curve_from_csv, energy, from_json_dict,
                   make_radial_quartic, minimize_constrained)
from degeo.cli import main

RADIAL_POT = {"kind": "radial_quartic", "params": {"b": 1.0}}
HOM_POT = {"kind": "homogeneous", "params": {"lambda1": 1.0, "lambda2": 2.0}}


def _write(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def _solve_cfg(tmp_path, **extra):
    cfg = {"potential": RADIAL_POT,
           "endpoints": [[1.0, 0.0], [0.0, 0.0]],
           "A": 0.1,
           "solver": {"n_vertices": 96}}
    cfg.update(extra)
    return _write(tmp_path, "cfg.json", cfg)


def test_solve_writes_result_and_curve(tmp_path):
    cfg = _solve_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", cfg, "--out", str(out), "--quiet"]) == 0
    result = json.loads((out / "result.json").read_text())
    assert result["converged"] is True
    assert result["nonexistence_suspected"] is False
    assert result["A_target"] == 0.1
    assert abs(result["area_achieved"] - 0.1) < 1e-6
    lines = (out / "curve.csv").read_text().splitlines()
    assert lines[0] == "p1,p2"
    assert len(lines) == 97
    x0, y0 = map(float, lines[1].split(","))
    assert (x0, y0) == (1.0, 0.0)
    # the library reads the CLI's curve back into the solver's vertices
    loaded = curve_from_csv(out / "curve.csv")
    res = minimize_constrained((1.0, 0.0), (0.0, 0.0), 0.1,
                               make_radial_quartic(1.0),
                               SolverConfig(n_vertices=96))
    assert (loaded.vertices == res.curve.vertices).all()
    # and the JSON floats read back to the library's values exactly
    for key in ("energy", "multiplier", "area_achieved"):
        assert result[key] == getattr(res, key), key


def test_solve_outputs_are_byte_identical(tmp_path):
    cfg = _solve_cfg(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["solve", cfg, "--out", str(out1), "--quiet"]) == 0
    assert main(["solve", cfg, "--out", str(out2), "--quiet"]) == 0
    assert (out1 / "result.json").read_bytes() == (out2 / "result.json").read_bytes()
    assert (out1 / "curve.csv").read_bytes() == (out2 / "curve.csv").read_bytes()


def test_solve_flags_nonexistence_with_exit_2(tmp_path):
    cfg = _write(tmp_path, "ne.json", {
        "potential": {"kind": "two_well", "params": {"k": 4.0}},
        "endpoints": [[-1.0, 0.0], [1.0, 0.0]],
        "A": 2.0,
        "solver": {"n_vertices": 96}})
    out = tmp_path / "out"
    assert main(["solve", cfg, "--out", str(out), "--quiet"]) == 2
    result = json.loads((out / "result.json").read_text())
    assert result["nonexistence_suspected"] is True
    assert result["leakage"]  # per-radius account present


def test_solve_certifies_nonexistence_past_the_old_loop_cap(tmp_path):
    # a literal polyline capped at 600,000 loops held area up to about 3.47
    cfg = _write(tmp_path, "cap.json", {
        "potential": {"kind": "two_well", "params": {"k": 4.0}},
        "endpoints": [[-1.0, 0.0], [1.0, 0.0]],
        "A": 4.0,
        "solver": {"n_vertices": 64}})
    out = tmp_path / "out"
    assert main(["solve", cfg, "--out", str(out), "--quiet"]) == 2
    result = json.loads((out / "result.json").read_text())
    assert result["nonexistence_suspected"] is True
    assert result["converged"] is False
    # plateau cost: trunk plus the packing rate (l1 + l2) per unit area
    assert result["energy"] == pytest.approx(2.8 + 2.0 * 4.0, rel=1e-3)
    packed = result["packed"]
    assert set(packed) == {"well", "loop_radius", "loop_count",
                           "orientation", "anchor"}
    assert packed["loop_count"] > 600_000 and packed["orientation"] == 1
    # curve.csv holds the trunk and the loop once
    curve = curve_from_csv(out / "curve.csv")
    assert len(curve.vertices) < 5000


def test_certificate_curve_reads_back_to_its_energy(tmp_path):
    # the long leg has the solve's n vertices and the short one from the
    # well at p_minus to the anchor as few as its spacing needs, so the file
    # holds at most 2 n vertices and the loop once, closing at packed.anchor
    two_well = {"kind": "two_well", "params": {"k": 4.0}}
    cfg = _write(tmp_path, "ne.json", {
        "potential": two_well,
        "endpoints": [[-1.0, 0.0], [1.0, 0.0]],
        "A": 2.0,
        "solver": {"n_vertices": 64}})
    out = tmp_path / "out"
    assert main(["solve", cfg, "--out", str(out), "--quiet"]) == 2
    assert len((out / "curve.csv").read_text().splitlines()) <= 2 * 64 + 5
    result = json.loads((out / "result.json").read_text())
    packed = result["packed"]
    v = curve_from_csv(out / "curve.csv").vertices
    k = packed["anchor"]
    assert (v[k] == v[k + 4]).all()
    pot = from_json_dict(two_well)
    loop = Curve(v[k:k + 5])
    total = (energy(Curve(v), pot)
             + (packed["loop_count"] - 1) * energy(loop, pot))
    assert total == pytest.approx(result["energy"], rel=1e-12)


def test_solve_at_three_vertices(tmp_path):
    # the fewest vertices the solver config admits: one interior vertex
    cfg = _solve_cfg(tmp_path, solver={"n_vertices": 3})
    out = tmp_path / "out"
    assert main(["solve", cfg, "--out", str(out), "--quiet"]) == 0
    assert len(curve_from_csv(out / "curve.csv").vertices) == 3


def test_sweep_table(tmp_path):
    cfg = _write(tmp_path, "sweep.json", {
        "potential": RADIAL_POT,
        "endpoints": [[1.0, 0.0], [0.0, 0.0]],
        "A_list": [0.08, 0.10, 0.12],
        "solver": {"n_vertices": 64}})
    out = tmp_path / "out"
    assert main(["sweep", cfg, "--out", str(out), "--quiet"]) == 0
    lines = (out / "table.csv").read_text().splitlines()
    assert lines[0] == "A,energy,multiplier,slope_fd,converged,flagged"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[3] == ""  # no centered slope at the edge
    assert first[4] == "true" and first[5] == "false"
    mid = lines[2].split(",")
    assert float(mid[3]) == pytest.approx(float(mid[2]), rel=0.1)


def test_sweep_with_an_unconverged_row_exits_2(tmp_path):
    # one exit rule for solve, wave and sweep: a row that did not converge
    # exits 2 even when nothing is flagged
    cfg = _write(tmp_path, "sweep.json", {
        "potential": HOM_POT,
        "endpoints": [[1.0, 0.0], [0.0, 0.0]],
        "A_list": [2.0],
        "solver": {"n_vertices": 256}})
    out = tmp_path / "out"
    assert main(["sweep", cfg, "--out", str(out), "--quiet"]) == 2
    row = (out / "table.csv").read_text().splitlines()[1].split(",")
    assert row[4:] == ["false", "false"]


@pytest.mark.parametrize("command", ["solve", "wave"])
def test_raised_flag_errors_exit_2_with_one_line(tmp_path, capsys,
                                                  monkeypatch, command):
    def fail(*_args, **_kwargs):
        raise NonConvergence("inner minimization produced non-finite "
                             "vertices")

    monkeypatch.setattr("degeo.cli.minimize_constrained", fail)
    cfg = _solve_cfg(tmp_path)
    assert main([command, cfg, "--out", str(tmp_path / "out"),
                 "--quiet"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "degeo: inner minimization produced non-finite vertices"]


def test_homogeneous_ellipse_mode(tmp_path):
    cfg = _write(tmp_path, "ell.json", {
        "potential": HOM_POT, "mode": "ellipse",
        "p0": [1.0, 0.0], "n": 512})
    out = tmp_path / "out"
    assert main(["homogeneous", cfg, "--out", str(out), "--quiet"]) == 0
    res = json.loads((out / "result.json").read_text())
    assert res["mode"] == "ellipse"
    assert res["rate"] == 3.0
    assert res["energy"] / res["area"] == pytest.approx(3.0, rel=1e-3)
    # the loop's 512 vertices and the first again: the file reads back as
    # the loop whose area and energy result.json reports
    curve = curve_from_csv(out / "curve.csv")
    assert curve.vertices.shape == (513, 2)
    assert (curve.vertices[0] == curve.vertices[-1]).all()
    assert area(curve) == res["area"]
    assert energy(curve, from_json_dict(HOM_POT)) == res["energy"]


def test_homogeneous_solve_mode(tmp_path):
    cfg = _write(tmp_path, "hom.json", {
        "potential": HOM_POT, "mode": "solve", "p0": [1.0, 0.0], "A": 0.05})
    out = tmp_path / "out"
    assert main(["homogeneous", cfg, "--out", str(out), "--quiet"]) == 0
    res = json.loads((out / "result.json").read_text())
    assert res["area"] == pytest.approx(0.05, abs=1e-5)
    assert res["multiplier"] == pytest.approx(
        3.0 * __import__("math").cos(res["beta"]))
    assert (out / "curve.csv").exists()


def test_homogeneous_rejects_unknown_mode(tmp_path):
    cfg = _write(tmp_path, "bad.json", {"potential": HOM_POT, "mode": "orbit"})
    assert main(["homogeneous", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 1


def test_homogeneous_exits_1_where_chords_cannot_follow_the_arc(tmp_path,
                                                                capsys):
    # from (1,0) with rates (1,2) the 2e5 samples each turn more than 0.245
    # radians from about A = 630 on, and the polyline would miss A by over
    # 1%
    cfg = {"potential": HOM_POT, "mode": "solve", "p0": [1.0, 0.0]}
    for A in (700.0, 1e4, -1e4, 1e12):
        out = tmp_path / f"out{A:g}"
        path = _write(tmp_path, "hom.json", {**cfg, "A": A})
        assert main(["homogeneous", path, "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].startswith("degeo: ") and f"area {A:g} " in err[-1]
        assert not (out / "curve.csv").exists()


def test_radial_overflowing_b_R0_exits_1(tmp_path, capsys):
    cfg = _write(tmp_path, "rad.json", {
        "potential": {"kind": "radial_quartic", "params": {"b": 1e10}},
        "R0": 1e300, "A_tilde": 0.3})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["radial", cfg, "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith("degeo: ") and "overflows" in err[-1]
    assert not out.exists() or not any(out.iterdir())


def test_radial_overflowing_parabola_energy_exits_1(tmp_path, capsys):
    # b R0 = 1e210 is finite, but the parabola energy's u0^3 is not
    cfg = _write(tmp_path, "rad.json", {
        "potential": {"kind": "radial_quartic", "params": {"b": 1e10}},
        "R0": 1e200, "A_tilde": 0.3})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["radial", cfg, "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1] == ("degeo: b R0 = 1e+10 * 1e+200 is too large: the "
                       "parabola energy overflows")
    assert not out.exists() or not any(out.iterdir())


def test_radial_below_threshold(tmp_path):
    cfg = _write(tmp_path, "rad.json", {
        "potential": RADIAL_POT, "R0": 1.0, "A_tilde": 0.3, "n": 256})
    out = tmp_path / "out"
    assert main(["radial", cfg, "--out", str(out), "--quiet"]) == 0
    fig = json.loads((out / "figure1.json").read_text())
    assert fig["threshold"] == 0.5
    assert fig["vertical_extent"] == 0.0
    res = json.loads((out / "result.json").read_text())
    assert res["multiplier"] == pytest.approx(2.0 * fig["C1"])
    table = (out / "table.csv").read_text().splitlines()
    assert table[0] == "R,alpha"
    spiral = (out / "curve.csv").read_text().splitlines()
    assert spiral[0] == "p1,p2"


def test_radial_spiral_winds_into_the_center(tmp_path):
    # the closed forms are about the origin; the spiral is written about
    # the potential's center, and every other output is the same
    outs = []
    for center in ([0.0, 0.0], [5.0, 0.0]):
        cfg = _write(tmp_path, "radc.json", {
            "potential": {"kind": "radial_quartic",
                          "params": {"b": 1.0, "center": center}},
            "R0": 1.0, "A_tilde": 0.3})
        outs.append(tmp_path / f"out{center[0]:g}")
        assert main(["radial", cfg, "--out", str(outs[-1]), "--quiet"]) == 0
    for name in ("figure1.json", "result.json", "table.csv"):
        assert ((outs[0] / name).read_bytes()
                == (outs[1] / name).read_bytes()), name
    at_origin, at_center = (curve_from_csv(out / "curve.csv").vertices
                            for out in outs)
    assert np.array_equal(at_center, at_origin + [5.0, 0.0])
    assert np.array_equal(at_center[0], [6.0, 0.0])
    assert math.dist(at_center[-1], (5.0, 0.0)) == pytest.approx(1e-3,
                                                                 rel=1e-9)


def test_radial_at_zero_area_writes_the_sampled_ray(tmp_path):
    # C1 = 0: the spiral is the ray from r = 1 in to r_inner = 1e-3, whose
    # weighted length is the integral of r sqrt(1 + r^2) dr
    cfg = _write(tmp_path, "rad0.json", {
        "potential": RADIAL_POT, "R0": 1.0, "A_tilde": 0.0})
    out = tmp_path / "out"
    assert main(["radial", cfg, "--out", str(out), "--quiet"]) == 0
    curve = curve_from_csv(out / "curve.csv")
    exact = (2.0 ** 1.5 - (1.0 + 1e-6) ** 1.5) / 3.0
    assert energy(curve, from_json_dict(RADIAL_POT)) == pytest.approx(
        exact, rel=1e-3)


def test_radial_bad_input_exits_1_writing_nothing(tmp_path):
    out = tmp_path / "out"
    for extra in ({"R0": float("nan")}, {"R0": float("inf")},
                  {"A_tilde": float("inf")}, {"A_tilde": float("nan")},
                  {"n": 1}, {"r_inner": 0.0}, {"r_inner": 1.5},
                  {"A_tilde": 0.0, "r_inner": -0.5}):
        cfg = _write(tmp_path, "radbad.json", {
            "potential": RADIAL_POT, "R0": 1.0, "A_tilde": 0.3, **extra})
        assert main(["radial", cfg, "--out", str(out), "--quiet"]) == 1
        assert not out.exists() or not any(out.iterdir()), extra


def test_radial_above_threshold_exits_2_with_bundle(tmp_path):
    cfg = _write(tmp_path, "radhi.json", {
        "potential": RADIAL_POT, "R0": 1.0, "A_tilde": 0.7})
    out = tmp_path / "out"
    assert main(["radial", cfg, "--out", str(out), "--quiet"]) == 2
    fig = json.loads((out / "figure1.json").read_text())
    assert fig["C1"] == 1.0
    assert fig["vertical_extent"] == pytest.approx(0.8)
    # vertical segment shows up as the final zero-R sample
    last = (out / "table.csv").read_text().splitlines()[-1].split(",")
    assert float(last[0]) == 0.0


def test_wave_command(tmp_path):
    cfg = _write(tmp_path, "wave.json", {
        "potential": {"kind": "two_well", "params": {"k": 2.0}},
        "endpoints": [[-1.0, 0.0], [1.0, 0.0]],
        "A": 0.0,
        "n_modes": 4,
        "solver": {"n_vertices": 192}})
    out = tmp_path / "out"
    assert main(["wave", cfg, "--out", str(out), "--quiet"]) == 0
    spec = json.loads((out / "spectrum.json").read_text())
    assert len(spec["eigenvalues"]) == 4
    assert 0.0 <= spec["zero_mode_alignment"] <= 1.0
    res = json.loads((out / "result.json").read_text())
    assert abs(res["nu"]) < 1e-6
    # the built-in wells are only C0 at the matching circle, so profile
    # quality metrics are reported, not promised; check they are present
    assert set(res) >= {"wave_residual", "hamiltonian", "sqrt2_energy"}
    assert res["hamiltonian"] == pytest.approx(res["sqrt2_energy"], rel=0.1)
    assert (out / "profile.csv").read_text().splitlines()[0] == "y,u1,u2"


def test_wave_warns_without_a_translation_mode(tmp_path, caplog):
    # two-well profiles cross the cusp where the unit discs meet, which the
    # pointwise hess_W misses: the spectrum's lowest modes are tail modes at
    # the wells, and the command says so without changing spectrum.json
    cfg = _write(tmp_path, "wave.json", {
        "potential": {"kind": "two_well", "params": {"k": 2.0}},
        "endpoints": [[-1.0, 0.0], [1.0, 0.0]],
        "A": 0.0,
        "n_modes": 4,
        "solver": {"n_vertices": 64}})
    out = tmp_path / "out"
    with caplog.at_level("WARNING", logger="degeo.cli"):
        assert main(["wave", cfg, "--out", str(out)]) == 0
    alignment = json.loads(
        (out / "spectrum.json").read_text())["zero_mode_alignment"]
    assert alignment < 0.99
    warned = [r.getMessage() for r in caplog.records
              if r.name == "degeo.cli" and r.levelname == "WARNING"]
    assert warned == [f"no translation mode among the 4 eigenvalues: the "
                      f"best zero_mode_alignment is {alignment:.4g}, below "
                      f"0.99"]


def test_bad_configs_exit_1(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["solve", missing, "--quiet"]) == 1
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main(["solve", str(bad_json), "--quiet"]) == 1
    no_pot = _write(tmp_path, "nopot.json", {"endpoints": [[0, 0], [1, 0]]})
    assert main(["solve", no_pot, "--quiet"]) == 1
    listed = _write(tmp_path, "list.json", [{"potential": HOM_POT}])
    assert main(["solve", listed, "--quiet"]) == 1
    kind_mismatch = _write(tmp_path, "mix.json", {
        "potential": HOM_POT, "A_tilde": 0.1})
    assert main(["radial", kind_mismatch, "--quiet"]) == 1
    bad_solver = _solve_cfg(tmp_path, solver={"n_vertices": 96, "typo": 1})
    assert main(["solve", bad_solver, "--quiet"]) == 1
    out = tmp_path / "rejected"
    nan_area = _solve_cfg(tmp_path, A=float("nan"))
    assert main(["solve", nan_area, "--out", str(out), "--quiet"]) == 1
    nan_end = _solve_cfg(tmp_path, endpoints=[[float("nan"), 0.0], [0.0, 0.0]])
    assert main(["solve", nan_end, "--out", str(out), "--quiet"]) == 1
    two = _solve_cfg(tmp_path, solver={"n_vertices": 2})
    assert main(["solve", two, "--out", str(out), "--quiet"]) == 1
    knob = _solve_cfg(tmp_path, solver={"tol_grad": 1e-9})
    assert main(["solve", knob, "--out", str(out), "--quiet"]) == 1
    half = _solve_cfg(tmp_path, solver={"n_vertices": 64.5})
    assert main(["solve", half, "--out", str(out), "--quiet"]) == 1
    for sched in ([0.1, -0.2], [0.1, float("nan")]):
        radii = _solve_cfg(tmp_path, solver={"well_radius_schedule": sched})
        assert main(["solve", radii, "--out", str(out), "--quiet"]) == 1
    for extra in ({"A": float("inf")}, {"A": float("nan")},
                  {"A": 0.05, "p0": [1.0, 0.0, 3.0]},
                  {"A": 0.05, "p0": [float("nan"), 0.0]},
                  {"A": 0.05, "p0": [0.0, 0.0]}):
        hom = _write(tmp_path, "hom.json",
                     {"potential": HOM_POT, "mode": "solve", **extra})
        assert main(["homogeneous", hom, "--out", str(out), "--quiet"]) == 1
    for extra in ({"p0": [float("nan"), 0.0]}, {"n": 2}):
        ell = _write(tmp_path, "ell.json",
                     {"potential": HOM_POT, "mode": "ellipse", **extra})
        assert main(["homogeneous", ell, "--out", str(out), "--quiet"]) == 1
    for pot in ({"kind": "homogeneous",
                 "params": {"lambda1": float("nan"), "lambda2": 2.0}},
                {"kind": "radial_quartic", "params": {"b": float("nan")}},
                {"kind": "two_well", "params": {"k": float("inf")}}):
        bad_pot = _solve_cfg(tmp_path, potential=pot)
        assert main(["solve", bad_pot, "--out", str(out), "--quiet"]) == 1
    assert not (out / "result.json").exists()


@pytest.mark.parametrize("command, cfg, key", [
    ("solve", {"potential": RADIAL_POT,
               "endpoints": [[1.0, 0.0], [0.0, 0.0]]}, "A"),
    ("solve", {"potential": {"kind": "homogeneous",
                             "params": {"lambda1": 1.0}},
               "endpoints": [[1.0, 0.0], [0.0, 0.0]], "A": 0.1}, "lambda2"),
    ("solve", {"potential": {"params": {"b": 1.0}},
               "endpoints": [[1.0, 0.0], [0.0, 0.0]], "A": 0.1}, "kind"),
    ("radial", {"potential": RADIAL_POT}, "A_tilde"),
    ("solve", {"endpoints": [[1.0, 0.0], [0.0, 0.0]], "A": 0.1},
     "potential"),
])
def test_missing_config_entry_is_named(tmp_path, capsys, command, cfg, key):
    code = main([command, _write(tmp_path, "cfg.json", cfg),
                 "--out", str(tmp_path / "out"), "--quiet"])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 1
    assert err == [f"degeo: config is missing the entry {key!r}"]


def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["unknown-command", "x.json"])
    assert exc.value.code == 1


def test_console_script_entry():
    proc = subprocess.run([sys.executable, "-m", "degeo.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "solve" in proc.stdout and "wave" in proc.stdout


# one valid config per command, at sizes that run in milliseconds
_FUZZ_BASES = {
    "solve": {"potential": RADIAL_POT, "endpoints": [[1.0, 0.0], [0.0, 0.0]],
              "A": 0.1, "solver": {"n_vertices": 8}},
    "sweep": {"potential": RADIAL_POT, "endpoints": [[1.0, 0.0], [0.0, 0.0]],
              "A_list": [0.1], "solver": {"n_vertices": 8}},
    "homogeneous": {"potential": HOM_POT, "mode": "solve", "p0": [1.0, 0.0],
                    "A": 0.05},
    "radial": {"potential": RADIAL_POT, "R0": 1.0, "A_tilde": 0.3, "n": 16},
    "wave": {"potential": {"kind": "two_well", "params": {"k": 4.0}},
             "endpoints": [[-1.0, 0.0], [1.0, 0.0]], "A": 0.0, "n_modes": 2,
             "solver": {"n_vertices": 8}},
}
# no number at all, or none a float holds (10**400 is a JSON integer)
_NOT_NUMBERS = (None, "x", [], {}, [1.0], float("nan"), float("inf"),
                float("-inf"), 10**400)
# (potential, parameter, values it must reject), tried under every command
_BAD_POTENTIALS = (
    ("homogeneous", "lambda1", _NOT_NUMBERS + (0.0, -1.0, 2e154, 1e308)),
    ("homogeneous", "lambda2", _NOT_NUMBERS + (-0.0, 9.5e153, 1e200)),
    ("radial_quartic", "b", _NOT_NUMBERS + (-1.0, -1e308, 2.3e307, 1e308)),
    ("radial_quartic", "r_max", _NOT_NUMBERS + (0.0, -1.0)),
    ("radial_quartic", "center", _NOT_NUMBERS + ([0.0, float("nan")],
                                                 [0.0, 0.0, 0.0])),
    ("two_well", "k", _NOT_NUMBERS + (1.0, 0.5, -4.0, 5e153, 1e200)),
)
# finite areas no start curve reaches in floating point, and whose
# closed-form arc cannot be sampled
_HUGE_AREAS = (1e200, -1e200, 1e308)
# (command, field, values out of the solvers' floating-point reach); each
# must exit 1 within milliseconds
_OUT_OF_RANGE = (
    ("solve", "A", _HUGE_AREAS),
    ("sweep", "A_list", ([1e200], [0.0, 1e200])),
    ("homogeneous", "A", _HUGE_AREAS + (1e40, 1e59, 2e59, 1e100)),
    ("wave", "A", _HUGE_AREAS),
    ("radial", "R0", (1e-320, 1e-200, 1e-300)),
    ("radial", "potential", ({"kind": "radial_quartic",
                              "params": {"b": 1e-320}},)),
)
# (command, field, values it must reject)
_BAD_FIELDS = _OUT_OF_RANGE + (
    ("solve", "A", _NOT_NUMBERS),
    ("solve", "endpoints", _NOT_NUMBERS + ([[1.0, 0.0], [1.0, 0.0]],
                                           [[1.0, 0.0], [10**400, 0.0]],
                                           [[1.0, 0.0]], [1, 2],
                                           [[1, "a"], [0, 0]])),
    ("solve", "potential", ("homogeneous", None, [],
                            {"kind": "homogeneous", "params": [1, 2]},
                            {"kind": "radial_quartic",
                             "params": {"b": None}},
                            {"kind": "radial_quartic",
                             "params": {"b": 1, "typo": 3}})),
    ("solve", "solver", (None, "x", [], {"n_vertices": 2},
                         {"n_vertices": 8.5}, {"n_vertices": float("inf")},
                         {"typo": 1})),
    ("sweep", "A_list", (None, "x", [], {}, [None], ["x"], [[0.1]],
                         [float("nan")], [float("inf")], [10**400])),
    ("homogeneous", "A", _NOT_NUMBERS),
    ("homogeneous", "p0", _NOT_NUMBERS + ([0.0, 0.0], [1.0, 0.0, 0.0])),
    ("homogeneous", "mode", (None, "x", [], 1.0)),
    ("radial", "R0", _NOT_NUMBERS),
    # a radial potential that the figure bundle cannot use (-1 < b <= 0)
    ("radial", "potential", ({"kind": "radial_quartic",
                              "params": {"b": -0.5}},)),
    ("radial", "A_tilde", _NOT_NUMBERS),
    ("radial", "n", (None, "x", [], float("nan"), float("inf"), 1)),
    ("radial", "r_inner", _NOT_NUMBERS + (0.0, -1.0, 2.0)),
    ("wave", "A", _NOT_NUMBERS),
    ("wave", "n_modes", (None, "x", [], float("nan"), float("inf"))),
)


def _fuzz_cases():
    """(command, config, the name its message must hold, or None)."""
    for kind, name, values in _BAD_POTENTIALS:
        params = next(b["potential"]["params"] for b in _FUZZ_BASES.values()
                      if b["potential"]["kind"] == kind)
        for value in values:
            for command, base in _FUZZ_BASES.items():
                yield command, {**base, "potential": {
                    "kind": kind, "params": {**params, name: value}}}, name
    for command, field, values in _BAD_FIELDS:
        for value in values:
            yield command, {**_FUZZ_BASES[command], field: value}, (
                field if field in ("endpoints", "potential") else None)


def test_malformed_configs_exit_with_a_message(tmp_path, capsys):
    # every command, fed a config with one field broken, ends in exit 1 (or
    # the flag exit 2) with a one-line "degeo:" message: no traceback, no
    # RuntimeWarning (an error under the CI's warning filter)
    path = tmp_path / "fuzz.json"
    out = str(tmp_path / "out")
    n = 0
    for command, cfg, entry in _fuzz_cases():
        path.write_text(json.dumps(cfg))
        code = main([command, str(path), "--out", out, "--quiet"])
        err = capsys.readouterr().err.strip().splitlines()
        assert code in (1, 2) and err and err[-1].startswith("degeo: "), \
            (command, cfg, code, err)
        # a rejected endpoint pair, potential or potential parameter is
        # named as such
        if entry is not None:
            assert entry in err[-1], (cfg, err)
        n += 1
    assert n > 400


def test_out_of_range_values_exit_1_fast(tmp_path, capsys):
    # values past the floating-point reach of a solver are config errors:
    # exit 1 before any overflow, not a flag exit 2 after seconds of work
    path = tmp_path / "range.json"
    out = str(tmp_path / "out")
    for command, field, values in _OUT_OF_RANGE:
        for value in values:
            path.write_text(json.dumps({**_FUZZ_BASES[command],
                                        field: value}))
            start = time.perf_counter()
            code = main([command, str(path), "--out", out, "--quiet"])
            elapsed = time.perf_counter() - start
            err = capsys.readouterr().err.strip().splitlines()
            assert code == 1 and err[-1].startswith("degeo: "), \
                (command, field, value, code, err)
            assert elapsed < 2.0, (command, field, value, elapsed)


def test_solve_at_a_tiny_area_excess_exits_0(tmp_path):
    # the packed certificate's loop radius is lost against the well's
    # coordinates, so there is no certificate and the solve converges
    cfg = _write(tmp_path, "tiny.json", {
        "potential": {"kind": "two_well", "params": {"k": 4.0}},
        "endpoints": [[-1.0, 0.0], [1.0, 0.0]],
        "A": 5e-324,
        "solver": {"n_vertices": 32}})
    out = tmp_path / "out"
    assert main(["solve", cfg, "--out", str(out), "--quiet"]) == 0
    result = json.loads((out / "result.json").read_text())
    assert result["converged"] is True and "packed" not in result


def test_overflowing_solve_exits_1(tmp_path, capsys):
    # these areas pass the start check, then overflow the penalized
    # gradient once the multiplier grows: bad input, not a flag.  At
    # -1e153 the certificate's loop radius overflows to inf first
    path = tmp_path / "overflow.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for A in (1e153, 2e153, -1e153):
            path.write_text(json.dumps({
                "potential": {"kind": "two_well", "params": {"k": 2.0}},
                "endpoints": [[-1.0, 0.0], [0.6, 0.5]], "A": A,
                "solver": {"n_vertices": 16}}))
            code = main(["solve", str(path), "--out", str(tmp_path / "out"),
                         "--quiet"])
            err = capsys.readouterr().err.strip().splitlines()
            assert code == 1 and len(err) == 1, (A, code, err)
            assert err[0].startswith("degeo: ") and f"{A:g}" in err[0]


def test_start_check_catches_a_penalty_overflowing_in_python_floats(
        tmp_path, capsys):
    # the bump starts' areas come out near 1e183: their quadratic self-term
    # cancels only in exact arithmetic.  E + c^2/2 then overflows in Python
    # floats, which np.errstate does not see; only the start check does,
    # and without it the solve ends in a flag exit 2 on a meaningless curve
    cfg = {"potential": {"kind": "two_well", "params": {"k": 4.0}},
           "endpoints": [[-1.0, 0.0], [0.6, 0.5]], "A": 1e100,
           "solver": {"n_vertices": 16}}
    path = _write(tmp_path, "start.json", cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="1e\\+100"):
            minimize_constrained(*cfg["endpoints"], cfg["A"],
                                 from_json_dict(cfg["potential"]),
                                 SolverConfig(n_vertices=16))
        code = main(["solve", path, "--out", str(tmp_path / "out"),
                     "--quiet"])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 1 and len(err) == 1 and err[0].startswith("degeo: "), \
        (code, err)


def test_huge_two_well_areas_end_flagged(tmp_path):
    # the Newton polish meets these areas with overflowing border products;
    # like 1e101 to 1e105 they end in a flag exit 2: the packed certificate
    # up to 1e150, and a failed solve at 1.3e154, where the certificate's
    # loop radius is lost to overflow.  The wave command writes the solve's
    # result.json before it stops
    path = tmp_path / "huge.json"
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for command in ("solve", "wave"):
            for A in (1e106, 1e110, 1e150, 1.3e154):
                path.write_text(json.dumps({**_FUZZ_BASES["wave"], "A": A}))
                code = main([command, str(path), "--out", str(out),
                             "--quiet"])
                result = json.loads((out / "result.json").read_text())
                assert code == 2 and result["converged"] is False, \
                    (command, A)
                assert ("packed" in result) == (A < 1e154), (command, A)


# (potential, p_plus, A) from p_minus = (0, 0): the first three endpoints
# are closer than floating point resolves (their squared distance is 0 or
# subnormal); in the last the certificate's loop count overflows
_UNRESOLVED_ENDPOINTS = [
    (RADIAL_POT, [1e-162, 0.0], 0.1),
    (RADIAL_POT, [3e-162, 0.0], 0.1),
    (RADIAL_POT, [1e-160, 0.0], 1e-300),
    (HOM_POT, [1e-150, 0.0], 1000.0),
]


@pytest.mark.parametrize("potential, p_plus, A", _UNRESOLVED_ENDPOINTS,
                         ids=["1e-162", "3e-162", "1e-160", "loop_count"])
def test_unresolved_endpoints_exit_1(tmp_path, capsys, potential, p_plus, A):
    pot = from_json_dict(potential)
    path = _write(tmp_path, "close.json", {
        "potential": potential, "endpoints": [[0.0, 0.0], p_plus], "A": A,
        "solver": {"n_vertices": 16}})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError):
            minimize_constrained((0.0, 0.0), p_plus, A, pot,
                                 SolverConfig(n_vertices=16))
        if p_plus[0] < 1e-154:  # the geodesic solve rejects them too
            with pytest.raises(ValueError):
                minimize_constrained((0.0, 0.0), p_plus, None, pot,
                                     SolverConfig(n_vertices=16))
        code = main(["solve", path, "--out", str(tmp_path / "out"),
                     "--quiet"])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 1 and len(err) == 1 and err[0].startswith("degeo: "), \
        (code, err)
