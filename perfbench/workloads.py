"""The benchmark workloads.

Each workload has three parts:

- `inputs(seed)`: the case.  Seed 0 gives the cases listed in
  perfbench/README.md; any other seed draws, for each solve, one of the
  exact symmetries of its case (see `_orient`).
- `prepare(inputs, cfg_dir, out_dir)`: config files and potentials, built
  before the clock starts; returns the timed call sequence as a callable.
- `check(inputs, out_dir, outcome)`: one record per operation, compared
  against an independent reference with the tolerance of the matching gate
  in tests/test_acceptance.py.  Runs after the clock stops.

Every degeo call goes through a module attribute (`cli.main`,
`solver.minimize_constrained`, `wave.to_traveling_wave`, ...) looked up at
call time, so the traced run's wrappers see it.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random

import numpy as np

from degeo import cli, homogeneous, potential, radial, solver, wave

N_VERTICES = 256
N_WAVE = 384

# gate tolerances, unchanged from tests/test_acceptance.py
GATE6_REL = 5e-3       # solver energy against the closed forms
GATE7_RESIDUAL = 1e-2  # pointwise Euler-Lagrange residual
GATE9_REL = 1e-3       # packed energy against trunk + (lambda1+lambda2) A
GATE11_RESIDUAL = 5e-2
GATE11_H_GAP = 1e-3
GATE11_ALIGN = 0.99
GATE11_ZERO_MODE = 0.05


# Reflections (sx, sy): p -> (sx p1, sy p2), which maps the signed area
# integral of p1 dp2 to sx * sy times itself.
IDENTITY, MIRROR_X, MIRROR_Y, POINT = (1, 1), (-1, 1), (1, -1), (-1, -1)


def _rng(seed: int):
    """None for seed 0, which keeps every case as listed."""
    return random.Random(seed) if seed else None


def _orient(rng, symmetries, endpoints, A):
    """The image of a case under one of its exact symmetries.

    The solver's work is chaotic at rounding level: moving A = 0.25 on the
    radial case by 1e-14 changes its energy-gradient evaluations from 35,748
    to 29,954 or 32,430.  A seed that perturbed the targets would therefore
    draw every run's work from a +-15% spread.  The reflections listed for
    each case leave its potential unchanged bit for bit and only flip
    signs, which IEEE arithmetic does exactly, so every image costs the
    same work and has the same energy; the program still receives
    different endpoints and areas.
    """
    sx, sy = rng.choice(symmetries) if rng else IDENTITY
    return {"reflection": [sx, sy],
            "endpoints": [[sx * x, sy * y] for x, y in endpoints],
            "A": sx * sy * A}


def _write_config(cfg_dir: str, name: str, config: dict) -> str:
    path = os.path.join(cfg_dir, name + ".json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    return path


def _cli(command: str, config_path: str, out: str) -> int:
    return cli.main([command, config_path, "--out", out, "--quiet"])


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _op(name, ok, rel_err=None, el_residual=None, **detail):
    return {"name": name, "ok": bool(ok), "rel_err": rel_err,
            "el_residual": el_residual, **detail}


def _cli_config(kind: str, params: dict, case: dict) -> dict:
    return {"potential": {"kind": kind, "params": params},
            "endpoints": case["endpoints"], "A": case["A"],
            "solver": {"n_vertices": N_VERTICES}}


# ---------------------------------------------------------------------------
# cold_solve: CLI solve, radial quartic then homogeneous, cold multi-start
# ---------------------------------------------------------------------------

class ColdSolve:
    A_RADIAL, A_HOMOGENEOUS = 0.25, 0.05
    SYMMETRIES = (IDENTITY, MIRROR_X, MIRROR_Y, POINT)

    def inputs(self, seed):
        rng, ends = _rng(seed), [[1.0, 0.0], [0.0, 0.0]]
        return {"radial": _orient(rng, self.SYMMETRIES, ends, self.A_RADIAL),
                "homogeneous": _orient(rng, self.SYMMETRIES, ends,
                                       self.A_HOMOGENEOUS)}

    def prepare(self, inp, cfg_dir, out_dir):
        runs = [
            ("radial", _write_config(cfg_dir, "radial", _cli_config(
                "radial_quartic", {"b": 1.0}, inp["radial"]))),
            ("homogeneous", _write_config(cfg_dir, "homogeneous", _cli_config(
                "homogeneous", {"lambda1": 1.0, "lambda2": 2.0},
                inp["homogeneous"]))),
        ]

        def timed():
            return {name: _cli("solve", path, os.path.join(out_dir, name))
                    for name, path in runs}
        return timed

    def check(self, inp, out_dir, outcome):
        # references are taken on the listed case; energy is invariant
        # under the reflections
        refs = {
            "radial": radial.parabola_energy(
                radial.solve_C1_for_area(1.0, self.A_RADIAL, 1.0), 1.0, 1.0),
            "homogeneous": homogeneous.solve_homogeneous(
                np.array([1.0, 0.0]), self.A_HOMOGENEOUS, 1.0, 2.0).energy,
        }
        ops = []
        for name, ref in refs.items():
            res = _read_json(os.path.join(out_dir, name, "result.json"))
            rel = abs(res["energy"] - ref) / abs(ref)
            ops.append(_op(name, outcome[name] == 0 and res["converged"]
                           and not res["nonexistence_suspected"]
                           and rel <= GATE6_REL
                           and res["el_residual_max"] <= GATE7_RESIDUAL,
                           rel_err=rel, el_residual=res["el_residual_max"],
                           exit_code=outcome[name]))
        return ops


# ---------------------------------------------------------------------------
# nonexistence: CLI solve on two-well k=4 past the existence threshold
# ---------------------------------------------------------------------------

class Nonexistence:
    K, A = 4.0, 2.0
    # x -> -x is a symmetry of the potential too, but not bit for bit: its
    # well split sends p1 = 0 to the left well
    SYMMETRIES = (IDENTITY, MIRROR_Y)

    def inputs(self, seed):
        return _orient(_rng(seed), self.SYMMETRIES,
                       [[-1.0, 0.0], [1.0, 0.0]], self.A)

    def prepare(self, inp, cfg_dir, out_dir):
        path = _write_config(cfg_dir, "two_well", _cli_config(
            "two_well", {"k": self.K}, inp))

        def timed():
            return {"solve": _cli("solve", path, out_dir)}
        return timed

    def check(self, inp, out_dir, outcome):
        k, A = self.K, self.A
        res = _read_json(os.path.join(out_dir, "result.json"))
        # each leg runs from a well to the plateau edge r = 1 in the radial
        # quartic r^2 + (k^2 - 1) r^4, so its length is the integral of
        # r sqrt(1 + (k^2 - 1) r^2); each well packs area at rate 1 + 1
        trunk = 2.0 * (k ** 3 - 1.0) / (3.0 * (k * k - 1.0))
        ref = trunk + 2.0 * A
        rel = abs(res["energy"] - ref) / ref
        floor = 0.5 / math.sqrt(k * k - 1.0)
        trapped_ok = False
        for well in {lv["well"] for lv in res["leakage"]}:
            levels = [lv for lv in res["leakage"] if lv["well"] == well]
            radii = [lv["radius"] for lv in levels]
            trapped = min(abs(lv["area_in"]) for lv in levels)
            trapped_ok |= radii[0] / radii[-1] >= 100.0 and trapped >= floor
        # exit code 2 is the expected, honestly reported outcome here
        ok = (outcome["solve"] == 2 and res["nonexistence_suspected"]
              and trapped_ok and rel <= GATE9_REL)
        return [_op("solve", ok, rel_err=rel, exit_code=outcome["solve"])]


# ---------------------------------------------------------------------------
# wave: library solves on a user-callable potential, then the wave module
# ---------------------------------------------------------------------------

WELLS = ((-1.0, 0.0), (1.0, 0.0))


def smooth_double_well():
    """Gate 11's potential: |p - w0|^2 |p - w1|^2 with grad_W only, so the
    Hessian comes from the finite-difference fallback."""
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

    return potential.make_custom(W, wells=WELLS, grad_W=grad)


class Wave:
    A_TRAVELING = 0.08
    # the x mirror also swaps the wells' roles, which the solver breaks
    # ties between by list order
    SYMMETRIES = (IDENTITY, MIRROR_Y)

    def inputs(self, seed):
        rng = _rng(seed)
        return {"standing": _orient(rng, self.SYMMETRIES, WELLS, 0.0),
                "traveling": _orient(rng, self.SYMMETRIES, WELLS,
                                     self.A_TRAVELING)}

    def prepare(self, inp, cfg_dir, out_dir):
        pot = smooth_double_well()
        config = solver.SolverConfig(n_vertices=N_WAVE)
        standing_case, traveling_case = inp["standing"], inp["traveling"]

        def timed():
            standing = solver.minimize_constrained(
                *standing_case["endpoints"], standing_case["A"], pot, config)
            traveling = solver.minimize_constrained(
                *traveling_case["endpoints"], traveling_case["A"], pot,
                config)
            out = {"standing": standing, "traveling": traveling}
            for name, res in (("standing", standing),
                              ("traveling", traveling)):
                profile = wave.to_traveling_wave(res, pot)
                out[name + "_nu"] = profile.nu
                out[name + "_residual"] = wave.wave_residual(profile, pot)
                wave.profile_to_csv(profile,
                                    os.path.join(out_dir, name + ".csv"))
                if name == "standing":
                    out["H"] = wave.hamiltonian_energy(profile, pot)
                    vals, mode = wave.second_variation_spectrum(profile,
                                                                pot, 4)
                    out["eigenvalues"] = vals
                    out["alignment"] = wave.zero_mode_alignment(profile, mode)
            return out
        return timed

    def check(self, inp, out_dir, outcome):
        ops = []
        for name in ("standing", "traveling"):
            res = outcome[name]
            nu_ok = math.isclose(outcome[name + "_nu"],
                                 math.sqrt(2.0) * res.multiplier,
                                 rel_tol=1e-6, abs_tol=1e-12)
            ok = (res.converged and nu_ok
                  and outcome[name + "_residual"] <= GATE11_RESIDUAL)
            detail = {"wave_residual": outcome[name + "_residual"]}
            rel = None
            if name == "standing":
                target = math.sqrt(2.0) * res.energy
                rel = abs(outcome["H"] - target) / target
                ok = (ok and rel <= GATE11_H_GAP
                      and outcome["alignment"] >= GATE11_ALIGN
                      and abs(outcome["eigenvalues"][0]) < GATE11_ZERO_MODE)
                detail["alignment"] = outcome["alignment"]
            ops.append(_op(name, ok, rel_err=rel,
                           el_residual=res.el_residual_max, **detail))
        return ops


WORKLOADS = {
    "cold_solve": ColdSolve(),
    "nonexistence": Nonexistence(),
    "wave": Wave(),
}
