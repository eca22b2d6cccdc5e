"""Batch front end: `degeo COMMAND CONFIG [--out DIR] [--quiet]`.

Commands
    solve         constrained minimization; writes result.json + curve.csv
    sweep         area sweep; writes table.csv
    homogeneous   closed-form one-well quadratic runs (ellipse or integral
                  curve); writes result.json + curve.csv
    radial        one-well quartic closed forms; writes figure1.json,
                  result.json, curve.csv (planar spiral into the well's
                  center) and table.csv
                  (desingularized path, header R,alpha)
    wave          solve + traveling-wave conversion; writes profile.csv,
                  spectrum.json and result.json

The single positional argument is a JSON config file holding the potential
description, command parameters, and optional solver overrides, e.g.

    {"potential": {"kind": "homogeneous",
                   "params": {"lambda1": 1.0, "lambda2": 2.0}},
     "endpoints": [[1.0, 0.0], [0.0, 0.0]],
     "A": 0.1,
     "solver": {"n_vertices": 256},
     "output_dir": "out"}

Exit codes: 0 success, 1 usage or config error (bad JSON, wrong kinds, bad
parameters), 2 mathematical flag (non-existence suspected, bubble detected,
area above the attainable cap, a solve or any sweep row that failed to
converge).

Curves are written with the header p1,p2, which `curve_from_csv` reads
back.  Floats are written in shortest round-trip form in JSON and CSV alike,
and JSON keys are sorted, so outputs are byte-identical across runs.
`DEGEO_LOG` in {error, info, debug} sets verbosity; `--quiet` forces
error-only.  Sweeps run serially because each solve warm-starts from its
neighbor.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from typing import Optional

from .errors import (BubbleDetected, DegeoError, GapTooLarge,
                     NonConvergence, NonExistence)
from .functionals import Curve, area, curve_to_csv, energy
from .homogeneous import minimizing_ellipse, solve_homogeneous
from .potential import from_json_dict as potential_from_json
from .radial import (figure1_bundle, lagrange_multiplier_radial,
                     parabola_geodesic, path_to_csv, spiral_from_C1,
                     vertical_segment_resolution)
from .solver import SolverConfig, area_sweep, minimize_constrained
from .wave import (hamiltonian_energy, profile_to_csv,
                   second_variation_spectrum, to_traveling_wave,
                   wave_residual, zero_mode_alignment)

log = logging.getLogger("degeo.cli")

# errors that represent a mathematical outcome rather than a bad config
_FLAG_ERRORS = (NonExistence, BubbleDetected, NonConvergence, GapTooLarge)
# gate 11's floor on the |cos| between the reported mode and U': below it
# the spectrum holds no translation mode
_ZERO_MODE_ALIGNMENT = 0.99


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _exit_code(results) -> int:
    """2 when any (converged, flagged) pair of `results` is unconverged or
    flagged, else 0: the one rule of solve, sweep and wave."""
    return 2 if any(flagged or not converged
                    for converged, flagged in results) else 0


def _write_json(path: str, obj) -> None:
    # formed whole before the file is opened, so an unencodable value
    # leaves no partial file
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    with open(path, "w") as fh:
        fh.write(text + "\n")


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _load_config(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    return data


def _out_dir(config: dict, args) -> str:
    out = args.out or config.get("output_dir") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _solver_config(config: dict) -> SolverConfig:
    try:
        return SolverConfig(**config.get("solver", {}))
    except TypeError as exc:
        raise ValueError(f"bad solver override: {exc}") from exc


def _endpoints(config: dict):
    eps = config.get("endpoints")
    if not isinstance(eps, (list, tuple)) or len(eps) != 2:
        raise ValueError("config needs \"endpoints\": [[x,y],[x,y]]")
    return eps


def _require_kind(potential, kind: str) -> None:
    if potential.kind != kind:
        raise ValueError(
            f"this command needs a {kind!r} potential, got {potential.kind!r}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_solve(config: dict, args) -> int:
    out = _out_dir(config, args)
    pot = potential_from_json(config["potential"])
    p, q = _endpoints(config)
    A = float(config["A"])
    res = minimize_constrained(p, q, A, pot, _solver_config(config))
    _write_json(os.path.join(out, "result.json"), res.to_json_dict())
    curve_to_csv(res.curve, os.path.join(out, "curve.csv"))
    if res.nonexistence_suspected:
        log.info("non-existence suspected at A = %g", A)
    return _exit_code([(res.converged, res.nonexistence_suspected)])


def cmd_sweep(config: dict, args) -> int:
    out = _out_dir(config, args)
    pot = potential_from_json(config["potential"])
    p, q = _endpoints(config)
    A_list = config.get("A_list")
    if not A_list:
        raise ValueError("config needs a nonempty \"A_list\"")
    A_list = [float(a) for a in A_list]
    if any(b < a for a, b in zip(A_list, A_list[1:])):
        log.info("A_list not ascending; sorting it")
    rows = area_sweep(p, q, A_list, pot, _solver_config(config))
    with open(os.path.join(out, "table.csv"), "w") as fh:
        fh.write("A,energy,multiplier,slope_fd,converged,flagged\n")
        for row in rows:
            slope = "" if row["slope_fd"] is None else repr(row["slope_fd"])
            fh.write(f"{row['A']!r},{row['energy']!r},{row['multiplier']!r},"
                     f"{slope},{str(row['converged']).lower()},"
                     f"{str(row['flagged']).lower()}\n")
    return _exit_code((row["converged"], row["flagged"]) for row in rows)


def cmd_homogeneous(config: dict, args) -> int:
    out = _out_dir(config, args)
    pot = potential_from_json(config["potential"])
    _require_kind(pot, "homogeneous")
    l1 = pot.params["lambda1"]
    l2 = pot.params["lambda2"]
    p0 = config.get("p0", [1.0, 0.0])
    mode = config.get("mode", "solve")
    if mode == "ellipse":
        curve, E = minimizing_ellipse(p0, l1, l2, int(config.get("n", 4096)))
        payload = {"mode": "ellipse", "energy": E, "area": area(curve),
                   "rate": l1 + l2, "lambda1": l1, "lambda2": l2}
    elif mode == "solve":
        sol = solve_homogeneous(p0, float(config["A"]), l1, l2)
        curve = sol.curve
        payload = {"mode": "solve", "beta": sol.beta, "energy": sol.energy,
                   "area": sol.area, "lambda1": l1, "lambda2": l2,
                   "multiplier": (l1 + l2) * math.cos(sol.beta)}
    else:
        raise ValueError(f"unknown homogeneous mode {mode!r}")
    _write_json(os.path.join(out, "result.json"), payload)
    curve_to_csv(curve, os.path.join(out, "curve.csv"))
    return 0


def cmd_radial(config: dict, args) -> int:
    pot = potential_from_json(config["potential"])
    _require_kind(pot, "radial_quartic")
    b = pot.params["b"]
    if not b >= sys.float_info.min:
        raise ValueError("the figure bundle needs a potential with b > 0, "
                         "not subnormal")
    R0 = float(config.get("R0", 1.0))
    A_tilde = float(config["A_tilde"])
    n = int(config.get("n", 1024))
    # every output is computed before any is written, so bad input leaves
    # nothing behind
    bundle = figure1_bundle(R0, A_tilde, b)
    above = abs(A_tilde) > bundle["threshold"]
    if above:
        path, _extent = vertical_segment_resolution(R0, A_tilde, b, n)
    else:
        path = parabola_geodesic(bundle["C1"], b, R0, n)

    r_outer = math.sqrt(R0)
    r_inner = float(config.get("r_inner", 1e-3 * r_outer))
    if not 0.0 < r_inner < r_outer:
        raise ValueError("need 0 < r_inner < sqrt(R0)")
    # the closed forms are about the origin; the spiral winds into the well
    spiral = spiral_from_C1(bundle["C1"], b, r_outer, r_inner)
    curve = Curve(spiral.vertices + pot.wells[0].location)

    out = _out_dir(config, args)
    _write_json(os.path.join(out, "figure1.json"), bundle)
    _write_json(os.path.join(out, "result.json"),
                {"bundle": bundle,
                 "multiplier": lagrange_multiplier_radial(bundle["C1"])})
    path_to_csv(path, os.path.join(out, "table.csv"))
    curve_to_csv(curve, os.path.join(out, "curve.csv"))
    if above:
        log.info("requested area %g exceeds the cap %g", A_tilde,
                 bundle["threshold"])
        return 2
    return 0


def cmd_wave(config: dict, args) -> int:
    out = _out_dir(config, args)
    pot = potential_from_json(config["potential"])
    p, q = _endpoints(config)
    A = float(config["A"])
    res = minimize_constrained(p, q, A, pot, _solver_config(config))
    code = _exit_code([(res.converged, res.nonexistence_suspected)])
    if code:
        log.info("solve flagged; not writing a profile")
        _write_json(os.path.join(out, "result.json"), res.to_json_dict())
        return code
    profile = to_traveling_wave(res, pot)
    k = int(config.get("n_modes", 6))
    eigenvalues, mode = second_variation_spectrum(profile, pot, k)
    alignment = zero_mode_alignment(profile, mode)
    if alignment < _ZERO_MODE_ALIGNMENT:
        log.warning("no translation mode among the %d eigenvalues: the best "
                    "zero_mode_alignment is %.4g, below %g", len(eigenvalues),
                    alignment, _ZERO_MODE_ALIGNMENT)
    profile_to_csv(profile, os.path.join(out, "profile.csv"))
    _write_json(os.path.join(out, "spectrum.json"),
                {"eigenvalues": eigenvalues, "zero_mode_alignment": alignment})
    payload = res.to_json_dict()
    payload.update({
        "nu": profile.nu,
        "wave_residual": wave_residual(profile, pot),
        "hamiltonian": hamiltonian_energy(profile, pot),
        "sqrt2_energy": math.sqrt(2.0) * energy(res.curve, pot),
    })
    _write_json(os.path.join(out, "result.json"), payload)
    return 0


_COMMANDS = {
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "homogeneous": cmd_homogeneous,
    "radial": cmd_radial,
    "wave": cmd_wave,
}


def _setup_logging(quiet: bool) -> None:
    level_name = "error" if quiet else os.environ.get("DEGEO_LOG", "info")
    level = {"error": logging.ERROR, "info": logging.INFO,
             "debug": logging.DEBUG}.get(level_name.lower(), logging.INFO)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(name)s %(levelname)s %(message)s")
    logging.getLogger("degeo").setLevel(level)


def main(argv: Optional[list] = None) -> int:
    parser = _Parser(prog="degeo",
                     description="area-constrained degenerate geodesics")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} command")
        p.add_argument("config", help="JSON config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--quiet", action="store_true",
                       help="log errors only")
    args = parser.parse_args(argv)
    _setup_logging(args.quiet)
    try:
        config = _load_config(args.config)
        return _COMMANDS[args.command](config, args)
    except _FLAG_ERRORS as exc:
        print(f"degeo: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"degeo: config is missing the entry {exc.args[0]!r}",
              file=sys.stderr)
        return 1
    # OverflowError: a config number no float holds (an integer past
    # 1.8e308, an infinite count)
    except (DegeoError, ValueError, TypeError, OverflowError,
            OSError, json.JSONDecodeError) as exc:
        print(f"degeo: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
