"""Per-layer counters taken from outside degeo.

Every degeo module looks its collaborators up at call time: `Potential`
methods through the class, kernels and stages through module globals
(`degeo.solver.discrete_energy_gradient`, `degeo.cli.minimize_constrained`,
...).  `Tracer.install` replaces those names with timing wrappers, so the
counts below are taken without changing a line of degeo.  A name that no
longer exists (a stage deleted by a later change) is skipped and listed in
`Tracer.absent`; its metrics then read zero.

Each wrapper adds its call count to `<layer>.calls` and its inclusive wall
time to `<layer>.s`.  Only the outermost entry into a layer counts, so a
layer that recurses into itself, or two names sharing one layer, are not
counted twice.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _points(_tracer, args, kwargs, _result):
    """Number of points in the `p` argument of a `Potential` method."""
    shape = np.shape(_arg(args, kwargs, 1, "p"))
    return {"points": 1 if len(shape) <= 1 else shape[0]}


def _segments(_tracer, args, kwargs, _result):
    """Midpoints evaluated by `functionals.energy(curve, potential)`."""
    return {"points": max(len(_arg(args, kwargs, 0, "curve").vertices) - 1,
                          0)}


def _inner(_tracer, _args, _kwargs, result):
    """Iteration, evaluation and success counts of one L-BFGS-B call."""
    return {"nit": getattr(result, "nit", 0),
            "nfev": getattr(result, "nfev", 0),
            "successes": int(bool(getattr(result, "success", False)))}


def _nodes(_tracer, _args, _kwargs, result):
    """Grid size of a traveling-wave profile."""
    return {"nodes": len(result)}


def _packed(tracer, _args, _kwargs, result):
    """Vertices of the packed competitor, remembered so that its EL
    residual stays out of the residual of the minimizers proper."""
    if result is None:
        return {}
    tracer.packed_curves.append(result)
    return {"vertices": len(result.vertices)}


def _residual(tracer, args, kwargs, result):
    """EL residual of every returned minimizer but the packed competitor."""
    curve = _arg(args, kwargs, 0, "curve")
    if not any(curve is packed for packed in tracer.packed_curves):
        tracer.el_residuals.append(float(result))
    return {}


# (owner, attribute, layer, per-call counter); the owner is a module or
# `module:Class`.  The same name is wrapped in every module that binds it,
# because each caller looks it up in its own module.
SPECS = (
    ("degeo.potential:Potential", "eval_W", "potential.eval_W", _points),
    ("degeo.potential:Potential", "grad_W", "potential.grad_W", _points),
    ("degeo.potential:Potential", "hess_W", "potential.hess_W", None),
    ("degeo.solver", "discrete_energy_gradient", "solver.energy_grad", None),
    ("degeo.solver", "discrete_area_gradient", "solver.area_grad", None),
    ("degeo.solver", "_augmented_lagrangian", "solver.al", None),
    ("degeo.solver", "_scipy_minimize", "solver.inner", _inner),
    ("degeo.solver", "_newton_polish", "solver.newton", None),
    ("degeo.solver", "_splu", "solver.splu", None),
    ("degeo.solver", "_remesh", "solver.remesh", None),
    ("degeo.solver", "_packed_competitor", "solver.packed", _packed),
    ("degeo.solver", "el_residual", "solver.diagnostics", _residual),
    ("degeo.solver", "detect_area_leakage", "solver.diagnostics", None),
    ("degeo.solver", "energy", "functionals.energy", _segments),
    ("degeo.cli", "energy", "functionals.energy", _segments),
    ("degeo.functionals", "energy", "functionals.energy", _segments),
    ("degeo.solver", "reparam_degenerate_arclength", "functionals.reparam",
     None),
    ("degeo.functionals", "reparam_degenerate_arclength",
     "functionals.reparam", None),
    ("degeo.cli", "main", "cli", None),
    ("degeo.cli", "minimize_constrained", "cli.solver_entry", None),
    ("degeo.wave", "to_traveling_wave", "wave", _nodes),
    ("degeo.wave", "wave_residual", "wave", None),
    ("degeo.wave", "hamiltonian_energy", "wave", None),
    ("degeo.wave", "second_variation_spectrum", "wave", None),
    ("degeo.wave", "zero_mode_alignment", "wave", None),
    ("degeo.wave", "profile_to_csv", "wave", None),
    ("degeo.homogeneous", "solve_homogeneous", "homogeneous", None),
    ("degeo.radial", "solve_C1_for_area", "radial", None),
    ("degeo.radial", "parabola_energy", "radial", None),
)


# layers that only the benchmark's checks call, outside the timed region
REFERENCE_LAYERS = ("homogeneous", "radial")


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, class_name, None) if class_name else obj


class Tracer:
    """Counters filled by wrappers around degeo's call-time names."""

    def __init__(self):
        self.totals = defaultdict(float)
        self.absent = []
        self.packed_curves = []
        self.el_residuals = []
        self._depth = defaultdict(int)

    def install(self) -> None:
        for owner, attr, layer, counter in SPECS:
            target = _resolve(owner)
            fn = getattr(target, attr, None)
            if not callable(fn):
                self.absent.append(f"{owner}.{attr}")
                continue
            setattr(target, attr, self._wrap(fn, layer, counter))

    def _wrap(self, fn, layer, counter):
        tracer, totals, depth = self, self.totals, self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = depth[layer] == 0
            depth[layer] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                depth[layer] -= 1
                if outer:
                    totals[layer + ".s"] += time.perf_counter() - t0
                    totals[layer + ".calls"] += 1
            if outer and counter is not None:
                for key, value in counter(tracer, args, kwargs,
                                            result).items():
                    totals[f"{layer}.{key}"] += value
            return result

        return traced

    def metrics(self) -> dict:
        """Every counter, plus the metrics derived from several of them."""
        t = self.totals
        out = dict(t)
        out.update({
            "solver.inner.success_ratio":
                t["solver.inner.successes"] / t["solver.inner.calls"]
                if t["solver.inner.calls"] else 0.0,
            "solver.newton.factorizations": t["solver.splu.calls"],
            "solver.el_residual_max": max(self.el_residuals, default=0.0),
            "cli.self_s": t["cli.s"] - t["cli.solver_entry.s"],
        })
        return out
