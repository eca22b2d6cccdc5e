"""Constrained polyline minimization for weighted length with an area
constraint.

The curve is a polyline with pinned endpoints and free interior vertices.
Weighted length E and signed area are the midpoint-rule discretizations from
the functionals module, both with exact analytic gradients, so the discrete
optimality system is an honest finite-dimensional Lagrange system: at a
stationary point grad(E) = lambda * grad(area), and lambda = dE/dA is the
multiplier every result reports.

Each iterate is evaluated in one pass (`_one_pass`): the chords, lengths and
midpoints are formed once, W and grad W come from one call at the
midpoints, and the Lagrangian E - lambda c + rho c^2 / 2, c = area - A, its
interior gradient, the area and its gradient follow, from parts bit for bit
equal to `discrete_energy_gradient` and `discrete_area_gradient`.  The
L-BFGS-B objective, every polish evaluation and `el_residual` use it, and
the polish Hessian reuses the geometry and density of the evaluation it was
accepted at.  A polish trial evaluates only what its acceptance test reads
(`_normal_gradient`); the residual's scale (`_scaled_residual`) is formed
once a trial is accepted.  A start's energy comes once from `energy`, the
function that reports it.

An augmented-Lagrangian outer loop around L-BFGS-B on the interior vertices
brings each start near feasibility and hands it to a damped Newton polish as
soon as that polish converges.  The inner solves drive scipy's L-BFGS-B
routine `setulb` themselves, with the settings and stopping rule of
`scipy.optimize.minimize`, so the iterates are the ones it gives, without
its per-evaluation wrapper; `setulb` moves the vertices in place.  The
polish solves the KKT system for the vertex-normal offsets and lambda, one
tridiagonal solve (LAPACK's dgtsv) with a scalar border per trial, and
stops on the normal gradient in `el_residual`'s normalization.  Both
routines come from scipy's compiled extension modules, `_lbfgsb` and
`_flapack`, loaded from their files alone (`_load_extension`; `wave` takes
its band eigensolver from the same `_flapack`).  Nothing else in
scipy.optimize or scipy.linalg is needed, and their package inits (which
import scipy.sparse too) would cost every process that imports degeo
about 0.4 s and 48 MB.
Each inner solve's curve is resampled once, graded toward the wells
(`_remesh`), and the next inner solve and every polish start from that
mesh: a curve that ends at a well spirals into it, and spacing by weighted
length alone leaves those turns to a few vertices.

When the requested area is not attainable there is no minimizer: minimizing
sequences park the area excess in vanishing loops at the cheapest well, at
the limiting cost trunk + (lambda1 + lambda2) * |excess|.  Every solve whose
potential has wells builds that limit once, before the starts, as a
certificate (a trunk curve running one small loop at the well, on a level
ellipse of its quadratic so that the loop packs area at that rate, plus a
`PackedLoops` count of how often the polyline it stands for runs the
loop).  It always competes with the standard solve and is adopted when
strictly cheaper; a result is flagged exactly when it is the certificate,
which is never converged (`SolveResult` derives both verdicts).

A curve that ends at a well can park extra area in vanishing loops there
at the marginal cost lambda1 + lambda2 of that well, so the least energy is
Lipschitz in A with that rate, and a critical curve whose multiplier
exceeds it is no minimizer.  One rule ends the search at a start that ends
feasible and polished: when it is the warm start, when |lambda| is above the
smallest such rate of the endpoint wells and the certificate is strictly
cheaper, or when its energy is within _START_AGREEMENT relative of an
earlier such start (the two have found the same critical curve).

Without an area (A=None) the driver finds the geodesic gamma0 from p_minus
to p_plus, against which the paper measures every area: the area gap is
taken as 0, so each start is one inner solve, one resample and a polish
without the area border, and no certificate is built.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import logging
import math
import numbers
import os
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
import scipy

from .errors import NonConvergence, ZeroDensityInterior
from .functionals import Curve, SegmentGeometry, area, energy, segment_geometry
from .potential import Potential, _row_norms

log = logging.getLogger("degeo.solver")


def _load_extension(package: str, name: str):
    """scipy's compiled extension module `name` from the folder of the
    subpackage `package`, without that subpackage's init (linprog and shgo
    for optimize, the array-API layer for linalg).  It is loaded as
    `degeo.<name>`: under scipy's own name a later import of the
    subpackage would find the module in sys.modules but not bind it as
    the package's attribute."""
    folder = os.path.join(os.path.dirname(scipy.__file__), package)
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, name + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(f"degeo.{name}",
                                                          path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"no {name} extension module in {folder}")


_setulb = _load_extension("optimize", "_lbfgsb").setulb
_flapack = _load_extension("linalg", "_flapack")

# projected-gradient tolerance (gtol) of the L-BFGS-B inner solves
_TOL_GRAD = 1e-8
# area-gap tolerance, relative to 1 + |A|
_TOL_AREA = 1e-8
# augmented-Lagrangian penalty: start, growth factor, cap, outer iterations
_PENALTY_START = 1.0
_PENALTY_FACTOR = 10.0
_PENALTY_CAP = 1e8
_OUTER_ITERATIONS = 20
# quasi-Newton budget per multiplier update.  The inner solves only need to
# bring a start near the KKT point: the handoff polish owns the tight finish
# and the gauge-degenerate tail, so a larger budget just buys slow wandering
# (every inner solve of a failed start runs to it)
_INNER_ITERATIONS = 150
# L-BFGS-B: corrections kept, factr (ftol 1e-13 over machine epsilon) and
# line-search steps per iteration
_LBFGS_MEMORY = 20
_LBFGS_FACTR = 1e-13 / np.finfo(float).eps
_LBFGS_MAXLS = 40
# setulb's stop codes for the two budgets of an inner solve
_BUDGETS = {504: "iteration budget", 502: "evaluation budget"}
# Newton steps of the polish
_NEWTON_ITERATIONS = 150
# the AL loop hands a start to the Newton polish once the area gap is this
# small relative to 1 + |A|, trying again only when the gap falls a decade
_HANDOFF_GAP = 1e-2
# stopping level of every Newton polish: the normal gradient in
# el_residual's normalization
_TOL_EL = 1e-9
# relative energy within which two feasible, polished starts count as the
# same critical curve.  Measured over 35 cases at n = 96, 128, 192, 256 and
# 384: starts on the same curve differ by at most 1.9e-11 (homogeneous,
# A = 0.05) and 6.4e-9 (the double well at A = 0.08 from n = 128; up to
# 6.3e-8 at n = 96).  Radial starts stop at different spiral depths: 7.7e-10
# to 5.4e-8 apart at A = 0.1, and at least 4.9e-8 (1.9e-7 at n = 256) at
# A = 0.25, where all three always run.  Wherever the rule ends a search,
# the starts it skips would have moved the returned energy by at most
# 3.9e-9 relative
_START_AGREEMENT = 1e-8


@dataclass
class SolverConfig:
    n_vertices: int = 256

    def __post_init__(self):
        if not isinstance(self.n_vertices, numbers.Integral):
            raise ValueError("n_vertices must be an integer")
        if self.n_vertices < 3:
            raise ValueError("n_vertices must be at least 3")


@dataclass
class PackedLoops:
    """Multiplicity of the loop in a non-existence certificate.

    The certificate curve runs one loop of area 2 `loop_radius`^2 (the
    diamond of `_packed_certificate`) around well `well`, in its four
    segments from vertex `anchor` back to the same point; counterclockwise
    for orientation +1.  The polyline it stands for runs that loop
    `loop_count` times.
    """

    well: int
    loop_radius: float
    loop_count: int
    orientation: int
    anchor: int

    def loop(self, curve: Curve) -> Curve:
        """The loop's five vertices, anchor to anchor."""
        return Curve(curve.vertices[self.anchor:self.anchor + 5])

    def multiplicity(self, n_segments: int) -> np.ndarray:
        """How often the represented polyline runs each curve segment."""
        m = np.ones(n_segments)
        m[self.anchor:self.anchor + 4] = self.loop_count
        return m


@dataclass
class SolveResult:
    """A solve's curve and numbers, from which both verdicts are derived:
    flagged exactly when `packed` is set, converged exactly when it is not
    and `el_residual_max` and the area gap pass `_polish_converged`."""
    curve: Curve
    energy: float
    area_achieved: float
    multiplier: float
    A_target: float
    # set on a non-existence certificate: `curve` then holds its loop once
    packed: Optional[PackedLoops] = None
    el_residual_max: float = math.nan
    leakage_report: dict = field(default_factory=dict)

    @property
    def nonexistence_suspected(self) -> bool:
        return self.packed is not None

    @property
    def converged(self) -> bool:
        return self.packed is None and _polish_converged(
            self.el_residual_max, self.area_achieved - self.A_target,
            _area_tol(self.A_target))

    def to_json_dict(self) -> dict:
        leakage = []
        for well in self.leakage_report.get("wells", []):
            for level in well["levels"]:
                leakage.append({"well": well["index"],
                                "radius": level["radius"],
                                "area_in": level["area_in"],
                                "arclength_in": level["arclength_in"]})
        out = {
            "A_target": float(self.A_target),
            "area_achieved": float(self.area_achieved),
            "energy": float(self.energy),
            "multiplier": float(self.multiplier),
            "el_residual_max": float(self.el_residual_max),
            "converged": bool(self.converged),
            "nonexistence_suspected": bool(self.nonexistence_suspected),
            "leakage": leakage,
        }
        if self.packed is not None:
            out["packed"] = {"well": self.packed.well,
                             "loop_radius": float(self.packed.loop_radius),
                             "loop_count": self.packed.loop_count,
                             "orientation": self.packed.orientation,
                             "anchor": self.packed.anchor}
        return out


# ---------------------------------------------------------------------------
# discrete functionals with gradients
# ---------------------------------------------------------------------------

def discrete_energy_gradient(vertices: np.ndarray, potential: Potential
                             ) -> Tuple[float, np.ndarray]:
    """Midpoint-rule weighted length and its gradient in every vertex.
    The solver uses `_one_pass`; this is its reference in the tests and in
    gate 12, as `discrete_area_gradient` is."""
    geo = segment_geometry(vertices, potential, derivatives=True)
    g = np.zeros((geo.L.size + 1, 2))
    half = 0.5 * geo.gF * geo.L[:, None]
    FT = geo.F[:, None] * geo.T
    g[:-1] += half - FT
    g[1:] += half + FT
    return float(np.sum(geo.F * geo.L)), g


def discrete_area_gradient(vertices: np.ndarray) -> Tuple[float, np.ndarray]:
    """Signed area (integral of p1 dp2) and its gradient in every vertex."""
    v = np.asarray(vertices, dtype=float)
    seg2 = v[1:, 1] - v[:-1, 1]
    mid1 = 0.5 * (v[1:, 0] + v[:-1, 0])
    A = float(np.cumsum(mid1 * seg2)[-1]) if len(seg2) else 0.0
    g = np.zeros_like(v)
    g[:-1, 0] += 0.5 * seg2
    g[1:, 0] += 0.5 * seg2
    g[:-1, 1] -= mid1
    g[1:, 1] += mid1
    return A, g


class _Pass(NamedTuple):
    """One evaluation of the penalized Lagrangian at a vertex array."""

    f: float
    area: float
    g: np.ndarray    # gradient of f at the interior vertices
    gA: np.ndarray   # gradient of the area at the interior vertices
    geo: SegmentGeometry


def _area_tol(A: Optional[float]) -> float:
    """Tolerance on the area gap: _TOL_AREA relative to 1 + |A|, and 0
    without an area, whose gap is 0."""
    return 0.0 if A is None else _TOL_AREA * (1.0 + abs(A))


def _one_pass(v: np.ndarray, potential: Potential, A: Optional[float],
              lam: float, rho: float) -> _Pass:
    """f = E - lam c + rho c^2 / 2 with c = area - A (0 for A=None), the
    area, and the interior gradients of both, from one pass over v.

    The chords, lengths and midpoints are formed once and W and grad W come
    from one evaluation at the midpoints.  E, the area and their gradients
    equal, bit for bit, the ones `discrete_energy_gradient` and
    `discrete_area_gradient` give, and g = gE - (lam - rho c) gA.
    """
    geo = segment_geometry(v, potential, derivatives=True)
    half = 0.5 * geo.gF * geo.L[:, None]
    FT = geo.F[:, None] * geo.T
    gE = (half - FT)[1:] + (half + FT)[:-1]
    seg2, mid1 = geo.seg[:, 1], geo.mid[:, 0]
    half2 = 0.5 * seg2
    gA = np.empty_like(gE)
    gA[:, 0] = half2[1:] + half2[:-1]
    gA[:, 1] = mid1[:-1] - mid1[1:]
    a = float((mid1 * seg2).cumsum()[-1])
    c = 0.0 if A is None else a - A
    return _Pass(float((geo.F * geo.L).sum()) - lam * c + 0.5 * rho * c * c,
                 a, gE - (lam - rho * c) * gA, gA, geo)


def _normal_hessian(geo: SegmentGeometry, potential: Potential, lam: float,
                    N: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Hessian of energy - lam * area along the interior normals N.

    Segment k joins vertices k and k+1; its 2x2 Hessian blocks are `aa`
    in vertex k twice, `bb` in vertex k+1 twice and `ab` in k, then k+1.
    They are built from the exact second derivatives of F(mid)*L and of
    the midpoint area rule, on the chords, midpoints, F and grad F of
    `geo` (from `_one_pass`); the sqrt in F = sqrt(W) gives
    hess F = (hess W / 2 - grad F grad F^T) / F, so L and F are floored
    away from zero (the Newton loop is damped anyway, inexactness there is
    harmless).

    Moving interior vertex i along N_i only couples it to its neighbors,
    so the matrix is symmetric tridiagonal.  Returned as (diag, off), the
    diagonal N_i^T (bb[i-1] + aa[i]) N_i and the off-diagonal
    N_i^T ab[i] N_{i+1}, one shorter: both of dgtsv's outer diagonals.
    """
    L = np.maximum(geo.L, 1e-12 * max(float(geo.L.max()), 1e-12))
    T = geo.seg / L[:, None]
    gF = geo.gF
    F = np.maximum(geo.F, 1e-12 * max(float(geo.F.max()), 1e-12))
    HW = potential.hess_W(geo.mid)
    HF = (0.5 * HW - gF[:, :, None] * gF[:, None, :]) / F[:, None, None]

    P = np.eye(2)[None, :, :] - T[:, :, None] * T[:, None, :]
    gFT = gF[:, :, None] * T[:, None, :]
    sym = 0.5 * (gFT + gFT.transpose(0, 2, 1))
    asym = 0.5 * (gFT - gFT.transpose(0, 2, 1))
    core = 0.25 * HF * L[:, None, None]
    FPL = F[:, None, None] * P / L[:, None, None]

    # area rule (a_x+b_x)(b_y-a_y)/2 contributes constant 2x2 blocks
    aa = core - sym + FPL - lam * np.array([[0.0, -0.5], [-0.5, 0.0]])
    bb = core + sym + FPL - lam * np.array([[0.0, 0.5], [0.5, 0.0]])
    ab = core + asym - FPL - lam * np.array([[0.0, 0.5], [-0.5, 0.0]])
    return (np.einsum("ij,ijk,ik->i", N, bb[:-1] + aa[1:], N),
            np.einsum("ij,ijk,ik->i", N[:-1], ab[1:-1], N[1:]))


def vertex_normals(v: np.ndarray) -> np.ndarray:
    """Unit leftward normals at every vertex, from averaged chord tangents."""
    n = v.shape[0]
    t = np.empty_like(v)
    t[0] = v[1] - v[0]
    t[-1] = v[-1] - v[-2]
    t[1:-1] = v[2:] - v[:-2]
    nrm = np.maximum(_row_norms(t), 1e-300)
    t /= nrm[:, None]
    return np.stack([-t[:, 1], t[:, 0]], axis=1)


def _newton_polish(v: np.ndarray, potential: Potential, A: Optional[float],
                   lam: float) -> Tuple[np.ndarray, float, float, float, int]:
    """Damped Newton on the KKT system of E - lam * (area - A).

    The full-coordinate problem is gauge degenerate: sliding vertices along
    the curve is free, so Newton (and quasi-Newton) steps drift vertices
    into stacks and never reach tight stationarity.  Each step moves every
    interior vertex along its normal only, which removes the gauge modes
    and leaves the tridiagonal Hessian H of `_normal_hessian`; the area
    constraint borders it with the normal area gradient u.  One call of
    LAPACK's dgtsv on H + lm I gives H d0 = -g_n and H d_u = u; the border
    row u.d = -c then fixes dlam = -(u.d0 + c) / (u.d_u) and the step
    d = d0 + dlam d_u.  The Levenberg-Marquardt shift lm grows tenfold
    after each rejected trial (and on a singular or non-finite solve), and
    H's two diagonals and the right-hand side are formed, and checked
    finite, once per step.  Normals are recomputed after every accepted
    step.  A=None solves without the border (lam stays as given).

    A trial is accepted when it lowers max(|g_n|, |c|), which is all it
    evaluates (`_normal_gradient`); the residual's scale is formed only
    for an accepted one.  The polish stops by `_polish_converged`, on g_n
    in `el_residual`'s normalization.  A non-finite Hessian or gradient
    raises ValueError.

    Returns the vertices, lam, the final max over interior vertices of that
    residual, the area gap c (0 for A=None) and the number of accepted
    steps.
    """
    tol_c = _area_tol(A)

    def evaluate(v, lam):
        N, gn, one = _normal_gradient(v, potential, lam)
        return N, gn, one, 0.0 if A is None else one.area - A

    N, gn, one, c = evaluate(v, lam)
    res, _ = _scaled_residual(v, potential, lam, gn, one.geo)
    lm = 1e-9
    steps = 0
    for _ in range(_NEWTON_ITERATIONS):
        err = max(float(np.abs(gn).max()), abs(c))
        if not math.isfinite(err):
            raise NonConvergence("newton polish produced non-finite values")
        if _polish_converged(res, c, tol_c):
            break
        diag, off = _normal_hessian(one.geo, potential, lam, N)
        un = np.einsum("ij,ij->i", one.gA, N)
        rhs = np.stack([-gn, un], axis=1)
        if not all(np.isfinite(x).all() for x in (diag, off, rhs)):
            raise ValueError("newton polish: non-finite Hessian or gradient")
        if not off.size:
            # one interior vertex: LAPACK reads no off-diagonal at order 1,
            # but scipy's dgtsv wrapper wants arrays of length 1
            off = np.zeros(1)
        # keep each vertex within a fraction of its local spacing so
        # normal moves of neighbors cannot collide into a stack
        seg = _row_norms(one.geo.seg)
        cap = 0.4 * np.minimum(seg[:-1], seg[1:])
        for _ in range(25):
            *_, x, info = _flapack.dgtsv(off, diag + lm, off, rhs,
                                         overwrite_d=1)
            if info > 0:  # singular
                lm *= 10.0
                continue
            d0, du = x.T
            dlam = 0.0
            # a border product that overflows is rejected as non-finite
            with np.errstate(over="ignore", invalid="ignore"):
                if A is not None:
                    s = float(un @ du)
                    dlam = -(float(un @ d0) + c) / s if s else math.inf
                d = d0 + dlam * du
            if not (math.isfinite(dlam) and np.all(np.isfinite(d))):
                lm *= 10.0
                continue
            vt = v.copy()
            vt[1:-1] += np.clip(d, -cap, cap)[:, None] * N
            trial = evaluate(vt, lam + dlam)
            gnt, ct = trial[1], trial[3]
            if max(float(np.abs(gnt).max()), abs(ct)) < err:
                v, lam = vt, lam + dlam
                N, gn, one, c = trial
                res, _ = _scaled_residual(v, potential, lam, gn, one.geo)
                steps += 1
                lm = max(lm / 3.0, 1e-12)
                break
            lm *= 10.0
        else:
            break
    return v, lam, res, c, steps


# ---------------------------------------------------------------------------
# inner minimization
# ---------------------------------------------------------------------------

def _inner_solve(v0: np.ndarray, potential: Potential, A: Optional[float],
                 lam: float, rho: float) -> Tuple[np.ndarray, bool, int]:
    """One L-BFGS-B pass on `_one_pass`'s f = E - lam c + rho c^2 / 2.

    Runs on the interior vertices as they are.  Inexact: at most
    _INNER_ITERATIONS iterations, since the Newton polish finishes the
    start.  Returns the vertices, L-BFGS-B's success flag and its
    iteration count.

    Drives L-BFGS-B's reverse-communication routine `setulb` directly, with
    the settings and the stopping rule of scipy's
    `minimize(method="L-BFGS-B")` at maxcor=20, ftol=1e-13, gtol=_TOL_GRAD,
    maxls=40, maxiter=_INNER_ITERATIONS and maxfun=4*_INNER_ITERATIONS, so
    the iterates are those `minimize` gives, bit for bit.  The interior
    rows of the returned vertices are the array `setulb` updates, and a
    point is evaluated only when it differs from the last one evaluated.
    """
    v = v0.copy()
    x = v[1:-1].reshape(-1)  # a view: setulb moves the interior vertices
    n, m = x.size, _LBFGS_MEMORY
    f, g = 0.0, np.zeros(n)
    free = np.zeros(n)       # bounds, unread: nbd 0 leaves x unbounded
    nbd = np.zeros(n, np.int32)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task = np.zeros(2, np.int32), np.zeros(2, np.int32)
    lsave, isave, dsave = (np.zeros(4, np.int32), np.zeros(44, np.int32),
                           np.zeros(29))
    x_eval, nit, nfev = None, 0, 0
    while True:
        _setulb(m, x, free, free, nbd, f, g, _LBFGS_FACTR, _TOL_GRAD, wa, iwa,
                task, lsave, isave, dsave, _LBFGS_MAXLS, ln_task)
        if task[0] == 3:  # f and g wanted at x
            if not np.array_equal(x, x_eval):
                x_eval = x.copy()
                f_eval, _, g_eval, _, _ = _one_pass(v, potential, A, lam, rho)
                nfev += 1
            # setulb may overwrite g, so it gets a copy
            f = f_eval
            g[:] = g_eval.ravel()
        elif task[0] == 1:  # a new iterate
            nit += 1
            if nit >= _INNER_ITERATIONS:
                task[:] = 5, 504
            elif nfev > 4 * _INNER_ITERATIONS:
                task[:] = 5, 502
        else:
            break
    log.debug("inner solve: %d iterations, %d evaluations, %s", nit, nfev,
              "converged" if task[0] == 4 else
              _BUDGETS.get(int(task[1]), f"abnormal stop ({task[0]}, "
                                         f"{task[1]})"))
    if not np.all(np.isfinite(x)):
        raise NonConvergence("inner minimization produced non-finite vertices")
    return v, bool(task[0] == 4), nit


def _remesh(v: np.ndarray, potential: Potential) -> np.ndarray:
    """Resample toward the wells: monitor (F / max F + sqrt(h / d)) * L.

    h is the mean segment length and d a segment midpoint's distance to
    the nearest well.  The discrete energy is blind to sliding vertices
    along the curve, so inner iterations can pile vertices up; a resample
    restores healthy spacing without moving the curve.  A curve ending at
    a well spirals into it, turning like 1/r, so spacing by F alone leaves
    the last decades of radius to a few vertices.  The d^(-1/2) term is
    integrable at a well, so repeated resampling settles; a 1/d term is
    not, and drives the innermost vertex into the well at every pass.
    """
    geo = segment_geometry(v, potential)
    monitor = geo.F / max(float(geo.F.max()), 1e-300)
    if potential.wells:
        d, _ = potential.nearest_well(geo.mid)
        monitor = monitor + np.sqrt(geo.L.mean() / np.maximum(d, 1e-300))
    # equidistribute the cumulative weight monitor * L; the ends stay put
    weights = monitor * geo.L
    cum = np.concatenate([[0.0], np.cumsum(weights)])
    total = cum[-1]
    if total <= 0.0:
        raise ValueError("cannot resample a curve of zero total weight")
    targets = np.linspace(0.0, total, v.shape[0])
    idx = np.clip(np.searchsorted(cum, targets, side="right") - 1, 0,
                  len(weights) - 1)
    w = weights[idx]
    frac = np.where(w > 0.0,
                    (targets - cum[idx]) / np.where(w > 0, w, 1.0), 0.0)
    out = v[idx] + frac[:, None] * (v[idx + 1] - v[idx])
    out[0] = v[0]
    out[-1] = v[-1]
    return out


def _polish_converged(res: float, c: float, tol_c: float) -> bool:
    """Whether a polish ended within _TOL_EL of stationarity in
    `el_residual`'s normalization and on the area."""
    return res <= _TOL_EL and abs(c) <= tol_c


def _augmented_lagrangian(v0: np.ndarray, potential: Potential,
                          A: Optional[float], init_multiplier: float = 0.0
                          ) -> Tuple[np.ndarray, float, float, bool]:
    """Solve from one start; returns (vertices, lam, area gap, polish ok).

    The outer loop updates the multiplier lam around an inexact L-BFGS-B
    inner solve of the penalized objective, raising the penalty rho
    whenever the area gap fails to shrink fourfold, and resamples each
    inner solve's curve once, with the graded `_remesh`: the next inner
    solve and every polish start from that mesh graded toward the wells.
    Once the gap is below _HANDOFF_GAP relative to 1 + |A| (and again at
    each further decade) it tries the KKT Newton polish and stops at the
    first that converges.  Otherwise it polishes after the last outer
    iteration, or after the first at which the gap again fails to shrink
    with rho already at _PENALTY_CAP, since more outer iterations would
    not move it.  Without an area (A=None) the gap is 0: one inner solve,
    one resample and the polish without the area border.
    `ok` says whether the polish got the normal gradient and the area gap
    to tolerance.
    """
    v = v0.copy()
    lam, rho = init_multiplier, _PENALTY_START
    tol_c = _area_tol(A)
    c_prev = np.inf
    polished, tried = None, math.inf
    for k in range(_OUTER_ITERATIONS):
        v, _, nit = _inner_solve(v, potential, A, lam, rho)
        c = 0.0 if A is None else area(Curve(v)) - A
        log.debug("outer iteration %d: lambda %.6g, rho %.3g, area gap %.3g, "
                  "%d inner iterations", k, lam, rho, abs(c), nit)
        lam -= rho * c
        v = _remesh(v, potential)
        if abs(c) <= tol_c:
            break
        gap = abs(c) / (1.0 + abs(A))
        if gap <= _HANDOFF_GAP and math.floor(math.log10(gap)) < tried:
            tried = math.floor(math.log10(gap))
            try:
                attempt = _newton_polish(v, potential, A, lam)
            except NonConvergence:
                attempt = None
            if (attempt is not None
                    and _polish_converged(attempt[2], attempt[3], tol_c)):
                log.debug("handoff at outer iteration %d, area gap %.3g: "
                          "polish converged in %d steps", k, abs(c),
                          attempt[4])
                polished = attempt
                break
        if abs(c) > 0.25 * abs(c_prev):
            if rho >= _PENALTY_CAP:
                log.debug("outer loop stalled at iteration %d: area gap "
                          "%.3g at the penalty cap", k, abs(c))
                break
            # the cap bounds the penalty's ill-conditioning of the inner
            # solves and, with the stall exit above, the outer iterations;
            # it does not steady lam, which gap noise still moves by rho * c
            rho = min(rho * _PENALTY_FACTOR, _PENALTY_CAP)
        c_prev = c
    if polished is None:
        # Newton on the KKT system in normal coordinates, which takes over
        # the multiplier
        polished = _newton_polish(v, potential, A, lam)
        log.debug("no handoff; polish after %d outer iterations took %d "
                  "steps", k + 1, polished[4])
    v, lam, res, c, _ = polished
    return v, lam, c, _polish_converged(res, c, tol_c)


# ---------------------------------------------------------------------------
# initial curves
# ---------------------------------------------------------------------------

def _straight(p: np.ndarray, q: np.ndarray, n: int) -> np.ndarray:
    t = np.linspace(0.0, 1.0, n)[:, None]
    return (1.0 - t) * p + t * q


def _bump_inits(p: np.ndarray, q: np.ndarray, A: Optional[float], n: int
                ) -> List[np.ndarray]:
    """Straight segment plus one smooth transverse bump per candidate shape.

    The discrete area is exactly affine in the bump amplitude (the quadratic
    self-term telescopes to zero for a profile vanishing at both ends), so
    the amplitude meeting the target area is solved for directly.  Without
    an area (A=None) the starts are the straight segment and the two arches
    +-0.05 |q - p| t (1 - t) along its normal, and none when |q - p|
    overflows.
    """
    base = _straight(p, q, n)
    chord = q - p
    nrm = np.array([-chord[1], chord[0]])
    t = np.linspace(0.0, 1.0, n)
    if A is None:
        # |q - p| squared can overflow where q - p does not
        with np.errstate(over="ignore"):
            scale = float(np.linalg.norm(chord))
        if not math.isfinite(scale):
            return []
        nrm = nrm / scale
        return [base + (amp * t * (1.0 - t))[:, None] * nrm
                for amp in (0.0, 0.05 * scale, -0.05 * scale)]
    nrm = nrm / np.linalg.norm(nrm)
    a0 = area(Curve(base))
    if abs(A - a0) <= 1e-12 * (1.0 + abs(A)):
        # every bump would have amplitude 0
        return [base]
    inits = []
    for shape in (t * (1.0 - t), t * t * (1.0 - t), t * (1.0 - t) ** 2):
        cand = base + shape[:, None] * nrm
        a1 = area(Curve(cand))
        h = (A - a0) / (a1 - a0) if a1 != a0 else math.inf
        if math.isfinite(h):
            inits.append(base + (h * shape)[:, None] * nrm)
    return inits or [base]


def _finite_start(v: np.ndarray, potential: Potential, A: Optional[float],
                  rho: float) -> bool:
    """Whether the first inner solve's objective, `_one_pass`'s f at
    (A, 0, rho), and its gradient evaluate at v without overflow."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            f, _, g, _, _ = _one_pass(v, potential, A, 0.0, rho)
            return math.isfinite(f) and bool(np.all(np.isfinite(g)))
    except FloatingPointError:
        return False


# ---------------------------------------------------------------------------
# residuals, curvature, multiplier estimates
# ---------------------------------------------------------------------------

def _normal_gradient(v: np.ndarray, potential: Potential, lam: float
                     ) -> Tuple[np.ndarray, np.ndarray, _Pass]:
    """Interior normals N, the normal gradient g_n of E - lam * area at the
    interior vertices, and the `_one_pass` evaluation of v at rho = 0."""
    one = _one_pass(v, potential, 0.0, lam, 0.0)
    N = vertex_normals(v)[1:-1]
    return N, np.einsum("ij,ij->i", one.g, N), one


def _scaled_residual(v: np.ndarray, potential: Potential, lam: float,
                     gn: np.ndarray, geo: SegmentGeometry
                     ) -> Tuple[float, np.ndarray]:
    """Size of the normal gradient gn of `_normal_gradient` in
    `el_residual`'s normalization, and F at the interior vertices.

    The local scale is |grad F| + |lam| + F * (discrete turning rate), times
    the mean spacing s of the two adjacent segments; the size is
    max |g_n| / scale over the interior vertices (0 where the scale
    vanishes).
    """
    Fv, gFv = potential.density(v[1:-1])
    s = 0.5 * (geo.L[:-1] + geo.L[1:])
    turn = _row_norms(geo.T[1:] - geo.T[:-1]) / s
    scale = s * (_row_norms(gFv) + abs(lam) + Fv * turn)
    res = np.where(scale > 0.0, np.abs(gn) / np.maximum(scale, 1e-300), 0.0)
    return float(res.max()), Fv


def el_residual(curve: Curve, potential: Potential, lam: float) -> float:
    """Normalized stationarity defect of the discrete Lagrange system.

    Evaluated on the polyline as given: the defect at an interior vertex is
    the normal component of grad_E - lam * grad_area against the natural
    local scale |grad F| + |lam| + F * (discrete turning rate), all per
    unit of parameter.  Only the normal component is the Lagrange
    condition; the tangential one is parametrization gauge, zero in the
    continuum for any curve.  Straight flat geodesics score zero, a flat
    circle with lam = 0 scores order one, and consistent samplings of
    exact critical curves score at truncation level even next to a well
    endpoint, where forcing a uniform weighted-arclength grid first would
    pin an order-one artifact on the adjacent vertex.  A multiplier that
    is not finite raises ValueError: the scale it enters has no size.
    """
    if not math.isfinite(lam):
        raise ValueError(f"the multiplier {lam} must be finite")
    v = curve.vertices
    if len(v) < 3:
        return 0.0
    _, gn, one = _normal_gradient(v, potential, lam)
    res, Fv = _scaled_residual(v, potential, lam, gn, one.geo)
    if np.any(Fv <= 0.0):
        raise ZeroDensityInterior("density vanishes at an interior vertex")
    return res


def geodesic_curvature(curve: Curve, potential: Potential) -> np.ndarray:
    """Per-interior-vertex geodesic curvature of the weighted metric."""
    v = curve.vertices
    Fv, gFv = potential.density(v[1:-1])
    if np.any(Fv <= 0.0):
        raise ZeroDensityInterior("density vanishes at an interior vertex")
    geo = segment_geometry(v, potential, derivatives=True)
    Fm, T = geo.F, geo.T
    s = 0.5 * (geo.L[:-1] + geo.L[1:])
    dFT = Fm[1:, None] * T[1:] - Fm[:-1, None] * T[:-1]
    tbar = T[:-1] + T[1:]
    tl = np.maximum(np.linalg.norm(tbar, axis=1), 1e-300)
    tbar = tbar / tl[:, None]
    nperp = np.stack([-tbar[:, 1], tbar[:, 0]], axis=1)
    kg = (np.einsum("ij,ij->i", dFT, nperp) / s
          - np.einsum("ij,ij->i", gFv, nperp)) / Fv**2
    return kg


def estimate_multiplier(curve: Curve, potential: Potential
                        ) -> Tuple[float, float]:
    """Median and interquartile range of F^2 * geodesic curvature."""
    v = curve.vertices
    kg = geodesic_curvature(curve, potential)
    F2 = potential.eval_W(v[1:-1])
    vals = F2 * kg
    lam = float(np.median(vals))
    q75, q25 = np.percentile(vals, [75.0, 25.0])
    return lam, float(q75 - q25)


# ---------------------------------------------------------------------------
# leakage diagnostics
# ---------------------------------------------------------------------------

def _probe_radii(potential: Potential, p: np.ndarray, q: np.ndarray
                 ) -> List[float]:
    """The leakage probe radii of `detect_area_leakage`, largest first."""
    scale = potential.length_scale(p, q)
    return [r * scale for r in (1e-1, 1e-2, 1e-3)]


def detect_area_leakage(result: SolveResult, potential: Potential) -> dict:
    """Per-well, per-radius account of area and arclength near the wells.

    The probe radii are 1e-1, 1e-2 and 1e-3 times the well separation, or
    times the chord |p_plus - p_minus| with fewer than two wells.  On a
    certificate the loop's segments count `loop_count` times each.  The
    report measures and does not judge: {"wells": [...]}, each well with its
    `index`, its `levels` (radius, area_in, arclength_in) and `flagged`,
    true only at the well holding a certificate's loops.
    """
    v = result.curve.vertices
    radii = _probe_radii(potential, v[0], v[-1])
    geo = segment_geometry(v)
    seg, L, mid = geo.seg, geo.L, geo.mid
    packed = result.packed
    mult = np.ones(L.size) if packed is None else packed.multiplicity(L.size)
    wells_report = []
    for i, well in enumerate(potential.wells):
        d = np.linalg.norm(mid - well.location, axis=1)
        levels = []
        for r in radii:
            inside = d < r
            # area form recentered on the well: exact for loops closed
            # around it and immune to the global choice of origin
            area_in = float(np.sum((mid[inside, 0] - well.location[0])
                                   * seg[inside, 1] * mult[inside]))
            levels.append({"radius": float(r),
                           "area_in": area_in,
                           "arclength_in": float(np.sum(L[inside]
                                                        * mult[inside]))})
        wells_report.append({"index": i, "levels": levels, "flagged":
                             packed is not None and packed.well == i})
    return {"wells": wells_report}


# ---------------------------------------------------------------------------
# certificate for the non-existence regime
# ---------------------------------------------------------------------------

def _packed_certificate(p: np.ndarray, q: np.ndarray, A: float,
                        potential: Potential, n: int
                        ) -> Optional[SolveResult]:
    """Trunk plus the whole area excess parked in loops at one well.

    Straight legs run from p to an anchor on the first axis e1 of the
    cheapest well's frame and on to q, each resampled toward the wells by
    `_remesh` like every start curve: the longer leg has the solve's n
    vertices and the shorter max(2, ceil((n - 1) L_short / L_long) + 1).
    `loop_count` loops around the well, each from the anchor back to it,
    hold the rest of the area.  A loop is the diamond through +-kappa r e1
    and +-(r / kappa) e2, kappa = (lambda2 / lambda1)^(1/4), anchored at
    +kappa r e1.  It holds 2 r^2, and its vertices lie on a level ellipse
    of the well's quadratic, so it packs area at the well's rate
    lambda1 + lambda2 as r -> 0.  Its widest vertex stays inside 0.85
    times the smallest leakage probe radius.  The curve holds the loop
    once and `SolveResult.packed` its multiplicity and its anchor vertex.
    The loop's energy and area, each evaluated once, give the totals (the
    curve's plus loop_count - 1 more loops) and the multiplier, the loops'
    marginal cost signed like A.  Areas are taken about the well, so that
    its coordinates do not swallow the loop's digits: the loop's from the
    diamond in the frame, the curve's from its vertices less the well's.
    The result is flagged, and the EL residual and the leakage report are
    left to _finish.  Returns None when no well is available, when the
    written loop's area rounds to 0 (its radius is lost against the well's
    coordinates at a tiny excess) or when no loop radius meets A to the
    area tolerance.  Raises ValueError naming A when the loop count passes
    floating point.
    """
    if not potential.wells:
        return None
    lam_sums = [w.lambda1 + w.lambda2 for w in potential.wells]
    i_well = int(np.argmin(lam_sums))
    well = potential.wells[i_well]
    kappa = (well.lambda2 / well.lambda1) ** 0.25
    e1, e2 = well.frame.T
    rho = 0.85 * min(_probe_radii(potential, p, q)) / kappa

    # areas are taken about the well o, whose coordinates would swallow
    # the loop's digits: an open curve from p to q holds
    # area(v - o) + o1 (q2 - p2)
    o = well.location
    anchor = o + kappa * rho * e1
    L_in, L_out = math.dist(p, anchor), math.dist(anchor, q)
    n_short = max(2, math.ceil((n - 1) * min(L_in, L_out)
                               / max(L_in, L_out)) + 1)
    n_in, n_out = (n, n_short) if L_in >= L_out else (n_short, n)
    leg_in = _straight(p, anchor, n_in)
    leg_out = _straight(anchor, q, n_out)
    # a leg of length 0, from an endpoint at the anchor, has nothing to
    # grade and no weight for `_remesh` to spread
    if L_in:
        leg_in = _remesh(leg_in, potential)
    if L_out:
        leg_out = _remesh(leg_out, potential)
    shift = float(o[0]) * float(q[1] - p[1])
    a_trunk = area(Curve(np.vstack([leg_in, leg_out[1:]]) - o)) + shift
    payload = A - a_trunk
    if payload == 0.0:
        return None
    sign = 1 if payload > 0.0 else -1
    try:
        n_loops = math.ceil(abs(payload) / (2.0 * rho * rho))
    except (OverflowError, ZeroDivisionError):
        # the count passes floating point, or rho * rho underflows to 0
        raise ValueError(f"the packed certificate for the area {A:g} needs "
                         f"more loops than floating point counts") from None
    # moving the anchor to kappa r e1 changes the trunk's area by
    # beta * (r - rho) through its two anchor segments, and each loop holds
    # sign * 2 r^2, so r solves 2 n r^2 + b r = |payload| + b rho with
    # b = sign * beta
    dx, dy = leg_out[1] - leg_in[-2]
    b = sign * 0.5 * kappa * float(e1[0] * dy - e1[1] * dx)
    c = abs(payload) + b * rho
    if not c > 0.0:
        return None
    root = math.sqrt(b * b + 8.0 * n_loops * c)
    r = 2.0 * c / (b + root) if b >= 0.0 else (root - b) / (4.0 * n_loops)
    # 8 n c overflows once |A| nears 1.3e154 (1e153 for some b < 0),
    # sending r to 0 or to inf
    if not 0.0 < r < math.inf:
        return None
    # anchor -> +e2 -> -e1 -> -e2 -> anchor in the frame's coordinates,
    # counterclockwise in the plane for sign +1 (the frame may reflect)
    turn = sign if e1[0] * e2[1] > e1[1] * e2[0] else -sign
    a1, a2 = kappa * r, turn * r / kappa
    xy = np.array([[a1, 0.0], [0.0, a2], [-a1, 0.0], [0.0, -a2], [a1, 0.0]])
    diamond = xy[:, :1] * e1 + xy[:, 1:] * e2
    curve = Curve(np.vstack([leg_in[:-1], diamond + o, leg_out[1:]]))
    packed = PackedLoops(well=i_well, loop_radius=r, loop_count=n_loops,
                         orientation=sign, anchor=n_in - 1)
    loop = packed.loop(curve)
    if area(loop) == 0.0:  # r is lost against the well's coordinates
        return None
    # a closed loop's area does not depend on the origin
    a_loop = area(Curve(diamond))
    # the curve runs the loop once; the certificate loop_count times
    a = area(Curve(curve.vertices - o)) + shift + (n_loops - 1) * a_loop
    if abs(a - A) > _area_tol(A):
        return None
    e_loop = energy(loop, potential)
    E = energy(curve, potential) + (n_loops - 1) * e_loop
    return SolveResult(curve, E, a, math.copysign(e_loop / abs(a_loop), A),
                       A, packed)


def _end_rate(p: np.ndarray, q: np.ndarray, potential: Potential) -> float:
    """Smallest packing rate lambda1 + lambda2 of a well at p or q; inf
    when no well sits at either."""
    return min((w.lambda1 + w.lambda2 for w in potential.wells
                if np.array_equal(w.location, p)
                or np.array_equal(w.location, q)), default=math.inf)


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

def _finish(result: SolveResult, potential: Potential) -> SolveResult:
    """Fill in the EL residual, inf where the multiplier is not finite or
    the density vanishes at an interior vertex, and the leakage report."""
    result.el_residual_max = math.inf
    if math.isfinite(result.multiplier):
        try:
            result.el_residual_max = el_residual(result.curve, potential,
                                                 result.multiplier)
        except ZeroDensityInterior:
            pass
    result.leakage_report = detect_area_leakage(result, potential)
    return result


def _endpoints(p_minus, p_plus, A: Optional[float]
               ) -> Tuple[np.ndarray, np.ndarray]:
    """Endpoints as arrays; rejects a non-finite area (A=None is none) and
    endpoints that are not finite points (p1, p2) or closer than floating
    point resolves."""
    try:
        p, q = (np.asarray(e, dtype=float) for e in (p_minus, p_plus))
    except (TypeError, ValueError, OverflowError):
        p = q = np.empty(0)
    if p.shape != (2,) or q.shape != (2,):
        raise ValueError(f"endpoints {p_minus} and {p_plus} must be points "
                         f"(p1, p2)")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))
            and (A is None or math.isfinite(A))):
        raise ValueError("endpoints and area must be finite")
    # a squared distance that is 0 or subnormal has lost the chord's direction
    if not math.dist(p, q) >= math.sqrt(np.finfo(float).tiny):
        raise ValueError(f"endpoints {p.tolist()} and {q.tolist()} must be "
                         f"farther apart than floating point resolves")
    return p, q


def _warm_start(init_curve: Curve, p: np.ndarray, q: np.ndarray
                ) -> np.ndarray:
    """Vertices of a warm start; rejects one that does not run from p to q."""
    v = init_curve.vertices
    if v.shape[0] < 3 or not np.all(np.isfinite(v)):
        raise ValueError("init_curve must have at least 3 finite vertices")
    if not (np.array_equal(v[0], p) and np.array_equal(v[-1], q)):
        raise ValueError("init_curve must run from p_minus to p_plus")
    return v


def minimize_constrained(p_minus, p_plus, A: Optional[float],
                         potential: Potential,
                         config: Optional[SolverConfig] = None,
                         init_curve: Optional[Curve] = None,
                         init_multiplier: float = 0.0) -> SolveResult:
    """Area-constrained weighted-length minimization between two points.

    A=None asks for the geodesic gamma0 from p_minus to p_plus: the
    straight and two arched starts, the area gap taken as 0 and no
    certificate; the result reports its own area as `A_target`, with
    multiplier 0.0.

    Solves from each start with `_augmented_lagrangian`: the warm start
    `init_curve` (a curve from p_minus to p_plus, with multiplier estimate
    init_multiplier) when given, then the bump starts.  Each start runs the
    augmented-Lagrangian loop until the KKT Newton polish converges on a
    mesh graded toward the wells, and ends there.  The first best result
    by feasibility, then polish success, then energy wins, and the result
    is converged only when the winner is both.  The returned multiplier is
    the polish's, lambda = d(energy)/d(area).

    When the potential has wells, the packed certificate is built once,
    before the starts, and replaces the winner exactly when it is strictly
    cheaper; in the non-existence regime the result is that certificate
    (`packed` set, not converged, flagged) instead of a fabricated
    minimizer.  Only the returned result is finished with its
    diagnostics.

    A start that ends feasible and polished ends the search, skipping the
    remaining starts, in three cases:
    - it is the warm start;
    - |lambda| is above the smallest packing rate lambda1 + lambda2 of a well
      at p_minus or p_plus, so it is no minimizer, and the certificate is
      strictly cheaper (logged at debug level);
    - its energy E_j is within _START_AGREEMENT * |E_j| of an earlier
      feasible, polished start, so it reached that start's critical curve
      (logged at debug level).

    A start that overflows floating point raises ValueError naming A, or
    both endpoints for A=None; a non-finite init_multiplier, or a nonzero
    one for A=None, raises it before any start runs.
    """
    config = config or SolverConfig()
    p, q = _endpoints(p_minus, p_plus, A)
    if not math.isfinite(init_multiplier):
        raise ValueError(f"init_multiplier {init_multiplier} must be finite")
    if A is None and init_multiplier:
        raise ValueError(f"init_multiplier {init_multiplier} must be 0 "
                         f"without an area")
    what = f"from {p} to {q}" if A is None else f"for the area {A:g}"
    tol_c = _area_tol(A)

    # starts as (vertices, multiplier, warm): a warm start runs first and
    # ends the search when it converges; if it goes astray the cold starts
    # still get their shot.  init_multiplier is the first start's, warm or not
    inits = _bump_inits(p, q, A, config.n_vertices)
    if init_curve is not None:
        inits.insert(0, _warm_start(init_curve, p, q))
    # an area past floating-point reach overflows the bump starts or the
    # penalty at the warm start; such starts are dropped
    starts = [(v0, init_multiplier if i == 0 else 0.0,
               i == 0 and init_curve is not None) for i, v0 in enumerate(inits)
              if _finite_start(v0, potential, A, _PENALTY_START)]
    if not starts:
        raise ValueError(f"no start curve {what} can be evaluated in "
                         f"floating point")

    certificate = None if A is None else _packed_certificate(
        p, q, A, potential, config.n_vertices)
    rate_end = _end_rate(p, q, potential)
    # (infeasible, failed, energy, vertices, lam) per start run
    outcomes = []
    for j, (v0, lam0, warm) in enumerate(starts):
        # a start can pass _finite_start and still overflow once the penalty
        # and the multiplier grow, at an area near floating-point reach
        try:
            with np.errstate(over="raise"):
                v, lam, c, ok = _augmented_lagrangian(v0, potential, A, lam0)
        except FloatingPointError as exc:
            raise ValueError(f"the solve {what} overflows floating "
                             f"point") from exc
        E = energy(Curve(v), potential)
        feasible = abs(c) <= tol_c
        log.debug("start %d: energy %.12g, feasible %s, ok %s",
                  j, E, feasible, ok)
        outcomes.append((not feasible, not ok, E, v, lam))
        # a polish that converged met the area tolerance too
        if not ok:
            continue
        if warm:
            break
        left = len(starts) - j - 1
        if (abs(lam) > rate_end and certificate is not None
                and certificate.energy < E):
            log.debug("multiplier %.6g of start %d passes the endpoint "
                      "packing rate %.6g and the certificate costs %.12g: "
                      "skipping the %d remaining starts",
                      lam, j, rate_end, certificate.energy, left)
            break
        # earlier feasible, polished starts on the same critical curve
        same = [i for i, (_, failed, E_i, _, _) in enumerate(outcomes[:j])
                if not failed and abs(E - E_i) <= _START_AGREEMENT * abs(E)]
        if same and left:
            log.debug("start %d agrees with start %d within %.3g relative "
                      "energy: skipping the %d remaining starts", j, same[0],
                      abs(E - outcomes[same[0]][2]) / abs(E), left)
            break
    # the first minimum wins
    j = min(range(len(outcomes)), key=lambda i: outcomes[i][:3])
    *_, E, v, lam = outcomes[j]
    others = [o[2] for i, o in enumerate(outcomes) if i != j]
    if others:
        # negative when a cheaper start lost on feasibility or polish
        log.debug("start %d of %d won; next cheapest start is %.3g higher "
                  "in relative energy", j, len(outcomes),
                  (min(others) - E) / max(abs(E), 1e-300))
    else:
        log.debug("start %d of %d won unopposed", j, len(outcomes))

    curve = Curve(v)
    a = area(curve)
    result = SolveResult(curve, E, a, lam, a if A is None else A)
    if certificate is not None and certificate.energy < result.energy:
        log.info("adopting packed certificate: energy %.6g vs %.6g",
                 certificate.energy, result.energy)
        result = certificate
    return _finish(result, potential)


def area_sweep(p_minus, p_plus, A_list: Sequence[float], potential: Potential,
               config: Optional[SolverConfig] = None) -> List[dict]:
    """Warm-started family of constrained solves over sorted area values.

    Each row reports the achieved energy and multiplier plus the centered
    finite-difference energy slope where both neighbors converged (None at
    the ends or next to failures); the slope should track the multiplier.
    """
    config = config or SolverConfig()
    As = sorted(float(a) for a in A_list)
    rows = []
    prev_curve, prev_lam = None, 0.0
    for A in As:
        res = minimize_constrained(p_minus, p_plus, A, potential, config,
                                   init_curve=prev_curve,
                                   init_multiplier=prev_lam)
        if res.converged:
            prev_curve, prev_lam = res.curve, res.multiplier
        else:
            prev_curve, prev_lam = None, 0.0
        rows.append({"A": A, "energy": res.energy,
                     "multiplier": res.multiplier,
                     "converged": res.converged,
                     "flagged": res.nonexistence_suspected,
                     "result": res})
    for i, row in enumerate(rows):
        row["slope_fd"] = None
        if 0 < i < len(rows) - 1:
            left, right = rows[i - 1], rows[i + 1]
            if left["converged"] and right["converged"]:
                dA = right["A"] - left["A"]
                if dA > 0:
                    row["slope_fd"] = (right["energy"] - left["energy"]) / dA
    return rows
