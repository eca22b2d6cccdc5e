"""Constrained polyline minimization for weighted length with an area
constraint.

The curve is a polyline with pinned endpoints and free interior vertices.
Weighted length E and signed area are the midpoint-rule discretizations from
the functionals module, both with exact analytic gradients, so the discrete
optimality system is an honest finite-dimensional Lagrange system: at a
stationary point grad(E) = lambda * grad(area) with lambda = -mu, the
negative of the multiplier of E + mu * (area - A).

Each iterate is evaluated in one pass (`_one_pass`): the chords, lengths and
midpoints are formed once, W and grad W come from one call at the
midpoints, and E, the area and both interior gradients follow, bit for bit
equal to `discrete_energy_gradient` and `discrete_area_gradient`.  The
L-BFGS-B objective, every polish evaluation, `el_residual` and the start
energies use it, and the polish Hessian reuses the geometry and density of
the evaluation it was accepted at.

An augmented-Lagrangian outer loop around L-BFGS-B on the interior vertices
brings each start near feasibility and hands it to a damped Newton polish as
soon as that polish converges; the polish solves the KKT system for the
vertex-normal offsets and mu, one tridiagonal solve with a scalar border per
step, and stops on the normal gradient in `el_residual`'s normalization.
Every resample, between inner solves and before each polish, grades the
mesh toward the wells (`_remesh`), so a start ends on that mesh: a curve
that ends at a well spirals into it, and spacing by weighted length alone
leaves those turns to a few vertices.

When the requested area is not attainable there is no minimizer: minimizing
sequences park the area excess in vanishing loops at the cheapest well, at
the limiting cost trunk + (lambda1 + lambda2) * |excess|.  After the
standard solve the driver builds that limit as a certificate (a trunk curve
running one small square loop at the well, plus a `PackedLoops` count of how
often the polyline it stands for runs the loop) and adopts it when it is
strictly cheaper; it is reported as not converged, and the leakage
diagnostics raise the non-existence flag.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import LinAlgError, solve_banded
from scipy.optimize import minimize as _scipy_minimize

from .errors import NonConvergence, ZeroDensityInterior
from .functionals import (Curve, SegmentGeometry, area, energy,
                          segment_geometry)
from .potential import Potential

log = logging.getLogger("degeo.solver")

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
# Newton steps of the polish
_NEWTON_ITERATIONS = 150
# the AL loop hands a start to the Newton polish once the area gap is this
# small relative to 1 + |A|, trying again only when the gap falls a decade
_HANDOFF_GAP = 1e-2
# stopping level of every Newton polish: the normal gradient in
# el_residual's normalization
_TOL_EL = 1e-9


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

    The certificate curve runs one square loop of vertex radius
    `loop_radius` around well `well`, in its four segments from vertex
    `anchor` back to the same point; counterclockwise for orientation +1.
    The polyline it stands for runs that loop `loop_count` times.
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
    curve: Curve
    energy: float
    area_achieved: float
    multiplier: float
    el_residual_max: float
    leakage_report: dict
    converged: bool
    nonexistence_suspected: bool
    A_target: float
    # set on a non-existence certificate: `curve` then holds its loop once
    packed: Optional[PackedLoops] = None

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
                             "orientation": self.packed.orientation}
        return out


# ---------------------------------------------------------------------------
# discrete functionals with gradients
# ---------------------------------------------------------------------------

def discrete_energy_gradient(vertices: np.ndarray, potential: Potential
                             ) -> Tuple[float, np.ndarray]:
    """Midpoint-rule weighted length and its gradient in every vertex."""
    geo = segment_geometry(vertices, potential, floor=1e-300, tangents=True,
                           gradient=True)
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
    """One evaluation of the discrete functionals at a vertex array."""

    E: float
    area: float
    gE: np.ndarray   # gradient of E at the interior vertices
    gA: np.ndarray   # gradient of the area at the interior vertices
    geo: SegmentGeometry


def _one_pass(v: np.ndarray, potential: Potential) -> _Pass:
    """E, the area and their interior gradients from one pass over v.

    The chords, lengths and midpoints are formed once and W and grad W come
    from one evaluation at the midpoints.  Every value equals, bit for bit,
    the one `discrete_energy_gradient` and `discrete_area_gradient` give,
    so callers may form the gradient of E + w * area as gE + w * gA.
    """
    geo = segment_geometry(v, potential, floor=1e-300, tangents=True,
                           gradient=True)
    half = 0.5 * geo.gF * geo.L[:, None]
    FT = geo.F[:, None] * geo.T
    gE = (half - FT)[1:] + (half + FT)[:-1]
    seg2, mid1 = geo.seg[:, 1], geo.mid[:, 0]
    half2 = 0.5 * seg2
    gA = np.empty_like(gE)
    gA[:, 0] = half2[1:] + half2[:-1]
    gA[:, 1] = mid1[:-1] - mid1[1:]
    return _Pass(float((geo.F * geo.L).sum()),
                 float((mid1 * seg2).cumsum()[-1]), gE, gA, geo)


def _lagrangian_hessian(geo: SegmentGeometry, potential: Potential, w: float
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-segment 2x2 Hessian blocks of energy + w * area.

    Segment k joins vertices k and k+1; `aa` holds its second derivatives
    in vertex k twice, `bb` in vertex k+1 twice and `ab` in k, then k+1.
    Built from the exact second derivatives of F(mid)*L and of the
    midpoint area rule, on the chords, midpoints, F and grad F of `geo`
    (from `_one_pass`); the sqrt in F = sqrt(W) gives
    hess F = (hess W / 2 - grad F grad F^T) / F, so L and F are floored
    away from zero (the Newton loop is damped anyway, inexactness there is
    harmless).
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
    aa = np.array([[0.0, -0.5], [-0.5, 0.0]])
    bb = np.array([[0.0, 0.5], [0.5, 0.0]])
    ab = np.array([[0.0, 0.5], [-0.5, 0.0]])
    return (core - sym + FPL + w * aa, core + sym + FPL + w * bb,
            core + asym - FPL + w * ab)


def _normal_hessian(geo: SegmentGeometry, potential: Potential, w: float,
                    N: np.ndarray) -> np.ndarray:
    """Hessian of energy + w * area along the interior normals N.

    Moving interior vertex i along N_i only couples it to its neighbors,
    so the matrix is tridiagonal: diagonal N_i^T (bb[i-1] + aa[i]) N_i and
    off-diagonal N_i^T ab[i] N_{i+1}.  Returned in the (3, n-2) band
    layout of `scipy.linalg.solve_banded((1, 1), ...)`.
    """
    aa, bb, ab = _lagrangian_hessian(geo, potential, w)
    band = np.zeros((3, N.shape[0]))
    band[1] = np.einsum("ij,ijk,ik->i", N, bb[:-1] + aa[1:], N)
    off = np.einsum("ij,ijk,ik->i", N[:-1], ab[1:-1], N[1:])
    band[0, 1:] = off
    band[2, :-1] = off
    return band


def vertex_normals(v: np.ndarray) -> np.ndarray:
    """Unit leftward normals at every vertex, from averaged chord tangents."""
    n = v.shape[0]
    t = np.empty_like(v)
    t[0] = v[1] - v[0]
    t[-1] = v[-1] - v[-2]
    t[1:-1] = v[2:] - v[:-2]
    nrm = np.linalg.norm(t, axis=1)
    nrm = np.maximum(nrm, 1e-300)
    t /= nrm[:, None]
    return np.stack([-t[:, 1], t[:, 0]], axis=1)


def _newton_polish(v: np.ndarray, potential: Potential, A: Optional[float],
                   lam: float) -> Tuple[np.ndarray, float, float, float, int]:
    """Damped Newton on the KKT system of E + lam * (area - A).

    The full-coordinate problem is gauge degenerate: sliding vertices along
    the curve is free, so Newton (and quasi-Newton) steps drift vertices
    into stacks and never reach tight stationarity.  Each step moves every
    interior vertex along its normal only, which removes the gauge modes
    and leaves the tridiagonal Hessian H of `_normal_hessian`; the area
    constraint borders it with the normal area gradient u.  One banded
    solve gives H d0 = -g_n and H d_u = u; the border row u.d = -c then
    fixes dlam = (u.d0 + c) / (u.d_u) and the step d = d0 - dlam d_u.
    Normals are recomputed after every accepted step.  A=None solves
    without the border (lam stays as given).

    A step is accepted when it lowers max(|g_n|, |c|), and the polish stops
    by `_polish_converged`, on g_n in `el_residual`'s normalization.
    Returns the vertices, lam, the final max over interior vertices of that
    residual, the area gap c (0 for A=None) and the number of accepted
    steps.
    """
    tol_c = 0.0 if A is None else _TOL_AREA * (1.0 + abs(A))

    def evaluate(v, lam):
        N, gn, un, a, res, _, geo = _normal_residual(v, potential, lam)
        return N, gn, un, 0.0 if A is None else a - A, res, geo

    N, gn, un, c, res, geo = evaluate(v, lam)
    lm = 1e-9
    steps = 0
    for _ in range(_NEWTON_ITERATIONS):
        err = max(float(np.abs(gn).max()), abs(c))
        if not math.isfinite(err):
            raise NonConvergence("newton polish produced non-finite values")
        if _polish_converged(res, c, tol_c):
            break
        band = _normal_hessian(geo, potential, lam, N)
        # keep each vertex within a fraction of its local spacing so
        # normal moves of neighbors cannot collide into a stack
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
            trial = evaluate(vt, lam + dlam)
            gnt, ct = trial[1], trial[3]
            if max(float(np.abs(gnt).max()), abs(ct)) < err:
                v, lam = vt, lam + dlam
                N, gn, un, c, res, geo = trial
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

def _inner_solve(v0: np.ndarray, potential: Potential, A: float, mu: float,
                 rho: float) -> Tuple[np.ndarray, bool, int]:
    """One L-BFGS-B pass on E + mu*(area-A) + rho/2*(area-A)^2.

    Runs on the interior vertices as they are.  Inexact: at most
    _INNER_ITERATIONS iterations, since the Newton polish finishes the
    start.  Returns the vertices, L-BFGS-B's success flag and its
    iteration count.
    """
    v = v0.copy()

    def objective(x):
        v[1:-1] = x.reshape(-1, 2)
        E, a, gE, gA, _ = _one_pass(v, potential)
        c = a - A
        phi = E + mu * c + 0.5 * rho * c * c
        return phi, (gE + (mu + rho * c) * gA).ravel()

    res = _scipy_minimize(objective, v0[1:-1].ravel(), jac=True,
                          method="L-BFGS-B",
                          options={"maxiter": _INNER_ITERATIONS,
                                   "maxfun": 4 * _INNER_ITERATIONS,
                                   "maxcor": 20,
                                   "maxls": 40,
                                   "ftol": 1e-13,
                                   "gtol": _TOL_GRAD})
    if not np.all(np.isfinite(res.x)):
        raise NonConvergence("inner minimization produced non-finite vertices")
    v[1:-1] = res.x.reshape(-1, 2)
    return v, bool(res.success), int(res.nit)


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
        wells = np.array([w.location for w in potential.wells])
        d = np.linalg.norm(geo.mid[:, None, :] - wells[None], axis=2).min(1)
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


def _augmented_lagrangian(v0: np.ndarray, potential: Potential, A: float,
                          mu0: float = 0.0
                          ) -> Tuple[np.ndarray, float, float, bool]:
    """Solve from one start; returns (vertices, mu, area gap, polish ok).

    The outer loop updates the multiplier mu around an inexact L-BFGS-B
    inner solve of the penalized objective, raising the penalty rho
    whenever the area gap fails to shrink fourfold, and remeshes between
    inner solves.  Once the gap is below _HANDOFF_GAP relative to 1 + |A|
    (and again at each further decade) it tries the KKT Newton polish on
    the remeshed curve and stops at the first that converges.  Otherwise
    it polishes after the last outer iteration, or after the first at
    which the gap again fails to shrink with rho already at _PENALTY_CAP,
    since more outer iterations would not move it.  Every resample is the
    graded `_remesh`, so the start ends on a mesh graded toward the wells.
    `ok` says whether the polish got the normal gradient and the area gap
    to tolerance.
    """
    v = v0.copy()
    mu, rho = mu0, _PENALTY_START
    scale = 1.0 + abs(A)
    tol_c = _TOL_AREA * scale
    c_prev = np.inf
    polished, tried = None, math.inf
    for k in range(_OUTER_ITERATIONS):
        v, _, nit = _inner_solve(v, potential, A, mu, rho)
        c = area(Curve(v)) - A
        log.debug("outer iteration %d: mu %.6g, rho %.3g, area gap %.3g, "
                  "%d inner iterations", k, mu, rho, abs(c), nit)
        mu += rho * c
        if abs(c) <= tol_c:
            break
        gap = abs(c) / scale
        if gap <= _HANDOFF_GAP and math.floor(math.log10(gap)) < tried:
            tried = math.floor(math.log10(gap))
            try:
                attempt = _newton_polish(_remesh(v, potential), potential, A,
                                         mu)
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
            # it does not steady mu, which gap noise still moves by rho * c
            rho = min(rho * _PENALTY_FACTOR, _PENALTY_CAP)
        c_prev = c
        v = _remesh(v, potential)
    if polished is None:
        # remesh toward the wells, then Newton on the KKT system in
        # normal coordinates, which takes over the multiplier
        polished = _newton_polish(_remesh(v, potential), potential, A, mu)
        log.debug("no handoff; polish after %d outer iterations took %d "
                  "steps", k + 1, polished[4])
    v, mu, res, c, _ = polished
    return v, mu, c, _polish_converged(res, c, tol_c)


# ---------------------------------------------------------------------------
# initial curves
# ---------------------------------------------------------------------------

def _straight(p: np.ndarray, q: np.ndarray, n: int) -> np.ndarray:
    t = np.linspace(0.0, 1.0, n)[:, None]
    return (1.0 - t) * p + t * q


def _bump_inits(p: np.ndarray, q: np.ndarray, A: float, n: int
                ) -> List[np.ndarray]:
    """Straight segment plus one smooth transverse bump per candidate shape.

    The discrete area is exactly affine in the bump amplitude (the quadratic
    self-term telescopes to zero for a profile vanishing at both ends), so
    the amplitude meeting the target area is solved for directly.
    """
    base = _straight(p, q, n)
    chord = q - p
    nrm = np.array([-chord[1], chord[0]])
    nl = np.linalg.norm(nrm)
    if nl == 0.0:
        raise ValueError("endpoints must differ")
    nrm = nrm / nl
    t = np.linspace(0.0, 1.0, n)
    a0, _ = discrete_area_gradient(base)
    if abs(A - a0) <= 1e-12 * (1.0 + abs(A)):
        # every bump would have amplitude 0
        return [base]
    inits = []
    for shape in (t * (1.0 - t), t * t * (1.0 - t), t * (1.0 - t) ** 2):
        cand = base + shape[:, None] * nrm
        a1, _ = discrete_area_gradient(cand)
        if a1 != a0:
            h = (A - a0) / (a1 - a0)
            inits.append(base + (h * shape)[:, None] * nrm)
    return inits or [base]


# ---------------------------------------------------------------------------
# residuals, curvature, multiplier estimates
# ---------------------------------------------------------------------------

def _normal_residual(v: np.ndarray, potential: Potential, w: float
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float,
                                float, np.ndarray, SegmentGeometry]:
    """Normal gradient of E + w * area at the interior vertices, and its
    size in `el_residual`'s normalization.

    The local scale is |grad F| + |w| + F * (discrete turning rate), times
    the mean spacing s of the two adjacent segments.  Returns the interior
    normals N, the normal gradient g_n, the normal area gradient, the area,
    max |g_n| / scale (0 where the scale vanishes), F at the interior
    vertices and the segment geometry of `_one_pass`.
    """
    Fv, gFv = potential.density(v[1:-1])
    _, a, gE, gA, geo = _one_pass(v, potential)
    s = 0.5 * (geo.L[:-1] + geo.L[1:])
    turn = np.linalg.norm(geo.T[1:] - geo.T[:-1], axis=1) / s
    scale = s * (np.linalg.norm(gFv, axis=1) + abs(w) + Fv * turn)
    N = vertex_normals(v)[1:-1]
    gn = np.einsum("ij,ij->i", gE + w * gA, N)
    un = np.einsum("ij,ij->i", gA, N)
    res = np.where(scale > 0.0, np.abs(gn) / np.maximum(scale, 1e-300), 0.0)
    return N, gn, un, a, float(res.max()), Fv, geo


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
    pin an order-one artifact on the adjacent vertex.
    """
    v = curve.vertices
    if len(v) < 3:
        return 0.0
    *_, res, Fv, _ = _normal_residual(v, potential, -lam)
    if np.any(Fv <= 0.0):
        raise ZeroDensityInterior("density vanishes at an interior vertex")
    return res


def geodesic_curvature(curve: Curve, potential: Potential) -> np.ndarray:
    """Per-interior-vertex geodesic curvature of the weighted metric."""
    v = curve.vertices
    Fv, gFv = potential.density(v[1:-1])
    if np.any(Fv <= 0.0):
        raise ZeroDensityInterior("density vanishes at an interior vertex")
    geo = segment_geometry(v, potential, floor=1e-300, tangents=True)
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

def _probe_radii(potential: Potential, chord: float) -> List[float]:
    """The leakage probe radii of `detect_area_leakage`, largest first."""
    sep = potential.well_separation() or chord
    return [r * sep for r in (1e-1, 1e-2, 1e-3)]


def detect_area_leakage(result: SolveResult, potential: Potential) -> dict:
    """Per-well, per-radius account of area and arclength near the wells.

    The probe radii are 1e-1, 1e-2 and 1e-3 times the well separation, or
    times the chord |p_plus - p_minus| with fewer than two wells.  Flags
    non-existence when the area parked inside a well neighborhood refuses
    to shrink with the neighborhood (consecutive ratio > 0.5 down all the
    radii) while the reported multiplier sits within 10 percent of that
    well's packing rate lambda1 + lambda2.  On a certificate the loop's
    segments count `loop_count` times each.
    """
    v = result.curve.vertices
    scale = float(np.linalg.norm(v[-1] - v[0])) or 1.0
    radii = _probe_radii(potential, scale)
    geo = segment_geometry(v)
    seg, L, mid = geo.seg, geo.L, geo.mid
    mult = (np.ones(L.size) if result.packed is None
            else result.packed.multiplicity(L.size))
    a_scale = 1.0 + abs(result.A_target)
    wells_report = []
    flagged_any = False
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
        areas = [lv["area_in"] for lv in levels]
        ratios = []
        for a_prev, a_next in zip(areas, areas[1:]):
            ratios.append(abs(a_next) / abs(a_prev) if abs(a_prev) > 0 else 0.0)
        lam_sum = well.lambda1 + well.lambda2
        persists = (len(ratios) > 0 and all(r > 0.5 for r in ratios)
                    and abs(areas[-1]) > 1e-6 * a_scale)
        near_rate = abs(abs(result.multiplier) - lam_sum) <= 0.1 * lam_sum
        flagged = bool(persists and near_rate)
        flagged_any = flagged_any or flagged
        wells_report.append({
            "index": i,
            "location": [float(well.location[0]), float(well.location[1])],
            "lambda_sum": float(lam_sum),
            "levels": levels,
            "ratios": ratios,
            "trapped_fraction": abs(areas[-1]) / max(abs(result.A_target), 1e-300)
            if result.A_target else 0.0,
            "flagged": flagged,
        })
    return {"wells": wells_report, "nonexistence_suspected": flagged_any}


# ---------------------------------------------------------------------------
# certificate for the non-existence regime
# ---------------------------------------------------------------------------

def _packed_certificate(p: np.ndarray, q: np.ndarray, A: float,
                        potential: Potential) -> Optional[SolveResult]:
    """Trunk plus the whole area excess parked in loops at one well.

    Straight legs run from p to an anchor on the +x axis of the cheapest
    well and on to q; `loop_count` square loops of vertex radius r around
    the well, each from the anchor back to it, hold the rest of the area.
    Square loops pack area at the discrete rate 2 F(rc)/rc per unit area
    (rc = r/sqrt(2) the midpoint radius), which tends to the well's
    lambda1 + lambda2; this reproduces the vanishing-loop minimizing
    sequences at the resolution the diagnostics probe.  The curve holds the
    loop once and `SolveResult.packed` its multiplicity; diagnostics are
    left to _finish.  Returns None when no well is available or no loop
    radius meets A to the area tolerance.
    """
    if not potential.wells:
        return None
    lam_sums = [w.lambda1 + w.lambda2 for w in potential.wells]
    i_well = int(np.argmin(lam_sums))
    well = potential.wells[i_well]
    scale = float(np.linalg.norm(q - p)) or 1.0
    rho = 0.85 * min(_probe_radii(potential, scale))

    n_leg = 2048
    leg_in = _straight(p, well.location + np.array([rho, 0.0]), n_leg)
    leg_out = _straight(well.location + np.array([rho, 0.0]), q, n_leg)
    a_trunk, _ = discrete_area_gradient(np.vstack([leg_in, leg_out[1:]]))
    payload = A - a_trunk
    if payload == 0.0:
        return None
    sign = 1 if payload > 0.0 else -1
    n_loops = math.ceil(abs(payload) / (2.0 * rho * rho))
    # moving the anchor to radius r changes the trunk's area by
    # beta * (r - rho) through its two anchor segments, and each loop holds
    # sign * 2 r^2, so r solves 2 n r^2 + b r = |payload| + b rho with
    # b = sign * beta
    b = sign * 0.5 * float(leg_out[1, 1] - leg_in[-2, 1])
    c = abs(payload) + b * rho
    if not c > 0.0:
        return None
    root = math.sqrt(b * b + 8.0 * n_loops * c)
    r = 2.0 * c / (b + root) if b >= 0.0 else (root - b) / (4.0 * n_loops)
    # anchor -> top -> left -> bottom -> anchor, counterclockwise for sign +1
    loop = np.array([[r, 0.0], [0.0, sign * r], [-r, 0.0], [0.0, -sign * r],
                     [r, 0.0]]) + well.location
    curve = Curve(np.vstack([leg_in[:-1], loop, leg_out[1:]]))
    packed = PackedLoops(well=i_well, loop_radius=r, loop_count=n_loops,
                         orientation=sign, anchor=n_leg - 1)
    rate = _packing_rate(packed.loop(curve), potential, A)
    result = _result(curve, potential, A, rate, False, packed)
    if abs(result.area_achieved - A) > _TOL_AREA * (1.0 + abs(A)):
        return None
    return result


def _packing_rate(loop: Curve, potential: Potential, A: float) -> float:
    """Discrete marginal cost of the packed loops, signed like the area."""
    return math.copysign(energy(loop, potential) / abs(area(loop)), A)


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

def _result(curve: Curve, potential: Potential, A_target: float,
            multiplier: float, converged: bool,
            packed: Optional[PackedLoops] = None) -> SolveResult:
    """Energy and area of a solve's curve; diagnostics left to _finish."""
    E, a = energy(curve, potential), area(curve)
    if packed is not None:
        # the curve runs the loop once; the certificate loop_count times
        loop = packed.loop(curve)
        E += (packed.loop_count - 1) * energy(loop, potential)
        a += (packed.loop_count - 1) * area(loop)
    return SolveResult(curve=curve, energy=E, area_achieved=a,
                       multiplier=multiplier, el_residual_max=math.nan,
                       leakage_report={}, converged=converged,
                       nonexistence_suspected=False, A_target=A_target,
                       packed=packed)


def _finish(result: SolveResult, potential: Potential) -> SolveResult:
    """Fill in the EL residual and the leakage report."""
    try:
        result.el_residual_max = el_residual(result.curve, potential,
                                             result.multiplier)
    except ZeroDensityInterior:
        result.el_residual_max = float("inf")
    report = detect_area_leakage(result, potential)
    result.leakage_report = report
    result.nonexistence_suspected = report["nonexistence_suspected"]
    return result


def _endpoints(p_minus, p_plus, A: float = 0.0
               ) -> Tuple[np.ndarray, np.ndarray]:
    """Endpoints as arrays; rejects equal or non-finite endpoints and area."""
    p = np.asarray(p_minus, dtype=float)
    q = np.asarray(p_plus, dtype=float)
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))
            and math.isfinite(A)):
        raise ValueError("endpoints and area must be finite")
    if np.array_equal(p, q):
        raise ValueError("endpoints must differ")
    return p, q


def _warm_start(init_curve: Curve, p: np.ndarray, q: np.ndarray
                ) -> np.ndarray:
    """Vertices of a warm start; rejects one that does not run from p to q."""
    v = init_curve.vertices
    if init_curve.closed or v.shape[0] < 3 or not np.all(np.isfinite(v)):
        raise ValueError("init_curve must be an open curve of at least 3 "
                         "finite vertices")
    if not (np.array_equal(v[0], p) and np.array_equal(v[-1], q)):
        raise ValueError("init_curve must run from p_minus to p_plus")
    return v


def minimize_unconstrained(p, q, potential: Potential,
                           config: Optional[SolverConfig] = None) -> SolveResult:
    """Weighted-length geodesic between pinned endpoints (no area term)."""
    config = config or SolverConfig()
    p, q = _endpoints(p, q)
    scale = float(np.linalg.norm(q - p))
    n = config.n_vertices
    t = np.linspace(0.0, 1.0, n)
    chord = q - p
    nrm = np.array([-chord[1], chord[0]]) / scale
    best = None
    for amp in (0.0, 0.05 * scale, -0.05 * scale):
        v0 = _straight(p, q, n) + (amp * t * (1.0 - t))[:, None] * nrm
        v, ok, _ = _inner_solve(v0, potential, 0.0, 0.0, 0.0)
        E = _one_pass(v, potential).E
        if best is None or E < best[0] - 1e-10 or (abs(E - best[0]) <= 1e-10
                                                   and not best[2] and ok):
            best = (E, v, ok)
    E, v, ok = best
    # remesh toward the wells, then Newton in normal coordinates for tight
    # stationarity
    v = _remesh(v, potential)
    v, _, res, _, _ = _newton_polish(v, potential, None, 0.0)
    ok = _polish_converged(res, 0.0, 0.0)
    curve = Curve(v)
    return _finish(_result(curve, potential, area(curve), 0.0, ok), potential)


def minimize_constrained(p_minus, p_plus, A: float, potential: Potential,
                         config: Optional[SolverConfig] = None,
                         init_curve: Optional[Curve] = None,
                         mu0: float = 0.0) -> SolveResult:
    """Area-constrained weighted-length minimization between two points.

    Solves from each start with `_augmented_lagrangian`: the warm start
    `init_curve` (a curve from p_minus to p_plus, with multiplier estimate
    mu0) when given, then the bump starts.  Each start runs the
    augmented-Lagrangian loop until the KKT Newton polish converges on a
    mesh graded toward the wells, and ends there.  The best result by
    feasibility, then polish success, then energy wins, and the result is
    converged only when the winner is both; a warm start that is feasible
    and polished ends the search.  The returned multiplier is the negative
    of the polish's mu, which matches the sign of d(energy)/d(area).  When
    it nears the cheapest well's packing rate, or the solve fails, the
    packed certificate competes; in the non-existence regime the result is
    that certificate (`packed` set, not converged) with the nonexistence
    flag instead of a fabricated minimizer.
    """
    config = config or SolverConfig()
    p, q = _endpoints(p_minus, p_plus, A)
    tol_c = _TOL_AREA * (1.0 + abs(A))

    # a warm start runs first and short-circuits the cold bump starts when
    # it converges; if it goes astray the cold starts still get their shot
    inits = _bump_inits(p, q, A, config.n_vertices)
    if init_curve is not None:
        inits.insert(0, _warm_start(init_curve, p, q))

    best, energies = None, []
    for j, v0 in enumerate(inits):
        v, mu, c, ok = _augmented_lagrangian(v0, potential, A,
                                             mu0=mu0 if j == 0 else 0.0)
        E = _one_pass(v, potential).E
        feasible = abs(c) <= tol_c
        log.debug("start %d: energy %.12g, feasible %s, ok %s",
                  j, E, feasible, ok)
        energies.append(E)
        key = (not feasible, not ok, E)
        if best is None or key < best[0]:
            best = (key, j, v, mu)
        if j == 0 and init_curve is not None and feasible and ok:
            break
    (infeasible, failed, _), j, v, mu = best
    others = energies[:j] + energies[j + 1:]
    if others:
        # negative when a cheaper start lost on feasibility or polish
        log.debug("start %d of %d won; next cheapest start is %.3g higher "
                  "in relative energy", j, len(energies),
                  (min(others) - energies[j]) / max(abs(energies[j]), 1e-300))
    else:
        log.debug("start %d of %d won unopposed", j, len(energies))

    converged = not (infeasible or failed) and math.isfinite(mu)
    result = _finish(_result(Curve(v), potential, A, -mu, converged),
                     potential)

    # non-existence continuation: try parking the area surplus at a well
    if potential.wells:
        lam_gate = 0.8 * min(w.lambda1 + w.lambda2 for w in potential.wells)
        if abs(result.multiplier) >= lam_gate or not result.converged:
            cand = _packed_certificate(p, q, A, potential)
            if cand is not None and (cand.energy < result.energy
                                     or not result.converged):
                cand = _finish(cand, potential)
                # beat a converged minimizer outright, or replace a failed
                # solve only with the full leakage signature; otherwise
                # keep the failure visible
                if (cand.energy < result.energy
                        or cand.nonexistence_suspected):
                    log.info("adopting packed certificate: "
                             "energy %.6g vs %.6g",
                             cand.energy, result.energy)
                    result = cand
    return result


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
    prev_curve, prev_mu = None, 0.0
    for A in As:
        res = minimize_constrained(p_minus, p_plus, A, potential, config,
                                   init_curve=prev_curve, mu0=prev_mu)
        if res.converged and not res.nonexistence_suspected:
            prev_curve, prev_mu = res.curve, -res.multiplier
        else:
            prev_curve, prev_mu = None, 0.0
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
