"""One-well radial machinery in desingularized coordinates.

For the density W = r^2 (1 + b r^2) about a single well, the substitution
R = |curve|^2, alpha = 4 * (cumulative polar area) turns the weighted length
into

    Et(R, alpha) = integral  sqrt(1 + b R)/2 * sqrt(R'^2 + alpha'^2),

a Riemannian (non-degenerate) length whose geodesics through the axis R = 0
are parabola graphs

    alpha = f_C1(R) = -(2 C1 / b) sqrt(1 - C1^2 + b R) + D,   |C1| <= 1.

A graph from (R0, 0) to the axis delivers polar area f_C1(0)/4, which is
capped at sqrt(R0)/(2 sqrt(b)): beyond that cap no planar curve attains the
area and the optimal lifted path acquires a vertical segment along the axis.
Mapping a parabola back to the plane yields a logarithmic spiral-like curve
with infinite winding number and infinite Euclidean arclength.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import (GapTooLarge, GridTooCoarse, InvalidC1,
                     InvalidCoefficient, InvalidDensity, NonExistence,
                     NotInNonexistenceRegime)
from .functionals import (Curve, segment_geometry, table_from_csv,
                          table_to_csv)

# the smallest positive normal float
_NORMAL = sys.float_info.min
# a chord across the angle h of a circle is shorter than its arc by h^2/24
# of the arc; past 0.49 radians that is over 1%, and a polyline of such
# chords no longer follows the spiral
_MAX_THETA_STEP = math.sqrt(24.0 * 1e-2)


@dataclass
class DesingularizedPath:
    """Polyline in (R, alpha) coordinates together with the coefficient b."""

    R: np.ndarray
    alpha: np.ndarray
    b: float = 0.0

    def __post_init__(self):
        self.R = np.asarray(self.R, dtype=float)
        self.alpha = np.asarray(self.alpha, dtype=float)
        if self.R.shape != self.alpha.shape or self.R.ndim != 1:
            raise ValueError("R and alpha must be 1-d arrays of equal length")
        if self.R.size < 2:
            raise ValueError("a path needs at least two samples")
        if np.any(self.R < -1e-12):
            raise ValueError("R must be nonnegative")
        self.R = np.maximum(self.R, 0.0)
        same = (np.diff(self.R) == 0.0) & (np.diff(self.alpha) == 0.0)
        if np.any(same):
            raise ValueError("consecutive samples must differ")


def to_RA(curve: Curve, center, b: float = 0.0) -> DesingularizedPath:
    """Desingularize a planar curve about a center.

    R is the squared distance to the center per vertex; alpha accumulates
    four times the polar area form, segment by segment with the midpoint
    rule (exact on straight segments).
    """
    q = curve.vertices - np.asarray(center, dtype=float)
    R = q[:, 0]**2 + q[:, 1]**2
    geo = segment_geometry(q)
    mid, seg = geo.mid, geo.seg
    inc = 2.0 * (mid[:, 0] * seg[:, 1] - mid[:, 1] * seg[:, 0])
    alpha = np.concatenate([[0.0], np.cumsum(inc)])
    # duplicate plane vertices collapse to duplicate samples; drop them
    keep = np.concatenate([[True], (np.diff(R) != 0.0) | (inc != 0.0)])
    return DesingularizedPath(R[keep], alpha[keep], float(b))


def energy_RA(path: DesingularizedPath) -> float:
    """Midpoint-rule value of the desingularized length functional."""
    Rm = 0.5 * (path.R[:-1] + path.R[1:])
    dens = 1.0 + path.b * Rm
    if np.any(dens <= 0.0):
        raise InvalidDensity("1 + b R is not positive at a segment midpoint")
    ds = np.hypot(np.diff(path.R), np.diff(path.alpha))
    return float(np.sum(0.5 * np.sqrt(dens) * ds))


def existence_threshold(R0: float, b: float) -> float:
    """Largest attainable |polar area| for a graph path hitting the axis."""
    # a subnormal b or R0 has lost precision, and 1 / b overflows; the
    # closed forms all take b R0, which must be finite
    if not (_NORMAL <= b < math.inf and _NORMAL <= R0 < math.inf):
        raise InvalidCoefficient("the radial closed forms require finite "
                                 "b > 0 and R0 > 0, neither subnormal")
    if b * R0 == math.inf:
        raise InvalidCoefficient(f"b R0 = {b:g} * {R0:g} overflows")
    return math.sqrt(R0) / (2.0 * math.sqrt(b))


def _check_C1(C1: float) -> None:
    if not abs(C1) <= 1.0:  # NaN fails too
        raise InvalidC1(f"C1 = {C1} is not in [-1, 1]")


def _parabola_ends(C1: float, b: float, R0: float) -> Tuple[float, float]:
    """a = sqrt(1 - C1^2) and u0 = sqrt(a^2 + b R0), the ends of the
    parabola graph on [0, R0] in u = sqrt(1 - C1^2 + b R); C1 must lie in
    [-1, 1], and b and R0 pass `existence_threshold`'s rule."""
    _check_C1(C1)
    existence_threshold(R0, b)
    a = math.sqrt(max(0.0, 1.0 - C1 * C1))
    return a, math.sqrt(a * a + b * R0)


def delivered_area(C1: float, R0: float, b: float) -> float:
    """Polar area f_C1(0)/4 delivered by the parabola graph on [0, R0]."""
    a, u0 = _parabola_ends(C1, b, R0)
    return C1 * (u0 - a) / (2.0 * b)


def parabola_geodesic(C1: float, b: float, R0: float, n: int) -> DesingularizedPath:
    """Geodesic graph from (R0, 0) to the axis, sampled at n points.

    Sampling is uniform in u = sqrt(1 - C1^2 + b R), in which the graph's
    alpha component is linear, so the polyline hugs the parabola tightly.
    """
    a, u0 = _parabola_ends(C1, b, R0)
    if n < 2:
        raise ValueError("n must be at least 2")
    u = np.linspace(u0, a, n)
    R = (u * u - a * a) / b
    R[0], R[-1] = R0, 0.0
    alpha = (2.0 * C1 / b) * (u0 - u)
    return DesingularizedPath(R, alpha, b)


def solve_C1_for_area(R0: float, A_tilde: float, b: float) -> float:
    """Invert the odd, strictly increasing map C1 -> delivered polar area.

    C1^2 is the larger root of y^2 (1 + R0^2/(16 A^2)) - y (1 + b R0/2)
    + b^2 A^2 = 0, `delivered_area` squared.  With t = A / threshold and
    m = 4 A / R0 it is m^2/(1 + m^2) (1 + b R0/2 + sqrt(1 + b R0 (1 - t^2)))/2,
    formed without squaring A, so |A| down to 1e-300 does not underflow.
    """
    thr = existence_threshold(R0, b)
    if not math.isfinite(A_tilde):
        raise ValueError("A_tilde must be finite")
    if abs(A_tilde) > thr:
        raise NonExistence(
            f"|area| = {abs(A_tilde)} exceeds the attainable cap {thr}")
    if abs(A_tilde) == thr:
        return math.copysign(1.0, A_tilde)
    k, t, m = b * R0, abs(A_tilde) / thr, 4.0 * abs(A_tilde) / R0
    c1 = m / math.hypot(1.0, m) * math.sqrt(
        0.5 * (1.0 + 0.5 * k + math.sqrt(1.0 + k * (1.0 - t) * (1.0 + t))))
    return math.copysign(min(1.0, c1), A_tilde)  # rounding may pass 1


def lagrange_multiplier_radial(C1: float) -> float:
    """Area-constraint multiplier of the spiral with parameter C1."""
    _check_C1(C1)
    return 2.0 * C1


def parabola_energy(C1: float, R0: float, b: float) -> float:
    """Exact desingularized length of the parabola graph on [0, R0].

    In the u substitution the integrand is polynomial:
    ((u0^3 - a^3)/3 + C1^2 (u0 - a)) / b with a = sqrt(1 - C1^2).
    """
    a, u0 = _parabola_ends(C1, b, R0)
    try:
        cube = u0**3  # overflows once b R0 passes about 3e205
    except OverflowError:
        raise InvalidCoefficient(f"b R0 = {b:g} * {R0:g} is too large: the "
                                 f"parabola energy overflows") from None
    return ((cube - a**3) / 3.0 + C1 * C1 * (u0 - a)) / b


def _theta_of_r(r, C1: float, b: float, r_outer: float, theta0: float):
    """Winding angle along the spiral, theta(r_outer) = theta0.

    Integrates d(theta)/dr = -C1 / (r sqrt(1 - C1^2 + b r^2)) in closed form.
    """
    r = np.asarray(r, dtype=float)
    a2 = max(0.0, 1.0 - C1 * C1)
    a = math.sqrt(a2)
    u = np.sqrt(a2 + b * r * r)
    u0 = math.sqrt(a2 + b * r_outer**2)
    if a < 1e-9:
        return theta0 + (C1 / math.sqrt(b)) * (1.0 / r - 1.0 / r_outer)
    return theta0 + (C1 / a) * (np.log((a + u) / r)
                                - math.log((a + u0) / r_outer))


def _r_of_theta(theta, C1: float, b: float, r_outer: float, theta0: float):
    theta = np.asarray(theta, dtype=float)
    a2 = max(0.0, 1.0 - C1 * C1)
    a = math.sqrt(a2)
    if a < 1e-9:
        return 1.0 / (1.0 / r_outer + (math.sqrt(b) / C1) * (theta - theta0))
    u0 = math.sqrt(a2 + b * r_outer**2)
    w = (a / C1) * (theta - theta0) + math.log((a + u0) / r_outer)
    ew = np.exp(w)
    return 2.0 * a / (ew - b / ew)


def spiral_from_C1(C1: float, b: float, r_outer: float,
                   r_inner: float) -> Curve:
    """Planar spiral realizing the parabola geodesic, traversed inward.

    The curve starts on the circle of radius r_outer at angle 0 and
    winds down to r_inner (strictly positive: for |C1| = 1 the winding
    diverges like 1/r).  Positive C1 winds counterclockwise going inward.
    Sample points combine a log-spaced radius ladder with a uniform angular
    grid so neither slow spirals nor tight winding are under-resolved.  Its
    step max(5e-3, winding / 2e6) keeps it to at most 2e6 steps; a step
    past _MAX_THETA_STEP raises GridTooCoarse before any sample is made.
    """
    _check_C1(C1)
    if not (0.0 < r_inner < r_outer):
        raise ValueError("need 0 < r_inner < r_outer")
    if not b > 0.0:
        raise InvalidCoefficient("spiral reconstruction requires b > 0")

    # the angle at r_outer; 0.0 + turns a -0.0 angle there into 0.0
    theta0 = 0.0
    n_log = max(2, int(60 * math.log10(r_outer / r_inner)) + 1)
    r = np.geomspace(r_outer, r_inner, n_log)
    if C1 != 0.0:
        th_in = float(_theta_of_r(r_inner, C1, b, r_outer, theta0))
        wind = abs(th_in - theta0)
        theta_step = max(5e-3, wind / 2e6)
        if not theta_step <= _MAX_THETA_STEP:
            raise GridTooCoarse(
                f"the spiral from R0 = {r_outer * r_outer:g} winds {wind:.3g}"
                f" radians; its steps of {theta_step:.3g} exceed the "
                f"{_MAX_THETA_STEP:.2f} up to which chords follow it")
        n_th = int(wind / theta_step)
        if n_th > 1:
            th = theta0 + np.sign(th_in - theta0) * theta_step * np.arange(1, n_th + 1)
            r_th = _r_of_theta(th, C1, b, r_outer, theta0)
            r = np.concatenate([r, r_th])
    r = np.clip(r, r_inner, r_outer)
    r = np.unique(r)[::-1]
    theta = _theta_of_r(r, C1, b, r_outer, theta0)
    pts = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
    return Curve(pts)


def vertical_segment_resolution(R0: float, A_tilde: float,
                                b: float, n: int = 1024
                                ) -> Tuple[DesingularizedPath, float]:
    """Optimal lifted path when the requested area exceeds the cap.

    Returns the tangent |C1| = 1 parabola extended by a vertical segment
    along the axis R = 0 carrying the excess area, plus the segment's
    alpha-extent.  The vertical piece sits at the parabola's tangency point;
    position along the axis is cost-free.
    """
    thr = existence_threshold(R0, b)
    if not math.isfinite(A_tilde):
        raise ValueError("A_tilde must be finite")
    if abs(A_tilde) <= thr:
        raise NotInNonexistenceRegime(
            f"|area| = {abs(A_tilde)} is attainable (cap {thr})")
    s = math.copysign(1.0, A_tilde)
    base = parabola_geodesic(s, b, R0, n)
    extent = 4.0 * (abs(A_tilde) - thr)
    R = np.concatenate([base.R, [0.0]])
    alpha = np.concatenate([base.alpha, [4.0 * A_tilde]])
    return DesingularizedPath(R, alpha, b), extent


def compare_b_negative(b: float, alpha_gap: float) -> Tuple[float, float]:
    """Cost of bridging an axis gap by parabola versus vertical segment, b < 0.

    With negative b the density decreases away from the axis, so the geodesic
    joining (0, 0) to (0, alpha_gap) bows into R > 0: it is the symmetric
    parabola pair with the larger admissible C1 root.  Returns both costs;
    the parabola is strictly cheaper for every admissible gap.
    """
    if not (-1.0 < b < 0.0):
        raise InvalidCoefficient("comparison requires -1 < b < 0")
    if not alpha_gap > 0.0:
        raise ValueError("alpha_gap must be positive")
    g = abs(b) * alpha_gap / 4.0
    if g > 0.5:
        raise GapTooLarge(
            f"alpha_gap = {alpha_gap} exceeds the geodesic reach 2/|b| = {2.0 / abs(b)}")
    c1_sq = 0.5 * (1.0 + math.sqrt(1.0 - 4.0 * g * g))
    C1 = math.sqrt(c1_sq)
    a = math.sqrt(1.0 - c1_sq)
    parabola_cost = (2.0 / abs(b)) * (c1_sq * a + a**3 / 3.0)
    vertical_cost = alpha_gap / 2.0
    return parabola_cost, vertical_cost


def figure1_bundle(R0: float, A_tilde: float, b: float) -> dict:
    """Summary dictionary for the existence/non-existence picture.

    Below the area cap: the minimizing parabola and its cost.  Above it:
    the tangent |C1| = 1 parabola plus a vertical segment whose alpha-extent
    carries the excess area at marginal cost 1/2 per unit of alpha.
    """
    thr = existence_threshold(R0, b)
    if not math.isfinite(A_tilde):
        raise ValueError("A_tilde must be finite")
    if abs(A_tilde) <= thr:
        c1 = solve_C1_for_area(R0, A_tilde, b)
        extent = 0.0
    else:
        c1 = math.copysign(1.0, A_tilde)
        extent = 4.0 * (abs(A_tilde) - thr)
    parabola_cost = parabola_energy(c1, R0, b)
    vertical_cost = 0.5 * extent
    return {"b": b, "R0": R0, "A_tilde": A_tilde, "C1": c1,
            "threshold": thr, "vertical_extent": extent,
            "parabola_cost": parabola_cost, "vertical_cost": vertical_cost,
            "total_cost": parabola_cost + vertical_cost}


def path_to_csv(path: DesingularizedPath, csv_path) -> None:
    table_to_csv("R,alpha", np.column_stack([path.R, path.alpha]), csv_path)


def path_from_csv(csv_path, b: float = 0.0) -> DesingularizedPath:
    data = table_from_csv(csv_path, "R,alpha")
    return DesingularizedPath(data[:, 0], data[:, 1], b)
