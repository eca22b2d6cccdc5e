"""Closed-form machinery for the homogeneous quadratic density.

With W = l1^2 p1^2 + l2^2 p2^2 and F = sqrt(W), the one-parameter family of
unit-degenerate-speed fields

    V_beta = cos(beta) * Theta - sin(beta) * Rad,
    Theta  = (-l2 p2, l1 p1) / F^2,      Rad = grad(rt) / F^2,
    rt(p)  = (l1 p1^2 + l2 p2^2) / 2,

satisfies |V_beta| * F = 1 identically, and along its integral curves the
level function rt decreases at the constant rate sin(beta).  Consequently an
arc flowing from p0 into the well has weighted length exactly

    L(beta) = rt(p0) / sin(beta).

In the time dtau = dt / F^2 the field is linear, dp/dtau = M p, so the arc
is exp(M tau) p0 and its enclosed signed area is the quadratic form
p0^T X p0 of the 2x2 Lyapunov equation M^T X + X M = -Q, solved in closed
form: (rt(p0) cot(beta) - l2 p1 p2) / (l1 + l2).  That area is a
continuous, strictly decreasing function of beta, which this module inverts
in closed form to hit a prescribed area.

The closed level set {rt = rt(p0)} is the area-minimizing loop; its weighted
length per unit enclosed area is l1 + l2, which is also the cost rate of a
purely vertical displacement of the lifted third coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import GridTooCoarse, ZeroBeta
from .functionals import Curve, energy
from .potential import _check_rates, make_homogeneous
from .radial import _MAX_THETA_STEP

_STOP_RADIUS = 1e-6  # arcs are sampled until |p| <= _STOP_RADIUS |p0|


def rtilde(p, lambda1: float, lambda2: float):
    """Level function whose sublevel sets are the invariant ellipses."""
    p = np.asarray(p, dtype=float)
    return 0.5 * (lambda1 * p[..., 0]**2 + lambda2 * p[..., 1]**2)


def field_V_beta(p, beta: float, lambda1: float, lambda2: float):
    """The unit-degenerate-speed field, at a point or a batch of points."""
    p = np.asarray(p, dtype=float)
    f2 = lambda1**2 * p[..., 0]**2 + lambda2**2 * p[..., 1]**2
    theta = np.stack([-lambda2 * p[..., 1], lambda1 * p[..., 0]], axis=-1)
    rad = np.stack([lambda1 * p[..., 0], lambda2 * p[..., 1]], axis=-1)
    return (math.cos(beta) * theta - math.sin(beta) * rad) / f2[..., None]


def homogeneous_length(p0, beta: float, lambda1: float, lambda2: float) -> float:
    """Weighted length of the arc from p0 to the well at field angle beta.
    p0, beta and the rates are checked as in `integrate_integral_curve`."""
    p0 = _point(p0)
    _check_rates(lambda1, lambda2)
    _check_beta(beta)
    return float(rtilde(p0, lambda1, lambda2) / abs(math.sin(beta)))


def vertical_fiber_distance(A: float, lambda1: float, lambda2: float) -> float:
    """Cost of moving the lifted height by A while sitting over the well.
    Rates `make_homogeneous` rejects raise NonPositiveEigenvalue, and an A
    that is not finite raises ValueError."""
    _check_rates(lambda1, lambda2)
    if not math.isfinite(A):
        raise ValueError("the area A must be finite")
    return (lambda1 + lambda2) * abs(A)


def _point(p0) -> np.ndarray:
    """p0 as a float array, checked to be a finite point off the well."""
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (2,) or not np.all(np.isfinite(p0)):
        raise ValueError("p0 must be a finite point (p1, p2)")
    if not p0.any():
        raise ValueError("p0 must differ from the well")
    return p0


def _check_beta(beta: float) -> None:
    """Rejects beta = 0 (ZeroBeta: the flow cycles on its level set and
    never reaches the well) and a beta outside [-pi/2, pi/2], NaN
    included (ValueError)."""
    if beta == 0.0:
        raise ZeroBeta("beta = 0: the flow cycles on its level set and "
                       "never reaches the well")
    if not -math.pi / 2 <= beta <= math.pi / 2:
        raise ValueError(f"beta = {beta} must lie in [-pi/2, pi/2]")


def _flow_matrix(beta: float, lambda1: float, lambda2: float) -> np.ndarray:
    """M with dp/dtau = M p for the arc's field in the time dtau = dt / F^2.

    For beta < 0 the flow of V_beta leaves the well, so the field is
    reversed; either way M has trace -|sin beta| (l1 + l2) and determinant
    l1 l2, so exp(M tau) p0 runs into the well.
    """
    s, c = math.sin(beta), math.cos(beta)
    return math.copysign(1.0, beta) * np.array([[-s * lambda1, -c * lambda2],
                                                [c * lambda1, -s * lambda2]])


def _arc_area(p0: np.ndarray, beta: float, lambda1: float,
              lambda2: float) -> float:
    """Enclosed area, the integral of p1 dp2 along the arc into the well.

    Along p = exp(M tau) p0 the integrand p1 (M p)_2 is the quadratic form
    p^T Q p with Q = e1 M[1]^T, so its integral over [0, inf) is
    p0^T X p0, where X solves the Lyapunov equation M^T X + X M = -Q.  For
    the symmetric part of Q and the 2x2 M of `_flow_matrix` the solution is
    X = [[-M10, -M11], [-M11, M01]] / (2 tr M), free of det M, and with
    tr M = -|sin beta| (l1 + l2) the area is

        (rt(p0) cos(beta) / sin(beta) - l2 p1 p2) / (l1 + l2).

    The 1 / tr M factor is divided out here rather than left to a linear
    solve, which is nearly singular as beta -> 0, where the area is large;
    dividing it out first keeps every term below the area itself.
    """
    p1, p2 = p0
    s = lambda1 + lambda2
    rt0 = float(rtilde(p0, lambda1, lambda2))
    return rt0 / s * math.cos(beta) / math.sin(beta) - lambda2 / s * p1 * p2


def _exp_flow(beta: float, lambda1: float, lambda2: float,
              tau) -> np.ndarray:
    """exp(M tau) for the M of `_flow_matrix`, in closed form, at one tau or
    an array of them (tau >= 0); the result has shape tau.shape + (2, 2).

    M has trace 2a = -|sin beta| (l1 + l2) and determinant l1 l2, so
    (M - aI)^2 = (a^2 - l1 l2) I and exp(M tau) = f I + g (M - aI):
    - eigenvalues a +- i w: f = e^{a tau} cos(w tau), g = e^{a tau}
      sin(w tau) / w;
    - real eigenvalues a +- v, near |sin beta| = 1 when l1 != l2: f and g
      are e^{a tau} cosh(v tau) and e^{a tau} sinh(v tau) / v, written
      through e^{(a + v) tau} and e^{(a - v) tau}, both at most 1 since
      a + v < 0, so nothing overflows (and expm1 keeps g accurate as v
      falls toward 0);
    - a repeated root: f = e^{a tau}, g = tau e^{a tau}.
    """
    tau = np.asarray(tau, dtype=float)
    a = -0.5 * abs(math.sin(beta)) * (lambda1 + lambda2)
    w2 = lambda1 * lambda2 - a * a
    if w2 > 0.0:
        w = math.sqrt(w2)
        decay = np.exp(a * tau)
        f, g = decay * np.cos(w * tau), decay * np.sin(w * tau) / w
    elif w2 < 0.0:
        v = math.sqrt(-w2)
        slow, fast = np.exp((a + v) * tau), np.exp((a - v) * tau)
        f, g = 0.5 * (slow + fast), -0.5 * slow * np.expm1(-2.0 * v * tau) / v
    else:
        f = np.exp(a * tau)
        g = tau * f
    eye = np.eye(2)
    shifted = _flow_matrix(beta, lambda1, lambda2) - a * eye
    return f[..., None, None] * eye + g[..., None, None] * shifted


def integrate_integral_curve(p0, beta: float, lambda1: float, lambda2: float,
                             n_out: Optional[int] = None) -> Curve:
    """Sample the arc from p0 toward the well and return it as a polyline.

    The arc is exp(M tau) p0 (`_exp_flow`), sampled at n_out uniform steps
    of tau up to the level of rt that certifies |p| <= 1e-6 |p0|; the
    returned polyline then ends at an appended exact origin vertex.
    Uniform tau is near-uniform in the logarithm of rt, which
    equidistributes winding.  By default n_out grows with the winding, one
    vertex per 2e-3 radians, and lies between 4000 and 2e5.  A beta so near
    0 that the flow's phase on the stop-time bracket carries a rounding
    error past a radian raises ValueError: exp(M tau) p0 is then not known
    well enough to stop on.  Samples that each turn by more than half of
    radial's _MAX_THETA_STEP, past which the polyline's area and weighted
    length fall over 1% short of the arc's, raise GridTooCoarse naming the
    area before any sample is made; from (1,0) with rates (1,2) that is
    every area from about 630 on.  beta = 0 raises ZeroBeta, and rates
    `make_homogeneous` rejects raise NonPositiveEigenvalue, as they do in
    `solve_beta_for_area` and `homogeneous_length`.
    """
    p0 = _point(p0)
    _check_rates(lambda1, lambda2)
    _check_beta(beta)
    if n_out is not None and n_out < 2:
        raise ValueError("n_out must be at least 2")
    lam_min = min(lambda1, lambda2)
    sin = abs(math.sin(beta))
    rt_stop = 0.5 * lam_min * _STOP_RADIUS**2 * float(p0 @ p0)
    # rt falls at the rate |sin beta| F^2 >= 2 lam_min |sin beta| rt, so the
    # stop level is passed before tau_max
    tau_max = (math.log(float(rtilde(p0, lambda1, lambda2)) / rt_stop)
               / (2.0 * lam_min * sin))
    # the flow turns at the imaginary part of M's eigenvalues
    omega = math.sqrt(max(lambda1 * lambda2
                          - (0.5 * sin * (lambda1 + lambda2))**2, 0.0))
    phase = omega * 2.0 * tau_max
    if not phase * np.finfo(float).eps <= 1.0:
        raise ValueError(f"beta = {beta:g}: exp(M tau) p0 is not accurate "
                         f"enough to stop on: its phase reaches {phase:.3g} "
                         f"radians on the stop-time bracket, rounded by more "
                         f"than a radian")

    def level(tau):
        return float(rtilde(_exp_flow(beta, lambda1, lambda2, tau) @ p0,
                            lambda1, lambda2)) - rt_stop

    # rt falls monotonically along the flow: bisect the sign change of
    # level on [0, 2 tau_max] down to adjacent floats, ending past the stop
    lo, hi = 0.0, tau_max * 2.0
    mid = 0.5 * hi
    while lo < mid < hi:
        if level(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        mid = lo + 0.5 * (hi - lo)
    tau_end = hi
    if n_out is None:
        n_out = int(min(2e5, max(4000, omega * tau_end / 2e-3)))
    # a sample turning by h loses about h^2/6 = (2h)^2/24 of its area to the
    # chord, and as much of its weighted length: chord and midpoint density
    # each fall short, so 2h is held to radial's chord-step bound
    turn = omega * tau_end / (n_out - 1)
    if not 2.0 * turn <= _MAX_THETA_STEP:
        raise GridTooCoarse(
            f"the arc for the area {_arc_area(p0, beta, lambda1, lambda2):g}"
            f" turns {omega * tau_end:.3g} radians; its {n_out} samples turn"
            f" {turn:.3g} each, past the {0.5 * _MAX_THETA_STEP:.3g} up to "
            f"which chords follow it")
    taus = np.linspace(0.0, tau_end, n_out)
    pts = _exp_flow(beta, lambda1, lambda2, taus) @ p0
    return Curve(np.vstack([pts, [0.0, 0.0]]))


def solve_beta_for_area(p0, A: float, lambda1: float, lambda2: float) -> float:
    """Invert the monotone map beta -> enclosed area of the arc to the well.

    `_arc_area` solved for beta: cot(beta) = ((l1 + l2) A + l2 p1 p2) /
    rt(p0), in (-pi/2, pi/2] and signed like the numerator.  Both sides are
    divided by l1 + l2 and halved, so no finite A overflows; beta = 0 comes
    only from underflow and raises ValueError.
    """
    p0 = _point(p0)
    _check_rates(lambda1, lambda2)
    A = float(A)
    if not math.isfinite(A):
        raise ValueError("the area A must be finite")
    p1, p2 = p0
    s = lambda1 + lambda2
    num = 0.5 * A + 0.5 * (lambda2 / s) * p1 * p2
    beta = math.atan2(0.5 * float(rtilde(p0, lambda1, lambda2)) / s,
                      abs(num))
    if beta == 0.0:
        raise ValueError(f"the area {A:g} underflows beta to 0")
    return -beta if num < 0.0 else beta


def minimizing_ellipse(p0, lambda1: float, lambda2: float, n: int):
    """Closed level set of rt through p0, traversed counterclockwise.

    Returns (curve, weighted length of the polyline).  The polyline has n
    distinct vertices, starting at p0's angle, and n + 1 rows: the loop
    repeats its first vertex as its last.  The continuum loop earns exactly
    (l1 + l2) per unit enclosed area.  Rates `make_homogeneous` rejects
    raise NonPositiveEigenvalue.
    """
    p0 = _point(p0)
    _check_rates(lambda1, lambda2)
    if n < 3:
        raise ValueError("the ellipse needs n >= 3 vertices")
    rt0 = float(rtilde(p0, lambda1, lambda2))
    ax = math.sqrt(2.0 * rt0 / lambda1)
    ay = math.sqrt(2.0 * rt0 / lambda2)
    phi0 = math.atan2(p0[1] / ay, p0[0] / ax)
    phi = phi0 + np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    pts = np.stack([ax * np.cos(phi), ay * np.sin(phi)], axis=1)
    curve = Curve(np.vstack([pts, pts[:1]]))
    pot = make_homogeneous(lambda1, lambda2)
    return curve, energy(curve, pot)


@dataclass
class HomogeneousSolution:
    """Solution bundle for one area-constrained homogeneous problem."""

    p0: np.ndarray
    beta: float
    curve: Curve
    energy: float
    area: float
    lambda1: float
    lambda2: float


def solve_homogeneous(p0, A: float, lambda1: float,
                      lambda2: float) -> HomogeneousSolution:
    """Select beta for the requested area and return the arc with its exact
    weighted length rt(p0)/|sin beta| and exact enclosed area."""
    p0 = _point(p0)
    beta = solve_beta_for_area(p0, A, lambda1, lambda2)
    try:
        curve = integrate_integral_curve(p0, beta, lambda1, lambda2)
    except ValueError as exc:
        raise ValueError(f"the arc for the area {A:g} cannot be sampled: "
                         f"{exc}") from exc
    return HomogeneousSolution(
        p0=p0, beta=beta, curve=curve,
        energy=homogeneous_length(p0, beta, lambda1, lambda2),
        area=_arc_area(p0, beta, lambda1, lambda2),
        lambda1=lambda1, lambda2=lambda2)
