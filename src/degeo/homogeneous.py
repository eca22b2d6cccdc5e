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
with brentq to hit a prescribed area.

The closed level set {rt = rt(p0)} is the area-minimizing loop; its weighted
length per unit enclosed area is l1 + l2, which is also the cost rate of a
purely vertical displacement of the lifted third coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import expm
from scipy.optimize import brentq

from .errors import NoRoot, NonConvergence, ZeroBeta
from .functionals import Curve, energy
from .potential import make_homogeneous

_ROOT_BUDGET = 200
_STOP_RADIUS = 1e-6  # arcs are sampled until |p| <= _STOP_RADIUS |p0|
_AREA_TOL = 1e-12    # per |p0|^2: areas this close to beta = pi/2's take it
_BETA_XTOL = 1e-300  # brentq then stops at its relative tolerance, 4 eps


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
    """Weighted length of the arc from p0 to the well at field angle beta."""
    if beta == 0.0:
        raise ZeroBeta("beta = 0 keeps the flow on the closed level set")
    return float(rtilde(p0, lambda1, lambda2) / abs(math.sin(beta)))


def vertical_fiber_distance(A: float, lambda1: float, lambda2: float) -> float:
    """Cost of moving the lifted height by A while sitting over the well."""
    return (lambda1 + lambda2) * abs(A)


def _point(p0) -> np.ndarray:
    """p0 as a float array, checked to be a finite point off the well."""
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (2,) or not np.all(np.isfinite(p0)):
        raise ValueError("p0 must be a finite point (p1, p2)")
    if not p0.any():
        raise ValueError("p0 must differ from the well")
    return p0


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
    solve, which is nearly singular as beta -> 0, where the area is large.
    """
    p1, p2 = p0
    rt0 = float(rtilde(p0, lambda1, lambda2))
    return ((rt0 * math.cos(beta) / math.sin(beta) - lambda2 * p1 * p2)
            / (lambda1 + lambda2))


def integrate_integral_curve(p0, beta: float, lambda1: float, lambda2: float,
                             n_out: Optional[int] = None) -> Curve:
    """Sample the arc from p0 toward the well and return it as a polyline.

    The arc is exp(M tau) p0, sampled at n_out uniform steps of tau up to
    the level of rt that certifies |p| <= 1e-6 |p0|; the returned polyline
    then ends at an appended exact origin vertex.  Uniform tau is
    near-uniform in the logarithm of rt, which equidistributes winding.  By
    default n_out grows with the winding, one vertex per 2e-3 radians, and
    lies between 4000 and 2e5.
    """
    p0 = _point(p0)
    if beta == 0.0:
        raise NonConvergence("beta = 0: the flow cycles on its level set and "
                             "never reaches the stop radius")
    if not (-math.pi / 2 <= beta <= math.pi / 2):
        raise ValueError("beta must lie in [-pi/2, pi/2]")
    if n_out is not None and n_out < 2:
        raise ValueError("n_out must be at least 2")
    M = _flow_matrix(beta, lambda1, lambda2)
    lam_min = min(lambda1, lambda2)
    sin = abs(math.sin(beta))
    rt_stop = 0.5 * lam_min * _STOP_RADIUS**2 * float(p0 @ p0)
    # rt falls at the rate |sin beta| F^2 >= 2 lam_min |sin beta| rt, so the
    # stop level is passed before tau_max
    tau_max = (math.log(float(rtilde(p0, lambda1, lambda2)) / rt_stop)
               / (2.0 * lam_min * sin))
    tau_end = brentq(lambda tau: rtilde(expm(M * tau) @ p0, lambda1, lambda2)
                     - rt_stop, 0.0, tau_max * 2.0)
    if n_out is None:
        # the flow turns at the imaginary part of M's eigenvalues
        omega = math.sqrt(max(lambda1 * lambda2
                              - (0.5 * sin * (lambda1 + lambda2))**2, 0.0))
        n_out = int(min(2e5, max(4000, omega * tau_end / 2e-3)))
    step = expm(M * (tau_end / (n_out - 1)))
    pts = p0[None, :]
    while len(pts) < n_out:
        # step advances by len(pts) samples, so each pass doubles the samples
        pts = np.vstack([pts, pts @ step.T])
        step = step @ step
    return Curve(np.vstack([pts[:n_out], [0.0, 0.0]]))


def solve_beta_for_area(p0, A: float, lambda1: float, lambda2: float,
                        beta_hint: Optional[float] = None) -> float:
    """Invert the monotone map beta -> enclosed area of the arc to the well.

    The map decreases from +inf (beta -> 0+) through the beta = pi/2 value
    and on down to -inf (beta -> 0-).  The half-branch that holds A is
    bracketed by halving beta from +-pi/4, or taken from the +-0.05 window
    around beta_hint when that brackets A, and the root is found by brentq
    on the exact area.
    """
    p0 = _point(p0)
    A = float(A)
    if not math.isfinite(A):
        raise ValueError("the area A must be finite")

    def f(beta):
        return _arc_area(p0, beta, lambda1, lambda2) - A

    f_mid = f(math.pi / 2)
    if abs(f_mid) <= _AREA_TOL * float(p0 @ p0):
        return math.pi / 2
    if beta_hint is not None and beta_hint != 0.0:
        lo = max(-math.pi / 2, beta_hint - 0.05)
        hi = min(math.pi / 2, beta_hint + 0.05)
        if lo * hi > 0.0 and f(lo) * f(hi) <= 0.0:
            return brentq(f, lo, hi, xtol=_BETA_XTOL)
    # A above the pi/2 value lies on the positive half-branch, A below it on
    # the negative one; halve beta toward 0 until the area passes A
    outer = math.copysign(math.pi / 2, -f_mid)
    for _ in range(_ROOT_BUDGET):
        inner = 0.5 * outer
        if f(inner) * f_mid <= 0.0:
            return brentq(f, inner, outer, xtol=_BETA_XTOL)
        outer = inner
    raise NoRoot("failed to bracket the requested area")


def minimizing_ellipse(p0, lambda1: float, lambda2: float, n: int):
    """Closed level set of rt through p0, traversed counterclockwise.

    Returns (curve, weighted length of the polyline).  The continuum loop
    earns exactly (l1 + l2) per unit enclosed area.
    """
    p0 = _point(p0)
    if n < 3:
        raise ValueError("the ellipse needs n >= 3 vertices")
    rt0 = float(rtilde(p0, lambda1, lambda2))
    ax = math.sqrt(2.0 * rt0 / lambda1)
    ay = math.sqrt(2.0 * rt0 / lambda2)
    phi0 = math.atan2(p0[1] / ay, p0[0] / ax)
    phi = phi0 + np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    pts = np.stack([ax * np.cos(phi), ay * np.sin(phi)], axis=1)
    curve = Curve(pts, closed=True)
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
    return HomogeneousSolution(
        p0=p0, beta=beta,
        curve=integrate_integral_curve(p0, beta, lambda1, lambda2),
        energy=homogeneous_length(p0, beta, lambda1, lambda2),
        area=_arc_area(p0, beta, lambda1, lambda2),
        lambda1=lambda1, lambda2=lambda2)
