"""Nonnegative potentials W >= 0 with isolated zeros (wells).

The conformal density of the degenerate metric is F = sqrt(W); every curve
functional downstream evaluates W, its gradient, or its Hessian through the
`Potential` wrapper defined here.  W and grad W come together from one pass
(`Potential.W_and_grad`): each built-in family writes them in one function
with one shared preamble, and a custom potential composes the user's W and
grad W (or finite differences).  All evaluators accept a single point of
shape (2,) or a batch of shape (N, 2), and a custom callable must do the same,
returning one value per point.  Family parameters must be finite; a bad one
raises before anything is evaluated.

Built-in families:

* homogeneous quadratic     W = l1^2 p1^2 + l2^2 p2^2, single well at 0
* radial quartic            W = r^2 + b r^4 about a center, single well
* two-well composite        W = g(dist to nearest of (-1,0), (1,0)) with
                            g(r) = r^2 + (k^2-1) r^4 capped at k^2 for r >= 1
* custom                    user callables on batches of points, optional
                            analytic derivatives (else central finite
                            differences)

The two-well composite is Lipschitz but not C^1 across the unit circles and
the vertical axis; derivative queries on those sets return the one-sided
value from inside the near disc.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import (
    DegenerateHessian,
    InvalidCoefficient,
    InvalidK,
    NonPositiveEigenvalue,
)

# Step used by the finite-difference fallback of custom potentials.
FD_STEP_SCALE = 1e-5


@dataclass(frozen=True)
class Well:
    """A zero of W with the local quadratic data W ~ l1^2 q1^2 + l2^2 q2^2.

    `frame` has the unit eigenvectors of the Hessian as columns, ordered so
    that column i belongs to lambda_i; lambda1 <= lambda2.  The Hessian
    eigenvalues themselves are 2*lambda_i^2 (second derivative of l^2 q^2).
    """

    location: np.ndarray
    lambda1: float
    lambda2: float
    frame: np.ndarray


class Potential:
    """Bundle of W and its derivatives plus declared wells.

    Build one through the make_* factories; the constructor is internal.
    `w_grad(p)` returns (W, grad W) at p from one pass over the points,
    `eval_W(p)` W alone and `hess_W(p)` the Hessian of W; each takes float
    points of shape (2,) or (N, 2) and is called unchecked.
    """

    def __init__(self, kind, params, wells_locations, eval_W, *, w_grad,
                 hess_W):
        self.kind = kind
        self.params = dict(params)
        self._eval = eval_W
        self._w_grad = w_grad
        self._hess = hess_W
        locs = [np.asarray(w, dtype=float) for w in wells_locations]
        self.wells = [self._make_well(loc) for loc in locs]

    # -- evaluation ---------------------------------------------------------

    def eval_W(self, p) -> np.ndarray:
        return self._eval(np.asarray(p, dtype=float))

    def W_and_grad(self, p) -> Tuple[np.ndarray, np.ndarray]:
        """(W, grad W) at p from one evaluation."""
        return self._w_grad(np.asarray(p, dtype=float))

    def grad_W(self, p) -> np.ndarray:
        return self.W_and_grad(p)[1]

    def hess_W(self, p) -> np.ndarray:
        return self._hess(np.asarray(p, dtype=float))

    def eval_F(self, p) -> np.ndarray:
        """Conformal density sqrt(W); zero exactly at the wells."""
        return np.sqrt(np.maximum(self.eval_W(p), 0.0))

    def density(self, p) -> Tuple[np.ndarray, np.ndarray]:
        """(F, grad F) from one evaluation of W and grad W.

        grad F = grad W / (2 sqrt W) is guarded against W = 0, so it stays
        bounded at the wells.
        """
        w, g = self.W_and_grad(p)
        F = np.sqrt(np.maximum(w, 0.0))
        denom = 2.0 * np.sqrt(np.maximum(w, 1e-300))
        return F, g / denom[..., None]

    # -- wells --------------------------------------------------------------

    def _make_well(self, loc) -> Well:
        hess = self.hess_W(loc)
        hess = 0.5 * (hess + hess.T)
        eigval, eigvec = np.linalg.eigh(hess)
        if not np.all(eigval > 1e-10):
            raise DegenerateHessian(
                f"well at {loc}: Hessian eigenvalues {eigval} not positive")
        # W ~ l^2 q^2 along an eigendirection means the Hessian eigenvalue
        # is 2 l^2, hence l = sqrt(eig / 2).
        lam = np.sqrt(eigval / 2.0)
        loc = loc.copy()
        loc.setflags(write=False)
        frame = eigvec.copy()
        frame.setflags(write=False)
        return Well(location=loc, lambda1=float(lam[0]),
                    lambda2=float(lam[1]), frame=frame)

    def well_separation(self) -> Optional[float]:
        """Largest pairwise distance between wells, None if fewer than two."""
        if len(self.wells) < 2:
            return None
        locs = np.array([w.location for w in self.wells])
        d = np.linalg.norm(locs[:, None, :] - locs[None, :, :], axis=-1)
        return float(d.max())

    def min_on_far_circle(self, R_far=None, n=720) -> float:
        """Minimum of W on a circle of radius R_far about the well centroid.

        Used as a coercivity proxy: the infimum of W outside every compact
        set containing the wells should stay positive.
        """
        if self.wells:
            locs = np.array([w.location for w in self.wells])
            center = locs.mean(axis=0)
            spread = self.well_separation() or 1.0
        else:
            center = np.zeros(2)
            spread = 1.0
        if R_far is None:
            R_far = 10.0 * spread
        th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        pts = center + R_far * np.stack([np.cos(th), np.sin(th)], axis=1)
        return float(self.eval_W(pts).min())

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        if self.kind == "custom":
            raise ValueError("custom potentials carry callables and are not "
                             "JSON serializable")
        return {"kind": self.kind, "params": dict(self.params)}


def from_json_dict(data: dict) -> Potential:
    """Rebuild a built-in potential from {"kind": ..., "params": {...}}."""
    kind = data["kind"]
    params = data.get("params", {})
    if kind == "homogeneous":
        return make_homogeneous(params["lambda1"], params["lambda2"])
    if kind == "radial_quartic":
        return make_radial_quartic(params["b"],
                                   center=tuple(params.get("center", (0.0, 0.0))),
                                   r_max=params.get("r_max", 1.0))
    if kind == "two_well":
        return make_two_well_k(params["k"])
    raise ValueError(f"unknown potential kind {kind!r}")


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------

def _family(kind, params, wells, w_grad, hess) -> Potential:
    """A built-in potential: W alone is the first half of its one-pass
    (W, grad W), so each formula is written once."""
    return Potential(kind, params, wells, lambda p: w_grad(p)[0],
                     w_grad=w_grad, hess_W=hess)


def make_homogeneous(lambda1: float, lambda2: float) -> Potential:
    """W(p) = lambda1^2 p1^2 + lambda2^2 p2^2, single well at the origin."""
    if not (0.0 < lambda1 < math.inf and 0.0 < lambda2 < math.inf):
        raise NonPositiveEigenvalue("both rates must be finite and positive")
    l1s, l2s = lambda1**2, lambda2**2
    rates = np.array([2.0 * l1s, 2.0 * l2s])

    def w_grad(p):
        return l1s * p[..., 0]**2 + l2s * p[..., 1]**2, rates * p

    def hess(p):
        base = np.diag(rates)
        if p.ndim == 1:
            return base
        return np.broadcast_to(base, (p.shape[0], 2, 2)).copy()

    return _family("homogeneous",
                   {"lambda1": float(lambda1), "lambda2": float(lambda2)},
                   [(0.0, 0.0)], w_grad, hess)


def make_radial_quartic(b: float, center=(0.0, 0.0), r_max: float = 1.0) -> Potential:
    """W(p) = r^2 + b r^4 with r = |p - center|.

    For b < 0 the density vanishes on the circle r = 1/sqrt(-b); the
    working disc of radius r_max must stay strictly inside it.
    """
    b, r_max = float(b), float(r_max)
    c = np.asarray(center, dtype=float)
    if c.shape != (2,) or not np.all(np.isfinite(c)):
        raise ValueError("center must be a finite point (p1, p2)")
    if not 0.0 < r_max < math.inf:
        raise ValueError("r_max must be finite and positive")
    if not -1.0 / r_max**2 < b < math.inf:
        raise InvalidCoefficient(
            f"b = {b} is not finite or makes W vanish within the working "
            f"disc of radius {r_max}")

    def w_grad(p):
        q = p - c
        qq = q * q
        r2 = qq[..., 0] + qq[..., 1]
        return r2 + b * r2**2, (2.0 + 4.0 * b * r2)[..., None] * q

    def hess(p):
        single = p.ndim == 1
        q = np.atleast_2d(p) - c
        r2 = q[:, 0]**2 + q[:, 1]**2
        out = np.zeros((q.shape[0], 2, 2))
        iso = 2.0 + 4.0 * b * r2
        out[:, 0, 0] = iso + 8.0 * b * q[:, 0]**2
        out[:, 1, 1] = iso + 8.0 * b * q[:, 1]**2
        out[:, 0, 1] = out[:, 1, 0] = 8.0 * b * q[:, 0] * q[:, 1]
        return out[0] if single else out

    return _family("radial_quartic",
                   {"b": b, "center": [float(c[0]), float(c[1])],
                    "r_max": float(r_max)},
                   [tuple(c)], w_grad, hess)


def make_two_well_k(k: float) -> Potential:
    """Two-well composite with wells at (-1, 0) and (1, 0).

    About the nearer well, W = g(r) with g(r) = r^2 + (k^2 - 1) r^4 for
    r <= 1 and g = k^2 outside; even under p1 -> -p1.  Inside either unit
    disc this is the radial quartic with b = k^2 - 1.
    """
    k = float(k)
    if not 1.0 < k < math.inf:
        raise InvalidK("need a finite k > 1 so the plateau sits above the "
                       "quartic bowl")
    b = k * k - 1.0

    def split(p):
        """Offsets q from the nearer well (p1 = 0 belongs to the left one)
        and their squared lengths."""
        q = p.copy()
        q[..., 0] -= np.where(p[..., 0] <= 0.0, -1.0, 1.0)
        qq = q * q
        return q, qq[..., 0] + qq[..., 1]

    def w_grad(p):
        q, r2 = split(p)
        return (np.where(r2 >= 1.0, k * k, r2 + b * r2**2),
                np.where(r2 <= 1.0, 2.0 + 4.0 * b * r2, 0.0)[..., None] * q)

    def hess(p):
        single = p.ndim == 1
        q, r2 = split(np.atleast_2d(p))
        inside = r2 <= 1.0
        out = np.zeros((q.shape[0], 2, 2))
        iso = np.where(inside, 2.0 + 4.0 * b * r2, 0.0)
        quart = np.where(inside, 8.0 * b, 0.0)
        out[:, 0, 0] = iso + quart * q[:, 0]**2
        out[:, 1, 1] = iso + quart * q[:, 1]**2
        out[:, 0, 1] = out[:, 1, 0] = quart * q[:, 0] * q[:, 1]
        return out[0] if single else out

    return _family("two_well", {"k": k}, [(-1.0, 0.0), (1.0, 0.0)],
                   w_grad, hess)


# ---------------------------------------------------------------------------
# custom potentials
# ---------------------------------------------------------------------------

def _per_point(fn, trailing):
    """fn as floats, checked to return one value of shape p.shape[:-1] +
    trailing per point of p."""
    def checked(p):
        try:
            out = np.asarray(fn(p), dtype=float)
        except (IndexError, TypeError) as exc:
            raise _per_point_error(p) from exc
        if out.shape != p.shape[:-1] + trailing:
            raise _per_point_error(p)
        return out
    return checked


def _per_point_error(p) -> ValueError:
    return ValueError(f"custom potential: W and its derivatives must take a "
                      f"batch of points and return one value per point; "
                      f"they failed on points of shape {p.shape}")


def _fd_step(p):
    norm = np.linalg.norm(p, axis=-1)
    return FD_STEP_SCALE * np.maximum(1.0, norm)


def _fd_grad(eval_W, p):
    """Central-difference gradient of eval_W."""
    single = p.ndim == 1
    pts = p[None, :] if single else p
    h = _fd_step(pts)
    out = np.empty_like(pts)
    for j in range(2):
        e = np.zeros(2)
        e[j] = 1.0
        out[:, j] = (eval_W(pts + h[:, None] * e)
                     - eval_W(pts - h[:, None] * e)) / (2.0 * h)
    return out[0] if single else out


def _fd_hess(eval_W, p):
    """Central-difference Hessian of eval_W."""
    single = p.ndim == 1
    pts = p[None, :] if single else p
    h = _fd_step(pts)
    n = pts.shape[0]
    out = np.empty((n, 2, 2))
    w0 = eval_W(pts)
    for j in range(2):
        e = np.zeros(2)
        e[j] = 1.0
        wp = eval_W(pts + h[:, None] * e)
        wm = eval_W(pts - h[:, None] * e)
        out[:, j, j] = (wp - 2.0 * w0 + wm) / h**2
    ex = np.array([1.0, 0.0])
    ey = np.array([0.0, 1.0])
    wpp = eval_W(pts + h[:, None] * (ex + ey))
    wpm = eval_W(pts + h[:, None] * (ex - ey))
    wmp = eval_W(pts - h[:, None] * (ex - ey))
    wmm = eval_W(pts - h[:, None] * (ex + ey))
    out[:, 0, 1] = out[:, 1, 0] = (wpp - wpm - wmp + wmm) / (4.0 * h**2)
    return out[0] if single else out


def make_custom(eval_W: Callable, wells=(), grad_W=None,
                hess_W=None) -> Potential:
    """Wrap a user potential.  Every callable must work on batches like the
    built-ins: points of shape (..., 2) give W of shape (...), grad W of
    shape (..., 2) and hess W of shape (..., 2, 2); anything else raises
    ValueError.  Missing derivatives fall back to central finite
    differences with step 1e-5 * max(1, |p|)."""
    W = _per_point(eval_W, ())
    grad = (functools.partial(_fd_grad, W) if grad_W is None
            else _per_point(grad_W, (2,)))
    hess = (functools.partial(_fd_hess, W) if hess_W is None
            else _per_point(hess_W, (2, 2)))
    return Potential("custom", {}, list(wells), W,
                     w_grad=lambda p: (W(p), grad(p)), hess_W=hess)
