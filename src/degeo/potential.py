"""Nonnegative potentials W >= 0 with isolated zeros (wells).

The conformal density of the degenerate metric is F = sqrt(W); every curve
functional downstream evaluates W, its gradient, or its Hessian through the
`Potential` wrapper defined here.  W and grad W come together from one pass
(`Potential.W_and_grad`): each built-in family writes them in one function
with one shared preamble, and a custom potential composes the user's W and
grad W (or finite differences).  All evaluators accept a single point of
shape (2,) or a batch of shape (N, 2); a custom W and grad W must do the
same, returning one value per point, while Hessians see (N, 2) batches only.
Family parameters must be finite; a bad one raises before anything is
evaluated.

Built-in families:

* homogeneous quadratic     W = l1^2 p1^2 + l2^2 p2^2, single well at 0
* radial quartic            W = r^2 + b r^4 about a center, single well,
                            b > -1
* two-well composite        the radial quartic with b = k^2 - 1 about the
                            nearer of (-1,0), (1,0), capped at k^2 for
                            r >= 1
* custom                    user callables on batches of points, optional
                            analytic derivatives: a missing gradient is the
                            central difference of W, a missing Hessian that
                            of the gradient; the Hessian, given or not, is
                            symmetrized where the potential is made

Both quartic families evaluate r^2 + b r^4 through one kernel (`_quartic`,
`_quartic_hess`).  The two-well composite is Lipschitz but not C^1 across
the unit circles and the vertical axis; derivative queries on those sets
return the one-sided value from inside the near disc.
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
# floor of F in the denominator of grad F = grad W / (2 F)
_SQRT_FLOOR = math.sqrt(1e-300)


def _squared_norms(q: np.ndarray) -> np.ndarray:
    """|q|^2 over the last axis of q, of shape (..., 2)."""
    q0, q1 = q[..., 0], q[..., 1]
    return q0 * q0 + q1 * q1


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of an (n, 2) array.

    sqrt(x0*x0 + x1*x1) is what `np.linalg.norm(x, axis=1)` computes, bit
    for bit, without the overhead of its length-2 reduction.
    """
    return np.sqrt(_squared_norms(x))


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
    `W_and_grad(p)` gives (W, grad W) at p in one pass over the points and
    `eval_W(p)` W alone, at float points of shape (2,) or (N, 2); `hess_W(p)`
    the Hessians of W on an (N, 2) batch.  Each is called unchecked.
    """

    def __init__(self, kind, params, wells_locations, w_grad, hess_W, *,
                 eval_W=None):
        self.kind = kind
        self.params = dict(params)
        # a built-in's W alone is the first half of its one-pass (W, grad W)
        self._eval = eval_W or (lambda p: w_grad(p)[0])
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
        """Hessian of W, with a single point passed on as a batch of one."""
        p = np.asarray(p, dtype=float)
        return self._hess(p.reshape(-1, 2)).reshape(p.shape + (2,))

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
        # equal to 2 sqrt(max(W, 1e-300)): a correctly rounded sqrt is
        # monotone, so flooring F at sqrt(1e-300) saves the second root
        denom = 2.0 * np.maximum(F, _SQRT_FLOOR)
        return F, g / denom[..., None]

    # -- wells --------------------------------------------------------------

    def nearest_well(self, points) -> Tuple[np.ndarray, np.ndarray]:
        """Distance from each point of an (N, 2) batch to its nearest well,
        and that well's index in `wells`; the first well wins a tie.  Needs
        at least one well."""
        d = np.array([_row_norms(points - w.location) for w in self.wells])
        return d.min(axis=0), d.argmin(axis=0)

    def _make_well(self, loc) -> Well:
        eigval, eigvec = np.linalg.eigh(self.hess_W(loc))
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

    def length_scale(self, p, q) -> float:
        """The problem's length: the well separation, else |q - p|, else 1.

        Sets the leakage probe radii, the certificate's loop size and the
        wave profile's well tolerances.
        """
        chord = float(np.linalg.norm(np.subtract(q, p)))
        return self.well_separation() or chord or 1.0


# the parameters each built-in family takes
_FAMILY_PARAMS = {"homogeneous": ("lambda1", "lambda2"),
                  "radial_quartic": ("b", "center"),
                  "two_well": ("k",)}


def from_json_dict(data: dict) -> Potential:
    """Rebuild a built-in potential from {"kind": ..., "params": {...}}.

    A potential or params entry that is no object, a parameter its family
    does not take and a parameter that is no number raise ValueError naming
    the entry and the form it takes; a missing entry raises KeyError with
    its name.
    """
    if not isinstance(data, dict):
        raise ValueError(f'the potential {data!r:.40} must be an object '
                         f'{{"kind": ..., "params": {{...}}}}')
    kind = data["kind"]
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ValueError(f'the potential\'s params {params!r:.40} must be an '
                         f'object {{"name": value, ...}}')
    if not isinstance(kind, str) or kind not in _FAMILY_PARAMS:
        raise ValueError(f"unknown potential kind {kind!r}")
    for name in params:
        if name not in _FAMILY_PARAMS[kind]:
            raise ValueError(f"the {kind} potential takes no parameter "
                             f"{name!r:.40}, only "
                             f"{', '.join(_FAMILY_PARAMS[kind])}")

    def number(name):
        value = params[name]
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"the potential parameter {name!r} must be a "
                             f"number, not {value!r:.40}") from None

    if kind == "homogeneous":
        return make_homogeneous(number("lambda1"), number("lambda2"))
    if kind == "radial_quartic":
        return make_radial_quartic(number("b"),
                                   center=params.get("center", (0.0, 0.0)))
    return make_two_well_k(number("k"))


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------

def _quartic(b: float, r2: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """W = r^2 + b r^4 from the squared radius r2, and the factor
    2 + 4 b r^2 that times the offset q gives grad W."""
    return r2 + b * r2**2, 2.0 + 4.0 * b * r2


def _quartic_hess(b: float, q: np.ndarray, r2: np.ndarray,
                  inside=None) -> np.ndarray:
    """Hessians of r^2 + b r^4 at offsets q of shape (N, 2) with squared
    radii r2, zero where the optional mask `inside` is False."""
    iso, quart = 2.0 + 4.0 * b * r2, 8.0 * b
    if inside is not None:
        iso = np.where(inside, iso, 0.0)
        quart = np.where(inside, quart, 0.0)
    out = np.empty((q.shape[0], 2, 2))
    out[:, 0, 0] = iso + quart * q[:, 0]**2
    out[:, 1, 1] = iso + quart * q[:, 1]**2
    out[:, 0, 1] = out[:, 1, 0] = quart * q[:, 0] * q[:, 1]
    return out


def _check_rates(lambda1: float, lambda2: float) -> None:
    """Rejects homogeneous rates that are not positive, or whose Hessian
    rates 2 lambda^2 are not finite."""
    if not all(0.0 < lam and 2.0 * lam * lam < math.inf
               for lam in (lambda1, lambda2)):
        raise NonPositiveEigenvalue(
            f"lambda1 = {lambda1} and lambda2 = {lambda2} must be positive, "
            f"with the Hessian rates 2 lambda^2 finite")


def make_homogeneous(lambda1: float, lambda2: float) -> Potential:
    """W(p) = lambda1^2 p1^2 + lambda2^2 p2^2, single well at the origin."""
    lambda1, lambda2 = float(lambda1), float(lambda2)
    _check_rates(lambda1, lambda2)
    l1s, l2s = lambda1**2, lambda2**2
    rates = np.array([2.0 * l1s, 2.0 * l2s])

    def w_grad(p):
        return l1s * p[..., 0]**2 + l2s * p[..., 1]**2, rates * p

    def hess(p):
        return np.broadcast_to(np.diag(rates), (p.shape[0], 2, 2)).copy()

    return Potential("homogeneous", {"lambda1": lambda1, "lambda2": lambda2},
                     [(0.0, 0.0)], w_grad, hess)


def make_radial_quartic(b: float, center=(0.0, 0.0)) -> Potential:
    """W(p) = r^2 + b r^4 with r = |p - center|.

    b > -1: for b < 0 the density vanishes on the circle r = 1/sqrt(-b),
    which must lie outside the unit disc about the center.
    """
    b = float(b)
    try:
        c = np.asarray(center, dtype=float)
    except (TypeError, ValueError, OverflowError):
        c = np.empty(0)
    if c.shape != (2,) or not np.all(np.isfinite(c)):
        raise ValueError("center must be a finite point (p1, p2)")
    # 1 + b > 0, and the Hessian's 8 b finite
    if not (-1.0 < b and 8.0 * b < math.inf):
        raise InvalidCoefficient(
            f"b = {b} is too large or makes W vanish within the unit disc")

    def w_grad(p):
        q = p - c
        w, factor = _quartic(b, _squared_norms(q))
        return w, factor[..., None] * q

    def hess(p):
        q = p - c
        return _quartic_hess(b, q, _squared_norms(q))

    return Potential("radial_quartic",
                     {"b": b, "center": [float(c[0]), float(c[1])]},
                     [tuple(c)], w_grad, hess)


def make_two_well_k(k: float) -> Potential:
    """Two-well composite with wells at (-1, 0) and (1, 0).

    About the nearer well, W is the radial quartic with b = k^2 - 1 for
    r <= 1 and the plateau k^2 outside; even under p1 -> -p1.
    """
    k = float(k)
    b = k * k - 1.0
    # the Hessian's 8 b must be finite too
    if not (1.0 < k and 8.0 * b < math.inf):
        raise InvalidK("need k > 1 so the plateau sits above the quartic "
                       "bowl, and 8 (k^2 - 1) finite")

    def split(p):
        """Offsets q from the nearer well (p1 = 0 belongs to the left one)
        and their squared lengths."""
        q = p.copy()
        q[..., 0] -= np.where(p[..., 0] <= 0.0, -1.0, 1.0)
        return q, _squared_norms(q)

    def w_grad(p):
        q, r2 = split(p)
        # the quartic is read inside the unit disc only; clipping r2 keeps
        # it from overflowing far out on the plateau
        w, factor = _quartic(b, np.minimum(r2, 1.0))
        # masked before it multiplies q: a plateau gradient is 0 * q, a
        # zero with the sign of q
        return (np.where(r2 >= 1.0, k * k, w),
                np.where(r2 <= 1.0, factor, 0.0)[..., None] * q)

    def hess(p):
        q, r2 = split(p)
        return _quartic_hess(b, q, np.minimum(r2, 1.0), inside=r2 <= 1.0)

    return Potential("two_well", {"k": k}, [(-1.0, 0.0), (1.0, 0.0)],
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


def _central_difference(f, p):
    """Central differences of the batch function f along both axes at
    points p of shape (..., 2), with step 1e-5 * max(1, |p|) at each point:
    the last axis of the result runs over the two directions."""
    h = FD_STEP_SCALE * np.maximum(1.0, np.linalg.norm(p, axis=-1))
    # the point axes lead f's values and h, so h divides them transposed
    return np.stack([((f(p + h[..., None] * e) - f(p - h[..., None] * e)).T
                      / (2.0 * h).T).T for e in np.eye(2)], axis=-1)


def make_custom(eval_W: Callable, wells=(), grad_W=None,
                hess_W=None) -> Potential:
    """Wrap a user potential.  Every callable must work on batches like the
    built-ins: points of shape (..., 2) give W of shape (...) and grad W of
    shape (..., 2); hess W is called on (N, 2) batches only, a single point
    as a batch of one, and gives (N, 2, 2).  Any other shape raises
    ValueError.  A missing gradient is the central difference of W, and a
    missing Hessian the central difference of the gradient (the given one,
    else the differenced one), with step 1e-5 * max(1, |p|).  The Hessian,
    given or differenced, is symmetrized here, so the wells, the Newton
    polish and the wave spectrum all see 0.5 (H + H^T)."""
    W = _per_point(eval_W, ())
    grad = (functools.partial(_central_difference, W) if grad_W is None
            else _per_point(grad_W, (2,)))
    raw = (functools.partial(_central_difference, grad) if hess_W is None
           else _per_point(hess_W, (2, 2)))

    def hess(p):
        H = raw(p)
        return 0.5 * (H + H.swapaxes(-1, -2))

    return Potential("custom", {}, list(wells),
                     lambda p: (W(p), grad(p)), hess, eval_W=W)
