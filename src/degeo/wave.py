"""Traveling-wave profiles extracted from constrained minimizers.

A minimizer of the weighted length with multiplier lam becomes, after
switching to the parametrization with |U'| = sqrt(2 W(U)), a profile of the
wave equation

    U'' - grad W(U) + nu J U' = 0,      J(x, y) = (y, -x),

with speed nu = sqrt(2) * lam.  The square root of two is forced by the
chain rule: in this parametrization U'' - grad W(U) = 2 F lam N while
J U' = -sqrt(2W) N, so the residual vanishes exactly at nu = sqrt(2) * lam
(checked against the explicit circular orbit of the quadratic one-well
potential, where lam = 2 and nu = 2 sqrt(2)).

Profiles approach wells only asymptotically; the grid is extended into each
well-directed end by a geometric ray refinement so that the discretized
second variation sees enough of the exponential tail for its low modes to
settle.  The leftover energy beyond the grid is reported by a separate tail
estimate rather than silently added.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh as _dense_eigh
from scipy.sparse.linalg import eigsh as _sparse_eigsh

from .errors import BubbleDetected, GridTooCoarse
from .functionals import segment_geometry, table_from_csv, table_to_csv
from .potential import Potential
from .solver import SolveResult

log = logging.getLogger("degeo.wave")

_SQRT2 = math.sqrt(2.0)


@dataclass
class WaveProfile:
    y_grid: np.ndarray
    U: np.ndarray
    nu: float

    def __post_init__(self):
        self.y_grid = np.asarray(self.y_grid, dtype=float)
        self.U = np.asarray(self.U, dtype=float)
        if self.y_grid.ndim != 1:
            raise ValueError("y_grid must be one-dimensional")
        if self.U.shape != (self.y_grid.size, 2):
            raise ValueError("U must be an (n, 2) array matching y_grid")
        if self.y_grid.size < 2:
            raise ValueError("profile needs at least two samples")
        if not np.all(np.diff(self.y_grid) > 0.0):
            raise ValueError("y_grid must be strictly increasing")
        if not (np.all(np.isfinite(self.y_grid)) and np.all(np.isfinite(self.U))
                and np.isfinite(self.nu)):
            raise ValueError("profile data must be finite")

    def __len__(self):
        return self.y_grid.size


def _nearest_well(potential: Potential, point: np.ndarray):
    best = None
    for well in potential.wells:
        d = float(np.linalg.norm(point - well.location))
        if best is None or d < best[0]:
            best = (d, well)
    return best


def _ray_chain(well: np.ndarray, target: np.ndarray, floor: float) -> np.ndarray:
    """Geometrically spaced points from just off the well toward target."""
    d1 = float(np.linalg.norm(target - well))
    if d1 <= floor:
        return np.empty((0, 2))
    e = (target - well) / d1
    g = 0.75
    K = max(0, int(math.ceil(math.log(d1 / floor) / math.log(1.0 / g))) - 1)
    ds = d1 * g ** np.arange(K, 0, -1)
    return well[None, :] + ds[:, None] * e[None, :]


def to_traveling_wave(result: SolveResult, potential: Potential) -> WaveProfile:
    """Reparametrize a converged minimizer as a traveling-wave profile.

    Interior revisits of a well neighborhood mean the curve pinches off a
    bubble and no single heteroclinic-type profile exists; those raise
    BubbleDetected, as does a result already carrying the non-existence
    flag.  Ends sitting at a well are snapped onto it and refined by a
    geometric ray so the asymptotic approach is resolved.  Endpoints away
    from every well are left alone (pinned-end geodesics are allowed).
    """
    # the flag first: a non-existence certificate is never converged
    if result.nonexistence_suspected:
        raise BubbleDetected("area is trapped at a well; no wave profile")
    if not result.converged:
        raise ValueError("wave profile requires a converged result")
    v = result.curve.vertices.copy()
    n = len(v)
    if n < 4:
        raise ValueError("curve too short for a profile")
    scale = potential.length_scale(v[0], v[-1])
    tol = 1e-4 * scale

    if potential.wells:
        dists = np.min([np.linalg.norm(v - w.location, axis=1)
                        for w in potential.wells], axis=0)
        inside = dists < tol
        idx = np.flatnonzero(inside)
        keep = np.ones(n, dtype=bool)
        if idx.size:
            runs = np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1)
            for run in runs:
                if run[0] == 0 or run[-1] == n - 1:
                    # trim the run to its outermost vertex, snapped below
                    end = 0 if run[0] == 0 else n - 1
                    keep[run] = False
                    keep[end] = True
                else:
                    raise BubbleDetected(
                        "curve revisits a well neighborhood away from its ends")
        v = v[keep]
        pieces = [v]
        d0, w0 = _nearest_well(potential, v[0])
        if d0 < tol:
            v[0] = w0.location
            chain = _ray_chain(w0.location, v[1], 1e-8 * scale)
            pieces = [v[:1], chain, v[1:]]
        v = np.vstack(pieces)
        d1, w1 = _nearest_well(potential, v[-1])
        if d1 < tol:
            v[-1] = w1.location
            chain = _ray_chain(w1.location, v[-2], 1e-8 * scale)
            v = np.vstack([v[:-1], chain[::-1], v[-1:]])

    # drop exact duplicates so every segment has positive length
    v = v[np.concatenate([[True], segment_geometry(v).L > 0.0])]
    geo = segment_geometry(v)
    dy = geo.L / np.sqrt(2.0 * np.maximum(potential.eval_W(geo.mid), 1e-300))
    y = np.concatenate([[0.0], np.cumsum(dy)])
    y -= 0.5 * (y[0] + y[-1])
    return WaveProfile(y_grid=y, U=v, nu=_SQRT2 * result.multiplier)


# ---------------------------------------------------------------------------
# finite differences on the nonuniform grid
# ---------------------------------------------------------------------------

def _derivatives(profile: WaveProfile) -> Tuple[np.ndarray, np.ndarray]:
    """(U', U'') at interior nodes, three-point nonuniform stencils."""
    y, U = profile.y_grid, profile.U
    hm = (y[1:-1] - y[:-2])[:, None]
    hp = (y[2:] - y[1:-1])[:, None]
    um, u0, up = U[:-2], U[1:-1], U[2:]
    d1 = (hm**2 * up + (hp**2 - hm**2) * u0 - hp**2 * um) / (hm * hp * (hm + hp))
    d2 = 2.0 * ((up - u0) / hp - (u0 - um) / hm) / (hm + hp)
    return d1, d2


def _full_derivative(profile: WaveProfile) -> np.ndarray:
    """U' at every node; one-sided at the two ends."""
    y, U = profile.y_grid, profile.U
    d = np.empty_like(U)
    d[1:-1], _ = _derivatives(profile)
    d[0] = (U[1] - U[0]) / (y[1] - y[0])
    d[-1] = (U[-1] - U[-2]) / (y[-1] - y[-2])
    return d


def wave_residual(profile: WaveProfile, potential: Potential) -> float:
    """Max norm of U'' - grad W(U) + nu J U', relative to the field sizes."""
    if len(profile) < 18:
        raise GridTooCoarse("need at least 16 interior grid points")
    d1, d2 = _derivatives(profile)
    gW = potential.grad_W(profile.U)
    Jd1 = np.stack([d1[:, 1], -d1[:, 0]], axis=1)
    R = d2 - gW[1:-1] + profile.nu * Jd1
    num = float(np.linalg.norm(R, axis=1).max())
    denom = float(np.linalg.norm(gW, axis=1).max()) \
        + abs(profile.nu) * float(np.linalg.norm(d1, axis=1).max())
    if denom < 1e-300:
        return num
    return num / denom


def hamiltonian_energy(profile: WaveProfile, potential: Potential) -> float:
    """Trapezoidal value of the integral of |U'|^2 / 2 + W(U) over the grid."""
    d = _full_derivative(profile)
    integrand = 0.5 * np.sum(d * d, axis=1) + potential.eval_W(profile.U)
    return float(np.trapezoid(integrand, profile.y_grid))


def hamiltonian_splits(profile: WaveProfile, potential: Potential
                       ) -> Tuple[float, float]:
    """Kinetic and potential halves of H separately."""
    d = _full_derivative(profile)
    kin = float(np.trapezoid(0.5 * np.sum(d * d, axis=1), profile.y_grid))
    pot = float(np.trapezoid(potential.eval_W(profile.U), profile.y_grid))
    return kin, pot


def hamiltonian_tail_estimate(profile: WaveProfile, potential: Potential
                              ) -> float:
    """Energy hiding beyond the grid ends, from the linearized well decay.

    Only ends pointing into a well (within 1e-2 of the well scale) carry a
    tail; pinned ends away from wells contribute nothing by construction.
    """
    if not potential.wells:
        return 0.0
    scale = potential.length_scale(profile.U[0], profile.U[-1])
    total = 0.0
    for end in (profile.U[0], profile.U[-1]):
        d, well = _nearest_well(potential, end)
        if d <= 1e-2 * scale:
            lam_min = min(well.lambda1, well.lambda2)
            total += lam_min * d * d / _SQRT2
    return total


# ---------------------------------------------------------------------------
# second variation of H along the profile
# ---------------------------------------------------------------------------

def _assemble_forms(profile: WaveProfile, potential: Potential):
    """Stiffness-plus-curvature form and lumped mass on interior nodes."""
    y, U = profile.y_grid, profile.U
    n = y.size
    m = n - 2
    h = np.diff(y)
    mass_node = 0.5 * (h[:-1] + h[1:])

    diag = np.zeros((m, 2, 2))
    inv_h = 1.0 / h
    diag[:, 0, 0] = inv_h[:-1] + inv_h[1:]
    diag[:, 1, 1] = diag[:, 0, 0]
    hess = potential.hess_W(U[1:-1])
    diag += mass_node[:, None, None] * hess

    # 2x2 blocks on the diagonal, -1/h coupling each component to the same
    # component of the next node two rows on
    blocks = sp.bsr_matrix((diag, np.arange(m), np.arange(m + 1)),
                           shape=(2 * m, 2 * m))
    off = np.repeat(-inv_h[1:-1], 2)
    K = (blocks + sp.diags([off, off], [2, -2])).tocsr()
    K.eliminate_zeros()
    M = np.repeat(mass_node, 2)
    return K, M


def second_variation_spectrum(profile: WaveProfile, potential: Potential,
                              k: int) -> Tuple[List[float], np.ndarray]:
    """k smallest eigenvalues of the second variation, plus the mode that
    best matches the discrete translation direction U'.

    Generalized symmetric problem K phi = theta M phi with lumped mass and
    homogeneous Dirichlet ends, solved by ARPACK in shift-invert mode from
    a deterministic start vector; the dense solver runs only when ARPACK
    raises or k asks for dim - 1 or more eigenvalues.  The returned mode is
    the one `zero_mode_alignment` ranks highest (the first on a tie),
    padded with zeros at the two Dirichlet nodes.
    """
    if k < 1:
        raise ValueError("k must be positive")
    n = len(profile)
    if n < 18:
        raise GridTooCoarse("need at least 16 interior grid points")
    K, M = _assemble_forms(profile, potential)
    dim = K.shape[0]
    k_eff = min(k, dim - 1)
    vals = None
    if k_eff < dim - 1:
        Minv_half = 1.0 / np.sqrt(M)
        B = sp.diags(Minv_half) @ K @ sp.diags(Minv_half)
        try:
            vals, vecs = _sparse_eigsh(B, k=k_eff, sigma=-1.0, which="LM",
                                       v0=np.ones(dim), tol=0)
            vecs = Minv_half[:, None] * vecs
        except RuntimeError as exc:
            # ArpackError, or "Factor is exactly singular" from the
            # shift-invert LU; both subclass RuntimeError
            log.debug("sparse eigensolver failed (%s); using the dense path",
                      exc)
    if vals is None:
        dense = K.toarray() / np.sqrt(M)[:, None] / np.sqrt(M)[None, :]
        vals, vecs = _dense_eigh(dense)
        vals, vecs = vals[:k_eff], (vecs / np.sqrt(M)[:, None])[:, :k_eff]
    order = np.argsort(vals)
    modes = np.zeros((k_eff, n, 2))
    modes[:, 1:-1] = vecs[:, order].T.reshape(k_eff, n - 2, 2)
    best = max(range(k_eff),
               key=lambda j: zero_mode_alignment(profile, modes[j]))
    return [float(t) for t in vals[order]], modes[best]


def zero_mode_alignment(profile: WaveProfile, mode: np.ndarray) -> float:
    """|cos| between a mode and the discrete U' in the lumped-mass metric."""
    mode = np.asarray(mode, dtype=float)
    if mode.shape != profile.U.shape:
        raise ValueError("mode must match the profile grid")
    h = np.diff(profile.y_grid)
    M = 0.5 * (h[:-1] + h[1:])
    d1, _ = _derivatives(profile)
    phi = mode[1:-1]
    num = abs(float(np.sum(M * np.sum(phi * d1, axis=1))))
    na = math.sqrt(float(np.sum(M * np.sum(phi * phi, axis=1))))
    nb = math.sqrt(float(np.sum(M * np.sum(d1 * d1, axis=1))))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return num / (na * nb)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def profile_to_csv(profile: WaveProfile, path: str) -> None:
    table_to_csv("y,u1,u2", np.column_stack([profile.y_grid, profile.U]), path)


def profile_from_csv(path: str, nu: float = 0.0) -> WaveProfile:
    data = table_from_csv(path, "y,u1,u2")
    return WaveProfile(y_grid=data[:, 0], U=data[:, 1:3], nu=nu)
