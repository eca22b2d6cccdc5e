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
settle.

The discretized second variation is a band matrix of half-bandwidth 2.
Its lowest eigenvalues come from LAPACK's dsbevx and its modes from
inverse iteration with dgbtrf and dgbtrs, all three from the `_flapack`
extension module the solver loads, so importing this module imports
neither scipy.linalg nor scipy.sparse (their package inits cost about
0.3 s and 27 MB per process).  At the 928 unknowns of a 384-vertex
standing wave the four lowest pairs take about half the time of ARPACK's
shift-invert mode (4.4 to 7.5 ms against 9.3 to 15 ms, alternating runs
on a shared 2-core box).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import BubbleDetected, GridTooCoarse
from .functionals import segment_geometry, table_from_csv, table_to_csv
from .potential import Potential
from .solver import SolveResult, _flapack

_SQRT2 = math.sqrt(2.0)
# dsbevx's absolute tolerance on the eigenvalues: twice the underflow
# threshold, at which LAPACK's bisection computes them most accurately
_ABSTOL = 2.0 * np.finfo(float).tiny


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
    if len(v) < 4:
        raise ValueError("curve too short for a profile")
    scale = potential.length_scale(v[0], v[-1])
    tol = 1e-4 * scale

    if potential.wells:
        dists, nearest = potential.nearest_well(v)
        inside = dists < tol
        outside = np.flatnonzero(~inside)
        if outside.size and inside[outside[0]:outside[-1]].any():
            raise BubbleDetected(
                "curve revisits a well neighborhood away from its ends")
        # trim each end's run to its outermost vertex, snapped below; a
        # curve wholly inside keeps its first vertex alone
        keep = ~inside
        keep[0], keep[-1] = True, outside.size > 0
        v = v[keep]
        # the trim keeps both ends, so theirs are dists' first and last
        d0, d1 = dists[[0, -1]]
        w0, w1 = (potential.wells[i].location for i in nearest[[0, -1]])
        if d0 < tol:
            v[0] = w0
            v = np.vstack([v[:1], _ray_chain(w0, v[1], 1e-8 * scale), v[1:]])
        if d1 < tol:
            v[-1] = w1
            chain = _ray_chain(w1, v[-2], 1e-8 * scale)
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
    """Trapezoidal value of the integral of |U'|^2 / 2 + W(U) over the grid:
    the sum of `hamiltonian_splits`."""
    return sum(hamiltonian_splits(profile, potential))


def hamiltonian_splits(profile: WaveProfile, potential: Potential
                       ) -> Tuple[float, float]:
    """Kinetic and potential halves of H separately."""
    d = _full_derivative(profile)
    kin = float(np.trapezoid(0.5 * np.sum(d * d, axis=1), profile.y_grid))
    pot = float(np.trapezoid(potential.eval_W(profile.U), profile.y_grid))
    return kin, pot


# ---------------------------------------------------------------------------
# second variation of H along the profile
# ---------------------------------------------------------------------------

def _assemble_band(profile: WaveProfile, potential: Potential):
    """M^{-1/2} K M^{-1/2} in LAPACK's general band storage, and the lumped
    mass M, on the interior nodes.

    Node i's two components are rows 2i and 2i + 1.  K, the stiffness plus
    curvature form, has 2x2 blocks 1/h_i + 1/h_{i+1} plus M_i hess W(U_i)
    on the diagonal and -1/h_{i+1} coupling each component to the same
    component of the next node, two rows on; so the half-bandwidth is 2.
    The storage is dgbtrf's with kl = ku = 2: row 4 + d holds the d-th
    diagonal (rows 4 to 6 are dsbevx's lower storage of the symmetric
    matrix), and rows 0 and 1 are left for the fill-in of row pivoting.
    """
    y, U = profile.y_grid, profile.U
    h = np.diff(y)
    mass_node = 0.5 * (h[:-1] + h[1:])
    inv_h = 1.0 / h
    hess = potential.hess_W(U[1:-1])
    band = np.zeros((7, 2 * mass_node.size))
    stiff = (inv_h[:-1] + inv_h[1:]) / mass_node
    band[4, 0::2] = stiff + hess[:, 0, 0]
    band[4, 1::2] = stiff + hess[:, 1, 1]
    band[5, 0::2] = hess[:, 0, 1]
    band[6, :-2] = np.repeat(-inv_h[1:-1]
                             / np.sqrt(mass_node[:-1] * mass_node[1:]), 2)
    band[3, 1:] = band[5, :-1]
    band[2, 2:] = band[6, :-2]
    return band, np.repeat(mass_node, 2)


def _lowest_pairs(band: np.ndarray, k: int):
    """The k lowest eigenvalues of the symmetric band matrix in `band`
    (`_assemble_band`'s storage), ascending, and orthonormal eigenvectors
    as the columns of a (dim, k) array.

    LAPACK's dsbevx gives the eigenvalues, selected by index, without
    forming the eigenvectors.  Each vector then comes from three steps of
    inverse iteration (dgbtrf once, dgbtrs per step) at a shift just below
    its eigenvalue, so the factorization is never exactly singular, from a
    fixed start vector; each step is orthogonalized against the vectors
    before it, which keeps clustered and degenerate pairs apart.
    """
    dim = band.shape[1]
    vals, _, _, _, info = _flapack.dsbevx(band[4:], 0.0, 0.0, 1, k,
                                          compute_v=0, range=2, lower=1,
                                          overwrite_ab=0, abstol=_ABSTOL)
    if info != 0:
        raise ValueError(f"dsbevx failed to converge (info = {info})")
    vals = vals[:k]
    # each shift sits 10 eps |B| below its eigenvalue, past the eigenvalue's
    # own rounding; an eigenvalue g away shrinks by about offset / g a step
    offset = 10.0 * np.finfo(float).eps * float(
        np.abs(band[4]).max() + 2.0 * np.abs(band[5:]).max())
    start = np.cos(np.arange(dim) + 1.0)
    vecs = np.zeros((dim, k))
    for j, theta in enumerate(vals):
        shifted = band.copy()
        shifted[4] -= theta - offset
        lu, piv, info = _flapack.dgbtrf(shifted, 2, 2)
        if info != 0:
            raise ValueError(f"inverse iteration at the eigenvalue {theta:g}"
                             f" met an exactly singular shift")
        x = start
        for _ in range(3):
            x, _ = _flapack.dgbtrs(lu, 2, 2, x, piv)
            x -= vecs[:, :j] @ (vecs[:, :j].T @ x)
            x /= np.linalg.norm(x)
        vecs[:, j] = x
    return vals, vecs


def second_variation_spectrum(profile: WaveProfile, potential: Potential,
                              k: int) -> Tuple[List[float], np.ndarray]:
    """k smallest eigenvalues of the second variation, plus the mode that
    best matches the discrete translation direction U'.

    Generalized symmetric problem K phi = theta M phi with lumped mass and
    homogeneous Dirichlet ends, solved as the standard problem of
    B = M^{-1/2} K M^{-1/2}, a band matrix of half-bandwidth 2
    (`_assemble_band`), by `_lowest_pairs`.  The returned mode is the one
    `zero_mode_alignment` ranks highest (the first on a tie), padded with
    zeros at the two Dirichlet nodes.  A profile on which the second
    variation is not finite raises ValueError.
    """
    if k < 1:
        raise ValueError("k must be positive")
    n = len(profile)
    if n < 18:
        raise GridTooCoarse("need at least 16 interior grid points")
    band, M = _assemble_band(profile, potential)
    if not np.all(np.isfinite(band)):
        raise ValueError("the second variation is not finite on this profile")
    k_eff = min(k, band.shape[1])
    vals, vecs = _lowest_pairs(band, k_eff)
    vecs /= np.sqrt(M)[:, None]
    modes = np.zeros((k_eff, n, 2))
    modes[:, 1:-1] = vecs.T.reshape(k_eff, n - 2, 2)
    best = max(range(k_eff),
               key=lambda j: zero_mode_alignment(profile, modes[j]))
    return [float(t) for t in vals], modes[best]


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
