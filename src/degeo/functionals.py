"""Discrete curves and the two functionals of the constrained problem.

A curve is a polyline, given by its vertex array alone: a closed loop
repeats its first vertex as its last, and every functional runs over the
segments joining consecutive vertices (`segment_geometry`).  The weighted
length ("energy") uses the midpoint rule per segment,

    E = sum_k F(midpoint_k) * |segment_k|,

and the signed area uses the midpoint rule for the 1-form p1 dp2, which is
exact on straight segments.  For closed polylines the area quadrature
reproduces the shoelace value exactly, and the midpoint rule for the polar
form (1/2) r^2 dtheta about any center is exact as well, so the two area
notions differ only by the endpoint term of an exact 1-form.

Accumulations (lift, running area) use a single cumulative-sum pass so the
final lifted height and the reported area agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .potential import Potential, _row_norms


@dataclass
class Curve:
    """Polyline in the plane, given by its vertices alone; a closed loop
    repeats its first vertex as its last."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 2:
            raise ValueError("vertices must have shape (n >= 2, 2)")
        self.vertices = v


@dataclass
class Curve3:
    """Polyline in R^3; the horizontal projection of a lifted plane curve."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 3 or v.shape[0] < 2:
            raise ValueError("vertices must have shape (n >= 2, 3)")
        self.vertices = v

    def project(self) -> Curve:
        return Curve(self.vertices[:, :2].copy())

    @property
    def third_delta(self) -> float:
        return float(self.vertices[-1, 2] - self.vertices[0, 2])


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------

@dataclass
class SegmentGeometry:
    """Per-segment data of a polyline; see segment_geometry."""

    seg: np.ndarray
    L: np.ndarray
    mid: np.ndarray
    T: Optional[np.ndarray] = None
    F: Optional[np.ndarray] = None
    gF: Optional[np.ndarray] = None


def segment_geometry(vertices, potential: Optional[Potential] = None, *,
                     derivatives: bool = False) -> SegmentGeometry:
    """Chords, lengths and midpoints of the segments joining consecutive
    vertices; with a potential, the density F at the midpoints too.

    `derivatives` (which needs the potential) is what a gradient needs: the
    lengths are floored at 1e-300, the unit chords T = seg / L are added,
    and F comes with grad F from one evaluation of W and grad W.
    """
    v = np.asarray(vertices, dtype=float)
    seg = v[1:] - v[:-1]
    geo = SegmentGeometry(seg=seg, L=_row_norms(seg),
                          mid=0.5 * (v[1:] + v[:-1]))
    if derivatives:
        geo.L = np.maximum(geo.L, 1e-300)
        geo.T = seg / geo.L[:, None]
        geo.F, geo.gF = potential.density(geo.mid)
    elif potential is not None:
        geo.F = potential.eval_F(geo.mid)
    return geo


def energy(curve: Curve, potential: Potential) -> float:
    """Weighted length integral F ds by the midpoint rule."""
    geo = segment_geometry(curve.vertices, potential)
    return float((geo.F * geo.L).sum())


def _area_increments(curve: Curve) -> np.ndarray:
    """Per-segment midpoint-rule increments of p1 dp2 (exact on segments)."""
    geo = segment_geometry(curve.vertices)
    return geo.mid[:, 0] * geo.seg[:, 1]


def area(curve: Curve) -> float:
    """Signed area integral of p1 dp2 along the curve.

    For a closed polyline this equals the shoelace area.  Computed as the
    tail of a cumulative sum so that lift() is consistent bit for bit.
    """
    inc = _area_increments(curve)
    return float(np.cumsum(inc)[-1])


def area_polar(curve: Curve, center=(0.0, 0.0)) -> float:
    """Signed integral of (1/2) r^2 dtheta about `center`.

    The per-segment integrand is linear in the parameter, so the midpoint
    rule is exact here too; on closed curves the value coincides with
    area() because the difference of the two forms is exact.
    """
    c = np.asarray(center, dtype=float)
    geo = segment_geometry(curve.vertices)
    mid = geo.mid - c
    inc = 0.5 * (mid[:, 0] * geo.seg[:, 1] - mid[:, 1] * geo.seg[:, 0])
    return float(np.cumsum(inc)[-1])


def lift(curve: Curve) -> Curve3:
    """Horizontal lift: third coordinate accumulates the area increments.

    The lifted polyline has the input's vertices, and its height gain
    equals area(curve); a closed loop ends above its first vertex.
    """
    inc = _area_increments(curve)
    p3 = np.concatenate([[0.0], np.cumsum(inc)])
    return Curve3(np.column_stack([curve.vertices, p3]))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

# rows per block handed to the file: whole tables are never built as text
_CSV_BLOCK = 4096


def table_to_csv(header: str, table, path) -> None:
    """Write a float table to the CSV file at `path`: the header line, then
    one row per line with every value in its shortest round-trip form
    (repr).  Rows go to the file in blocks."""
    table = np.asarray(table, dtype=float)
    row = ",".join(["%r"] * table.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, len(table), _CSV_BLOCK):
            block = table[start:start + _CSV_BLOCK].tolist()
            fh.write("".join([row % tuple(r) for r in block]))


def table_from_csv(path, header: str) -> np.ndarray:
    """Read the table that table_to_csv wrote to the file at `path`; its
    header must be `header`."""
    with open(path) as fh:
        got = ",".join(h.strip() for h in fh.readline().split(","))
        if got != header:
            raise ValueError(f"expected header {header}, got {got!r}")
        rows = [[float(x) for x in line.split(",")] for line in fh
                if line.strip()]
    return np.array(rows, dtype=float).reshape(-1, header.count(",") + 1)


def curve_to_csv(curve: Curve, path) -> None:
    table_to_csv("p1,p2", curve.vertices, path)


def curve_from_csv(path) -> Curve:
    """Read a curve from a p1,p2 CSV file (`curve_to_csv`)."""
    return Curve(table_from_csv(path, "p1,p2"))
