"""Discrete curves and the two functionals of the constrained problem.

A curve is a polyline.  The weighted length ("energy") uses the midpoint
rule per segment,

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

import io
import json
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .potential import Potential


@dataclass
class Curve:
    """Polyline in the plane; closed means the last vertex joins the first
    implicitly (first and last stored vertices are distinct)."""

    vertices: np.ndarray
    closed: bool = False

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 2:
            raise ValueError("vertices must have shape (n >= 2, 2)")
        self.vertices = v

    def path(self) -> np.ndarray:
        """Vertices in traversal order; a closed curve repeats its first."""
        v = self.vertices
        return np.vstack([v, v[:1]]) if self.closed else v

    def segments(self) -> np.ndarray:
        p = self.path()
        return p[1:] - p[:-1]

    def midpoints(self) -> np.ndarray:
        p = self.path()
        return 0.5 * (p[1:] + p[:-1])


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
        return Curve(self.vertices[:, :2].copy(), closed=False)

    @property
    def third_delta(self) -> float:
        return float(self.vertices[-1, 2] - self.vertices[0, 2])


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------

def euclid_length(curve: Curve) -> float:
    return float(np.linalg.norm(curve.segments(), axis=1).sum())


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
                     floor: float = 0.0, tangents: bool = False,
                     gradient: bool = False) -> SegmentGeometry:
    """Chords, lengths and midpoints of the segments joining consecutive
    vertices, plus what the caller asks for.

    Lengths are floored at `floor`; `tangents` adds the unit chords
    T = seg / L (with the floored L).  With a potential the density F at
    the midpoints is added, and `gradient` adds grad F there from the same
    evaluation of W.
    """
    v = np.asarray(vertices, dtype=float)
    seg = v[1:] - v[:-1]
    L = np.linalg.norm(seg, axis=1)
    if floor:
        L = np.maximum(L, floor)
    geo = SegmentGeometry(seg=seg, L=L, mid=0.5 * (v[1:] + v[:-1]))
    if tangents:
        geo.T = seg / L[:, None]
    if potential is not None:
        if gradient:
            geo.F, geo.gF = potential.density(geo.mid)
        else:
            geo.F = potential.eval_F(geo.mid)
    return geo


def energy(curve: Curve, potential: Potential) -> float:
    """Weighted length integral F ds by the midpoint rule."""
    geo = segment_geometry(curve.path(), potential)
    return float((geo.F * geo.L).sum())


def _area_increments(curve: Curve) -> np.ndarray:
    """Per-segment midpoint-rule increments of p1 dp2 (exact on segments)."""
    seg = curve.segments()
    mid = curve.midpoints()
    return mid[:, 0] * seg[:, 1]


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
    seg = curve.segments()
    mid = curve.midpoints() - c
    inc = 0.5 * (mid[:, 0] * seg[:, 1] - mid[:, 1] * seg[:, 0])
    return float(np.cumsum(inc)[-1])


def lift(curve: Curve, p3_start: float = 0.0) -> Curve3:
    """Horizontal lift: third coordinate accumulates the area increments.

    A closed input is traversed once around, so the lifted polyline has one
    more vertex than the input and its height gain equals area(curve).
    """
    inc = _area_increments(curve)
    p3 = p3_start + np.concatenate([[0.0], np.cumsum(inc)])
    return Curve3(np.column_stack([curve.path(), p3]))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

# rows per block handed to the file: whole tables are never built as text
_CSV_BLOCK = 4096


def table_to_csv(header: str, table, file=None):
    """Write a float table as CSV: the header line, then one row per line
    with every value in its shortest round-trip form (repr).

    `file` is a path or an open text stream; rows are streamed to it in
    blocks.  With no file the text is returned instead.
    """
    if file is None:
        buf = io.StringIO()
        table_to_csv(header, table, buf)
        return buf.getvalue()
    if isinstance(file, (str, os.PathLike)):
        with open(file, "w") as fh:
            return table_to_csv(header, table, fh)
    table = np.asarray(table, dtype=float)
    row = ",".join(["%r"] * table.shape[1]) + "\n"
    file.write(header + "\n")
    for start in range(0, len(table), _CSV_BLOCK):
        block = table[start:start + _CSV_BLOCK].tolist()
        file.write("".join([row % tuple(r) for r in block]))


def table_from_csv(file, *headers: str) -> np.ndarray:
    """Read a table written by table_to_csv from a text stream; its header
    must be one of `headers`."""
    header = ",".join(h.strip() for h in file.readline().split(","))
    if header not in headers:
        raise ValueError(f"expected header {' or '.join(headers)}, "
                         f"got {header!r}")
    rows = [[float(x) for x in line.split(",")] for line in file
            if line.strip()]
    return np.array(rows, dtype=float).reshape(-1, header.count(",") + 1)


def curve_to_csv(curve: Curve, file=None):
    return table_to_csv("p1,p2", curve.vertices, file)


def curve3_to_csv(curve: Curve3) -> str:
    return table_to_csv("p1,p2,p3", curve.vertices)


def curve_from_csv(text: str):
    """Read a curve from CSV with header p1,p2 or p1,p2,p3."""
    data = table_from_csv(io.StringIO(text), "p1,p2", "p1,p2,p3")
    return Curve(data) if data.shape[1] == 2 else Curve3(data)


def curve_to_json_dict(curve: Curve) -> dict:
    return {"closed": bool(curve.closed),
            "vertices": [[float(a), float(b)] for a, b in curve.vertices]}


def curve_from_json_dict(data: dict) -> Curve:
    return Curve(np.asarray(data["vertices"], dtype=float),
                 closed=bool(data.get("closed", False)))


def curve_to_json(curve: Curve) -> str:
    return json.dumps(curve_to_json_dict(curve), sort_keys=True)


def curve_from_json(text: str) -> Curve:
    return curve_from_json_dict(json.loads(text))
