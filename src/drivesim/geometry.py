"""Planar geometry: polylines, curvilinear frames, oriented boxes, containment.

Everything here is immutable after construction and safe to share across
processes. Distances are meters, angles radians.
"""

from __future__ import annotations

import math

import numpy as np


class GeometryError(ValueError):
    pass


class Polyline:
    """Ordered sequence of >=2 distinct points with cumulative arc length."""

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] != 2:
            raise GeometryError("Polyline needs >=2 points of shape (n, 2)")
        if not np.all(np.isfinite(pts)):
            raise GeometryError("Polyline points must be finite")
        seg = np.diff(pts, axis=0)
        seg_len = np.hypot(seg[:, 0], seg[:, 1])
        if np.any(seg_len < 1e-12):
            raise GeometryError("consecutive Polyline points must be distinct")
        self.points = pts
        self.points.setflags(write=False)
        self.segment_lengths = seg_len
        self.cumulative_arclength = np.concatenate([[0.0], np.cumsum(seg_len)])

    @property
    def length(self) -> float:
        return float(self.cumulative_arclength[-1])

    def point_at(self, s: float) -> np.ndarray:
        """Point at arc length s (clamped to [0, length])."""
        s = min(max(s, 0.0), self.length)
        i = int(np.searchsorted(self.cumulative_arclength, s, side="right") - 1)
        i = min(i, len(self.segment_lengths) - 1)
        t = (s - self.cumulative_arclength[i]) / self.segment_lengths[i]
        return self.points[i] + t * (self.points[i + 1] - self.points[i])


def _normalize_rows(v: np.ndarray) -> np.ndarray:
    n = np.hypot(v[:, 0], v[:, 1])
    n = np.where(n < 1e-15, 1.0, n)
    return v / n[:, None]


class CurvilinearFrame:
    """Arc-length parameterized reference path with Cartesian <-> (s, d) maps.

    Tangents come from central differences over the reference polyline;
    curvature is the arc-length derivative of the tangent angle. The lateral
    offset d is positive to the left of the travel direction.
    """

    def __init__(self, reference: Polyline):
        self.reference = reference
        pts = reference.points
        s = reference.cumulative_arclength
        # central differences in arc length; one-sided at the ends
        tang = np.empty_like(pts)
        tang[1:-1] = pts[2:] - pts[:-2]
        tang[0] = pts[1] - pts[0]
        tang[-1] = pts[-1] - pts[-2]
        self.tangents = _normalize_rows(tang)
        self.tangents.setflags(write=False)
        angles = np.unwrap(np.arctan2(self.tangents[:, 1], self.tangents[:, 0]))
        self._vertex_angles = angles
        self._vertex_angles.setflags(write=False)
        self.curvatures = np.gradient(angles, s)
        if not np.all(np.isfinite(self.curvatures)):
            raise GeometryError("non-finite curvature in reference path")
        self.curvatures.setflags(write=False)
        # per-segment start, offset and unit direction, used by projection
        # and its inverse
        self._seg_start = pts[:-1]
        self._seg = np.diff(pts, axis=0)
        self._seg_len2 = np.einsum("ij,ij->i", self._seg, self._seg)
        self._seg_dir = _normalize_rows(self._seg)

    @property
    def length(self) -> float:
        return self.reference.length

    def _at_vertices(self, s, values: np.ndarray):
        """Per-vertex values interpolated at arc length s, clamped to
        [0, length]: a float for a number, elementwise for an array."""
        cum = self.reference.cumulative_arclength
        if isinstance(s, np.ndarray):
            return np.interp(np.clip(s, 0.0, self.length), cum, values)
        return float(np.interp(min(max(s, 0.0), self.length), cum, values))

    def curvature_at(self, s):
        return self._at_vertices(s, self.curvatures)

    def tangent_angle_at(self, s: float) -> float:
        s = min(max(s, 0.0), self.length)
        cum = self.reference.cumulative_arclength
        i = int(np.searchsorted(cum, s, side="right") - 1)
        i = min(max(i, 0), len(self._seg_dir) - 1)
        d = self._seg_dir[i]
        return math.atan2(d[1], d[0])

    def tangent_angle_smooth(self, s):
        """Tangent angle interpolated between vertices (C0 in s), for sampling
        continuous heading profiles; projection uses the exact per-segment
        directions instead."""
        return self._at_vertices(s, self._vertex_angles)

    def _closest(self, p):
        """Closest reference point to p: (segment index, segment parameter
        before and after clamping to [0, 1], foot point, squared distance)."""
        t = np.einsum("ij,ij->i", p[None, :] - self._seg_start, self._seg) / self._seg_len2
        t_clamped = np.clip(t, 0.0, 1.0)
        foot = self._seg_start + t_clamped[:, None] * self._seg
        diff = p[None, :] - foot
        dist2 = np.einsum("ij,ij->i", diff, diff)
        i = int(np.argmin(dist2))
        return i, t[i], t_clamped[i], foot[i], dist2[i]

    def distance(self, p) -> float:
        """Euclidean distance from p to the reference polyline."""
        return math.sqrt(self._closest(np.asarray(p, dtype=float))[4])

    def project(self, p) -> tuple[float, float, bool]:
        """Project p onto the reference.

        Returns (s, d, in_domain). d > 0 means left of the path. Points whose
        closest reference point is a clamped endpoint are flagged
        in_domain=False but still get the clamped (s, d).
        """
        p = np.asarray(p, dtype=float)
        i, t, t_clamped, foot, _ = self._closest(p)
        ref = self.reference
        s = float(ref.cumulative_arclength[i] + t_clamped * ref.segment_lengths[i])
        u = self._seg_dir[i]
        rel = p - foot
        d = float(u[0] * rel[1] - u[1] * rel[0])
        in_domain = not ((i == 0 and t < 0.0) or (i == len(self._seg) - 1 and t > 1.0))
        return s, d, in_domain

    def to_cartesian(self, s: float, d: float) -> np.ndarray:
        """Inverse of project on its domain.

        Raises GeometryError on fold-over, i.e. |d * curvature(s)| >= 1.
        """
        if s < -1e-9 or s > self.length + 1e-9:
            raise GeometryError(f"s={s} outside reference [0, {self.length}]")
        if abs(d * self.curvature_at(s)) >= 1.0:
            raise GeometryError(
                f"lateral offset d={d} folds over at curvature {self.curvature_at(s)}"
            )
        s = min(max(s, 0.0), self.length)
        cum = self.reference.cumulative_arclength
        i = int(np.searchsorted(cum, s, side="right") - 1)
        i = min(max(i, 0), len(self._seg_dir) - 1)
        base = self.reference.points[i] + (s - cum[i]) * self._seg_dir[i]
        u = self._seg_dir[i]
        normal = np.array([-u[1], u[0]])
        return base + d * normal


class Polygon:
    """Simple closed ring of >=3 vertices."""

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] < 3 or v.shape[1] != 2:
            raise GeometryError("Polygon needs >=3 vertices of shape (n, 2)")
        if not np.all(np.isfinite(v)):
            raise GeometryError("Polygon vertices must be finite")
        self.vertices = v
        self.vertices.setflags(write=False)

    @property
    def area(self) -> float:
        v = self.vertices
        x, y = v[:, 0], v[:, 1]
        return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))

    def bounds(self) -> tuple[float, float, float, float]:
        v = self.vertices
        return v[:, 0].min(), v[:, 1].min(), v[:, 0].max(), v[:, 1].max()

    def contains_points(self, points, boundary_tol: float = 1e-9) -> np.ndarray:
        """Vectorized point-in-polygon (crossing number); boundary counts inside."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        v = self.vertices
        x1, y1 = v[:, 0], v[:, 1]
        x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
        px = pts[:, 0][:, None]
        py = pts[:, 1][:, None]
        # crossing number over all edges
        cond = (y1[None, :] <= py) != (y2[None, :] <= py)
        denom = y2 - y1
        denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        xints = x1[None, :] + (py - y1[None, :]) * (x2 - x1)[None, :] / denom[None, :]
        inside = np.sum(cond & (px < xints), axis=1) % 2 == 1
        # boundary test: distance to each edge
        ex, ey = (x2 - x1), (y2 - y1)
        el2 = np.where(ex * ex + ey * ey < 1e-300, 1e-300, ex * ex + ey * ey)
        t = ((px - x1[None, :]) * ex[None, :] + (py - y1[None, :]) * ey[None, :]) / el2[None, :]
        t = np.clip(t, 0.0, 1.0)
        fx = x1[None, :] + t * ex[None, :]
        fy = y1[None, :] + t * ey[None, :]
        d2 = (px - fx) ** 2 + (py - fy) ** 2
        on_edge = np.any(d2 <= boundary_tol**2, axis=1)
        return inside | on_edge


# ---------------------------------------------------------------------------
# Oriented boxes
#
# A box is a float array whose last axis is (cx, cy, heading, length, width).
# Every function below broadcasts over the leading axes, so one call covers
# any number of boxes or box pairs. Corners, projections and dot products go
# through matmul and vecdot, not elementwise arithmetic: the BLAS kernels
# behind them may fuse multiply-adds, so an elementwise rewrite would move
# results in the last bit and change the digests of tools/digests.py.

_CORNER_SIGNS = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])


def occupancy(state, length, width) -> np.ndarray:
    """Box of a vehicle state (anything with x, y, theta), or boxes (n, 5) of
    a sequence of states; length and width broadcast against them."""
    if np.any(np.asarray(length) <= 0) or np.any(np.asarray(width) <= 0):
        raise GeometryError("shape must be positive")
    if hasattr(state, "theta"):
        pose = np.array([state.x, state.y, state.theta], dtype=float)
    else:
        pose = np.array([(s.x, s.y, s.theta) for s in state], dtype=float).reshape(-1, 3)
    if not np.isfinite(pose[..., :2]).all():
        raise GeometryError("box centre must be finite")
    box = np.empty(np.broadcast_shapes(pose.shape[:-1], np.shape(length), np.shape(width)) + (5,))
    box[..., :3] = pose
    box[..., 3] = length
    box[..., 4] = width
    return box


def _axes(box: np.ndarray) -> np.ndarray:
    """Unit heading and left normal of each box as rows (..., 2, 2)."""
    c, s = np.cos(box[..., 2]), np.sin(box[..., 2])
    axes = np.empty(box.shape[:-1] + (2, 2))
    axes[..., 0, 0], axes[..., 0, 1], axes[..., 1, 0], axes[..., 1, 1] = c, s, -s, c
    return axes


def _corners(box: np.ndarray, axes: np.ndarray) -> np.ndarray:
    local = 0.5 * box[..., None, 3:5] * _CORNER_SIGNS
    return local @ axes + box[..., None, :2]


def box_corners(box) -> np.ndarray:
    """Corners (..., 4, 2), counter-clockwise from the front left."""
    box = np.asarray(box, dtype=float)
    return _corners(box, _axes(box))


def _pairs(a, b):
    """Broadcast two box arrays and flatten them to (n, 5) each."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    return a.shape[:-1], a.reshape(-1, 5), b.reshape(-1, 5)


def _project(points: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """Projections (..., k, p) of points (..., p, 2) on axes (..., k, 2)."""
    return (points[..., None, :, :] @ axes[..., :, :, None])[..., 0]


def _separated(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Whether the projections (..., axes, points) of two convex sets leave a
    gap on some axis; touching intervals do not."""
    return np.any((pa.max(axis=-1) < pb.min(axis=-1)) | (pb.max(axis=-1) < pa.min(axis=-1)),
                  axis=-1)


def boxes_intersect(a, b):
    """Separating-axis test per pair of boxes (Gottschalk et al., "OBBTree",
    SIGGRAPH 1996); touching boundaries count as intersecting. Pairs whose
    centres are farther apart than the sum of the circumradii are decided by
    that alone; only the rest run the axis test."""
    shape, a, b = _pairs(a, b)
    reach = 0.5 * (np.hypot(a[:, 3], a[:, 4]) + np.hypot(b[:, 3], b[:, 4]))
    hit = np.hypot(b[:, 0] - a[:, 0], b[:, 1] - a[:, 1]) <= reach
    if hit.any():
        a, b = a[hit], b[hit]
        axes_a, axes_b = _axes(a), _axes(b)
        axes = np.concatenate([axes_a, axes_b], axis=-2)
        hit[hit] = ~_separated(_project(_corners(a, axes_a), axes),
                               _project(_corners(b, axes_b), axes))
    return hit.reshape(shape)[()]


def _corner_to_edge(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Smallest distance (n,) from a corner of p (n, 4, 2) to an edge of q."""
    start = q[:, None, :, :]
    edge = np.roll(q, -1, axis=-2)[:, None, :, :] - start
    t = np.clip(np.vecdot(p[:, :, None, :] - start, edge) / np.vecdot(edge, edge), 0.0, 1.0)
    gap = p[:, :, None, :] - (start + t[..., None] * edge)
    return np.hypot(gap[..., 0], gap[..., 1]).min(axis=(-2, -1))


def min_distance(a, b):
    """Minimum Euclidean distance between box boundaries; 0 when intersecting."""
    shape, a, b = _pairs(a, b)
    ca, cb = box_corners(a), box_corners(b)
    dist = np.minimum(_corner_to_edge(ca, cb), _corner_to_edge(cb, ca))
    return np.where(boxes_intersect(a, b), 0.0, dist).reshape(shape)[()]


def box_intersects_polygon(box, poly: Polygon):
    """Overlap test (separating axes) between boxes and one convex polygon."""
    box = np.asarray(box, dtype=float)
    shape, box = box.shape[:-1], box.reshape(-1, 5)
    pv = poly.vertices
    edges = np.roll(pv, -1, axis=0) - pv
    normals = np.column_stack([-edges[:, 1], edges[:, 0]])
    norm = np.hypot(normals[:, 0], normals[:, 1])
    normals = normals[norm > 1e-12] / norm[norm > 1e-12, None]
    box_axes = _axes(box)
    corners = _corners(box, box_axes)
    on_box = _separated(_project(corners, box_axes), _project(pv, box_axes))
    on_poly = _separated(_project(corners, normals), _project(pv, normals)[None])
    return ~(on_box | on_poly).reshape(shape)[()]


def box_inside_region(box, region, spacing: float = 0.1):
    """True per box iff it lies within the union of the region's polygons.

    Containment is decided on corners plus boundary samples at <= spacing,
    which is robust on non-convex unions of lanelet polygons. Boxes are
    checked one at a time, which bounds the point-in-polygon work arrays.
    """
    box = np.asarray(box, dtype=float)
    if box.ndim > 1:
        inside = [box_inside_region(b, region, spacing) for b in box.reshape(-1, 5)]
        return np.array(inside, dtype=bool).reshape(box.shape[:-1])
    corners = box_corners(box)
    pts = [corners]
    for a, b in zip(corners, np.roll(corners, -1, axis=0)):
        n = int(math.ceil(float(np.hypot(*(b - a))) / spacing))
        if n > 1:
            pts.append(a + np.arange(1, n)[:, None] / n * (b - a))
    pts = np.vstack(pts)
    covered = np.zeros(len(pts), dtype=bool)
    for poly in region:
        xmin, ymin, xmax, ymax = poly.bounds()
        cand = ~covered
        cand &= (pts[:, 0] >= xmin - 1e-9) & (pts[:, 0] <= xmax + 1e-9)
        cand &= (pts[:, 1] >= ymin - 1e-9) & (pts[:, 1] <= ymax + 1e-9)
        if not np.any(cand):
            continue
        covered[cand] = poly.contains_points(pts[cand], boundary_tol=1e-6)
        if covered.all():
            return True
    return bool(covered.all())
