"""Planar geometry: polylines, curvilinear frames, oriented boxes, containment.

Everything here is immutable after construction and safe to share across
processes. Distances are meters, angles radians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class Point2:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise GeometryError("Point2 coordinates must be finite")


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

    def curvature_at(self, s: float) -> float:
        s = min(max(s, 0.0), self.length)
        return float(np.interp(s, self.reference.cumulative_arclength, self.curvatures))

    def tangent_angle_at(self, s: float) -> float:
        s = min(max(s, 0.0), self.length)
        cum = self.reference.cumulative_arclength
        i = int(np.searchsorted(cum, s, side="right") - 1)
        i = min(max(i, 0), len(self._seg_dir) - 1)
        d = self._seg_dir[i]
        return math.atan2(d[1], d[0])

    def tangent_angle_smooth(self, s: float) -> float:
        """Tangent angle interpolated between vertices (C0 in s), for sampling
        continuous heading profiles; projection uses the exact per-segment
        directions instead."""
        s = min(max(s, 0.0), self.length)
        return float(np.interp(s, self.reference.cumulative_arclength, self._vertex_angles))

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


@dataclass(frozen=True)
class OrientedBox:
    """Rectangle occupancy: center, heading, and positive length x width."""

    center: Point2
    heading: float
    length: float
    width: float

    def __post_init__(self):
        if self.length <= 0 or self.width <= 0:
            raise GeometryError("OrientedBox length and width must be positive")

    def corners(self) -> np.ndarray:
        hl, hw = 0.5 * self.length, 0.5 * self.width
        c, s = math.cos(self.heading), math.sin(self.heading)
        local = np.array([[hl, hw], [-hl, hw], [-hl, -hw], [hl, -hw]])
        rot = np.array([[c, -s], [s, c]])
        return local @ rot.T + np.array([self.center.x, self.center.y])

    @property
    def circumradius(self) -> float:
        return 0.5 * math.hypot(self.length, self.width)

    def inflated(self, margin: float) -> "OrientedBox":
        return OrientedBox(
            self.center,
            self.heading,
            self.length + 2.0 * margin,
            self.width + 2.0 * margin,
        )


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


def occupancy(state, length: float, width: float) -> OrientedBox:
    """Oriented-box occupancy of a vehicle state (anything with x, y, theta)."""
    if length <= 0 or width <= 0:
        raise GeometryError("shape must be positive")
    return OrientedBox(Point2(state.x, state.y), state.theta, length, width)


def _project_interval(corners: np.ndarray, axis: np.ndarray) -> tuple[float, float]:
    dots = corners @ axis
    return float(dots.min()), float(dots.max())


def boxes_intersect(a: OrientedBox, b: OrientedBox) -> bool:
    """Separating-axis test; touching boundaries count as intersecting."""
    dx = b.center.x - a.center.x
    dy = b.center.y - a.center.y
    if math.hypot(dx, dy) > a.circumradius + b.circumradius:
        return False
    ca, cb = a.corners(), b.corners()
    for heading in (a.heading, b.heading):
        c, s = math.cos(heading), math.sin(heading)
        for axis in (np.array([c, s]), np.array([-s, c])):
            lo_a, hi_a = _project_interval(ca, axis)
            lo_b, hi_b = _project_interval(cb, axis)
            if hi_a < lo_b or hi_b < lo_a:
                return False
    return True


def _segment_distance(p1, p2, q1, q2) -> float:
    """Minimum distance between two segments."""
    def point_seg(p, a, b):
        ab = b - a
        denom = float(ab @ ab)
        t = 0.0 if denom < 1e-300 else float((p - a) @ ab) / denom
        t = min(max(t, 0.0), 1.0)
        return float(np.hypot(*(p - (a + t * ab))))

    d1, d2 = p2 - p1, q2 - q1
    cross = d1[0] * d2[1] - d1[1] * d2[0]
    if abs(cross) > 1e-12:
        # check proper intersection
        r = q1 - p1
        t = (r[0] * d2[1] - r[1] * d2[0]) / cross
        u = (r[0] * d1[1] - r[1] * d1[0]) / cross
        if 0.0 <= t <= 1.0 and 0.0 <= u <= 1.0:
            return 0.0
    return min(
        point_seg(p1, q1, q2),
        point_seg(p2, q1, q2),
        point_seg(q1, p1, p2),
        point_seg(q2, p1, p2),
    )


def min_distance(a: OrientedBox, b: OrientedBox) -> float:
    """Minimum Euclidean distance between box boundaries; 0 when intersecting."""
    if boxes_intersect(a, b):
        return 0.0
    ca, cb = a.corners(), b.corners()
    best = math.inf
    for i in range(4):
        for j in range(4):
            d = _segment_distance(ca[i], ca[(i + 1) % 4], cb[j], cb[(j + 1) % 4])
            if d < best:
                best = d
    return best


def box_sample_points(box: OrientedBox, spacing: float = 0.1) -> np.ndarray:
    """Corners plus edge samples at <= spacing along the box boundary."""
    corners = box.corners()
    pts = [corners]
    for i in range(4):
        a, b = corners[i], corners[(i + 1) % 4]
        n = int(math.ceil(float(np.hypot(*(b - a))) / spacing))
        if n > 1:
            t = np.arange(1, n)[:, None] / n
            pts.append(a + t * (b - a))
    return np.vstack(pts)


def box_inside_region(box: OrientedBox, region, spacing: float = 0.1) -> bool:
    """True iff the box lies within the union of the region's polygons.

    Containment is decided on corners plus boundary samples at <= spacing,
    which is robust on non-convex unions of lanelet polygons.
    """
    pts = box_sample_points(box, spacing)
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


def box_intersects_polygon(box: OrientedBox, poly: Polygon) -> bool:
    """Overlap test between a box and a convex polygon (SAT)."""
    corners = box.corners()
    pv = poly.vertices
    axes = []
    for heading in (box.heading,):
        c, s = math.cos(heading), math.sin(heading)
        axes.append(np.array([c, s]))
        axes.append(np.array([-s, c]))
    edges = np.roll(pv, -1, axis=0) - pv
    for e in edges:
        n = np.array([-e[1], e[0]])
        norm = np.hypot(*n)
        if norm > 1e-12:
            axes.append(n / norm)
    for axis in axes:
        lo_a, hi_a = _project_interval(corners, axis)
        lo_b, hi_b = _project_interval(pv, axis)
        if hi_a < lo_b or hi_b < lo_a:
            return False
    return True
