"""Planar geometry: polylines, curvilinear frames, oriented boxes, containment.

Everything here is immutable after construction and safe to share across
processes. Distances are meters, angles radians.
"""

from __future__ import annotations

import functools
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


def _shaped(x, shape=None):
    """x in shape (its own by default): a Python float or bool for a 0-d
    result, the array for any other."""
    x = np.asarray(x) if shape is None else np.reshape(x, shape)
    return x.item() if x.ndim == 0 else x


def clamp(x, lo, hi):
    """x clamped to [lo, hi] bitwise as np.clip clamps it, for lo < hi: a
    NaN stays NaN, and np.maximum returns its second operand on a tie, so a
    -0.0 at lo = 0.0 stays -0.0. Two ufunc calls, without np.clip's wrapper
    chain, which costs more than the clamp on the short arrays here."""
    return np.minimum(np.maximum(lo, x), hi)


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
        # the arc lengths of the inner vertices, where one segment ends and
        # the next begins
        self._inner_arclength = s[1:-1]
        # math.atan2 per segment, so angles round as scalar code rounds them
        self._seg_angles = np.array([math.atan2(y, x) for x, y in self._seg_dir.tolist()])
        # what place reads per segment, one row per quantity: start x and y,
        # start arc length, unit direction x and y, left normal x (the
        # normal's y is the direction's x) and tangent angle
        self._segments = np.vstack([self._seg_start.T, s[:-1], self._seg_dir.T,
                                    -self._seg_dir[:, 1], self._seg_angles])
        self._segments.setflags(write=False)

    @property
    def length(self) -> float:
        return self.reference.length

    def _at_vertices(self, s, values: np.ndarray):
        """Per-vertex values interpolated at arc length s, clamped to
        [0, length]: a float for a number, elementwise for an array.
        np.interp holds the end values outside [0, length] and returns
        them exactly at 0 and at length, so it clamps s itself."""
        return _shaped(np.interp(s, self.reference.cumulative_arclength, values))

    def _segment_at(self, s):
        """The segment that arc length s, clamped to [0, length], lies on:
        the number of inner vertices at or before s, so the last segment
        for s at or past the end and for NaN."""
        return np.searchsorted(self._inner_arclength, s, side="right")

    def curvature_at(self, s):
        return self._at_vertices(s, self.curvatures)

    def tangent_angle_at(self, s):
        """Direction of the reference segment at arc length s, clamped to
        [0, length]: a float for a number, elementwise for an array."""
        return _shaped(self._seg_angles[self._segment_at(s)])

    def tangent_angle_smooth(self, s):
        """Tangent angle interpolated between vertices (C0 in s), for sampling
        continuous heading profiles; projection uses the exact per-segment
        directions instead."""
        return self._at_vertices(s, self._vertex_angles)

    def _closest(self, p: np.ndarray):
        """Closest reference point to each point of p (n, 2): segment index,
        segment parameter before clamping to [0, 1] and squared distance."""
        rel = p[:, None, :] - self._seg_start
        t = np.einsum("nij,ij->ni", rel, self._seg) / self._seg_len2
        t_clamped = clamp(t, 0.0, 1.0)
        diff = p[:, None, :] - (self._seg_start + t_clamped[..., None] * self._seg)
        dist2 = np.einsum("nij,nij->ni", diff, diff)
        i = dist2.argmin(axis=1)
        rows = np.arange(len(p))
        return i, t[rows, i], dist2[rows, i]

    def distance(self, p):
        """Euclidean distance from each point of p (..., 2) to the reference
        polyline; a float for a single point."""
        p = np.asarray(p, dtype=float)
        return _shaped(np.sqrt(self._closest(p.reshape(-1, 2))[2]), p.shape[:-1])

    def project(self, p):
        """Project each point of p (..., 2) onto the reference.

        Returns (s, d, in_domain), floats and a bool for a single point.
        d > 0 means left of the path. Points whose closest reference point is
        a clamped endpoint are flagged in_domain=False but still get the
        clamped (s, d).
        """
        p = np.asarray(p, dtype=float)
        shape, p = p.shape[:-1], p.reshape(-1, 2)
        i, t, _ = self._closest(p)
        t_clamped = clamp(t, 0.0, 1.0)
        ref = self.reference
        s = ref.cumulative_arclength[i] + t_clamped * ref.segment_lengths[i]
        u = self._seg_dir[i]
        rel = p - (self._seg_start[i] + t_clamped[:, None] * self._seg[i])
        d = u[:, 0] * rel[:, 1] - u[:, 1] * rel[:, 0]
        outside = ((i == 0) & (t < 0.0)) | ((i == len(self._seg) - 1) & (t > 1.0))
        return _shaped(s, shape), _shaped(d, shape), _shaped(~outside, shape)

    def folds(self, s, d):
        """Whether the lateral offset d folds over the reference at arc
        length s, i.e. |d * curvature(s)| >= 1; elementwise over arrays."""
        return np.abs(d * self.curvature_at(s)) >= 1.0

    def to_cartesian(self, s, d):
        """Inverse of project on its domain, elementwise over broadcast
        arrays of s and d: points (..., 2), one point (2,) for two numbers.

        Raises GeometryError if any s lies outside [0, length] or any offset
        folds over.
        """
        x, y, _ = self.place(s, d)
        return np.stack((x, y), axis=-1)

    def place(self, s, d):
        """The x and y of to_cartesian(s, d) and tangent_angle_at(s), each
        in the broadcast shape of s and d, from one segment lookup and one
        gather of the per-segment table; raises where to_cartesian raises.
        Each element is computed as the per-point formula computes it:
        start + (s - start arc length) * direction + d * left normal."""
        s, d = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(d, dtype=float))
        outside = (s < -1e-9) | (s > self.length + 1e-9)
        if outside.any():
            raise GeometryError(f"s={s[outside][0]} outside reference [0, {self.length}]")
        folded = self.folds(s, d)
        if folded.any():
            raise GeometryError(f"lateral offset d={d[folded][0]} folds over at s={s[folded][0]}")
        x0, y0, s_start, ux, uy, nx, angle = self._segments.take(self._segment_at(s), axis=1)
        along = clamp(s, 0.0, self.length) - s_start
        return x0 + along * ux + d * nx, y0 + along * uy + d * ux, angle


class Polygon:
    """Simple closed ring of >=3 vertices.

    Edge i runs from vertex i to vertex i+1 (the last back to the first).
    The vertices are read-only, so the bounds and the region index that
    contains_points reads are built once, on first use, and never go stale;
    a polygon that is never tested (most goal areas) never builds them."""

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] < 3 or v.shape[1] != 2:
            raise GeometryError("Polygon needs >=3 vertices of shape (n, 2)")
        if not np.all(np.isfinite(v)):
            raise GeometryError("Polygon vertices must be finite")
        self.vertices = v
        self.vertices.setflags(write=False)

    @functools.cached_property
    def _bounds(self) -> tuple[float, float, float, float]:
        lo, hi = self.vertices.min(axis=0), self.vertices.max(axis=0)
        return lo[0], lo[1], hi[0], hi[1]

    @functools.cached_property
    def slack(self) -> float:
        """A margin far above the rounding of any edge formula of
        RegionIndex.holds over these vertices."""
        return 1e-9 * (1.0 + float(np.abs(self.vertices).max()))

    @functools.cached_property
    def region(self) -> RegionIndex:
        """This polygon alone as a region index."""
        return RegionIndex([self])

    @property
    def area(self) -> float:
        v = self.vertices
        x, y = v[:, 0], v[:, 1]
        return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))

    def bounds(self) -> tuple[float, float, float, float]:
        return self._bounds

    def reaches(self, bounds, boundary_tol: float = 1e-9):
        """Whether the box bounds (xmin, ymin, xmax, ymax), elementwise for
        arrays, come within boundary_tol plus the slack of this polygon's
        bounds. Where they do not, contains_points(points, boundary_tol)
        finds no point of the box inside: a point the crossing test counts
        inside lies in the polygon's bounds up to rounding far below the
        slack, and one within boundary_tol of an edge lies within it of the
        edge's bounding box (see RegionIndex.holds). A NaN bound reaches
        nothing, as a NaN point is never inside."""
        x0, y0, x1, y1 = self._bounds
        xmin, ymin, xmax, ymax = bounds
        reach = abs(boundary_tol) + self.slack
        return _shaped((x0 - reach <= xmax) & (xmin <= x1 + reach)
                       & (y0 - reach <= ymax) & (ymin <= y1 + reach))

    def contains_points(self, points, boundary_tol: float = 1e-9) -> np.ndarray:
        """RegionIndex.holds over this polygon alone: one bool per point
        (n, 2), none for no points."""
        return self.region.holds(points, boundary_tol)[:, 0]


class RegionIndex:
    """The edges of polygons in read-only tables, and the containment query
    over them, holds. Their columns are the edges, polygon by polygon, edge
    i from vertex i to i+1 (the last to the first); owner holds each one's
    polygon. edges holds what the formulas read: y2, the crossing
    denominator, x1, y1, ex, ey and the squared length; cull what the cull
    reads, grown by the polygon's slack: min y, max y, and the x-range the
    edge is kept for, up to the largest x its computed crossing reaches, or
    its own for a horizontal edge, which no point crosses."""

    def __init__(self, polygons):
        self.polygons = tuple(polygons)
        rings = [p.vertices for p in self.polygons]
        v, end = (np.concatenate(parts + [np.empty((0, 2))])
                  for parts in (rings, [side for r in rings for side in (r[1:], r[:1])]))
        edges = np.empty((7, len(v)))
        edges[0] = end[:, 1]
        edges[2:4] = v.T
        edges[4:6] = (end - v).T
        ex, ey = edges[4], edges[5]
        edges[1] = np.where(np.abs(ey) < 1e-300, 1e-300, ey)
        edges[6] = np.maximum(ex * ex + ey * ey, 1e-300)
        self.owner = np.repeat(np.arange(len(rings)), [len(r) for r in rings])
        slack = np.array([p.slack for p in self.polygons], dtype=float)[self.owner]
        (xlo, ylo), (xhi, yhi) = np.minimum(v, end).T, np.maximum(v, end).T
        horizontal = ylo == yhi
        # a clamped denominator extrapolates the crossing past the edge's ends
        right = np.where(horizontal | (edges[1] == ey), xhi, np.inf)
        left = np.where(horizontal, xlo, -np.inf)
        self.edges = edges
        self.cull = np.vstack([ylo - slack, yhi + slack, left - slack, right + slack])
        for table in (self.edges, self.cull, self.owner):
            table.setflags(write=False)

    def holds(self, points, boundary_tol: float = 1e-9) -> np.ndarray:
        """Whether each of the L polygons holds each point of points (n, 2),
        (n, L): by crossing number, or within boundary_tol of an edge; a NaN
        coordinate is never held.

        The cull keeps the edges whose cull rows, grown by boundary_tol,
        meet the bounding box of the points (NaN left out); one grid pairs
        each point with the kept edges whose grown y-range holds it, and
        the formulas run on those pairs. A dropped pair counts for nothing,
        as the slack is far above the rounding of the formulas:
        - Crossing: an edge counts for a point iff min y <= py < max y of
          the edge, which a horizontal edge fails, and the point lies left
          of the computed crossing. That crossing stays within the edge's
          x-range up to rounding, unless a clamped denominator moves it past
          the edge's ends.
        - Boundary: the computed closest point of an edge lies in the edge's
          bounding box up to rounding.
        """
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        n, polygons = len(pts), len(self.polygons)
        lox, loy = np.fmin.reduce(pts, axis=0, initial=np.inf)
        hix, hiy = np.fmax.reduce(pts, axis=0, initial=-np.inf)
        ylo, yhi, left, right = self.cull
        tol = abs(boundary_tol) * (1.0 + 1e-9)
        kept = np.flatnonzero((ylo <= hiy + tol) & (yhi >= loy - tol)
                              & (left <= hix + tol) & (right >= lox - tol))
        point, edge = np.nonzero((ylo[kept] - tol <= pts[:, 1:]) & (pts[:, 1:] <= yhi[kept] + tol))
        edge = kept[edge]
        y2, den, x1, y1, ex, ey, el2 = self.edges.take(edge, axis=1)
        px, py = pts[point].T
        key = point * polygons + self.owner.take(edge)
        # crossing number, then the distance to each edge
        crossed = ((y1 <= py) != (y2 <= py)) & (px < x1 + (py - y1) * ex / den)
        held = np.bincount(key[crossed], minlength=n * polygons) % 2 == 1
        t = clamp(((px - x1) * ex + (py - y1) * ey) / el2, 0.0, 1.0)
        d2 = (px - (x1 + t * ex)) ** 2 + (py - (y1 + t * ey)) ** 2
        held[key[d2 <= boundary_tol**2]] = True
        return held.reshape(n, polygons)


# ---------------------------------------------------------------------------
# Oriented boxes
#
# A box is a float array whose last axis is (cx, cy, heading, length, width).
# Every function below broadcasts over the leading axes, so one call covers
# any number of boxes or box pairs. Corners, projections and dot products go
# through matmul and vecdot, not elementwise arithmetic: the BLAS kernels
# behind them may fuse multiply-adds, so an elementwise rewrite would move
# results in the last bit and change the digests of tools/digests.py.
#
# The tests cull before they decide (the OBBTree recipe of Gottschalk et al.,
# SIGGRAPH 1996), split into per-box and per-pair work:
# - Per box, once: a BoxTable holds each box's heading cosine and sine, the
#   half extents of its axis-aligned bounding box and its diagonal.
# - Per pair, over index arrays into two tables: gate_pairs settles a pair
#   by the bounding-box gate and the circumradius test, on gathered
#   scalars, and returns the pairs left with their bounding-box gap.
# - Only the pairs left run the separating-axis test.
# boxes_intersect(a, b) chains the three over its own pairs. The Frenet
# planner (planners.FrenetPlanner._collisions) drops whole steps of
# neighbours by its broad phase, then builds one table of its ego boxes and
# one of the neighbours' per plan, and group_intersects gates every pair
# left by index and, since a candidate needs only one hit, calls
# boxes_intersect first on each candidate's deepest-overlapping pair, then
# on the other pairs of the candidates still clear. Each cull only settles
# what the next stage would settle the same way, with a margin far above
# its rounding, so no result changes; the docstrings give each argument.

_CORNER_SIGNS = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])


def occupancy(state, length, width) -> np.ndarray:
    """Box of a vehicle state (anything with x, y, theta), boxes (n, 5) of a
    sequence of states, or boxes (..., 5) of a pose array (..., 3) of
    (x, y, theta); length and width broadcast against them."""
    if np.any(np.asarray(length) <= 0) or np.any(np.asarray(width) <= 0):
        raise GeometryError("shape must be positive")
    if isinstance(state, np.ndarray):
        pose = state.astype(float, copy=False)
    elif hasattr(state, "theta"):
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
    return _axes_of(np.cos(box[..., 2]), np.sin(box[..., 2]))


def _axes_of(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The rows (..., 2, 2) of _axes from the heading's cosine and sine."""
    axes = np.empty(c.shape + (2, 2))
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


def _fold(ufunc, x: np.ndarray) -> np.ndarray:
    """ufunc folded over the last axis of x one slice at a time: over a short
    axis much faster than a reduction along it."""
    out = x[..., 0]
    for k in range(1, x.shape[-1]):
        out = ufunc(out, x[..., k])
    return out


def _separated(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Whether the projections (..., axes, points) of two convex sets leave a
    gap on some axis; touching intervals do not. Max and min do not round,
    so folding them equals the reductions bit for bit."""
    gap = ((_fold(np.maximum, pa) < _fold(np.minimum, pb))
           | (_fold(np.maximum, pb) < _fold(np.minimum, pa)))
    return _fold(np.logical_or, gap)


class BoxTable:
    """The per-box bounds of boxes (..., 5), computed once and read through
    index arrays by gate_pairs and the separating-axis test, so a box
    tested against many others takes one np.cos and np.sin. rows (m, 5)
    holds the boxes flattened; cos and sin (m,) their headings' cosine and
    sine; bounds (5, m), one row per quantity, the centre x and y, the half
    width and half height of the axis-aligned bounding box, and the
    diagonal hypot(length, width); magnitude the largest |value| in rows,
    NaN left out."""

    def __init__(self, box):
        rows = np.asarray(box, dtype=float).reshape(-1, 5)
        length, width = rows[:, 3], rows[:, 4]
        self.cos, self.sin = np.cos(rows[:, 2]), np.sin(rows[:, 2])
        c, s = np.abs(self.cos), np.abs(self.sin)
        bounds = np.empty((5, len(rows)))
        bounds[:2] = rows[:, :2].T
        bounds[2] = 0.5 * (c * length + s * width)
        bounds[3] = 0.5 * (s * length + c * width)
        bounds[4] = np.hypot(length, width)
        self.rows, self.bounds = rows, bounds
        self.magnitude = float(np.fmax.reduce(np.abs(rows).ravel(), initial=0.0))


def gate_pairs(a: BoxTable, ia, b: BoxTable, ib):
    """The pairs of boxes (a.rows[ia[i]], b.rows[ib[i]]) that two culls
    leave for the separating-axis test, as the indices i in pair order, and
    each one's bounding-box gap max(gap_x, gap_y) (below 0 where the
    axis-aligned bounding boxes overlap). Neither cull drops a pair the
    test would find touching:
    - Pairs whose centres are farther apart than the sum of the circumradii
      are apart.
    - Pairs whose axis-aligned bounding boxes leave a gap of
      more than tol = 1e-6 m (plus 1e-12 of the largest magnitude in either
      table, which bounds the rounding at any scale) in x or y are apart.
      They are at least that far apart, and for two rectangles some axis of
      the test separates their projections by at least 1/sqrt(2) of their
      distance: by all of it if a side is nearest, and otherwise the
      directions that separate the two nearest corners form a cone of at
      most 90 degrees bounded by box axes and holding the direction between
      them. So the axis test sees a gap of about 7e-7 m at the least, far
      above its rounding, and would also find them apart. A larger table
      only widens tol, so the tables may hold boxes no pair reads.
    A NaN gap is kept for the axis test."""
    ax, ay, ahx, ahy, ad = a.bounds.take(ia, axis=1)
    bx, by, bhx, bhy, bd = b.bounds.take(ib, axis=1)
    dx, dy = bx - ax, by - ay
    gap = np.maximum(np.abs(dx) - ahx - bhx, np.abs(dy) - ahy - bhy)
    # the cheap gate first, then the circumradius test on the pairs it keeps
    left = np.flatnonzero(~(gap > gate_tolerance(a.magnitude, b.magnitude)))
    left = left[_within_circumradii(dx[left], dy[left], ad[left], bd[left])]
    return left, gap[left]


def gate_tolerance(*magnitudes: float) -> float:
    """tol of gate_pairs, the bounding-box gap above which two boxes are
    apart, for boxes computed from values no larger in size than the
    largest of magnitudes."""
    return 1e-6 + 1e-12 * max(magnitudes)


def _within_circumradii(dx, dy, diagonal_a, diagonal_b) -> np.ndarray:
    """Whether boxes whose centres lie dx, dy apart come within the sum of
    their circumradii, half their diagonals; boxes farther apart are
    apart."""
    return np.hypot(dx, dy) <= 0.5 * (diagonal_a + diagonal_b)


def _overlap(a: BoxTable, ia, b: BoxTable, ib) -> np.ndarray:
    """Separating-axis test (Gottschalk et al., "OBBTree", SIGGRAPH 1996)
    per pair of boxes (a.rows[ia[i]], b.rows[ib[i]]): True where no axis of
    either box separates their projections; touching boundaries overlap."""
    axes_a = _axes_of(a.cos.take(ia), a.sin.take(ia))
    axes_b = _axes_of(b.cos.take(ib), b.sin.take(ib))
    axes = np.concatenate([axes_a, axes_b], axis=-2)
    return ~_separated(_project(_corners(a.rows.take(ia, axis=0), axes_a), axes),
                       _project(_corners(b.rows.take(ib, axis=0), axes_b), axes))


def boxes_intersect(a, b):
    """Whether each pair of boxes intersects; touching boundaries count as
    intersecting. The culls of gate_pairs settle most pairs, without
    changing a result, and only the pairs left run the separating-axis
    test. The circumradius cull runs first on the rows themselves, so the
    per-box bounds are built only for the pairs it leaves."""
    shape, a, b = _pairs(a, b)
    near = np.flatnonzero(_within_circumradii(b[:, 0] - a[:, 0], b[:, 1] - a[:, 1],
                                              np.hypot(a[:, 3], a[:, 4]),
                                              np.hypot(b[:, 3], b[:, 4])))
    hit = np.zeros(len(a), dtype=bool)
    if near.size:
        a, b = BoxTable(a[near]), BoxTable(b[near])
        pairs = np.arange(near.size)
        left, _ = gate_pairs(a, pairs, b, pairs)
        hit[near[left]] = _overlap(a, left, b, left)
    return hit.reshape(shape)[()]


def group_intersects(a: BoxTable, ia, b: BoxTable, ib, group, groups: int,
                     intersect=boxes_intersect) -> np.ndarray:
    """Per group g < groups, whether the boxes of some pair i with
    group[i] == g intersect, the pair (a.rows[ia[i]], b.rows[ib[i]]); a
    group without pairs is clear. gate_pairs culls the pairs by index, and
    intersect (boxes_intersect, or a function equal to it) decides the rest
    in at most two calls, none where no pair is left: first each group's
    pair of least bounding-box gap, its deepest overlap and likeliest hit,
    then the other pairs of the groups still clear. Each pair tested gets
    the same function of the same boxes, and the gate drops only pairs that
    are apart, so a group is marked exactly when one of its pairs
    intersects."""
    hit = np.zeros(groups, dtype=bool)
    left, gap = gate_pairs(a, ia, b, ib)
    ia, ib, group = ia[left], ib[left], group[left]

    def mark(tested):
        if tested.size:
            found = intersect(a.rows.take(ia[tested], axis=0), b.rows.take(ib[tested], axis=0))
            hit[group[tested[found]]] = True

    # each group's pairs by gap, and the first of each group
    order = np.lexsort((gap, group))
    first = np.ones(len(order), dtype=bool)
    first[1:] = group[order[1:]] != group[order[:-1]]
    deepest = order[first]
    mark(deepest)
    rest = ~hit[group]
    rest[deepest] = False
    mark(np.flatnonzero(rest))
    return hit


def _corner_to_edge(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Smallest distance (n,) from a corner of p (n, 4, 2) to an edge of q."""
    start = q[:, None, :, :]
    edge = np.roll(q, -1, axis=-2)[:, None, :, :] - start
    t = clamp(np.vecdot(p[:, :, None, :] - start, edge) / np.vecdot(edge, edge), 0.0, 1.0)
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


def box_inside_region(box, region: RegionIndex):
    """True per box iff its boundary lies within the union of the region's
    polygons, up to 1e-6 m. A side leaves the union only where it crosses a
    polygon edge, so it is cut at each crossing with an edge near its box,
    and each stretch between cuts lies wholly inside or outside. A crossing
    counts up to 1e-9 of the edge past its ends, so a vertex on a side cuts
    it whatever the rounding; a parallel edge cuts nothing, as the edges
    beside it cut where it ends. One RegionIndex.holds call at 1e-6 m tests
    each corner and stretch midpoint, eight points for a box crossing none."""
    shape, corners, tol = np.shape(box)[:-1], box_corners(np.reshape(box, (-1, 5))), 1e-6
    start = corners.reshape(-1, 2)
    span = np.roll(corners, -1, axis=-2).reshape(-1, 2) - start
    # each side with each edge whose bounds come within tol of its box's
    x, e = region.edges[2:4], region.edges[4:6]
    lo, hi = corners.min(axis=1)[..., None] - tol, corners.max(axis=1)[..., None] + tol
    meets = (np.minimum(x, x + e) <= hi) & (np.maximum(x, x + e) >= lo)
    near, edge = np.nonzero(meets.all(axis=1))
    side, edge = (4 * near[:, None] + np.arange(4)).ravel(), np.repeat(edge, 4)
    # start + (t / d2) * span = x + (u / d2) * e, t and u scaled by den so
    # that d2 = den * den is positive unless the edge is parallel
    (sx, sy), (ex, ey), (dx, dy) = span[side].T, e[:, edge], x[:, edge] - start[side].T
    den = sx * ey - sy * ex
    t, u, d2 = (dx * ey - dy * ex) * den, (dx * sy - dy * sx) * den, den * den
    cut = (d2 > 0) & (0 <= t) & (t <= d2) & (-1e-9 * d2 <= u) & (u <= (1 + 1e-9) * d2)
    # each side's ends and cuts in order along it, and the stretches between
    ends = np.arange(len(start))
    at_side = np.concatenate([ends, ends, side[cut]])
    at = np.concatenate([np.zeros(len(ends)), np.ones(len(ends)), t[cut] / d2[cut]])
    order = np.lexsort((at, at_side))
    at_side, at = at_side[order], at[order]
    stretch = np.flatnonzero(at_side[1:] == at_side[:-1])
    mid, mid_side = 0.5 * (at[stretch] + at[stretch + 1]), at_side[stretch]
    pts = np.concatenate([start, start[mid_side] + mid[:, None] * span[mid_side]])
    held = region.holds(pts, tol).any(axis=1)
    box_of = np.concatenate([ends, mid_side]) // 4
    return _shaped(np.bincount(box_of[~held], minlength=len(corners)) == 0, shape)
