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
        s, d = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(d, dtype=float))
        outside = (s < -1e-9) | (s > self.length + 1e-9)
        if outside.any():
            raise GeometryError(f"s={s[outside][0]} outside reference [0, {self.length}]")
        folded = self.folds(s, d)
        if folded.any():
            raise GeometryError(f"lateral offset d={d[folded][0]} folds over at s={s[folded][0]}")
        s, i = clamp(s, 0.0, self.length), self._segment_at(s)
        u = self._seg_dir[i]
        cum = self.reference.cumulative_arclength
        base = self.reference.points[i] + (s - cum[i])[..., None] * u
        normal = np.stack([-u[..., 1], u[..., 0]], axis=-1)
        return base + d[..., None] * normal


class Polygon:
    """Simple closed ring of >=3 vertices.

    Edge i runs from vertex i to vertex i+1 (the last back to the first).
    The vertices are read-only, so the bounds and the edge table that
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
    def _edges(self) -> tuple[np.ndarray, float]:
        """The edge table, one row per edge quantity, ordered so that each
        test of contains_points reads a run of rows: y2, the crossing
        denominator, x1, y1, ex, ey, the squared length, xlo, ylo, xhi, yhi,
        and the largest x the computed crossing can reach; and a slack far
        above the rounding of any edge formula over these vertices."""
        v = self.vertices
        end = np.concatenate([v[1:], v[:1]])
        edges = np.empty((12, len(v)))
        edges[0] = end[:, 1]
        edges[2:4] = v.T
        edges[4:6] = (end - v).T
        ex, ey = edges[4], edges[5]
        edges[1] = np.where(np.abs(ey) < 1e-300, 1e-300, ey)
        sq = ex * ex + ey * ey
        edges[6] = np.where(sq < 1e-300, 1e-300, sq)
        edges[7:9] = np.minimum(v, end).T
        edges[9:11] = np.maximum(v, end).T
        # a clamped denominator extrapolates the crossing past the edge's ends
        edges[11] = np.where(edges[1] == ey, edges[9], np.inf)
        return edges, 1e-9 * (1.0 + float(np.abs(v).max()))

    @property
    def area(self) -> float:
        v = self.vertices
        x, y = v[:, 0], v[:, 1]
        return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))

    def bounds(self) -> tuple[float, float, float, float]:
        return self._bounds

    def contains_points(self, points, boundary_tol: float = 1e-9) -> np.ndarray:
        """Point-in-polygon by crossing number, one bool per point (n, 2),
        none for no points; a point within boundary_tol of an edge counts
        inside.

        Each call evaluates only the edges that can change a result for its
        points, with the same per-element formulas as over every edge, so the
        culling changes no result; the (points x edges) arrays hold the
        edges near the points' bounding box only. With slack far above the
        rounding of those formulas:
        - Crossing: an edge counts for a point iff min y <= py < max y of
          the edge and the point lies left of the computed crossing. A
          horizontal edge, or one whose y-range misses the points', fails
          the first test for every point. The computed crossing stays within
          the edge's x-range up to rounding, so an edge lying left of every
          point by more than the slack fails the second (an edge whose y
          difference underflows is never culled by x: its clamped
          denominator moves the crossing past the edge's ends).
        - Boundary: the computed closest point of an edge lies in the edge's
          bounding box up to rounding, so an edge whose box is farther than
          boundary_tol plus the slack from the points' bounding box, in x
          or in y, is farther than boundary_tol from every point.
        NaN coordinates are left out of the points' bounding box; such a
        point is never inside, culled or not.
        """
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        px, py = pts[:, :1], pts[:, 1:2]
        lo = np.fmin.reduce(pts, axis=0, initial=np.inf)
        hi = np.fmax.reduce(pts, axis=0, initial=-np.inf)
        edges, slack = self._edges
        xlo, ylo, xhi, yhi, xcross = edges[7:]
        # crossing number over the edges that can cross
        crossing = (ylo < yhi) & (ylo <= hi[1]) & (yhi > lo[1]) & (xcross >= lo[0] - slack)
        y2c, denc, x1c, y1c, exc = edges[:5, crossing]
        cond = (y1c <= py) != (y2c <= py)
        xints = x1c + (py - y1c) * exc / denc
        inside = (cond & (px < xints)).sum(axis=1) % 2 == 1
        # boundary test: distance to each edge near the points
        reach = abs(boundary_tol) * (1.0 + 1e-9) + slack
        near = ((xlo <= hi[0] + reach) & (xhi >= lo[0] - reach)
                & (ylo <= hi[1] + reach) & (yhi >= lo[1] - reach))
        x1n, y1n, exn, eyn, el2n = edges[2:7, near]
        t = ((px - x1n) * exn + (py - y1n) * eyn) / el2n
        t = clamp(t, 0.0, 1.0)
        fx = x1n + t * exn
        fy = y1n + t * eyn
        d2 = (px - fx) ** 2 + (py - fy) ** 2
        on_edge = (d2 <= boundary_tol**2).any(axis=1)
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
#
# The tests cull before they decide (the OBBTree recipe of Gottschalk et al.,
# SIGGRAPH 1996): boxes_intersect settles a pair by the circumradius test,
# then by the bounding-box gate, and only the rest by the separating-axis
# test; the Frenet planner's broad phase (planners.FrenetPlanner.candidates)
# drops whole steps of neighbours before that. Each cull only settles what
# the next stage would settle the same way, with a margin far above its
# rounding, so no result changes; the docstrings give each argument.

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


def _half_extents(box: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """Half the width and height (..., 2) of each box's axis-aligned
    bounding box."""
    return 0.5 * (np.abs(axes[..., 0, :]) * box[..., 3:4] + np.abs(axes[..., 1, :]) * box[..., 4:5])


def boxes_intersect(a, b):
    """Separating-axis test per pair of boxes (Gottschalk et al., "OBBTree",
    SIGGRAPH 1996); touching boundaries count as intersecting. Two culls
    settle most pairs before the axis test, and neither changes a result:
    - Pairs whose centres are farther apart than the sum of the circumradii
      are apart.
    - Of the rest, pairs whose axis-aligned bounding boxes leave a gap of
      more than tol = 1e-6 m (plus 1e-12 of the largest magnitude in the
      boxes, which bounds the rounding at any scale) in x or y are apart. They are at
      least that far apart, and for two rectangles some axis of the test
      separates their projections by at least 1/sqrt(2) of their distance:
      by all of it if a side is nearest, and otherwise the directions that
      separate the two nearest corners form a cone of at most 90 degrees
      bounded by box axes and holding the direction between them. So the
      axis test sees a gap of about 7e-7 m at the least, far above its
      rounding, and would also find them apart.
    Only the pairs left run the axis test."""
    shape, a, b = _pairs(a, b)
    reach = 0.5 * (np.hypot(a[:, 3], a[:, 4]) + np.hypot(b[:, 3], b[:, 4]))
    hit = np.hypot(b[:, 0] - a[:, 0], b[:, 1] - a[:, 1]) <= reach
    near = np.flatnonzero(hit)
    if near.size:
        a, b = a[near], b[near]
        axes_a, axes_b = _axes(a), _axes(b)
        gap = np.abs(b[:, :2] - a[:, :2]) - _half_extents(a, axes_a) - _half_extents(b, axes_b)
        tol = 1e-6 + 1e-12 * max(float(np.abs(a).max()), float(np.abs(b).max()))
        test = ~((gap[:, 0] > tol) | (gap[:, 1] > tol))  # NaN stays for the axis test
        hit[near[~test]] = False
        a, b, axes_a, axes_b = a[test], b[test], axes_a[test], axes_b[test]
        axes = np.concatenate([axes_a, axes_b], axis=-2)
        hit[near[test]] = ~_separated(_project(_corners(a, axes_a), axes),
                                      _project(_corners(b, axes_b), axes))
    return hit.reshape(shape)[()]


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


def box_inside_region(box, region):
    """True per box iff it lies within the union of the region's polygons.

    Containment is decided on corners plus boundary samples at <= 0.1 m,
    which is robust on non-convex unions of lanelet polygons. The samples of
    all boxes are built in one pass; then each box's samples are tested on
    their own, polygon by polygon, skipping the samples farther than the
    boundary tolerance (plus slack) outside a polygon's bounding box and the
    polygons they all miss. So Polygon.contains_points culls the edges far
    from one box, and its (points x edges) arrays stay as small as for one
    box. The culling changes no result (see Polygon.contains_points).
    """
    box = np.asarray(box, dtype=float)
    shape, flat = box.shape[:-1], box.reshape(-1, 5)
    corners = box_corners(flat)
    span = (np.roll(corners, -1, axis=-2) - corners).reshape(-1, 2)
    count = np.ceil(np.hypot(span[:, 0], span[:, 1]) / 0.1).astype(int)
    # samples 1 .. count-1 of each side, side by side and box by box
    per_side = np.maximum(count - 1, 0)
    side = np.repeat(np.arange(len(count)), per_side)
    k = np.arange(len(side)) - np.repeat(np.cumsum(per_side) - per_side, per_side) + 1
    samples = corners.reshape(-1, 2)[side] + (k / count[side])[:, None] * span[side]
    per_box = per_side.reshape(-1, 4).sum(axis=1)
    ends = np.cumsum(per_box)
    inside = np.zeros(len(flat), dtype=bool)
    tol, reach = 1e-6, 1e-6 + 1e-9   # boundary tolerance, and the prefilter's margin
    for i, (first, last) in enumerate(zip(ends - per_box, ends)):
        pts = np.concatenate([corners[i], samples[first:last]])
        covered = np.zeros(len(pts), dtype=bool)
        for poly in region:
            xmin, ymin, xmax, ymax = poly.bounds()
            cand = ~covered
            cand &= (pts[:, 0] >= xmin - reach) & (pts[:, 0] <= xmax + reach)
            cand &= (pts[:, 1] >= ymin - reach) & (pts[:, 1] <= ymax + reach)
            if not np.any(cand):
                continue
            covered[cand] = poly.contains_points(pts[cand], boundary_tol=tol)
            if covered.all():
                break
        inside[i] = covered.all()
    return _shaped(inside, shape)
