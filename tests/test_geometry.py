"""Geometric primitives: polylines, curvilinear frames, boxes, polygons."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from drivesim.geometry import (BoxTable, CurvilinearFrame, GeometryError, Polygon, Polyline,
                               RegionIndex, box_corners, box_inside_region, boxes_intersect,
                               clamp, gate_pairs, group_intersects, min_distance, occupancy)
from drivesim.scenario import StreetNetwork, load_scenario


def straight_frame(length=100.0, n=21):
    return CurvilinearFrame(Polyline(
        np.column_stack([np.linspace(0.0, length, n), np.zeros(n)])))


def test_clamp_is_np_clip_bitwise():
    """clamp gives np.clip's bits on the values where a clamp's rounding
    could differ: zeros of either sign at and past the bounds, NaN,
    infinities and subnormals, for a number, a 0-d array, and arrays short
    and long enough for numpy's vector loops, contiguous or strided."""
    rng = np.random.default_rng(7)
    special = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1.0, -1.0, 0.2, -0.2]
    for lo, hi in ((0.0, 1.0), (-0.2, 0.2), (0.0, 250.0)):
        for x in special:
            for value in (x, np.float64(x), np.array(x)):
                got, want = clamp(value, lo, hi), np.clip(value, lo, hi)
                assert type(got) is type(want) and np.asarray(got).tobytes() == \
                    np.asarray(want).tobytes(), (lo, hi, x)
        for n in (3, 40):
            x = np.concatenate([special * n, rng.normal(scale=2.0, size=n)])
            for a in (x, x[::3], np.stack([x, -x], axis=-1)):
                assert clamp(a, lo, hi).tobytes() == np.clip(a, lo, hi).tobytes(), (lo, hi, n)


class TestPolyline:
    def test_length(self):
        pl = Polyline([[0, 0], [3, 4], [3, 10]])
        assert pl.length == pytest.approx(11.0)

    def test_rejects_single_point(self):
        with pytest.raises(GeometryError):
            Polyline([[0, 0]])


class TestCurvilinearFrame:
    def test_project_on_axis(self):
        frame = straight_frame()
        s, d, in_dom = frame.project((30.0, 2.0))
        assert in_dom
        assert s == pytest.approx(30.0)
        assert d == pytest.approx(2.0)

    def test_out_of_domain(self):
        frame = straight_frame()
        _, _, in_dom = frame.project((-5.0, 0.0))
        assert not in_dom

    def test_to_cartesian(self):
        frame = straight_frame()
        assert np.allclose(frame.to_cartesian(12.0, -1.5), [12.0, -1.5])

    def test_arc_curvature(self):
        phi = np.linspace(0.0, math.pi, 400)
        radius = 20.0
        frame = CurvilinearFrame(Polyline(
            np.column_stack([radius * np.cos(phi), radius * np.sin(phi)])))
        assert abs(frame.curvature_at(frame.length / 2)) == pytest.approx(1 / radius, rel=1e-2)

    def test_tangent_angle_smooth_is_continuous(self):
        # kinked polyline: the smooth tangent interpolates across the vertex
        frame = CurvilinearFrame(Polyline([[0, 0], [10, 0], [20, 5]]))
        s = np.linspace(0.5, frame.length - 0.5, 200)
        angles = np.array([frame.tangent_angle_smooth(float(v)) for v in s])
        assert np.max(np.abs(np.diff(angles))) < 0.05

    def test_tangent_angle_matches_segment(self):
        frame = straight_frame()
        assert frame.tangent_angle_at(10.0) == pytest.approx(0.0)


class TestOrientedBox:
    """Boxes are arrays (cx, cy, heading, length, width)."""

    def test_corners_axis_aligned(self):
        box = np.array([0.0, 0.0, 0.0, 4.0, 2.0])
        assert np.allclose(sorted(map(tuple, box_corners(box))),
                           [(-2, -1), (-2, 1), (2, -1), (2, 1)])

    def test_intersection_and_distance(self):
        a = np.array([0.0, 0.0, 0.0, 4.0, 2.0])
        b = np.array([3.0, 0.0, 0.0, 4.0, 2.0])   # overlapping
        c = np.array([10.0, 0.0, 0.0, 4.0, 2.0])  # 4 m edge gap
        assert boxes_intersect(a, b)
        assert min_distance(a, b) == 0.0
        assert not boxes_intersect(a, c)
        assert min_distance(a, c) == pytest.approx(6.0)
        # one call over stacked pairs answers each pair
        assert list(boxes_intersect(a, np.stack([b, c]))) == [True, False]
        assert np.allclose(min_distance(np.stack([a, a]), np.stack([b, c])), [0.0, 6.0])

    def test_rotated_separation(self):
        a = np.array([0.0, 0.0, 0.0, 4.0, 2.0])
        b = np.array([0.0, 2.6, math.pi / 2, 4.0, 2.0])
        # b is upright: its half-width 1.0 reaches down to y=0.6; a tops at y=1.0
        assert boxes_intersect(a, b)

    def test_occupancy_uses_heading(self):
        class S:
            x, y, theta = 1.0, 2.0, 0.5
        box = occupancy(S(), 4.0, 2.0)
        assert box[2] == pytest.approx(0.5)
        assert (box[0], box[1]) == (1.0, 2.0)
        assert occupancy([S(), S()], [4.0, 5.0], 2.0)[:, 3].tolist() == [4.0, 5.0]
        with pytest.raises(GeometryError):
            occupancy(S(), 0.0, 2.0)
        S.x = math.nan
        with pytest.raises(GeometryError):
            occupancy([S()], 4.0, 2.0)


class TestPolygon:
    def test_area_and_containment(self):
        poly = Polygon([[0, 0], [4, 0], [4, 3], [0, 3]])
        assert poly.area == pytest.approx(12.0)
        inside = poly.contains_points([[2, 1], [5, 1], [4, 3]])
        assert list(inside) == [True, False, True]  # boundary counts inside

    @pytest.mark.parametrize("points", [[], np.empty((0, 2))], ids=["list", "array"])
    def test_contains_no_points(self, points):
        inside = Polygon([[0, 0], [4, 0], [4, 3], [0, 3]]).contains_points(points)
        assert inside.shape == (0,) and inside.dtype == bool

    def test_box_inside_region(self):
        region = RegionIndex([Polygon([[0, -3], [50, -3], [50, 3], [0, 3]])])
        inside = np.array([25.0, 0.0, 0.0, 4.0, 2.0])
        sticking_out = np.array([49.0, 0.0, 0.0, 4.0, 2.0])
        assert box_inside_region(inside, region)
        assert not box_inside_region(sticking_out, region)
        assert list(box_inside_region(np.stack([inside, sticking_out]), region)) == [True, False]

    def test_box_within_the_boundary_tolerance_is_inside(self):
        """A box whose side lies 5e-7 m past a square's edge, within the
        1e-6 m boundary tolerance, has every corner and boundary sample
        covered by contains_points, so it lies inside the region: the
        prefilter by the square's bounds keeps points within the tolerance."""
        square = Polygon([[0, 0], [10, 0], [10, 10], [0, 10]])
        box = np.array([6.0, 5.0, 0.0, 8.0 + 1e-6, 4.0])
        corners = box_corners(box)
        assert corners[:, 0].max() > 10.0 + 4e-7
        assert square.contains_points(corners, boundary_tol=1e-6).all()
        assert box_inside_region(box, RegionIndex([square]))
        assert reference_box_inside_region(box, [square])

    def test_short_stretch_outside_the_road_is_outside(self):
        """On t_intersection this box has a 5 cm stretch of one side outside
        the road at the junction corner (2, 2), between two of its 0.1 m
        samples; cut where it crosses the lanelet edges, the side has that
        stretch tested, so the box is outside, as a 1 mm sampling finds. A
        box turned by 30 degrees whose corner lies 5e-7 m past a square's
        edge has both sides at that corner cut there, and the stretches past
        it lie within the 1e-6 m boundary tolerance, so it stays inside."""
        region = load_scenario(DATA / "t_intersection.json").network.region
        box = np.array([2.3643325360065814, 0.7075786020954584, 2.4152572249534057,
                        3.7601500337623124, 1.5024573833853543])
        assert reference_box_inside_region(box, region.polygons)
        assert not reference_box_inside_region(box, region.polygons, spacing=0.001)
        assert not box_inside_region(box, region)
        square = Polygon([[0, 0], [10, 0], [10, 10], [0, 10]])
        box = np.array([0.0, 5.0, math.radians(30.0), 4.0, 2.0])
        box[0] = 10.0 + 5e-7 - box_corners(box)[:, 0].max()
        assert box_corners(box)[:, 0].max() > 10.0 + 4e-7
        assert box_inside_region(box, square.region)
        assert reference_box_inside_region(box, [square])
        assert not box_inside_region(box + [1e-6, 0, 0, 0, 0], square.region)


# ---------------------------------------------------------------------------
# The culled kernels against their unculled forms
#
# The references below are the kernels as they were before culling: the
# circumradius prefilter and the separating-axis test with max/min
# reductions, and the crossing-number and edge-distance formulas over every
# edge. The culled kernels must give the same booleans bit for bit.

DATA = Path(__file__).resolve().parent.parent / "src" / "drivesim" / "data"


def _reference_axes(box):
    c, s = np.cos(box[..., 2]), np.sin(box[..., 2])
    axes = np.empty(box.shape[:-1] + (2, 2))
    axes[..., 0, 0], axes[..., 0, 1], axes[..., 1, 0], axes[..., 1, 1] = c, s, -s, c
    return axes


def _reference_corners(box, axes):
    signs = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
    return (0.5 * box[..., None, 3:5] * signs) @ axes + box[..., None, :2]


def _reference_project(points, axes):
    return (points[..., None, :, :] @ axes[..., :, :, None])[..., 0]


def _reference_separated(pa, pb):
    return np.any((pa.max(axis=-1) < pb.min(axis=-1)) | (pb.max(axis=-1) < pa.min(axis=-1)),
                  axis=-1)


def reference_boxes_intersect(a, b):
    """boxes_intersect without the bounding-box gate."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    shape, a, b = a.shape[:-1], a.reshape(-1, 5), b.reshape(-1, 5)
    reach = 0.5 * (np.hypot(a[:, 3], a[:, 4]) + np.hypot(b[:, 3], b[:, 4]))
    hit = np.hypot(b[:, 0] - a[:, 0], b[:, 1] - a[:, 1]) <= reach
    if hit.any():
        a, b = a[hit], b[hit]
        axes_a, axes_b = _reference_axes(a), _reference_axes(b)
        axes = np.concatenate([axes_a, axes_b], axis=-2)
        hit[hit] = ~_reference_separated(_reference_project(_reference_corners(a, axes_a), axes),
                                         _reference_project(_reference_corners(b, axes_b), axes))
    return hit.reshape(shape)[()]


def reference_contains_points(vertices, points, boundary_tol=1e-9):
    """Polygon.contains_points over every edge."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    v = np.asarray(vertices, dtype=float)
    x1, y1 = v[:, 0], v[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    px = pts[:, 0][:, None]
    py = pts[:, 1][:, None]
    cond = (y1[None, :] <= py) != (y2[None, :] <= py)
    denom = y2 - y1
    denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
    xints = x1[None, :] + (py - y1[None, :]) * (x2 - x1)[None, :] / denom[None, :]
    inside = np.sum(cond & (px < xints), axis=1) % 2 == 1
    ex, ey = (x2 - x1), (y2 - y1)
    el2 = np.where(ex * ex + ey * ey < 1e-300, 1e-300, ex * ex + ey * ey)
    t = ((px - x1[None, :]) * ex[None, :] + (py - y1[None, :]) * ey[None, :]) / el2[None, :]
    t = np.clip(t, 0.0, 1.0)
    fx = x1[None, :] + t * ex[None, :]
    fy = y1[None, :] + t * ey[None, :]
    d2 = (px - fx) ** 2 + (py - fy) ** 2
    on_edge = np.any(d2 <= boundary_tol**2, axis=1)
    return inside | on_edge


def reference_box_inside_region(box, region, spacing=0.1):
    """box_inside_region box by box, sampling each box's boundary on its
    own and testing it with the unculled reference."""
    corners = box_corners(box)
    pts = [corners]
    for a, b in zip(corners, np.roll(corners, -1, axis=0)):
        n = int(math.ceil(float(np.hypot(*(b - a))) / spacing))
        if n > 1:
            pts.append(a + np.arange(1, n)[:, None] / n * (b - a))
    pts = np.vstack(pts)
    covered = np.zeros(len(pts), dtype=bool)
    reach = 1e-6 + 1e-9   # the boundary tolerance and slack
    for poly in region:
        xmin, ymin, xmax, ymax = poly.bounds()
        cand = ~covered
        cand &= (pts[:, 0] >= xmin - reach) & (pts[:, 0] <= xmax + reach)
        cand &= (pts[:, 1] >= ymin - reach) & (pts[:, 1] <= ymax + reach)
        if np.any(cand):
            covered[cand] = reference_contains_points(poly.vertices, pts[cand], 1e-6)
    return bool(covered.all())


def _bundled_lanelet_polygons():
    polygons = []
    for path in sorted(DATA.glob("*.json")):
        if "scenario" not in json.loads(path.read_text()):
            polygons += [(path.stem, poly) for poly in load_scenario(path).network.region.polygons]
    return polygons


def _edge_probe(v, rng, far, distances=(1e-12, 1e-9, 1e-7, 1e-6, 2e-6, 1e-3, 0.5)):
    """Points on, near and far from the edges and vertices of the polygon
    of vertices v: each vertex and edge midpoint, each of them moved by
    each of distances along x, y and a diagonal, far points drawn uniformly
    over the polygon's bounds grown by 5 m, and two points with a NaN
    coordinate."""
    mid = 0.5 * (v + np.roll(v, -1, axis=0))
    offsets = np.array([[dx, dy] for d in distances
                        for dx, dy in ((d, 0), (-d, 0), (0, d), (0, -d), (d, -d))])
    near = np.concatenate([(v[:, None] + offsets).reshape(-1, 2),
                           (mid[:, None] + offsets).reshape(-1, 2)])
    lo, hi = v.min(axis=0) - 5.0, v.max(axis=0) + 5.0
    return np.concatenate([v, mid, near, rng.uniform(lo, hi, (far, 2)),
                           [[math.nan, 0.0], [lo[0], math.nan]]])


def _random_boxes(rng, n, spread):
    return np.column_stack([rng.uniform(-spread, spread, (n, 2)),
                            rng.uniform(-2 * math.pi, 2 * math.pi, n),
                            rng.uniform(1.0, 6.0, n), rng.uniform(0.5, 3.0, n)])


def _placed(a, heading, length, width, gap_u, gap_n):
    """A box of the given heading and shape placed beside box a: along a's
    heading axis u its projection leaves gap_u to a's (negative overlaps),
    and along a's normal gap_n, or its centre sits on a's centre line where
    gap_n is None."""
    c, s = math.cos(a[2]), math.sin(a[2])
    u, n = np.array([c, s]), np.array([-s, c])
    phi = heading - a[2]
    reach_u = 0.5 * (abs(math.cos(phi)) * length + abs(math.sin(phi)) * width)
    reach_n = 0.5 * (abs(math.sin(phi)) * length + abs(math.cos(phi)) * width)
    centre = a[:2] + u * (a[3] / 2 + reach_u + gap_u)
    if gap_n is not None:
        centre = centre + n * (a[4] / 2 + reach_n + gap_n)
    return np.array([centre[0], centre[1], heading, length, width])


def _near_touching_pairs(rng):
    """Box pairs (a, b) whose gaps are +-1e-9 to 1e-3 m along each axis of
    box a, with box b aligned or rotated, side to side and corner to corner,
    near the origin and far from it."""
    gaps = [g * sign for g in (1e-9, 1e-8, 1e-7, 1e-6, 2e-6, 1e-5, 1e-4, 1e-3)
            for sign in (1.0, -1.0)] + [0.0]
    a_boxes, b_boxes = [], []
    for _ in range(60):
        a = _random_boxes(rng, 1, spread=30.0)[0]
        if rng.random() < 0.3:
            a[2] = rng.integers(-4, 5) * math.pi / 2  # axis-aligned
        a[:2] += rng.choice([0.0, 1e3, -5e4])
        for heading in (a[2], a[2] + math.pi / 2, a[2] + rng.uniform(-math.pi, math.pi)):
            length, width = rng.uniform(1.0, 6.0), rng.uniform(0.5, 3.0)
            for g in gaps:
                for gap_u, gap_n in ((g, None), (-a[3] - 0.5, g), (g, g), (g, -0.3)):
                    for flip in (1.0, -1.0):
                        mirrored = a.copy()
                        mirrored[2] += math.pi if flip < 0 else 0.0
                        a_boxes.append(a)
                        b_boxes.append(_placed(mirrored, heading, length, width,
                                               gap_u, gap_n))
    return np.array(a_boxes), np.array(b_boxes)


class TestCulledKernels:
    def test_boxes_intersect_random_and_grown(self):
        rng = np.random.default_rng(3)
        a, b = _random_boxes(rng, 20000, spread=6.0), _random_boxes(rng, 20000, spread=6.0)
        hits = boxes_intersect(a, b)
        assert np.array_equal(hits, reference_boxes_intersect(a, b))
        assert 0.02 < hits.mean() < 0.5
        # grown neighbour boxes as the planner tests them: one ego box
        # against predicted boxes whose sides grow with the stddev
        grown = b.copy()
        grown[:, 3:] += 2.0 * rng.uniform(0.0, 1.5, (len(b), 1))
        assert np.array_equal(boxes_intersect(a[:200, None], grown[None, :300]),
                              reference_boxes_intersect(a[:200, None], grown[None, :300]))
        # far from the origin, where rounding grows with the coordinates
        for offset in (1e3, 1e5, -1e7):
            shifted_a, shifted_b = a.copy(), grown.copy()
            shifted_a[:, :2] += offset
            shifted_b[:, :2] += offset
            assert np.array_equal(boxes_intersect(shifted_a, shifted_b),
                                  reference_boxes_intersect(shifted_a, shifted_b))

    def test_boxes_intersect_near_touching(self):
        """Gaps of +-1e-9 to 1e-3 m along each axis of one box, with the
        other box aligned or rotated, side to side and corner to corner."""
        a, b = _near_touching_pairs(np.random.default_rng(5))
        hits = boxes_intersect(a, b)
        assert np.array_equal(hits, reference_boxes_intersect(a, b))
        assert np.array_equal(boxes_intersect(b, a), reference_boxes_intersect(b, a))
        assert 0.2 < hits.mean() < 0.8

    @pytest.mark.parametrize("boundary_tol", [1e-9, 1e-6])
    def test_contains_points_on_near_and_far(self, boundary_tol):
        """Points on, near and far from the edges and vertices of every
        bundled lanelet polygon, tested alone, in clusters the size of a
        box and all at once."""
        rng = np.random.default_rng(9)
        polygons = _bundled_lanelet_polygons()
        assert len(polygons) > 10
        for name, poly in polygons:
            v = poly.vertices
            pts = _edge_probe(v, rng, 2000)
            expected = reference_contains_points(v, pts, boundary_tol)
            assert np.array_equal(poly.contains_points(pts, boundary_tol), expected), name
            for chunk in np.array_split(np.arange(len(pts)), len(pts) // 60):
                assert np.array_equal(poly.contains_points(pts[chunk], boundary_tol),
                                      expected[chunk]), name
            for k in rng.choice(len(pts), 40, replace=False):
                assert poly.contains_points(pts[k], boundary_tol)[0] == expected[k], name
            assert 0 < expected.sum() < len(expected)
        assert Polygon([[0, 0], [1, 0], [0, 1]]).contains_points(np.empty((0, 2))).shape == (0,)

    @pytest.mark.parametrize("boundary_tol", [1e-9, 1e-6])
    def test_region_index_holds_matches_per_polygon_reference(self, boundary_tol):
        """On every bundled network, each column of RegionIndex.holds equals
        the unculled reference of its polygon bitwise, at the edge probe of
        each lanelet polygon (points on, just inside and just outside every
        edge, within and beyond both tolerances): with all of them in one
        query, in probe order and sorted by x, and with chunks of 60 points
        each in one query."""
        rng = np.random.default_rng(17)
        for path in sorted(DATA.glob("*.json")):
            if "scenario" in json.loads(path.read_text()):
                continue
            region = load_scenario(path).network.region
            shared = 0
            for poly in region.polygons:
                pts = _edge_probe(poly.vertices, rng, 200, distances=(1e-12, 1e-9, 1e-6, 2e-6, 0.5))
                expected = np.column_stack([reference_contains_points(q.vertices, pts, boundary_tol)
                                            for q in region.polygons])
                assert 0 < expected.any(axis=1).sum() < len(pts), path.stem
                shared += (expected.sum(axis=1) > 1).sum()
                by_x = np.argsort(pts[:, 0], kind="stable")
                for points, want in ((pts, expected), (pts[by_x], expected[by_x])):
                    held = region.holds(points, boundary_tol)
                    assert held.dtype == bool and np.array_equal(held, want), path.stem
                chunks = np.array_split(np.arange(len(pts)), len(pts) // 60)
                for k in rng.choice(len(chunks), 5, replace=False):
                    held = region.holds(pts[chunks[k]], boundary_tol)
                    assert np.array_equal(held, expected[chunks[k]]), path.stem
            assert shared > 0, path.stem   # points on a border of two lanelets

    def test_region_index_without_points_or_polygons(self):
        """No points give no rows, a network without lanelets no columns,
        and a NaN point is held by no polygon, also in one query with
        points that are held."""
        region = load_scenario(DATA / "merge.json").network.region
        assert region.holds(np.empty((0, 2))).shape == (0, len(region.polygons))
        empty = StreetNetwork([]).region
        assert empty.holds(np.zeros((3, 2))).shape == (3, 0)
        centre = region.polygons[0].vertices.mean(axis=0)
        held = region.holds([centre, [math.nan, centre[1]], [centre[0], math.nan]])
        assert held[0].any() and not held[1:].any()

    def test_region_index_keeps_an_edge_whose_y_difference_underflows(self):
        """The clamped denominator of an edge from (10, 0) to (0, -1e-305)
        moves its computed crossing 5e-5 m past the edge's right end, so the
        crossing test counts it for a point right of the edge; the cull
        keeps that edge for such a point, as the reference counts it."""
        square = Polygon([[20, -5], [20, 5], [-5, 5], [-5, -5]])
        sliver = Polygon([[10, 0], [0, -1e-305], [5, -5]])
        region = RegionIndex([square, sliver])
        pts = np.array([[10.00001, -5e-306], [10.0001, -5e-306], [5, -1]])
        expected = np.column_stack([reference_contains_points(p.vertices, pts)
                                    for p in region.polygons])
        assert expected[:, 1].tolist() == [True, False, True]
        assert np.array_equal(region.holds(pts), expected)

    def test_box_inside_region_matches_per_box_reference(self):
        """1,000 boxes over every bundled map, many straddling a lanelet
        border: the exact check gives each box's answer of the per-box
        reference that samples its sides every 0.1 m, and where the two
        differ, that of the reference sampling every 1 mm, as the 0.1 m
        samples can step over a short stretch outside the road."""
        rng = np.random.default_rng(13)
        for path in sorted(DATA.glob("*.json")):
            if "scenario" in json.loads(path.read_text()):
                continue
            region = load_scenario(path).network.region
            vertices = np.concatenate([poly.vertices for poly in region.polygons])
            n = 1000
            centres = vertices[rng.integers(len(vertices), size=n)] + rng.normal(0, 1.5, (n, 2))
            boxes = np.column_stack([centres, rng.uniform(-math.pi, math.pi, n),
                                     rng.uniform(3.0, 5.0, n), rng.uniform(1.5, 2.2, n)])
            inside = box_inside_region(boxes, region)
            sampled = [reference_box_inside_region(b, region.polygons) for b in boxes]
            for k in np.flatnonzero(inside != sampled):
                fine = reference_box_inside_region(boxes[k], region.polygons, spacing=0.001)
                assert fine == inside[k], (path.stem, boxes[k].tolist())
            assert 0 < inside.sum() < len(boxes), path.stem
            assert box_inside_region(boxes[:0], region).shape == (0,)
            assert box_inside_region(boxes[0], region) is inside[0].item()


def _reference_group_hits(a, ia, b, ib, group, groups):
    """Per group, whether some pair of it intersects, testing every pair
    with the unculled reference."""
    hits = np.zeros(groups, dtype=bool)
    if len(ia):
        np.logical_or.at(hits, group, reference_boxes_intersect(a[ia], b[ib]))
    return hits


def _group_intersects_counted(a, ia, b, ib, group, groups):
    """group_intersects over tables of a and b, and the number of rows of
    each boxes_intersect call it made."""
    calls = []

    def counted(x, y):
        calls.append(len(x))
        return boxes_intersect(x, y)

    hits = group_intersects(BoxTable(a), ia, BoxTable(b), ib, group, groups, counted)
    return hits, calls


class TestIndexedKernels:
    """gate_pairs and group_intersects over index arrays into two box
    tables, against the reference over every pair."""

    def _check(self, a, b, ia, ib, group, groups):
        expected = _reference_group_hits(a, ia, b, ib, group, groups)
        hits, calls = _group_intersects_counted(a, ia, b, ib, group, groups)
        assert np.array_equal(hits, expected)
        assert len(calls) <= 2 and all(calls)
        # the gate keeps every pair that intersects
        left, gap = gate_pairs(BoxTable(a), ia, BoxTable(b), ib)
        touching = np.flatnonzero(reference_boxes_intersect(a[ia], b[ib]))
        assert np.isin(touching, left).all() and len(gap) == len(left)
        # the first call tests one pair of each group the gate leaves a pair
        first = len(np.unique(group[left]))
        assert calls[:1] == ([first] if first else [])
        return expected, calls

    def test_random_and_grown_boxes_in_groups(self):
        """Random pairs of two random tables, grown neighbour boxes and
        boxes far from the origin, grouped in pair order and shuffled, with
        groups that have no pair."""
        rng = np.random.default_rng(13)
        a, b = _random_boxes(rng, 400, spread=6.0), _random_boxes(rng, 300, spread=6.0)
        grown = b.copy()
        grown[:, 3:] += 2.0 * rng.uniform(0.0, 1.5, (len(b), 1))
        far_a, far_b = a.copy(), grown.copy()
        far_a[:, :2] += 1e5
        far_b[:, :2] += 1e5
        ia, ib = rng.integers(0, len(a), 6000), rng.integers(0, len(b), 6000)
        some, clear = 0, 0
        for table_a, table_b in ((a, b), (a, grown), (far_a, far_b)):
            for group in (np.sort(rng.integers(0, 900, len(ia))), rng.integers(0, 900, len(ia))):
                expected, _ = self._check(table_a, table_b, ia, ib, group, 1000)
                some += int(expected.sum())
                clear += int((~expected[np.unique(group)]).sum())
        assert some > 1000 and clear > 100

    def test_near_touching_boxes_in_groups(self):
        a, b = _near_touching_pairs(np.random.default_rng(17))
        pairs = np.arange(len(a))
        rng = np.random.default_rng(19)
        for group in (pairs // 3, pairs // 40, rng.permutation(len(a)) // 5):
            expected, _ = self._check(a, b, pairs, pairs, group, int(group.max()) + 1)
            assert 0.1 < expected.mean() < 0.99

    def test_empty_pair_set_and_groups_without_pairs(self):
        a = _random_boxes(np.random.default_rng(23), 5, spread=3.0)
        none = np.zeros(0, dtype=int)
        hits, calls = _group_intersects_counted(a, none, a, none, none, 4)
        assert not hits.any() and len(hits) == 4 and calls == []
        # far-apart pairs: the gate leaves none, so no call is made
        far = a.copy()
        far[:, 0] += 1e3
        hits, calls = _group_intersects_counted(a, np.arange(5), far, np.arange(5),
                                                np.array([0, 0, 2, 2, 2]), 4)
        assert not hits.any() and calls == []

    def test_deepest_separated_pair_leaves_the_group_to_the_second_call(self):
        """Two long thin boxes side by side at 45 degrees: their bounding
        boxes overlap deeply, so the gate ranks the pair first, yet they are
        apart. The group's other pair overlaps its box only shallowly and
        hits, which only the second call finds; a group whose deepest pair
        hits is settled by the first call alone."""
        diagonal = math.pi / 4
        normal = np.array([-math.sin(diagonal), math.cos(diagonal)])
        a = np.array([[0.0, 0.0, diagonal, 10.0, 0.5],
                      [0.0, 0.0, 0.0, 4.0, 2.0],
                      [50.0, 0.0, 0.0, 4.0, 2.0]])
        b = np.array([[*(1.0 * normal), diagonal, 10.0, 0.5],
                      [3.9, 0.0, 0.0, 4.0, 2.0],
                      [51.0, 0.0, 0.0, 4.0, 2.0]])
        ia = ib = np.arange(3)
        group = np.array([0, 0, 1])
        left, gap = gate_pairs(BoxTable(a), ia, BoxTable(b), ib)
        assert list(left) == [0, 1, 2] and gap[0] < gap[1]
        assert list(reference_boxes_intersect(a, b)) == [False, True, True]
        hits, calls = _group_intersects_counted(a, ia, b, ib, group, 2)
        assert list(hits) == [True, True] and calls == [2, 1]
