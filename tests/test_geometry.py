"""Geometric primitives: polylines, curvilinear frames, boxes, polygons."""

import math

import numpy as np
import pytest

from drivesim.geometry import (CurvilinearFrame, GeometryError, Polygon, Polyline,
                               box_corners, box_inside_region, boxes_intersect,
                               min_distance, occupancy)


def straight_frame(length=100.0, n=21):
    return CurvilinearFrame(Polyline(
        np.column_stack([np.linspace(0.0, length, n), np.zeros(n)])))


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

    def test_box_inside_region(self):
        region = [Polygon([[0, -3], [50, -3], [50, 3], [0, 3]])]
        inside = np.array([25.0, 0.0, 0.0, 4.0, 2.0])
        sticking_out = np.array([49.0, 0.0, 0.0, 4.0, 2.0])
        assert box_inside_region(inside, region)
        assert not box_inside_region(sticking_out, region)
        assert list(box_inside_region(np.stack([inside, sticking_out]), region)) == [True, False]
