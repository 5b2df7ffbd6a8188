"""Array-valued curvilinear frames against a per-point reference.

ReferenceFrame holds the scalar bodies that `project`, `distance`,
`to_cartesian` and `tangent_angle_at` had before they took arrays, applied
one point at a time to the data of a CurvilinearFrame. Every array form,
and `place`, which computes `to_cartesian` plane by plane from a per-segment
table, must give bitwise what the reference gives on each element and raise
where it raises, on every lanelet of the bundled scenarios and every
lane-chain frame the bundled runs build.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from drivesim.cli import resolve_scenario_path
from drivesim.geometry import CurvilinearFrame, GeometryError, Polyline
from drivesim.metrics import evaluate
from drivesim.scenario import load_scenario


class ReferenceFrame:
    """Scalar frame operations, one point or one (s, d) pair per call."""

    def __init__(self, frame: CurvilinearFrame):
        self.frame = frame

    def _closest(self, p):
        f = self.frame
        t = np.einsum("ij,ij->i", p[None, :] - f._seg_start, f._seg) / f._seg_len2
        t_clamped = np.clip(t, 0.0, 1.0)
        foot = f._seg_start + t_clamped[:, None] * f._seg
        diff = p[None, :] - foot
        dist2 = np.einsum("ij,ij->i", diff, diff)
        i = int(np.argmin(dist2))
        return i, t[i], t_clamped[i], foot[i], dist2[i]

    def distance(self, p) -> float:
        return math.sqrt(self._closest(np.asarray(p, dtype=float))[4])

    def project(self, p):
        f = self.frame
        p = np.asarray(p, dtype=float)
        i, t, t_clamped, foot, _ = self._closest(p)
        ref = f.reference
        s = float(ref.cumulative_arclength[i] + t_clamped * ref.segment_lengths[i])
        u = f._seg_dir[i]
        rel = p - foot
        d = float(u[0] * rel[1] - u[1] * rel[0])
        in_domain = not ((i == 0 and t < 0.0) or (i == len(f._seg) - 1 and t > 1.0))
        return s, d, in_domain

    def _segment(self, s: float) -> int:
        cum = self.frame.reference.cumulative_arclength
        i = int(np.searchsorted(cum, s, side="right") - 1)
        return min(max(i, 0), len(self.frame._seg_dir) - 1)

    def tangent_angle_at(self, s: float) -> float:
        s = min(max(s, 0.0), self.frame.length)
        d = self.frame._seg_dir[self._segment(s)]
        return math.atan2(d[1], d[0])

    def curvature_at(self, s: float) -> float:
        f = self.frame
        s = min(max(s, 0.0), f.length)
        return float(np.interp(s, f.reference.cumulative_arclength, f.curvatures))

    def to_cartesian(self, s: float, d: float) -> np.ndarray:
        f = self.frame
        if s < -1e-9 or s > f.length + 1e-9:
            raise GeometryError(f"s={s} outside reference [0, {f.length}]")
        if abs(d * self.curvature_at(s)) >= 1.0:
            raise GeometryError(f"lateral offset d={d} folds over")
        s = min(max(s, 0.0), f.length)
        i = self._segment(s)
        cum = f.reference.cumulative_arclength
        u = f._seg_dir[i]
        base = f.reference.points[i] + (s - cum[i]) * u
        return base + d * np.array([-u[1], u[0]])


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _frames(intersection_runs, merge_runs):
    """Every lanelet frame of the bundled scenarios and every chain frame
    the bundled runs build, while running and while being evaluated."""
    frames = {}
    for name in ("merge", "t_intersection", "highway"):
        net = load_scenario(resolve_scenario_path(name, Path("."))).network
        for lid in sorted(net.lanelets):
            frames[(name, lid)] = net.chain_frame((lid,))
    for runs in (intersection_runs, merge_runs):
        for regime in ("replay", "idm", "frenet"):
            result, scenario, metric_cfg = runs[regime]
            evaluate(result, scenario, metric_cfg)
            for chain, frame in scenario.network._frames.items():
                frames[(regime, chain)] = frame
    return frames


def _sample_points(frame, rng, n=120):
    """Points around the reference, its vertices, whose segment parameter
    is exactly 0 or 1, and points past both of its ends."""
    pts = frame.reference.points
    lo, hi = pts.min(axis=0) - 10.0, pts.max(axis=0) + 10.0
    around = np.vstack([rng.uniform(lo, hi, size=(n, 2)), pts])
    ends = []
    for end, tangent in ((pts[0], -frame.tangents[0]), (pts[-1], frame.tangents[-1])):
        normal = np.array([-tangent[1], tangent[0]])
        along = rng.uniform(0.0, 20.0, size=(n // 4, 1))
        across = rng.uniform(-4.0, 4.0, size=(n // 4, 1))
        ends.append(end + along * tangent + across * normal)
    return np.vstack([around, *ends])


def _sample_arcs(frame, rng, n=120):
    """(s, d) pairs over the reference, within and beyond the 1e-9 range
    tolerance past both ends, and, where the reference bends, offsets that
    fold over it, at |d * curvature| = 1 exactly on some."""
    s = np.concatenate([rng.uniform(0.0, frame.length, size=n),
                        rng.uniform(-3.0, 0.0, size=n // 8),
                        frame.length + rng.uniform(0.0, 3.0, size=n // 8),
                        [-5e-10, frame.length + 5e-10, -2e-9, frame.length + 2e-9]])
    d = rng.uniform(-4.0, 4.0, size=len(s))
    bent = np.flatnonzero(np.abs(frame.curvatures) > 1e-3)
    if len(bent):
        at = frame.reference.cumulative_arclength[rng.choice(bent, size=n // 4)]
        ratio = rng.uniform(0.5, 2.0, size=n // 4) * rng.choice([-1.0, 1.0], size=n // 4)
        ratio[::3] = 1.0
        s = np.append(s, at)
        d = np.append(d, ratio / frame.curvature_at(at))
    return s, d


def test_frame_arrays_match_the_scalar_reference(intersection_runs, merge_runs):
    rng = np.random.default_rng(6)
    frames = _frames(intersection_runs, merge_runs)
    assert len(frames) > 20
    folded = grids_raised = grids_placed = 0
    for key, frame in frames.items():
        ref = ReferenceFrame(frame)

        points = _sample_points(frame, rng)
        s, d, in_dom = frame.project(points)
        dist = frame.distance(points)
        assert s.shape == d.shape == in_dom.shape == dist.shape == (len(points),)
        expected = [ref.project(p) for p in points]
        assert _bits(s) == _bits([e[0] for e in expected]), key
        assert _bits(d) == _bits([e[1] for e in expected]), key
        assert in_dom.tolist() == [e[2] for e in expected], key
        assert not in_dom.all() and in_dom.any(), key
        assert _bits(dist) == _bits([ref.distance(p) for p in points]), key
        one = frame.project(points[0])
        assert [type(v) for v in one] == [float, float, bool]
        assert _bits(one[:2]) == _bits(expected[0][:2]) and one[2] == expected[0][2]
        assert type(frame.distance(points[0])) is float

        arcs, offsets = _sample_arcs(frame, rng)
        angles = frame.tangent_angle_at(arcs)
        assert _bits(angles) == _bits([ref.tangent_angle_at(float(v)) for v in arcs]), key
        assert type(frame.tangent_angle_at(float(arcs[0]))) is float

        placed, raises = [], []
        for a, o in zip(arcs.tolist(), offsets.tolist()):
            try:
                placed.append(ref.to_cartesian(a, o))
                raises.append(False)
            except GeometryError:
                placed.append(None)
                raises.append(True)
            try:
                single = frame.to_cartesian(a, o)
            except GeometryError:
                assert raises[-1], (key, a, o)
            else:
                assert not raises[-1], (key, a, o)
                assert single.shape == (2,) and _bits(single) == _bits(placed[-1])
        raises = np.array(raises)
        assert raises.any(), key
        folded += int(np.sum(raises & (arcs >= 0.0) & (arcs <= frame.length)))
        ok = ~raises
        assert _bits(frame.to_cartesian(arcs[ok], offsets[ok])) == _bits(
            [p for p in placed if p is not None]), key
        for chunk in np.array_split(np.arange(len(arcs)), 12):
            if raises[chunk].any():
                with pytest.raises(GeometryError):
                    frame.to_cartesian(arcs[chunk], offsets[chunk])
                with pytest.raises(GeometryError):
                    frame.place(arcs[chunk], offsets[chunk])
            else:
                frame.to_cartesian(arcs[chunk], offsets[chunk])
        x, y, angle = frame.place(arcs[ok], offsets[ok])
        assert _bits(np.stack([x, y], axis=-1)) == _bits([p for p in placed if p is not None])
        assert _bits(angle) == _bits(angles[ok]), key

        # (rows, steps) grids with one offset per row, as extrapolate places them
        rows = rng.choice(offsets, size=(6, 1))
        grid = rng.uniform(-2e-9, frame.length + 2e-9, size=(6, 25))
        grid[:, -1] = frame.length
        expect = []
        try:
            expect = [[ref.to_cartesian(a, o) for a in row] for row, (o,) in
                      zip(grid.tolist(), rows.tolist())]
        except GeometryError:
            with pytest.raises(GeometryError):
                frame.place(grid, rows)
            grids_raised += 1
        else:
            x, y, angle = frame.place(grid, rows)
            assert x.shape == y.shape == angle.shape == grid.shape
            assert _bits(np.stack([x, y], axis=-1)) == _bits(expect), key
            assert _bits(angle) == _bits([[ref.tangent_angle_at(a) for a in row]
                                          for row in grid.tolist()]), key
            assert _bits(frame.to_cartesian(grid, rows)) == _bits(expect), key
            grids_placed += 1
    assert folded > 0 and grids_raised > 0 and grids_placed > 0


def test_to_cartesian_broadcasts_one_offset():
    frame = CurvilinearFrame(Polyline([[0.0, 0.0], [10.0, 0.0], [20.0, 5.0]]))
    s = np.array([[1.0, 5.0], [12.0, 20.0]])
    out = frame.to_cartesian(s, 0.5)
    assert out.shape == (2, 2, 2)
    ref = ReferenceFrame(frame)
    assert _bits(out) == _bits([[ref.to_cartesian(v, 0.5) for v in row] for row in s.tolist()])
