"""Lane-chain frames belong to the network they describe."""

import gc
from pathlib import Path

import numpy as np
import pytest

from drivesim.cli import resolve_scenario_path
from drivesim.geometry import Polyline
from drivesim.scenario import LOCALIZE_RADIUS, Lanelet, StreetNetwork, load_scenario


def _load(name):
    return load_scenario(resolve_scenario_path(name, Path(".")))


def _polyline_distance(p, pts):
    """Point-to-polyline distance, one segment at a time."""
    best = np.inf
    for a, b in zip(pts[:-1], pts[1:]):
        ab = b - a
        t = min(max(float((p - a) @ ab) / float(ab @ ab), 0.0), 1.0)
        best = min(best, float(np.hypot(*(p - (a + t * ab)))))
    return best


def _recorded_positions(scenario, every=10):
    return np.concatenate([obs.recording[::every, :2] for obs in scenario.dynamic_obstacles])


def _check_nearest_at_recorded_positions(name, every=10):
    scenario = _load(name)
    net = scenario.network
    for p in _recorded_positions(scenario, every):
        lid, dist = net.nearest_lanelet(p)
        brute = {l: _polyline_distance(p, lane.centerline.points)
                 for l, lane in net.lanelets.items()}
        best = min(brute.values())
        assert dist == pytest.approx(best, abs=1e-9), (name, p, lid)
        assert brute[lid] == pytest.approx(best, abs=1e-9), (name, p, lid)
        assert net.localize(p) == (lid if dist <= LOCALIZE_RADIUS else None)


def test_batched_nearest_lanelet_matches_single_points():
    """One call over many points gives each point's single-point answer,
    the 1e-12 tie rule included."""
    for name in ("merge", "t_intersection", "highway"):
        scenario = _load(name)
        net = scenario.network
        rng = np.random.default_rng(5)
        far = rng.uniform(-200.0, 200.0, size=(50, 2))
        points = np.vstack([_recorded_positions(scenario, every=3), far])
        ids, dists = net.nearest_lanelet(points)
        single = [net.nearest_lanelet(p) for p in points]
        assert ids == [lid for lid, _ in single], name
        assert np.asarray(dists).tobytes() == np.array([d for _, d in single]).tobytes()
        assert net.localize(points) == [net.localize(p) for p in points]
        assert None in net.localize(points)
    assert net.nearest_lanelet(np.empty((0, 2))) == ([], [])


def test_batched_nearest_lanelet_keeps_the_tie_rule():
    """Distances within 1e-12 of each other tie, and a tie goes to the
    smaller lanelet id, for every point of a batch as for a single point."""
    def lane(lid, y):
        xs = [0.0, 50.0]
        return Lanelet(lid, Polyline([(x, y + 1.0) for x in xs]),
                       Polyline([(x, y - 1.0) for x in xs]))

    net = StreetNetwork([lane("b", 4.0), lane("a", 0.0)])
    points = np.array([(10.0, 2.0 - 1e-13), (10.0, 2.0 + 1e-13), (10.0, 2.0 + 1e-11)])
    ids, _ = net.nearest_lanelet(points)
    assert ids == ["a", "a", "b"]
    assert ids == [net.nearest_lanelet(p)[0] for p in points]


def test_nearest_lanelet_independent_of_earlier_loads():
    """Networks loaded and freed earlier in the process never leak their
    geometry into the answers of a later network."""
    for _ in range(30):
        for name in ("merge", "t_intersection"):
            gc.collect()
            _check_nearest_at_recorded_positions(name)


def test_chain_frame_cached_per_network():
    net = _load("merge").network
    lid = next(l for l in sorted(net.lanelets) if net.lanelets[l].successors)
    chain = (lid, net.lanelets[lid].successors[0])
    frame = net.chain_frame(chain)
    assert frame is net.chain_frame(chain)
    first, last = (net.lanelets[l].centerline.points for l in chain)
    assert np.array_equal(frame.reference.points[:len(first)], first)
    assert np.array_equal(frame.reference.points[-len(last) + 1:], last[1:])

    other = _load("merge").network
    assert all(net.chain_frame((l,)) is not other.chain_frame((l,)) for l in net.lanelets)
    assert other.chain_frame(chain) is not frame


def test_localize_off_network():
    net = _load("merge").network
    assert net.localize((1e4, 1e4)) is None
