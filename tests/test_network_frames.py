"""Lane-chain frames belong to the network they describe."""

import gc
from pathlib import Path

import numpy as np
import pytest

from drivesim.cli import resolve_scenario_path
from drivesim.scenario import LOCALIZE_RADIUS, load_scenario


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


def _check_nearest_at_recorded_positions(name, every=10):
    scenario = _load(name)
    net = scenario.network
    for obs in scenario.dynamic_obstacles:
        for st in obs.recorded_states[::every]:
            p = np.array([st.x, st.y])
            lid, dist = net.nearest_lanelet(p)
            brute = {l: _polyline_distance(p, lane.centerline.points)
                     for l, lane in net.lanelets.items()}
            best = min(brute.values())
            assert dist == pytest.approx(best, abs=1e-9), (name, p, lid)
            assert brute[lid] == pytest.approx(best, abs=1e-9), (name, p, lid)
            assert net.localize(p) == (lid if dist <= LOCALIZE_RADIUS else None)


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
