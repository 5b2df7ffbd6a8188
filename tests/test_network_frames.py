"""Lane-chain frames belong to the network they describe, and so does the
rule that locates a pose in the lanelet it drives in."""

import gc
from pathlib import Path

import numpy as np
import pytest

from drivesim.cli import resolve_scenario_path
from drivesim.geometry import Polyline
from drivesim.scenario import Lanelet, StreetNetwork, load_scenario

from conftest import reference_locate


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


def _recorded_poses(scenario, every=10):
    """The recorded (x, y, theta) of every dynamic obstacle, every every steps."""
    return np.concatenate([obs.recording[::every][:, [0, 1, 3]]
                           for obs in scenario.dynamic_obstacles])


def _check_nearest_at_recorded_positions(name, every=10):
    scenario = _load(name)
    net = scenario.network
    for x, y, theta in _recorded_poses(scenario, every).tolist():
        p = np.array([x, y])
        lid, dist = net.nearest_lanelet(p)
        brute = {l: _polyline_distance(p, lane.centerline.points)
                 for l, lane in net.lanelets.items()}
        best = min(brute.values())
        assert dist == pytest.approx(best, abs=1e-9), (name, p, lid)
        assert brute[lid] == pytest.approx(best, abs=1e-9), (name, p, lid)
        assert net.locate([(x, y, theta)])[0] == [reference_locate(net, x, y, theta)[0]]


def test_batched_nearest_lanelet_matches_single_points():
    """One call over many points gives each point's single-point answer,
    the 1e-12 tie rule included."""
    for name in ("merge", "t_intersection", "highway"):
        scenario = _load(name)
        net = scenario.network
        rng = np.random.default_rng(5)
        far = rng.uniform(-200.0, 200.0, size=(50, 3))
        poses = np.vstack([_recorded_poses(scenario, every=3), far])
        points = poses[:, :2]
        ids, dists = net.nearest_lanelet(points)
        single = [net.nearest_lanelet(p) for p in points]
        assert ids == [lid for lid, _ in single], name
        assert np.asarray(dists).tobytes() == np.array([d for _, d in single]).tobytes()
        located, _ = net.locate(poses)
        assert located == [reference_locate(net, *pose)[0] for pose in poses.tolist()]
        assert None in located
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
    """A pose that no lanelet holds and that lies farther than
    LOCALIZE_RADIUS from every centre line is in no lanelet."""
    net = _load("merge").network
    located, turns = net.locate([(1e4, 1e4, 0.0)])
    assert located == [None]
    assert turns.shape == (1, len(net.lanelets)) and np.isnan(turns).all()


def test_locate_agrees_with_the_nearest_centre_line_where_one_lanelet_holds():
    """At every recorded pose of the bundled scenarios that exactly one
    lanelet holds, locate picks that lanelet, and so does nearest_lanelet:
    where heading and nearest lane agree, the rule changes no choice."""
    held_once = 0
    for name in ("merge", "t_intersection", "highway"):
        scenario = _load(name)
        net = scenario.network
        poses = _recorded_poses(scenario, every=1)
        located, turns = net.locate(poses)
        once = np.flatnonzero((~np.isnan(turns)).sum(axis=1) == 1)
        nearest, _ = net.nearest_lanelet(poses[once, :2])
        assert [located[k] for k in once.tolist()] == nearest, name
        held_once += len(once)
    assert held_once > 1000


def test_orange_drives_in_ew_inside_the_crossing(intersection_runs):
    """At step 62 of intersection_frenet, orange heads east just inside the
    conflict area, nearer the centre line of ns than of ew. Both lanelets
    hold it, and it drives along ew, so locate puts it on ew."""
    result, scenario, _ = intersection_runs["frenet"]
    net = scenario.network
    st = result.trajectories["orange"].states[62]
    assert net.nearest_lanelet((st.x, st.y))[0] == "ns"
    located, turns = net.locate([(st.x, st.y, st.theta)])
    assert located == ["ew"]
    assert not np.isnan(turns).any()
