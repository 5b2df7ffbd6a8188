"""Constant-speed lane-following prediction with growing uncertainty."""

import struct
from pathlib import Path

import numpy as np
import pytest

from drivesim import engine
from drivesim.cli import build_run, load_run_config
from drivesim.dynamics import AgentState, VehicleParams
from drivesim.engine import run
from drivesim.geometry import Polyline, occupancy
from drivesim.metrics import CROSSING_HORIZON, VehicleLog, _crossing_ttc
from drivesim.planners import Neighbor
from drivesim.prediction import PredictorConfig, lane_chain, predict_all
from drivesim.scenario import Lanelet, StreetNetwork

from conftest import run_bundled

DT = 0.1
HIGHWAY_FRENET12 = (Path(__file__).resolve().parent.parent
                    / "perfbench" / "configs" / "highway_frenet12.json")


def straight_network():
    xs = np.linspace(0.0, 100.0, 11)
    a = Lanelet("a", Polyline(np.column_stack([xs, np.full(11, 2.0)])),
                Polyline(np.column_stack([xs, np.full(11, -2.0)])),
                successors=["b"])
    xs2 = np.linspace(100.0, 200.0, 11)
    b = Lanelet("b", Polyline(np.column_stack([xs2, np.full(11, 2.0)])),
                Polyline(np.column_stack([xs2, np.full(11, -2.0)])))
    return StreetNetwork([a, b])


def test_config_validation():
    with pytest.raises(ValueError):
        PredictorConfig(horizon=-1.0)
    with pytest.raises(ValueError):
        PredictorConfig(horizon=0.35).n_steps(DT)
    assert PredictorConfig().n_steps(DT) == 30


def test_constant_speed_along_lane():
    net = straight_network()
    preds = predict_all({"v1": AgentState(10.0, 0.5, 8.0, 0.0)}, net,
                        PredictorConfig(), DT)
    path = preds["v1"]
    assert path.poses.shape == (31, 3)
    assert path.v == 8.0
    for k, (x, y, theta) in enumerate(path.poses.tolist()):
        assert x == pytest.approx(10.0 + 8.0 * k * DT, abs=1e-6)
        assert y == pytest.approx(0.5, abs=1e-6)  # lateral offset preserved
        assert theta == 0.0


def test_stddev_growth():
    net = straight_network()
    preds = predict_all({"v1": AgentState(10.0, 0.0, 8.0, 0.0)}, net,
                        PredictorConfig(growth_rate=0.5), DT)
    stddev = preds["v1"].pos_stddev
    assert stddev[0] == 0.0
    for k in range(len(stddev)):
        assert stddev[k] == pytest.approx(0.5 * k * DT)


def test_crosses_into_successor():
    net = straight_network()
    preds = predict_all({"v1": AgentState(95.0, 0.0, 30.0, 0.0)}, net,
                        PredictorConfig(), DT)
    x, _, _ = preds["v1"].poses[-1]
    assert x == pytest.approx(95.0 + 30.0 * 3.0, abs=1e-6)


def test_off_road_straight_fallback():
    net = straight_network()
    state = AgentState(50.0, 40.0, 6.0, np.pi / 4)  # far off any lanelet
    preds = predict_all({"v1": state}, net, PredictorConfig(), DT)
    x, y, _ = preds["v1"].poses[-1]
    assert x == pytest.approx(50.0 + 6.0 * 3.0 * np.cos(np.pi / 4))
    assert y == pytest.approx(40.0 + 6.0 * 3.0 * np.sin(np.pi / 4))


def _log(vid, x, y, v, theta, network):
    """A one-step VehicleLog of the default vehicle, localized on network."""
    params = VehicleParams()
    log = VehicleLog(vid, np.array([[x, y, v, theta]]), params.length, params.width, True)
    log.lanelets = network.localize(log.track[:, :2])
    return log


def test_leader_goes_straight_on_past_the_chain_end():
    """Lanelet b ends at x = 200. A leader at x = 185 doing 8 m/s and a
    follower at x = 160 doing 10 m/s, both 4.5 m long, touch when the 25 m
    between their centres has shrunk to 4.5 m, after 10.25 s: the first
    sweep step at or after it is 10.3 s. A leader parked at the chain end
    would be hit after 3.6 s."""
    net = straight_network()
    leader = _log("lead", 185.0, 0.0, 8.0, 0.0, net)
    follower = _log("follower", 160.0, 0.0, 10.0, 0.0, net)
    assert _crossing_ttc(net, follower, leader, 0, DT) == pytest.approx(10.3)
    assert leader.sweep(net, 0, DT)[-1, 0] == pytest.approx(185.0 + 8.0 * CROSSING_HORIZON)


def bend_network():
    """One lanelet 2 m wide: straight along y = 0 from x = -20 to 10, a left
    quarter circle of radius 2 m about (10, 2), then straight up x = 12."""
    arc = np.linspace(-np.pi / 2, 0.0, 10)[1:-1]
    centre = np.vstack([np.column_stack([np.arange(-20.0, 10.5), np.zeros(31)]),
                        np.column_stack([10.0 + 2.0 * np.cos(arc), 2.0 + 2.0 * np.sin(arc)]),
                        np.column_stack([np.full(29, 12.0), np.arange(2.0, 30.5)])])
    tangent = np.gradient(centre, axis=0)
    normal = np.column_stack([-tangent[:, 1], tangent[:, 0]])
    normal /= np.linalg.norm(normal, axis=1)[:, None]
    return StreetNetwork([Lanelet("bend", Polyline(centre + normal), Polyline(centre - normal))])


def test_folding_offset_falls_back_to_straight():
    """3 m left of the centre line, inside a bend of radius 2 m that it
    reaches after 1 s, a vehicle's offset folds over the bend, so both the
    prediction and the metric's sweep send it straight on from its pose;
    on the centre line it follows the bend."""
    net = bend_network()
    assert net.localize((0.0, 3.0)) == "bend"
    n = PredictorConfig().n_steps(DT)
    k = np.arange(n + 1)
    inside = predict_all({"v": AgentState(0.0, 3.0, 10.0, 0.0)}, net, PredictorConfig(), DT)
    assert inside["v"].poses.tolist() == np.column_stack(
        [10.0 * k * DT, np.full(n + 1, 3.0), np.zeros(n + 1)]).tolist()
    sweep = _log("v", 0.0, 3.0, 10.0, 0.0, net).sweep(net, 0, DT)
    assert len(sweep) == round(CROSSING_HORIZON / DT) + 1
    assert sweep[:, 1].tolist() == [3.0] * len(sweep)
    assert sweep[:, 0].tolist() == (10.0 * np.arange(len(sweep)) * DT).tolist()
    centred = predict_all({"v": AgentState(0.0, 0.0, 10.0, 0.0)}, net, PredictorConfig(), DT)
    x, y, theta = centred["v"].poses[-1]
    assert x == pytest.approx(12.0) and y > 10.0 and theta == pytest.approx(np.pi / 2)


def test_lane_chain_follows_successors():
    net = straight_network()
    chain = lane_chain(net, "a", 0.0, 150.0)
    assert chain == ("a", "b")


def _bits(*values):
    return struct.pack(f"<{len(values)}d", *values)


@pytest.mark.parametrize("config, steps", [("merge_frenet", 5), ("intersection_frenet", 5),
                                           (str(HIGHWAY_FRENET12), 2)],
                         ids=["merge_frenet", "intersection_frenet", "highway_frenet12"])
def test_poses_and_boxes_match_states(monkeypatch, config, steps):
    """Every prediction of the first steps of a run holds each pose exactly
    as an AgentState built from it holds it (theta already wrapped), and
    each Neighbor's box at step k is, bitwise, the box of that state grown
    on every side by twice the stddev at k."""
    predictions, neighbors = [], []

    def recording_predict_all(*args):
        out = predict_all(*args)
        predictions.extend(out.values())
        return out

    def recording_neighbor(*args):
        neighbors.append(Neighbor(*args))
        return neighbors[-1]

    monkeypatch.setattr(engine, "predict_all", recording_predict_all)
    monkeypatch.setattr(engine, "Neighbor", recording_neighbor)
    run_bundled(config, worker_count=1, max_steps=steps)
    assert predictions and len(neighbors) == len(predictions)
    for pred in predictions:
        assert pred.poses.shape == (len(pred.pos_stddev), 3)
        for x, y, theta in pred.poses.tolist():
            st = AgentState(x, y, pred.v, theta)
            assert _bits(st.x, st.y, st.v, st.theta) == _bits(x, y, pred.v, theta)
    for nb in neighbors:
        pred = nb.prediction
        for k, ((x, y, theta), sigma) in enumerate(zip(pred.poses.tolist(),
                                                       pred.pos_stddev.tolist())):
            box = occupancy(AgentState(x, y, pred.v, theta),
                            nb.length + 2.0 * sigma, nb.width + 2.0 * sigma)
            assert nb.boxes[k].tobytes() == box.tobytes(), k


@pytest.mark.parametrize("config", ["intersection_frenet", "merge_frenet", str(HIGHWAY_FRENET12)],
                         ids=["intersection_frenet", "merge_frenet", "highway_frenet12"])
def test_crossing_sweep_begins_with_the_prediction(config):
    """One motion model: at every logged step of every vehicle of a run, the
    poses predict_all gives a vehicle in that state are, bitwise, the first
    poses of the sweep the metrics extrapolate from it (VehicleLog.sweep)."""
    scenario, bindings, sim_cfg, predictor, _, _ = build_run(load_run_config(config))
    result = run(scenario, bindings, sim_cfg, predictor)
    net, n = scenario.network, predictor.n_steps(result.dt)
    params = {p.agent_id: p.params for p in scenario.planning_problems}
    logs = [VehicleLog(aid, np.array([(s.x, s.y, s.v, s.theta) for s in traj.states]),
                       params[aid].length, params[aid].width, True)
            for aid, traj in result.trajectories.items()]
    logs += [VehicleLog(o.id, o.track(np.arange(len(result.step_logs) + 1)), o.length, o.width,
                        False) for o in scenario.dynamic_obstacles]
    compared = 0
    for log in logs:
        log.lanelets = net.localize(log.track[:, :2])
        for t, state in enumerate(log.track.tolist()):
            poses = predict_all({log.id: AgentState(*state)}, net, predictor,
                                result.dt)[log.id].poses
            assert poses.tobytes() == log.sweep(net, t, result.dt)[:n + 1, :3].tobytes(), \
                (log.id, t)
            compared += 1
    assert compared >= 90
