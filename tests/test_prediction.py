"""Constant-speed lane-following prediction with growing uncertainty."""

import struct
from pathlib import Path

import numpy as np
import pytest

from drivesim import engine, prediction
from drivesim.cli import build_run, load_run_config
from drivesim.dynamics import AgentState, VehicleParams
from drivesim.engine import run
from drivesim.geometry import Polyline, occupancy
from drivesim.metrics import CROSSING_HORIZON, VehicleLog, _crossing_ttc, locate_logs
from drivesim.prediction import PredictorConfig, lane_chain, predict_all, predicted_boxes
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
    for key in ("horizon", "growth_rate"):
        with pytest.raises(ValueError, match=f"{key}=inf must be finite"):
            PredictorConfig(**{key: float("inf")})
    with pytest.raises(ValueError):
        PredictorConfig(horizon=0.35).n_steps(DT)
    assert PredictorConfig().n_steps(DT) == 30


def predict_located(states, network, cfg, dt):
    """predict_all of states (V, 4) on the lanelets network.locate gives them."""
    return predict_all(states, network.locate(states[:, [0, 1, 3]])[0], network, cfg, dt)


def test_constant_speed_along_lane():
    net = straight_network()
    poses = predict_located(np.array([[10.0, 0.5, 8.0, 0.0]]), net, PredictorConfig(), DT)
    assert poses.shape == (1, 31, 3)
    for k, (x, y, theta) in enumerate(poses[0].tolist()):
        assert x == pytest.approx(10.0 + 8.0 * k * DT, abs=1e-6)
        assert y == pytest.approx(0.5, abs=1e-6)  # lateral offset preserved
        assert theta == 0.0


def test_stddev_growth():
    """Each predicted box's length and width are grown by twice the stddev,
    growth_rate * k * dt at step k, and not at all at step 0."""
    net = straight_network()
    cfg = PredictorConfig(growth_rate=0.5)
    poses = predict_located(np.array([[10.0, 0.0, 8.0, 0.0]]), net, cfg, DT)
    boxes = predicted_boxes(poses, [4.5], [2.0], cfg, DT)
    assert boxes.shape == (1, 31, 5)
    assert boxes[0, 0, 3:].tolist() == [4.5, 2.0]
    for k in range(31):
        assert boxes[0, k, 3:] == pytest.approx([4.5 + k * DT, 2.0 + k * DT])


def test_crosses_into_successor():
    net = straight_network()
    poses = predict_located(np.array([[95.0, 0.0, 30.0, 0.0]]), net, PredictorConfig(), DT)
    x, _, _ = poses[0, -1]
    assert x == pytest.approx(95.0 + 30.0 * 3.0, abs=1e-6)


def test_off_road_straight_fallback():
    net = straight_network()
    state = np.array([[50.0, 40.0, 6.0, np.pi / 4]])  # far off any lanelet
    x, y, _ = predict_located(state, net, PredictorConfig(), DT)[0, -1]
    assert x == pytest.approx(50.0 + 6.0 * 3.0 * np.cos(np.pi / 4))
    assert y == pytest.approx(40.0 + 6.0 * 3.0 * np.sin(np.pi / 4))


def _log(vid, x, y, v, theta, network):
    """A one-step VehicleLog of the default vehicle, located on network."""
    params = VehicleParams()
    log = VehicleLog(vid, np.array([[x, y, v, theta]]), params.length, params.width, True)
    locate_logs(network, [log])
    return log


def test_leader_goes_straight_on_past_the_chain_end():
    """Lanelet b ends at x = 200. A leader at x = 185 doing 8 m/s and a
    follower at x = 160 doing 10 m/s, both 4.5 m long, touch when the 25 m
    between their centres has shrunk to 4.5 m, after 10.25 s: the first
    predicted step at or after it is 10.3 s. A leader parked at the chain
    end would be hit after 3.6 s."""
    net = straight_network()
    leader = _log("lead", 185.0, 0.0, 8.0, 0.0, net)
    follower = _log("follower", 160.0, 0.0, 10.0, 0.0, net)
    assert _crossing_ttc(net, follower, leader, np.array([0]), DT).tolist() == \
        [pytest.approx(10.3)]
    crossing = PredictorConfig(horizon=CROSSING_HORIZON)
    assert predict_located(leader.track, net, crossing, DT)[0, -1, 0] == \
        pytest.approx(185.0 + 8.0 * CROSSING_HORIZON)


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
    prediction and the metric's crossing-horizon prediction send it
    straight on from its pose; on the centre line it follows the bend."""
    net = bend_network()
    assert net.locate([(0.0, 3.0, 0.0)])[0] == ["bend"]   # off the lanelet, 3 m from its centre
    n = PredictorConfig().n_steps(DT)
    k = np.arange(n + 1)
    inside = predict_located(np.array([[0.0, 3.0, 10.0, 0.0]]), net, PredictorConfig(), DT)
    assert inside[0].tolist() == np.column_stack(
        [10.0 * k * DT, np.full(n + 1, 3.0), np.zeros(n + 1)]).tolist()
    sweep = predict_located(np.array([[0.0, 3.0, 10.0, 0.0]]), net,
                        PredictorConfig(horizon=CROSSING_HORIZON), DT)[0]
    assert len(sweep) == round(CROSSING_HORIZON / DT) + 1
    assert sweep[:, 1].tolist() == [3.0] * len(sweep)
    assert sweep[:, 0].tolist() == (10.0 * np.arange(len(sweep)) * DT).tolist()
    centred = predict_located(np.array([[0.0, 0.0, 10.0, 0.0]]), net, PredictorConfig(), DT)
    x, y, theta = centred[0, -1]
    assert x == pytest.approx(12.0) and y > 10.0 and theta == pytest.approx(np.pi / 2)


def test_folding_and_centred_rows_of_one_chain_predict_as_alone(monkeypatch):
    """A folding and a centred vehicle on the bend share one chain, so one
    predict_all call extrapolates both in one call, whose single projection
    and whose fold fallback leave each with bitwise the poses it gets alone:
    the folding one straight on, the centred one around the bend."""
    net = bend_network()
    states = np.array([[0.0, 3.0, 10.0, 0.0], [0.0, 0.0, 10.0, 0.0]])
    for cfg in (PredictorConfig(), PredictorConfig(horizon=CROSSING_HORIZON)):
        alone = [predict_located(states[k:k + 1], net, cfg, DT)[0] for k in range(2)]
        called, extrapolate = [], prediction.extrapolate

        def recorded(rows, along, n, dt):
            called.append(len(rows))
            return extrapolate(rows, along, n, dt)

        monkeypatch.setattr(prediction, "extrapolate", recorded)
        together = predict_located(states, net, cfg, DT)
        monkeypatch.undo()
        assert called[0] == 2   # one call for the chain, split only after the fold
        assert [row.tobytes() for row in together] == [row.tobytes() for row in alone]
        assert together[0, :, 1].tolist() == [3.0] * together.shape[1]
        assert together[1, -1, 0] == pytest.approx(12.0)


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
    each box predicted_boxes gives the engine at step k is, bitwise, the box
    of that state with length and width grown by twice the stddev at k."""
    predictions, boxes = [], []

    def recording_predict_all(states, *args):
        poses = predict_all(states, *args)
        predictions.append((states, poses))
        return poses

    def recording_predicted_boxes(poses, length, width, cfg, dt):
        out = predicted_boxes(poses, length, width, cfg, dt)
        stddev = cfg.growth_rate * np.arange(poses.shape[1]) * dt
        boxes.append((poses, length, width, stddev, out))
        return out

    monkeypatch.setattr(engine, "predict_all", recording_predict_all)
    monkeypatch.setattr(engine, "predicted_boxes", recording_predicted_boxes)
    run_bundled(config, worker_count=1, max_steps=steps)
    assert predictions and len(boxes) == len(predictions)
    for states, poses in predictions:
        assert poses.shape[0] == len(states)
        for (_, _, v, _), rows in zip(states.tolist(), poses.tolist()):
            for x, y, theta in rows:
                st = AgentState(x, y, v, theta)
                assert _bits(st.x, st.y, st.v, st.theta) == _bits(x, y, v, theta)
    for (states, poses), (boxed, length, width, stddev, out) in zip(predictions, boxes):
        assert boxed is poses and out.shape == poses.shape[:2] + (5,)
        for j, (v, ln, wd) in enumerate(zip(states[:, 2].tolist(), length.tolist(),
                                            width.tolist())):
            for k, ((x, y, theta), sigma) in enumerate(zip(poses[j].tolist(), stddev.tolist())):
                box = occupancy(AgentState(x, y, v, theta), ln + 2.0 * sigma, wd + 2.0 * sigma)
                assert out[j, k].tobytes() == box.tobytes(), (j, k)


@pytest.mark.parametrize("config", ["intersection_frenet", "merge_frenet", str(HIGHWAY_FRENET12)],
                         ids=["intersection_frenet", "merge_frenet", "highway_frenet12"])
def test_crossing_sweep_begins_with_the_prediction(config):
    """One motion model: at every logged step of every vehicle of a run, the
    poses predict_all gives a vehicle in that state are, bitwise, the first
    poses of the CROSSING_HORIZON prediction that the metrics' crossing TTC
    makes of the vehicle's whole track in one call."""
    scenario, bindings, sim_cfg, predictor, _, _ = build_run(load_run_config(config))
    result = run(scenario, bindings, sim_cfg, predictor)
    net, n = scenario.network, predictor.n_steps(result.dt)
    crossing = PredictorConfig(horizon=CROSSING_HORIZON)
    tracks = {aid: np.array([(s.x, s.y, s.v, s.theta) for s in traj.states])
              for aid, traj in result.trajectories.items()}
    tracks.update((o.id, o.track(np.arange(len(result.step_logs) + 1)))
                  for o in scenario.dynamic_obstacles)
    compared = 0
    for vid, track in tracks.items():
        sweep = predict_located(track, net, crossing, result.dt)
        assert sweep.shape == (len(track), crossing.n_steps(result.dt) + 1, 3)
        for t in range(len(track)):
            poses = predict_located(track[t:t + 1], net, predictor, result.dt)[0]
            assert poses.tobytes() == sweep[t, :n + 1].tobytes(), (vid, t)
            compared += 1
    assert compared >= 90


@pytest.mark.parametrize("config, chains", [("intersection_frenet", 2), ("merge_frenet", 2),
                                            (str(HIGHWAY_FRENET12), 4)],
                         ids=["intersection_frenet", "merge_frenet", "highway_frenet12"])
def test_predict_all_rows_are_independent(config, chains, monkeypatch):
    """On the first step of a run, predict_all on any subset of the step's
    rows, in any order, gives bitwise those rows of the call on all of them,
    which extrapolates once per distinct chain (chains of them)."""
    calls = []

    def recording_predict_all(states, *args):
        calls.append((states, args))
        return predict_all(states, *args)

    monkeypatch.setattr(engine, "predict_all", recording_predict_all)
    run_bundled(config, worker_count=1, max_steps=1)
    monkeypatch.undo()
    states, (lanelets, *args) = calls[0]
    frames, extrapolate = [], prediction.extrapolate

    def recorded(rows, along, n, dt):
        frames.append(None if along is None else along[0])
        return extrapolate(rows, along, n, dt)

    monkeypatch.setattr(prediction, "extrapolate", recorded)
    whole = predict_all(states, lanelets, *args)
    assert len(frames) == len(set(frames)) == chains
    monkeypatch.undo()
    rng = np.random.default_rng(20)
    subsets = [[k] for k in range(len(states))] + [list(range(len(states)))[::-1]]
    subsets += [rng.choice(len(states), size, replace=False).tolist()
                for size in rng.integers(1, len(states) + 1, 6).tolist()]
    for rows in subsets:
        assert predict_all(states[rows], [lanelets[k] for k in rows],
                           *args).tobytes() == whole[rows].tobytes(), rows
