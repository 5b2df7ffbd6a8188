"""Constant-speed lane-following prediction with growing uncertainty."""

import struct
from pathlib import Path

import numpy as np
import pytest

from drivesim import engine
from drivesim.dynamics import AgentState
from drivesim.geometry import Polyline, occupancy
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
