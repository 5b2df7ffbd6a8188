"""Transition model, trajectories, and feasibility limits."""

import math

import numpy as np
import pytest

from drivesim.dynamics import (AgentState, ControlInput, Trajectory,
                               VehicleParams, feasible, normalize_angle,
                               normalize_angles, rollout_arrays, step)

DT = 0.1


def test_normalize_angle():
    assert normalize_angle(3 * math.pi) == pytest.approx(math.pi)
    assert normalize_angle(-math.pi) == pytest.approx(math.pi)
    assert normalize_angle(0.3) == pytest.approx(0.3)


def test_straight_step():
    s = step(AgentState(0, 0, 10, 0), ControlInput(2.0, 0.0), DT)
    assert s.v == pytest.approx(10.2)
    assert s.x == pytest.approx(1.01)  # mean-speed advance
    assert s.y == 0.0


def test_speed_clamps_at_zero():
    s = step(AgentState(0, 0, 0.5, 0), ControlInput(-8.0, 0.0), DT)
    assert s.v == 0.0


def test_arc_step_turns():
    s0 = AgentState(0, 0, 10, 0)
    s1 = step(s0, ControlInput(0.0, 0.1), DT)
    assert s1.theta == pytest.approx(0.1)  # v * kappa * dt
    assert s1.y > 0.0


def test_negative_velocity_rejected():
    with pytest.raises(ValueError):
        AgentState(0, 0, -1.0, 0)


def test_rollout_consistency():
    inputs = [ControlInput(1.0, 0.02)] * 20
    traj = Trajectory.rollout(AgentState(0, 0, 5, 0), inputs, DT)
    assert len(traj) == 21
    assert traj.duration == pytest.approx(2.0)
    # validate mode accepts what rollout produced
    Trajectory(traj.states, traj.inputs, DT, validate=True)


def test_validate_rejects_inconsistent_states():
    s0 = AgentState(0, 0, 5, 0)
    bad = AgentState(99.0, 0, 5, 0)
    with pytest.raises(ValueError):
        Trajectory([s0, bad], [ControlInput(0.0, 0.0)], DT, validate=True)


def test_feasible_limits():
    params = VehicleParams()
    ok = Trajectory.rollout(AgentState(0, 0, 10, 0), [ControlInput(2.0, 0.05)] * 5, DT)
    assert feasible(ok, params)

    hard_brake = Trajectory.rollout(AgentState(0, 0, 10, 0),
                                    [ControlInput(-9.0, 0.0)], DT)
    res = feasible(hard_brake, params)
    assert not res
    assert res.violation.bound == "a_long_max"

    tight_turn = Trajectory.rollout(AgentState(0, 0, 10, 0),
                                    [ControlInput(0.0, 0.25)], DT)
    assert feasible(tight_turn, params).violation.bound == "kappa_max"

    fast_turn = Trajectory.rollout(AgentState(0, 0, 30, 0),
                                   [ControlInput(0.0, 0.05)], DT)
    # lateral accel 30^2 * 0.05 = 45 > 8
    assert feasible(fast_turn, params).violation.bound == "a_lat_max"


def _reference_transition(x, y, v, theta, accel, kappa, dt):
    """The per-step kinematic model that rollout_arrays replaced, kept as an
    oracle: clamp speed at 0, advance along an arc of the commanded curvature
    at the mean of old and new speed, turn the heading by v * kappa * dt."""
    v_new = v + accel * dt
    v_new = np.where(v_new > 0.0, v_new, 0.0)
    ds = 0.5 * (v + v_new) * dt
    straight = (np.abs(kappa) < 1e-12) | (ds < 1e-15)
    k = np.where(straight, 1.0, kappa)
    theta_end = theta + k * ds
    x_new = np.where(straight, x + ds * np.cos(theta),
                     x + (np.sin(theta_end) - np.sin(theta)) / k)
    y_new = np.where(straight, y + ds * np.sin(theta),
                     y + (np.cos(theta) - np.cos(theta_end)) / k)
    return x_new, y_new, v_new, normalize_angles(theta + v * kappa * dt)


def _reference_rollout(start, accel, kappa, dt):
    """States (4, K+1) of one row, chaining scalar reference steps."""
    states = [tuple(start)]
    for a, k in zip(accel.tolist(), kappa.tolist()):
        states.append(tuple(float(c) for c in _reference_transition(*states[-1], a, k, dt)))
    return np.array(states).T


def _oracle_rows():
    """(start (x, y, v, theta), accel (K,), kappa (K,)) per row: heading wraps
    across +pi and -pi, the speed clamps to 0 mid-horizon, kappa is 0, -0 or
    below 1e-12 in magnitude, the arc length of a step is below 1e-15, and
    random rows."""
    K = 12
    rows = [
        ((3.0, -2.0, 10.0, math.pi - 0.05), np.full(K, 0.5), np.full(K, 0.2)),
        ((-1.0, 4.0, 8.0, -math.pi + 0.05), np.full(K, -0.5), np.full(K, -0.2)),
        ((0.0, 0.0, 1.0, 0.7), np.r_[np.full(5, -4.0), np.full(K - 5, 2.0)], np.full(K, 0.1)),
        ((5.0, 5.0, 6.0, -1.2), np.zeros(K), np.tile([0.0, -0.0, 5e-13, -5e-13], K // 4)),
        ((2.0, 1.0, 0.0, 2.5), np.zeros(K), np.full(K, 0.15)),
        ((2.0, 1.0, 1e-16, -2.5), np.zeros(K), np.full(K, -0.15)),
    ]
    rng = np.random.default_rng(7)
    for _ in range(6):
        rows.append(((*rng.normal(0.0, 50.0, 2), abs(rng.normal(8.0, 6.0)),
                      rng.uniform(-math.pi, math.pi)),
                     rng.normal(0.0, 4.0, K), rng.normal(0.0, 0.2, K)))
    return rows


def test_rollout_matches_chained_reference_steps_bitwise():
    rows = _oracle_rows()
    start = np.array([r[0] for r in rows]).T
    accel, kappa = np.array([r[1] for r in rows]), np.array([r[2] for r in rows])
    states = np.array(rollout_arrays(*start, accel, kappa, DT))
    reference = np.array([_reference_rollout(*r, DT) for r in rows]).transpose(1, 0, 2)
    assert states.tobytes() == reference.tobytes()
    # the rows reach the cases they are named for
    x, y, v, theta = reference
    assert np.any(theta[0] < 0) and np.any(theta[1] > 0)  # wrapped across +-pi
    assert v[2, 1] > 0 and v[2, 3] == 0 and v[2, -1] > 0  # clamped mid-horizon
    ds = 0.5 * (v[:, :-1] + v[:, 1:]) * DT
    assert np.all(ds[4:6] < 1e-15) and np.all(np.abs(kappa[4:6]) > 0.1)
    # each row alone, and as scalar starts, gives the same bits
    for r, row in zip(rows, np.transpose(states, (1, 0, 2))):
        alone = np.array(rollout_arrays(*r[0], r[1], r[2], DT))
        assert alone.tobytes() == row.tobytes()


def test_rollout_ignores_zero_padding():
    rows = _oracle_rows()
    start = np.array([r[0] for r in rows]).T
    accel, kappa = np.array([r[1] for r in rows]), np.array([r[2] for r in rows])
    K = accel.shape[-1]
    states = np.array(rollout_arrays(*start, accel, kappa, DT))
    for pad in (1, 7):
        padded = np.array(rollout_arrays(*start, np.pad(accel, ((0, 0), (0, pad))),
                                         np.pad(kappa, ((0, 0), (0, pad))), DT))
        assert padded.shape[-1] == K + 1 + pad
        assert padded[..., :K + 1].tobytes() == states.tobytes()
    # a stack of horizons padded to the longest equals each one alone
    stacked = np.zeros((2, 3, len(rows), K))
    stacked[:, 0, :, :5], stacked[:, 1, :, :9], stacked[:, 2] = (
        np.array([accel[:, :5], kappa[:, :5]]), np.array([accel[:, :9], kappa[:, :9]]),
        np.array([accel, kappa]))
    together = np.array(rollout_arrays(*start[:, None, :], *stacked, DT))
    for h, n in enumerate((5, 9, K)):
        alone = np.array(rollout_arrays(*start, accel[:, :n], kappa[:, :n], DT))
        assert together[:, h, :, :n + 1].tobytes() == alone.tobytes()


def test_step_is_one_rollout_step():
    for (x, y, v, theta), accel, kappa in _oracle_rows():
        s = AgentState(x, y, v, theta)
        u = ControlInput(float(accel[0]), float(kappa[0]))
        expected = _reference_rollout((s.x, s.y, s.v, s.theta), accel[:1], kappa[:1], DT)[:, 1]
        nxt = step(s, u, DT)
        assert np.array([nxt.x, nxt.y, nxt.v, nxt.theta]).tobytes() == expected.tobytes()


def _boundary_rows():
    """Rows at the edges of rollout_arrays' prefix-sum path, each with a
    label: a speed that sums to exactly 0.0, a start speed of -0.0 held by
    -0.0 accelerations (stepping clamps it to +0.0), headings that land
    exactly on pi (in range, kept) and on -pi (wrapped to pi), and a NaN
    acceleration (stepping clamps the speed to 0), next to two plain rows."""
    K = 8
    turn_once = np.r_[0.1, np.zeros(K - 1)]  # 10 m/s * 0.1 / m * 0.1 s = 0.1 rad
    return [
        ("plain", (0.0, 0.0, 10.0, 0.3), np.full(K, 0.5), np.full(K, 0.01)),
        ("zero_speed", (1.0, 2.0, 1.0, 0.2), np.r_[-10.0, np.full(K - 1, 2.0)], np.full(K, 0.1)),
        ("negative_zero_speed", (1.0, 2.0, -0.0, 0.2), np.full(K, -0.0), np.full(K, 0.1)),
        ("on_pi", (0.0, 0.0, 10.0, math.pi - 0.1), np.zeros(K), turn_once),
        ("on_minus_pi", (0.0, 0.0, 10.0, -math.pi + 0.1), np.zeros(K), -turn_once),
        ("nan_accel", (4.0, -3.0, 6.0, 1.0), np.r_[1.0, math.nan, np.ones(K - 2)], np.full(K, 0.05)),
        ("plain_reverse_turn", (-5.0, 2.0, 7.0, -0.4), np.full(K, -0.3), np.full(K, -0.02)),
    ]


def test_rollout_boundary_rows_match_reference_bitwise():
    """The boundary rows, in one call, as 0-d starts with (K,) inputs, and
    as dynamics.step from a 0-d start, equal the chained reference steps
    bitwise. Plain prefix sums would get the -0.0, -pi and NaN rows wrong,
    so those rows can only match through the per-row stepping."""
    labels, starts, accel, kappa = zip(*_boundary_rows())
    accel, kappa = np.array(accel), np.array(kappa)
    reference = np.array([_reference_rollout(s, a, k, DT)
                          for s, a, k in zip(starts, accel, kappa)]).transpose(1, 0, 2)
    states = np.array(rollout_arrays(*np.array(starts).T, accel, kappa, DT))
    assert states.tobytes() == reference.tobytes()
    for i, (start, a, k) in enumerate(zip(starts, accel, kappa)):
        alone = np.array(rollout_arrays(*start, a, k, DT))
        assert alone.tobytes() == reference[:, i].tobytes(), labels[i]
        nxt = step(AgentState(*start), ControlInput(float(a[0]), float(k[0])), DT)
        assert np.array([nxt.x, nxt.y, nxt.v, nxt.theta]).tobytes() == \
            reference[:, i, 1].tobytes(), labels[i]
    # the rows reach the cases they are named for
    row = {label: i for i, label in enumerate(labels)}
    x, y, v, theta = reference
    assert v[row["zero_speed"], 1] == 0.0 and v[row["zero_speed"], 2] > 0.0
    assert theta[row["on_pi"], 1] == math.pi and theta[row["on_minus_pi"], 1] == math.pi
    assert v[row["nan_accel"], 2] == 0.0 and np.isfinite(reference).all()
    naive_v = np.cumsum(np.column_stack([[s[2] for s in starts], accel * DT]), axis=-1)
    naive_theta = np.cumsum(np.column_stack([[s[3] for s in starts], v[:, :-1] * kappa * DT]),
                            axis=-1)
    assert math.copysign(1.0, naive_v[row["negative_zero_speed"], 1]) == -1.0
    assert math.copysign(1.0, v[row["negative_zero_speed"], 1]) == 1.0
    assert naive_theta[row["on_minus_pi"], 1] == -math.pi
    assert np.isnan(naive_v[row["nan_accel"], 2])
    plain = [row["plain"], row["plain_reverse_turn"], row["on_pi"]]
    assert naive_v[plain].tobytes() == v[plain].tobytes()
    assert naive_theta[plain].tobytes() == theta[plain].tobytes()
