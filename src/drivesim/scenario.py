"""Scenario data model, native JSON file format, and agent substitution."""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import AgentState, VehicleParams, normalize_angles
from .geometry import CurvilinearFrame, Polygon, Polyline, RegionIndex, box_corners, occupancy

LOCALIZE_RADIUS = 5.0  # m; a position farther from every centerline is off the network
CONFLICT_MIN_AREA = 0.5  # m^2; smaller overlaps are slivers, not conflicts


class ScenarioError(ValueError):
    """Parse or validation failure; the message names the violated invariant."""


@dataclass(frozen=True)
class Adjacency:
    lanelet_id: str
    same_direction: bool


class Lanelet:
    def __init__(self, lanelet_id, left_bound: Polyline, right_bound: Polyline,
                 successors=(), adjacent_left: Adjacency | None = None,
                 adjacent_right: Adjacency | None = None):
        if len(left_bound.points) != len(right_bound.points):
            raise ScenarioError(
                f"lanelet {lanelet_id}: left and right bounds must have equal point counts"
            )
        self.id = str(lanelet_id)
        self.left_bound = left_bound
        self.right_bound = right_bound
        self.centerline = Polyline(0.5 * (left_bound.points + right_bound.points))
        self.successors = tuple(str(s) for s in successors)
        self.adjacent_left = adjacent_left
        self.adjacent_right = adjacent_right
        ring = np.vstack([left_bound.points, right_bound.points[::-1]])
        self.polygon = Polygon(ring)


class StreetNetwork:
    def __init__(self, lanelets):
        self.lanelets: dict[str, Lanelet] = {l.id: l for l in lanelets}
        if len(self.lanelets) != len(list(lanelets)):
            raise ScenarioError("duplicate lanelet ids")
        for lane in self.lanelets.values():
            for ref in lane.successors:
                if ref not in self.lanelets:
                    raise ScenarioError(
                        f"lanelet {lane.id}: dangling successor id {ref!r}"
                    )
            for adj in (lane.adjacent_left, lane.adjacent_right):
                if adj is not None and adj.lanelet_id not in self.lanelets:
                    raise ScenarioError(
                        f"lanelet {lane.id}: dangling adjacency id {adj.lanelet_id!r}"
                    )
        self._ids = sorted(self.lanelets)
        self._conflict_cache = None
        self._frames: dict[tuple[str, ...], CurvilinearFrame] = {}
        self._paths: dict[tuple, tuple[tuple[str, ...], ...]] = {}

    @functools.cached_property
    def region(self) -> RegionIndex:
        """The drivable union, indexed once on first use, in sorted id order."""
        return RegionIndex(self.lanelets[lid].polygon for lid in self._ids)

    def chain_frame(self, chain: tuple[str, ...]) -> CurvilinearFrame:
        """Curvilinear frame along the joined centerlines of a lanelet chain.

        Frames are built once per chain and live as long as the network.
        """
        frame = self._frames.get(chain)
        if frame is None:
            pts = []
            for lid in chain:
                cp = self.lanelets[lid].centerline.points
                if pts and np.hypot(*(cp[0] - pts[-1])) < 1e-9:
                    cp = cp[1:]
                pts.extend(cp)
            frame = CurvilinearFrame(Polyline(np.asarray(pts)))
            self._frames[chain] = frame
        return frame

    def lane_paths(self, start: str, lookahead: float, limit: int) -> tuple[tuple[str, ...], ...]:
        """The first limit lanelet paths (successor chains) from start, in
        depth-first order, each lookahead long or ending without successor.

        Searched once per (start, lookahead, limit); the paths live as long
        as the network."""
        key = (start, lookahead, limit)
        paths = self._paths.get(key)
        if paths is None:
            paths = self._paths[key] = _successor_paths(self.lanelets, start, lookahead, limit)
        return paths

    def nearest_lanelet(self, points):
        """Lanelet whose centerline is closest to each of points (..., 2),
        and its distance: (id, float) for one point, else two lists. Ties
        within 1e-12 go to the smaller lanelet id, for determinism."""
        p = np.asarray(points, dtype=float)
        best_id = np.full(p.shape[:-1], None, dtype=object)
        best_d = np.full(p.shape[:-1], math.inf)
        for lid in self._ids:
            dist = self.chain_frame((lid,)).distance(p)
            closer = dist < best_d - 1e-12
            best_id[closer] = lid
            best_d = np.where(closer, dist, best_d)
        return best_id.tolist(), best_d.tolist()

    def locate(self, poses) -> tuple[list, np.ndarray]:
        """The lanelet each pose of poses (n, 3) of (x, y, theta) drives in,
        or None, and the table (n, L) of its turns against each lanelet in
        sorted id order: the heading less the lanelet's tangent at the pose's
        projected arc length, wrapped, NaN where the lanelet's polygon does
        not hold the pose. A pose is in the lanelet holding it with the least
        |turn|, the smaller id among equals; if none does, in the lanelet of
        the nearest centre line within LOCALIZE_RADIUS; else in none. One
        region query finds the polygons holding each pose; each lanelet
        then projects the poses it holds."""
        poses = np.asarray(poses, dtype=float).reshape(-1, 3)
        turns = np.full((len(poses), len(self._ids)), np.nan)
        held = self.region.holds(poses[:, :2])
        for j in np.flatnonzero(held.any(axis=0)):
            rows = np.flatnonzero(held[:, j])
            frame = self.chain_frame((self._ids[j],))
            tangent = frame.tangent_angle_at(frame.project(poses[rows, :2])[0])
            turns[rows, j] = normalize_angles(poses[rows, 2] - tangent)
        # column 0 stands for no lanelet: argmin takes it only where none holds the pose
        misalign = np.column_stack([np.full(len(poses), np.inf), np.fmin(np.abs(turns), np.inf)])
        first = misalign.argmin(axis=1)
        located, free = np.array([None, *self._ids], dtype=object)[first], first == 0
        if free.any():
            near, dist = self.nearest_lanelet(poses[free, :2])
            located[free] = np.where(np.asarray(dist) <= LOCALIZE_RADIUS, near, None)
        return located.tolist(), turns

    def conflict_areas(self):
        """Overlap polygons of non-adjacent lanelet pairs: the convex hull
        of each pair's overlap, taken exactly from the points that fix it
        (_overlap_points).

        Adjacent same-direction lanelets and lanelets that only share a
        border never form conflict areas; overlaps below CONFLICT_MIN_AREA
        are discarded.
        """
        if self._conflict_cache is not None:
            return self._conflict_cache
        out = []
        for i, a_id in enumerate(self._ids):
            a = self.lanelets[a_id]
            for b_id in self._ids[i + 1:]:
                b = self.lanelets[b_id]
                if _same_direction_adjacent(a, b):
                    continue
                pts = _overlap_points(a.polygon, b.polygon)
                hull = _convex_hull(pts)
                if hull is not None and (poly := Polygon(pts[hull])).area >= CONFLICT_MIN_AREA:
                    out.append(((a_id, b_id), poly))
        self._conflict_cache = out
        return out


def _successor_paths(lanelets, start, lookahead, limit) -> tuple[tuple[str, ...], ...]:
    """The search behind StreetNetwork.lane_paths."""
    paths, stack = [], [((start,), lanelets[start].centerline.length)]
    while stack and len(paths) < limit:
        chain, length = stack.pop()
        succ = [s for s in sorted(lanelets[chain[-1]].successors) if s not in chain]
        if length >= lookahead or not succ:
            paths.append(chain)
            continue
        stack.extend((chain + (s,), length + lanelets[s].centerline.length) for s in succ)
    return tuple(paths)


def _same_direction_adjacent(a: Lanelet, b: Lanelet) -> bool:
    """True for lanelet pairs along the same corridor: laterally adjacent in
    the same direction, or directly consecutive — neither forms a conflict."""
    for adj in (a.adjacent_left, a.adjacent_right):
        if adj is not None and adj.lanelet_id == b.id and adj.same_direction:
            return True
    for adj in (b.adjacent_left, b.adjacent_right):
        if adj is not None and adj.lanelet_id == a.id and adj.same_direction:
            return True
    if b.id in a.successors or a.id in b.successors:
        return True
    return False


def _overlap_points(pa: Polygon, pb: Polygon) -> np.ndarray:
    """The points (n, 2) whose convex hull is that of the overlap of pa and
    pb: the vertices of each that the other holds, then every point where
    an edge of pa crosses an edge of pb; none where the boundary of neither
    runs through the other (_runs_inside), as where they only share a
    border. Edges parallel to within 1e-9 m over the shorter one's length
    cross in no point that the held vertices, such as the ends of a shared
    stretch, do not fix to that tolerance."""
    if not pa.reaches(pb.bounds()):
        return np.empty((0, 2))
    va, vb = pa.vertices, pb.vertices
    ea, eb = np.roll(va, -1, axis=0) - va, np.roll(vb, -1, axis=0) - vb
    # edge i of pa at va[i] + t ea[i] meets edge j of pb at vb[j] + u eb[j]
    den = np.outer(ea[:, 0], eb[:, 1]) - np.outer(ea[:, 1], eb[:, 0])
    longer = np.maximum.outer(np.hypot(ea[:, 0], ea[:, 1]), np.hypot(eb[:, 0], eb[:, 1]))
    i, j = np.nonzero(np.abs(den) > 1e-9 * longer)
    gap, den = vb[j] - va[i], den[i, j]
    t = (gap[:, 0] * eb[j, 1] - gap[:, 1] * eb[j, 0]) / den
    u = (gap[:, 0] * ea[i, 1] - gap[:, 1] * ea[i, 0]) / den
    cross = (t >= 0.0) & (t <= 1.0) & (u >= 0.0) & (u <= 1.0)
    i, j, t, u = i[cross], j[cross], t[cross], u[cross]
    if not (_runs_inside(va, ea, i, t, pb) or _runs_inside(vb, eb, j, u, pa)):
        return np.empty((0, 2))
    return np.concatenate([va[pb.contains_points(va)], vb[pa.contains_points(vb)],
                           va[i] + t[:, None] * ea[i]])


def _runs_inside(v, e, edge, s, poly: Polygon) -> bool:
    """Whether the boundary of a ring (edge k from v[k] along e[k]) runs
    through poly's interior. The points at s (k,) along the edges edge (k,),
    where it crosses poly's boundary, cut it into stretches inside poly,
    outside it or on its boundary; the midpoint of each tells which, and
    counts as inside only farther than poly's slack from its boundary."""
    edge, s = np.concatenate([np.arange(len(v)), edge]), np.concatenate([np.zeros(len(v)), s])
    order = np.lexsort((s, edge))
    ring = v[edge[order]] + s[order, None] * e[edge[order]]
    mid = 0.5 * (ring + np.roll(ring, -1, axis=0))
    rel = mid[poly.contains_points(mid, 0.0), None] - poly.vertices
    f = np.roll(poly.vertices, -1, axis=0) - poly.vertices
    gap = rel - np.clip(np.vecdot(rel, f) / np.vecdot(f, f), 0.0, 1.0)[..., None] * f
    return bool((np.hypot(gap[..., 0], gap[..., 1]).min(axis=1) > poly.slack).any())


def _convex_hull(points: np.ndarray) -> np.ndarray | None:
    """Indices of the vertices of the convex hull of points (n, 2),
    counter-clockwise from the least point in (x, y) order, or None where
    the hull has fewer than 3 vertices. Andrew's monotone chain (Andrew,
    IPL 1979). As in qhull, a point on an edge is no vertex, nor is one off
    it by no more than the rounding of the points' coordinates."""
    if len(points) < 3:
        return None
    order = np.lexsort((points[:, 1], points[:, 0]))
    # the rounding of a cross product of differences of the coordinates, with margin
    tol = 16 * np.finfo(float).eps * np.abs(points).max() * np.ptp(points, axis=0).max()
    xy = points[order].tolist()

    def chain(seq):
        kept = []
        for i in seq:
            px, py = xy[i]
            while len(kept) >= 2:
                (ox, oy), (ax, ay) = xy[kept[-2]], xy[kept[-1]]
                if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) > tol:
                    break
                kept.pop()
            kept.append(i)
        return kept[:-1]

    ring = chain(range(len(xy))) + chain(range(len(xy) - 1, -1, -1))
    return order[ring] if len(ring) >= 3 else None


def _check_shape(obstacle_id, length, width):
    if not all(math.isfinite(a) and a > 0 for a in (length, width)):
        raise ScenarioError(f"obstacle {obstacle_id}: shape {length} x {width} must be "
                            "finite and > 0")


def _check_state(where, state: AgentState):
    if not all(map(math.isfinite, (state.x, state.y, state.v, state.theta))):
        raise ScenarioError(f"{where} ({state.x}, {state.y}, {state.v}, {state.theta}) "
                            "must be finite")


@dataclass(frozen=True)
class StaticObstacle:
    id: str
    length: float
    width: float
    pose: AgentState  # v is 0 by construction

    def __post_init__(self):
        _check_shape(self.id, self.length, self.width)
        _check_state(f"obstacle {self.id}: pose", self.pose)


class DynamicObstacle:
    """A recorded vehicle. Its recording is a read-only array (n, 4) of
    (x, y, v, theta) at the scenario's dt, theta wrapped as AgentState wraps
    it; after the last row the vehicle holds its final pose at rest."""

    def __init__(self, obstacle_id, length, width, recording, params: VehicleParams | None = None):
        _check_shape(obstacle_id, length, width)
        self.id = str(obstacle_id)
        self.length = float(length)
        self.width = float(width)
        self.recording = _parse_states(recording, f"obstacle {self.id}")
        self.params = params

    def track(self, steps) -> np.ndarray:
        """Recorded states (..., 4) at steps (...), holding the final pose at
        rest once exhausted."""
        steps = np.asarray(steps)
        track = np.take(self.recording, np.minimum(steps, len(self.recording) - 1), axis=0)
        track[..., 2] = np.where(steps < len(self.recording), track[..., 2], 0.0)
        return track

    def state_at(self, index: int) -> AgentState:
        """The state track gives at step index, as an AgentState."""
        return AgentState(*self.track(index).tolist())


@dataclass(frozen=True)
class GoalRegion:
    area: Polygon
    t_max: float
    velocity_interval: tuple[float, float] | None = None
    orientation_interval: tuple[float, float] | None = None

    def __post_init__(self):
        if not (math.isfinite(self.t_max) and self.t_max > 0):
            raise ScenarioError(f"goal t_max={self.t_max} must be finite and > 0")
        for name, iv in (("v_interval", self.velocity_interval),
                         ("theta_interval", self.orientation_interval)):
            if iv is not None and not (len(iv) == 2 and iv[0] <= iv[1]):
                raise ScenarioError(f"goal {name}={list(iv)} must be two numbers lo <= hi")


class GoalCheck(enum.Enum):
    REACHED_IN_TIME = "reached_in_time"
    REACHED_LATE = "reached_late"
    NOT_REACHED = "not_reached"


def goal_satisfied(goal: GoalRegion, state: AgentState, t: float) -> GoalCheck:
    """Goal test: position in the area and optional intervals, deadline
    inclusive. A heading matches the orientation interval if any of its
    wrapped values (theta + 2 pi k) lies in it. A position outside the
    area's bounds by more than the boundary tolerance plus the area's slack
    is outside the area without testing its edges: contains_points would
    find the same (see Polygon.reaches)."""
    tol = 1e-9   # contains_points' boundary tolerance
    if not goal.area.reaches((state.x, state.y, state.x, state.y), tol):
        return GoalCheck.NOT_REACHED
    if not goal.area.contains_points(np.array([[state.x, state.y]]), boundary_tol=tol)[0]:
        return GoalCheck.NOT_REACHED
    if goal.velocity_interval is not None:
        lo, hi = goal.velocity_interval
        if not (lo <= state.v <= hi):
            return GoalCheck.NOT_REACHED
    if goal.orientation_interval is not None:
        lo, hi = goal.orientation_interval
        # how far past lo the heading lies, going round the circle
        if not (state.theta - lo + 1e-12) % (2 * math.pi) <= hi - lo + 2e-12:
            return GoalCheck.NOT_REACHED
    if t <= goal.t_max + 1e-12:
        return GoalCheck.REACHED_IN_TIME
    return GoalCheck.REACHED_LATE


@dataclass(frozen=True)
class PlanningProblem:
    agent_id: str
    initial_state: AgentState
    goal: GoalRegion
    params: VehicleParams = field(default_factory=VehicleParams)

    def __post_init__(self):
        _check_state(f"planning problem {self.agent_id}: initial state", self.initial_state)


class Scenario:
    def __init__(self, network: StreetNetwork, static_obstacles, dynamic_obstacles,
                 planning_problems, dt: float):
        if not (math.isfinite(dt) and dt > 0):
            raise ScenarioError(f"dt={dt} must be finite and > 0")
        self.network = network
        self.static_obstacles = list(static_obstacles)
        self.dynamic_obstacles = list(dynamic_obstacles)
        self.planning_problems = list(planning_problems)
        self.dt = float(dt)
        ids = ([o.id for o in self.static_obstacles]
               + [o.id for o in self.dynamic_obstacles]
               + [p.agent_id for p in self.planning_problems])
        if len(ids) != len(set(ids)):
            raise ScenarioError("obstacle and agent ids must be unique")

    def dynamic_obstacle(self, obstacle_id: str) -> DynamicObstacle:
        for o in self.dynamic_obstacles:
            if o.id == obstacle_id:
                return o
        raise ScenarioError(f"unknown dynamic obstacle id {obstacle_id!r}")

    def obstacle_tracks(self, n: int) -> np.ndarray:
        """States (O, n, 4) of every obstacle at steps 0..n-1: the dynamic
        ones through track, then the static ones at their pose."""
        static = [np.tile((o.pose.x, o.pose.y, o.pose.v, o.pose.theta), (n, 1))
                  for o in self.static_obstacles]
        tracks = [o.track(np.arange(n)) for o in self.dynamic_obstacles] + static
        return np.array(tracks, dtype=float).reshape(-1, n, 4)


def substitute_agents(scenario: Scenario, obstacle_ids) -> Scenario:
    """Replace recorded vehicles by planning problems.

    The goal area is the final recorded pose inflated by 2 m longitudinally
    and 0.5 m laterally; the deadline is 1.5x the recorded duration.
    """
    obstacle_ids = set(obstacle_ids)
    keep, problems = [], list(scenario.planning_problems)
    for obs in scenario.dynamic_obstacles:
        if obs.id not in obstacle_ids:
            keep.append(obs)
            continue
        obstacle_ids.discard(obs.id)
        if len(obs.recording) < 2:
            raise ScenarioError(
                f"obstacle {obs.id}: needs >=2 recorded states to derive a goal"
            )
        goal_box = occupancy(obs.recording[-1, [0, 1, 3]], obs.length + 2 * 2.0,
                             obs.width + 2 * 0.5)
        duration = (len(obs.recording) - 1) * scenario.dt
        goal = GoalRegion(area=Polygon(box_corners(goal_box)), t_max=1.5 * duration)
        params = obs.params or VehicleParams(length=obs.length, width=obs.width)
        problems.append(PlanningProblem(
            agent_id=obs.id,
            initial_state=AgentState(*obs.recording[0].tolist()),
            goal=goal,
            params=params,
        ))
    if obstacle_ids:
        raise ScenarioError(f"unknown dynamic obstacle ids: {sorted(obstacle_ids)}")
    return Scenario(scenario.network, scenario.static_obstacles, keep, problems, scenario.dt)


# ---------------------------------------------------------------------------
# File format


def _parse_adjacency(entry, where):
    if entry is None:
        return None
    try:
        return Adjacency(str(entry["id"]), bool(entry["same_direction"]))
    except (KeyError, TypeError) as exc:
        raise ScenarioError(f"{where}: malformed adjacency block ({exc})") from exc


def _parse_states(rows, where) -> np.ndarray:
    """Recorded states [x, y, v, theta] as a read-only array (n, 4), theta
    wrapped as AgentState wraps it; ScenarioError unless there is at least
    one row and every row is four finite numbers with v >= 0."""
    try:
        states = np.array(rows, dtype=float)
        if states.shape[1:] != (4,) or not len(states):
            raise ValueError(f"shape {states.shape} is not (n, 4) with n >= 1")
        bad = np.argwhere(~np.isfinite(states)).tolist()
        if bad:  # named as given: numpy reads None as NaN
            i, j = bad[0]
            raise ValueError(f"row {i} column {j} is {rows[i][j]!r}, not a finite number")
        if (states[:, 2] < 0).any():
            raise ValueError("velocity must be >= 0")
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{where}: malformed trajectory ({exc})") from exc
    states[:, 3] = normalize_angles(states[:, 3])
    states.flags.writeable = False
    return states


def _parse_vehicle_params(block, where):
    """The VehicleParams of a vehicle_params block, or None without one; a
    ScenarioError naming where (and the key) unless the block is an object
    whose keys are fields of VehicleParams and whose values are finite
    numbers > 0."""
    if block is None:
        return None
    try:
        return VehicleParams(**{key: float(value) for key, value in block.items()})
    except (AttributeError, TypeError, ValueError) as exc:
        raise ScenarioError(f"{where}: malformed vehicle_params ({exc})") from exc


def _parse_goal(block, where) -> GoalRegion:
    """The GoalRegion of a goal block; a ScenarioError naming where unless
    its deadline is finite and > 0 and each interval is two numbers lo <= hi."""
    try:
        intervals = [tuple(map(float, block[key])) if block.get(key) else None
                     for key in ("v_interval", "theta_interval")]
        return GoalRegion(Polygon(block["polygon"]), float(block["t_max"]), *intervals)
    except (ScenarioError, TypeError, ValueError) as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def scenario_from_dict(doc: dict) -> Scenario:
    try:
        dt = float(doc["dt"])
    except KeyError as exc:
        raise ScenarioError("missing top-level key 'dt'") from exc
    lanelets = []
    for entry in doc.get("lanelets", []):
        lid = str(entry["id"])
        lanelets.append(Lanelet(
            lid,
            Polyline(entry["left_bound"]),
            Polyline(entry["right_bound"]),
            successors=entry.get("successors", []),
            adjacent_left=_parse_adjacency(entry.get("adjacent_left"), f"lanelet {lid}"),
            adjacent_right=_parse_adjacency(entry.get("adjacent_right"), f"lanelet {lid}"),
        ))
    network = StreetNetwork(lanelets)
    statics = []
    for entry in doc.get("static_obstacles", []):
        pose = entry["pose"]
        statics.append(StaticObstacle(
            id=str(entry["id"]),
            length=float(entry["shape"]["length"]),
            width=float(entry["shape"]["width"]),
            pose=AgentState(float(pose["x"]), float(pose["y"]), 0.0, float(pose["theta"])),
        ))
    dynamics = []
    for entry in doc.get("dynamic_obstacles", []):
        oid = str(entry["id"])
        dynamics.append(DynamicObstacle(
            oid,
            float(entry["shape"]["length"]),
            float(entry["shape"]["width"]),
            entry["trajectory"],
            params=_parse_vehicle_params(entry.get("vehicle_params"), f"obstacle {oid}"),
        ))
    problems = []
    for entry in doc.get("planning_problems", []):
        aid = str(entry["agent_id"])
        try:
            initial = AgentState(*map(float, entry["initial_state"]))
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"planning problem {aid}: malformed initial state "
                                f"{entry['initial_state']} ({exc})") from exc
        goal = _parse_goal(entry["goal"], f"planning problem {aid}")
        params = (_parse_vehicle_params(entry.get("vehicle_params"), f"planning problem {aid}")
                  or VehicleParams())
        problems.append(PlanningProblem(aid, initial, goal, params))
    scenario = Scenario(network, statics, dynamics, problems, dt)
    _validate(scenario)
    return scenario


def _validate(scenario: Scenario):
    network, problems = scenario.network, scenario.planning_problems
    if problems and network.lanelets:
        held = network.region.holds([(p.initial_state.x, p.initial_state.y) for p in problems])
        outside = np.flatnonzero(~held.any(axis=1))
        if len(outside):
            raise ScenarioError(f"planning problem {problems[outside[0]].agent_id}: initial "
                                "state outside the street network")


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(
                f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
    return scenario_from_dict(doc)


def _vehicle_params_to_dict(params: VehicleParams | None):
    return None if params is None else dataclasses.asdict(params)


def scenario_to_dict(scenario: Scenario) -> dict:
    def adj(a):
        return None if a is None else {"id": a.lanelet_id, "same_direction": a.same_direction}

    doc = {
        "dt": scenario.dt,
        "lanelets": [
            {
                "id": l.id,
                "left_bound": l.left_bound.points.tolist(),
                "right_bound": l.right_bound.points.tolist(),
                "successors": list(l.successors),
                "adjacent_left": adj(l.adjacent_left),
                "adjacent_right": adj(l.adjacent_right),
            }
            for l in (scenario.network.lanelets[i] for i in sorted(scenario.network.lanelets))
        ],
        "static_obstacles": [
            {
                "id": o.id,
                "shape": {"length": o.length, "width": o.width},
                "pose": {"x": o.pose.x, "y": o.pose.y, "theta": o.pose.theta},
            }
            for o in scenario.static_obstacles
        ],
        "dynamic_obstacles": [
            {
                "id": o.id,
                "shape": {"length": o.length, "width": o.width},
                "trajectory": o.recording.tolist(),
                "vehicle_params": _vehicle_params_to_dict(o.params),
            }
            for o in scenario.dynamic_obstacles
        ],
        "planning_problems": [
            {
                "agent_id": p.agent_id,
                "initial_state": [p.initial_state.x, p.initial_state.y,
                                  p.initial_state.v, p.initial_state.theta],
                "goal": {
                    "polygon": p.goal.area.vertices.tolist(),
                    "v_interval": list(p.goal.velocity_interval) if p.goal.velocity_interval else None,
                    "theta_interval": list(p.goal.orientation_interval) if p.goal.orientation_interval else None,
                    "t_max": p.goal.t_max,
                },
                "vehicle_params": _vehicle_params_to_dict(p.params),
            }
            for p in scenario.planning_problems
        ],
    }
    return doc


def save_scenario(scenario: Scenario, path):
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=1)
