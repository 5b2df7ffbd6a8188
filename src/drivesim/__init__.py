"""Deterministic multi-agent driving simulation with retrospective
criticality evaluation in curvilinear coordinates."""

__version__ = "0.1.0"

from .dynamics import AgentState, ControlInput, Trajectory, VehicleParams, step
from .engine import (AgentStatus, PlannerBinding, SimulationConfig,
                     SimulationResult, benchmark, run)
from .geometry import (CurvilinearFrame, Polygon, Polyline, boxes_intersect,
                       min_distance, occupancy)
from .metrics import MetricConfig, MetricReport, evaluate
from .planners import (FrenetPlanner, FrenetPlannerConfig, IdmParams,
                       IdmPlanner, LocalView, PlanResult, ReplayPlanner,
                       route_to_goal)
from .prediction import PredictorConfig, predict_all
from .scenario import (GoalRegion, PlanningProblem, Scenario, StreetNetwork,
                       load_scenario, save_scenario, substitute_agents)

__all__ = [
    "AgentState", "ControlInput", "Trajectory", "VehicleParams", "step",
    "AgentStatus", "PlannerBinding", "SimulationConfig", "SimulationResult",
    "benchmark", "run",
    "CurvilinearFrame", "Polygon", "Polyline",
    "boxes_intersect", "min_distance", "occupancy",
    "MetricConfig", "MetricReport", "evaluate",
    "FrenetPlanner", "FrenetPlannerConfig", "IdmParams", "IdmPlanner",
    "LocalView", "PlanResult", "ReplayPlanner", "route_to_goal",
    "PredictorConfig", "predict_all",
    "GoalRegion", "PlanningProblem", "Scenario", "StreetNetwork",
    "load_scenario", "save_scenario", "substitute_agents",
]
