"""Planner factory: dispatch on :attr:`PlannerConfig.mode`.

Every entry point that runs a single planning job (the service worker, the
CLI, :class:`~repro.core.moped.MopedEngine`, the benchmarks) builds its
planner here so ``mode="connect"`` is honoured uniformly.
"""

from __future__ import annotations

from repro.core.config import PlannerConfig
from repro.core.connect import RRTConnectPlanner
from repro.core.metrics import PlanResult
from repro.core.robots import RobotModel
from repro.core.rrtstar import RRTStarPlanner
from repro.core.world import PlanningTask


def make_planner(robot: RobotModel, task: PlanningTask, config: PlannerConfig):
    """Build the planner selected by ``config.mode``.

    ``"rrtstar"`` (default) returns the single-tree optimizing planner;
    ``"connect"`` returns the bidirectional feasibility planner.  Both
    expose the same ``plan() -> PlanResult`` surface.
    """
    if config.mode == "connect":
        return RRTConnectPlanner(robot, task, config)
    return RRTStarPlanner(robot, task, config)


def plan(robot: RobotModel, task: PlanningTask, config: PlannerConfig) -> PlanResult:
    """Convenience wrapper: build the mode-selected planner and run it once."""
    return make_planner(robot, task, config).plan()
