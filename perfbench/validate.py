"""Output validation: re-check every returned path with the scalar reference.

A plan counts as valid when its path starts at the task's start, ends at
(or within goal tolerance of) the goal, every edge is collision-free under
the ``kernels="reference"`` checker at the planner's own motion
resolution, and its reported cost equals the summed edge lengths.  The
checker is independent of the batch kernels and wave loop that produced
the path, so a kernel or planner bug shows up here as an invalid path.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.collision import make_checker
from repro.core.config import PlannerConfig
from repro.core.robots import get_robot
from repro.core.world import PlanningTask

#: Relative tolerance between the reported cost and the summed edge lengths
#: (both are sums of the same float64 norms, in possibly different order).
COST_RTOL = 1e-6


class PathChecker:
    """Reference checkers cached per (task, config) so repeated paths are cheap."""

    def __init__(self) -> None:
        self._checkers: Dict[Tuple, object] = {}
        self._verdicts: Dict[Tuple, Optional[str]] = {}

    def _checker(self, key, task: PlanningTask, config: PlannerConfig):
        checker = self._checkers.get(key) if key is not None else None
        if checker is None:
            robot = get_robot(task.robot_name)
            kwargs = {"kernels": "reference"}
            if config.checker == "two_stage":
                kwargs["fine_stage"] = config.fine_stage
            checker = make_checker(
                config.checker, robot, task.environment,
                config.resolved_motion_resolution(robot.step_size), **kwargs,
            )
            if key is not None:
                self._checkers[key] = checker
        return checker

    def check(self, task: PlanningTask, config: PlannerConfig,
              path: Sequence, cost: Optional[float], key=None) -> Optional[str]:
        """``None`` when the path is valid, else the first reason it is not.

        ``key`` identifies the (task, config) pair; passing it lets repeated
        answers for the same request (cache hits) reuse one verdict.
        """
        memo = None
        if key is not None:
            memo = (key, cost, np.asarray(path, dtype=float).tobytes())
            if memo in self._verdicts:
                return self._verdicts[memo]
        verdict = self._check(task, config, path, cost, key)
        if memo is not None:
            self._verdicts[memo] = verdict
        return verdict

    def _check(self, task, config, path, cost, key) -> Optional[str]:
        if len(path) < 2:
            return "path has fewer than two configurations"
        points = np.asarray(path, dtype=float)
        robot = get_robot(task.robot_name)
        if points.ndim != 2 or points.shape[1] != robot.dof:
            return f"path points are not {robot.dof}-dimensional"
        if not np.array_equal(points[0], task.start):
            return "path does not start at the task start"
        tolerance = config.resolved_goal_tolerance(robot.step_size)
        if float(np.linalg.norm(points[-1] - task.goal)) > tolerance + 1e-9:
            return "path does not end at the goal"
        length = float(sum(np.linalg.norm(points[i + 1] - points[i])
                           for i in range(len(points) - 1)))
        if cost is None or not math.isfinite(cost) \
                or not math.isclose(cost, length, rel_tol=COST_RTOL, abs_tol=1e-9):
            return f"reported cost {cost} != summed edge lengths {length}"
        checker = self._checker(key, task, config)
        for i in range(len(points) - 1):
            if checker.motion_in_collision(points[i], points[i + 1]):
                return f"edge {i} collides"
        return None
