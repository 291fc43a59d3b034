"""Anytime planning: deadline/op-budget degradation and the no-budget
bit-identity contract, at wave widths 1 and 8."""

import numpy as np
import pytest

from repro.core.collision import BruteOBBChecker
from repro.core.config import PlannerConfig
from repro.core.moped import config_for_variant
from repro.core.robots import get_robot
from repro.core.rrtstar import plan
from repro.io import result_from_dict, result_to_dict
from repro.workloads.generator import random_task
from tests.clock import install_step_clock


def _plan(variant="v4", robot="mobile2d", seed=2, samples=200, obstacles=8,
          **overrides):
    task = random_task(robot, obstacles, seed=seed)
    config = config_for_variant(variant, max_samples=samples, seed=seed,
                                **overrides)
    return task, plan(get_robot(robot), task, config)


def _assert_bit_identical(a, b):
    assert len(a.path) == len(b.path)
    for p, q in zip(a.path, b.path):
        assert np.array_equal(p, q)
    assert a.path_cost == b.path_cost
    assert a.num_nodes == b.num_nodes
    assert a.counter.to_dict() == b.counter.to_dict()


class TestConfigValidation:
    def test_budgets_must_be_positive(self):
        with pytest.raises(ValueError, match="deadline_s"):
            PlannerConfig(deadline_s=0.0)
        with pytest.raises(ValueError, match="deadline_s"):
            PlannerConfig(deadline_s=-1.0)
        with pytest.raises(ValueError, match="op_budget"):
            PlannerConfig(op_budget=0.0)
        PlannerConfig(deadline_s=1.0, op_budget=1e6)  # fine

    def test_disabled_by_default(self):
        config = PlannerConfig()
        assert config.deadline_s is None
        assert config.op_budget is None


class TestOpBudgetDegradation:
    def test_scalar_expiry_returns_degraded(self):
        task, result = _plan(samples=2000, op_budget=5_000.0)
        assert result.status == "degraded"
        assert result.degraded
        assert result.degraded_reason == "op_budget"
        assert result.iterations < 2000  # stopped early
        assert result.counter.total_macs() >= 5_000.0

    def test_wave_expiry_returns_degraded(self):
        task, result = _plan(samples=2000, wave_width=8, op_budget=5_000.0)
        assert result.status == "degraded"
        assert result.degraded_reason == "op_budget"
        assert result.iterations < 2000

    def test_op_budget_expiry_is_deterministic(self):
        _, a = _plan(samples=2000, op_budget=5_000.0)
        _, b = _plan(samples=2000, op_budget=5_000.0)
        _assert_bit_identical(a, b)
        assert a.iterations == b.iterations
        assert a.degraded_reason == b.degraded_reason

    def test_best_so_far_prefix_is_collision_free(self):
        task, result = _plan(samples=2000, op_budget=20_000.0)
        assert result.status == "degraded"
        if result.success:  # reached the goal region before expiry
            assert result.best_goal_distance == 0.0
            return
        # The unreached-goal degraded contract: a collision-free prefix
        # path from the start, plus the straight-line remainder estimate.
        assert len(result.path) >= 1
        np.testing.assert_allclose(result.path[0], task.start)
        assert result.best_goal_distance == pytest.approx(
            float(np.linalg.norm(result.path[-1] - task.goal))
        )
        assert result.path_cost == np.inf  # goal approached, not reached
        robot = get_robot("mobile2d")
        checker = BruteOBBChecker(robot, task.environment, motion_resolution=1.0)
        for a, b in zip(result.path[:-1], result.path[1:]):
            assert not checker.motion_in_collision(a, b)


class TestDeadlineDegradation:
    def test_tiny_deadline_degrades_with_best_so_far(self, monkeypatch):
        # One clock read arms the deadline and one polls each round, so
        # 0.05 s at 0.1 ms per read expires at round 499 on any host.
        install_step_clock(monkeypatch, 1e-4)
        task, result = _plan(samples=50_000, deadline_s=0.05)
        assert result.status == "degraded"
        assert result.degraded_reason == "deadline"
        assert result.iterations == 499
        assert len(result.path) >= 1

    def test_deadline_wins_when_both_budgets_armed(self):
        # budget_expired checks the wall deadline first; with an already
        # expired deadline *and* a spent op budget, the reason is the
        # deadline.
        task, result = _plan(samples=2000, deadline_s=1e-9 + 1e-12,
                             op_budget=1e-9)
        assert result.status == "degraded"
        assert result.degraded_reason == "deadline"


class TestNoBudgetBitIdentity:
    @pytest.mark.parametrize("width", [1, 8])
    def test_unreachable_budgets_do_not_perturb_the_run(self, width):
        # deadline_s / op_budget far beyond what the run can spend must be
        # bit-identical to the disabled (None) configuration: paths, costs,
        # and every OpCounter total.
        _, bare = _plan(samples=150, wave_width=width)
        _, armed = _plan(samples=150, wave_width=width,
                         deadline_s=3600.0, op_budget=1e18)
        assert armed.status == "complete"
        assert armed.degraded_reason is None
        _assert_bit_identical(bare, armed)
        assert len(bare.rounds) == len(armed.rounds)
        for r, s in zip(bare.rounds, armed.rounds):
            assert r.events == s.events


class TestResultRoundTrip:
    def test_degraded_fields_survive_io(self):
        _, result = _plan(samples=2000, op_budget=5_000.0)
        assert result.status == "degraded"
        back = result_from_dict(result_to_dict(result))
        assert back.status == "degraded"
        assert back.degraded_reason == result.degraded_reason
        assert back.best_goal_distance == result.best_goal_distance
        assert back.degraded

    def test_complete_fields_survive_io(self):
        _, result = _plan(samples=150)
        back = result_from_dict(result_to_dict(result))
        assert back.status == "complete"
        assert back.degraded_reason is None
        assert not back.degraded
