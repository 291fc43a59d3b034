"""A returned path that fails the reference check is counted as failed."""

import json

import numpy as np

import loadgen
import run
import workloads
from validate import PathChecker

SPEC = {**workloads.MOBILE_SPEC, "seed": 5}


def _colliding_config(task, config):
    checker = PathChecker()._checker("probe", task, config)
    rng = np.random.default_rng(0)
    robot_lo = np.array([0.0, 0.0, -np.pi])
    robot_hi = np.array([300.0, 300.0, np.pi])
    for _ in range(10_000):
        candidate = rng.uniform(robot_lo, robot_hi)
        if checker.config_in_collision(candidate):
            return candidate
    raise AssertionError("no colliding configuration found")


def _length(points):
    return float(sum(np.linalg.norm(np.subtract(b, a))
                     for a, b in zip(points, points[1:])))


def _record(index, path, cost):
    body = {"request_id": f"net-{index:06d}", "status": "ok", "success": True,
            "path": [list(map(float, p)) for p in path], "path_cost": cost}
    return loadgen.Record(index=index, due=0.0, sent=0.0, done=0.01,
                          status=200, body=json.dumps(body).encode())


def test_planted_colliding_path_counts_as_failed():
    task, config, _ = workloads.expand_spec(SPEC)
    hit = _colliding_config(task, config)
    planted = [task.start, hit, task.goal]
    outcome = run.Outcome("http-cold")
    run._http_validate(outcome, [_record(0, planted, _length(planted))],
                       [SPEC], {}, PathChecker())
    assert outcome.attempted == 1
    assert outcome.failed == 1 and outcome.invalid == 1
    assert outcome.causes == {"invalid_path": 1}
    assert outcome.solved == 0 and outcome.latency_ms == []


def test_wrong_cost_or_endpoints_are_invalid():
    from repro.service.worker import execute_request

    task, config, _ = workloads.expand_spec(SPEC)
    from repro.net.wire import spec_to_request

    response = execute_request(spec_to_request(SPEC))
    assert response.success
    path, cost = response.path, response.path_cost
    checker = PathChecker()
    assert checker.check(task, config, path, cost) is None
    assert "cost" in checker.check(task, config, path, cost * 1.01)
    assert "start" in checker.check(task, config, path[1:], cost)
    short = path[:2]
    assert "goal" in checker.check(task, config, short, _length(short))

    outcome = run.Outcome("http-cold")
    run._http_validate(outcome, [_record(0, path, cost)], [SPEC], {},
                       PathChecker())
    assert outcome.failed == 0 and outcome.solved == 1
