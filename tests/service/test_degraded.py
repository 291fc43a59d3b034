"""Degraded (anytime) results through the service layer: caching policy,
telemetry, wire round-trip, and the ``--deadline`` CLI plumbing."""

import json
from dataclasses import replace

import pytest

from repro.core.moped import config_for_variant
from repro.service import PlanningService, build_requests
from repro.service.request import PlanResponse
from repro.workloads import random_task
from tests.service.test_request import make_request


def degraded_request(seed=0, request_id=None, **config_overrides):
    # 50k samples cannot finish inside 50 ms: the deadline always expires.
    task = random_task("mobile2d", 6, seed=seed)
    config = config_for_variant(
        "full", max_samples=50_000, seed=seed, deadline_s=0.05,
        **config_overrides,
    )
    fields = dict(task=task, config=config)
    if request_id is not None:
        fields["request_id"] = request_id
    from repro.service.request import PlanRequest

    return PlanRequest(**fields)


class TestDegradedCachePolicy:
    def test_degraded_is_never_cached(self):
        service = PlanningService(num_workers=0)
        first = service.run_batch([degraded_request(seed=4, request_id="a")])[0]
        assert first.status == "degraded"
        assert len(service.cache) == 0
        second = service.run_batch([degraded_request(seed=4, request_id="b")])[0]
        assert second.status == "degraded"
        assert not second.cache_hit
        assert service.cache.stats()["hits"] == 0

    def test_degraded_followers_echo_the_leader(self):
        # Same cache key in one batch: the leader runs, the followers get
        # its degraded response echoed (never marked as cache hits).
        service = PlanningService(num_workers=0)
        batch = [degraded_request(seed=4, request_id=f"r{i}") for i in range(3)]
        responses = service.run_batch(batch)
        assert [r.request_id for r in responses] == ["r0", "r1", "r2"]
        assert all(r.status == "degraded" for r in responses)
        assert not any(r.cache_hit for r in responses)
        assert len(service.cache) == 0
        # The followers carry the leader's planning output verbatim (one
        # run, echoed), relabelled with their own request ids.
        assert responses[1].path == responses[0].path
        assert responses[2].iterations == responses[0].iterations
        assert responses[1].op_events == responses[0].op_events

    def test_complete_result_still_caches_next_to_degraded(self):
        service = PlanningService(num_workers=0)
        batch = [degraded_request(seed=4, request_id="slow"),
                 make_request(seed=5, request_id="fast")]
        responses = service.run_batch(batch)
        assert responses[0].status == "degraded"
        assert responses[1].status == "ok"
        assert len(service.cache) == 1  # only the ok response was stored


class TestDegradedWireFormat:
    def test_response_carries_anytime_fields(self):
        service = PlanningService(num_workers=0)
        response = service.run_batch([degraded_request(seed=4)])[0]
        assert response.status == "degraded"
        assert response.degraded_reason == "deadline"
        assert response.iterations < 50_000
        payload = response.to_dict()
        assert payload["status"] == "degraded"
        assert payload["degraded_reason"] == "deadline"
        back = PlanResponse.from_dict(json.loads(json.dumps(payload)))
        assert back.status == "degraded"
        assert back.degraded_reason == "deadline"
        assert back.best_goal_distance == response.best_goal_distance

    def test_telemetry_counts_degraded_status(self):
        service = PlanningService(num_workers=0)
        service.run_batch([degraded_request(seed=4), make_request(seed=5)])
        summary = service.summary()
        assert summary["degraded"] == 1
        assert summary["ok"] == 1
        assert summary["failed"] == {}


class TestBuildRequestsDeadline:
    def test_deadline_arms_every_config(self):
        requests = build_requests(jobs=3, samples=100, deadline_s=0.25)
        assert all(r.config.deadline_s == 0.25 for r in requests)

    def test_default_is_disarmed(self):
        requests = build_requests(jobs=2, samples=100)
        assert all(r.config.deadline_s is None for r in requests)


class _StepClock:
    """Fake monotonic clock: every read advances it by a fixed step."""

    def __init__(self, step: float) -> None:
        self.now = 0.0
        self.step = step

    def monotonic(self) -> float:
        self.now += self.step
        return self.now


class TestCliDeadline:
    def test_single_plan_reports_degradation(self, capsys, monkeypatch):
        from repro.cli import main
        from repro.core import rrtstar

        # The planner reads the clock once to arm the deadline and once
        # per sample, so 0.05 s at 0.1 ms per read always stops after
        # the same 499 samples — with a path — on any host.
        monkeypatch.setattr(rrtstar, "time", _StepClock(1e-4))
        code = main(["--robot", "mobile2d", "--obstacles", "6",
                     "--samples", "50000", "--seed", "1",
                     "--deadline", "0.05"])
        assert code == 0
        out = capsys.readouterr().out
        assert "degraded: deadline" in out
        assert "expired after 499/50000 samples" in out

    def test_batch_deadline_exits_zero_with_degraded(self, capsys, tmp_path):
        from repro.cli import main

        out_file = tmp_path / "summary.json"
        code = main(["--jobs", "2", "--workers", "0", "--samples", "50000",
                     "--seed", "1", "--deadline", "0.05",
                     "--out", str(out_file)])
        assert code == 0
        data = json.loads(out_file.read_text())
        statuses = {r["status"] for r in data["responses"]}
        assert statuses == {"degraded"}
        assert all(r["degraded_reason"] == "deadline"
                   for r in data["responses"])
