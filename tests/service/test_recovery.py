"""Crash recovery at the service level: replay, dedup, quarantine.

These tests fake the crash by writing journal state directly (admits
with no terminal record), then hand the directory to a fresh
:class:`PlanningService` — exactly what a restarted process sees.  The
full kill -9 version (real child processes, real ``os._exit``) lives in
``python -m repro.faults recovery``; here the focus is the replay
semantics: idempotent re-settlement, cache-served duplicates, poison
quarantine, and the exactly-once audit the harness gates on.
"""

import pathlib
import tempfile
import unittest

from repro.faults import FaultPlan, clear, install_plan
from repro.faults.recovery import verify_journal
from repro.net.wire import request_from_wire, request_to_wire
from repro.service import PlanningService
from repro.service.journal import JobJournal, scan_journal

SPEC = {"robot": "mobile2d", "obstacles": 4, "seed": 9, "samples": 40}


def _request(request_id, seed=9):
    return request_from_wire(
        {"spec": dict(SPEC, seed=seed)}, request_id=request_id
    )


class _RecoveryCase(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.directory = pathlib.Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()
        clear()

    def service(self, **kwargs) -> PlanningService:
        return PlanningService(
            num_workers=0,
            journal=JobJournal(self.directory, fsync="off"),
            **kwargs,
        )


class TestRecover(_RecoveryCase):
    def test_no_journal_is_disabled(self):
        service = PlanningService(num_workers=0)
        self.assertEqual(service.recover()["enabled"], False)

    def test_replays_admitted_but_unsettled_jobs(self):
        with JobJournal(self.directory, fsync="off") as crashed:
            crashed.start_epoch()
            crashed.record_admit(_request("rc-1", seed=1))
            crashed.record_dispatch("rc-1")
            crashed.record_admit(_request("rc-2", seed=2))
        service = self.service()
        summary = service.recover()
        self.assertEqual(summary["replayed"], 2)
        self.assertEqual(summary["quarantined"], 0)
        responses = summary["responses"]
        self.assertEqual(
            sorted(r.request_id for r in responses), ["rc-1", "rc-2"]
        )
        self.assertTrue(all(r.status == "ok" for r in responses))
        service.close()
        violations, audit = verify_journal(self.directory)
        self.assertEqual(violations, [])
        self.assertEqual(audit["admits"], 2)

    def test_settled_jobs_are_not_resurrected(self):
        with JobJournal(self.directory, fsync="off") as crashed:
            crashed.record_admit(_request("rc-done", seed=1))
            crashed.record_done("rc-done", "ok")
            crashed.record_admit(_request("rc-degraded", seed=2))
            crashed.record_done("rc-degraded", "degraded")
            crashed.record_admit(_request("rc-cancelled", seed=3))
            crashed.record_done("rc-cancelled", "cancelled")
        service = self.service()
        summary = service.recover()
        self.assertEqual(summary["replayed"], 0)
        service.close()

    def test_replay_of_cached_result_is_served_from_cache(self):
        # The crash tore off the ``done`` record *after* the result
        # reached the cache tier: the replay must answer from the cache
        # (idempotent), not plan the same job twice.
        service1 = self.service()
        service1.recover()
        [response] = service1.run_batch([_request("rc-first")])
        self.assertEqual(response.status, "ok")
        service1.journal.record_admit(_request("rc-replayed"))
        service1.journal.sync()
        service1.close()
        service1.journal.close()
        # Same cache (the shared tier survives front-end restarts).
        service2 = PlanningService(
            num_workers=0,
            cache=service1.cache,
            journal=JobJournal(self.directory, fsync="off"),
        )
        summary = service2.recover()
        self.assertEqual(summary["replayed"], 1)
        [replayed] = summary["responses"]
        self.assertTrue(replayed.cache_hit)
        self.assertEqual(replayed.request_id, "rc-replayed")
        service2.close()
        violations, _ = verify_journal(self.directory)
        self.assertEqual(violations, [])

    def test_quarantined_job_is_poisoned_not_replayed(self):
        request = _request("rc-killer")
        with JobJournal(self.directory, fsync="off") as crashed:
            crashed.start_epoch()
            crashed.record_admit(request)
            crashed.record_dispatch("rc-killer")
            crashed.start_epoch()
            crashed.record_dispatch("rc-killer")
        service = self.service()
        summary = service.recover()
        self.assertEqual(summary["quarantined"], 1)
        self.assertEqual(summary["replayed"], 0)
        service.close()
        records, _ = scan_journal(self.directory)
        terminal = [r for r in records if r.get("request_id") == "rc-killer"
                    and r["kind"] == "done"]
        self.assertEqual(len(terminal), 1)
        self.assertEqual(terminal[0]["status"], "poison")
        violations, _ = verify_journal(self.directory)
        self.assertEqual(violations, [])

    def test_admit_with_retired_cache_keys_replays_ok(self):
        """An admit record written before the software result caches were
        retired (its config still carries their keys) replays normally."""
        request = _request("rc-old", seed=4)
        payload = request_to_wire(request)
        payload["config"].update(collision_cache=None, neighborhood_cache=None,
                                 edge_cache=None, cache_quantum=0.0)
        with JobJournal(self.directory, fsync="off") as crashed:
            crashed.append("admit", request_id="rc-old",
                           rhash=request.cache_key(), request=payload)
        service = self.service()
        summary = service.recover()
        self.assertEqual(summary["replayed"], 1)
        self.assertEqual(summary["invalid"], 0)
        self.assertEqual([r.status for r in summary["responses"]], ["ok"])
        service.close()
        violations, _ = verify_journal(self.directory)
        self.assertEqual(violations, [])

    def test_unparseable_admit_settles_invalid(self):
        with JobJournal(self.directory, fsync="off") as crashed:
            crashed.append("admit", request_id="rc-bad", rhash="x",
                           request={"spec": {"robot": "not-a-robot"}})
        service = self.service()
        summary = service.recover()
        self.assertEqual(summary["invalid"], 1)
        self.assertEqual(summary["replayed"], 0)
        service.close()
        violations, audit = verify_journal(self.directory)
        self.assertEqual(violations, [])
        self.assertEqual(audit["statuses"].get("invalid"), 1)

    def test_torn_tail_is_reported_and_repaired(self):
        with JobJournal(self.directory, fsync="off") as crashed:
            crashed.record_admit(_request("rc-torn"))
            path = crashed.segment_path
        with open(path, "a") as fh:
            fh.write('{"torn": ')
        service = self.service()
        summary = service.recover()
        self.assertTrue(summary["torn"])
        self.assertEqual(summary["replayed"], 1)
        service.close()
        violations, audit = verify_journal(self.directory)
        self.assertEqual(violations, [])
        self.assertFalse(audit["torn"])

    def test_recovered_requests_skip_re_admission(self):
        # A replayed job settles its *original* admit record — recovery
        # must not write a second admit (that would double-count it).
        with JobJournal(self.directory, fsync="off") as crashed:
            crashed.record_admit(_request("rc-once"))
        service = self.service()
        service.recover()
        service.close()
        records, _ = scan_journal(self.directory)
        admits = [r for r in records if r["kind"] == "admit"]
        self.assertEqual(len(admits), 1)


class TestRecoverUnderFaults(_RecoveryCase):
    def test_journal_fault_during_recovery_still_settles_replay(self):
        # A dropped append *during* recovery (the new journal.append site
        # armed while recovery itself writes) must not corrupt history —
        # at worst a record is missing, and the next recovery replays
        # idempotently.
        with JobJournal(self.directory, fsync="off") as crashed:
            crashed.record_admit(_request("rc-f1", seed=1))
        install_plan(
            FaultPlan.from_spec("journal.append:drop:max=1"), scope="test"
        )
        try:
            service = self.service()
            summary = service.recover()  # startup record is the one dropped
            self.assertEqual(summary["replayed"], 1)
            service.close()
        finally:
            clear()
        violations, _ = verify_journal(self.directory)
        self.assertEqual(violations, [])


if __name__ == "__main__":
    unittest.main()
