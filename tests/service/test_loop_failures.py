"""The service loop survives its own failures.

A journal write, the journal's group commit or the pool step can raise
(ENOSPC, EIO, a worker that cannot be respawned).  Whatever raises, every
admitted request settles exactly once — the ones the failure touched as a
structured ``"error"`` — and the loop state unwinds: ``outstanding``
returns to 0 and no in-flight key is left behind, so a later request with
the same cache key is answered.
"""

import errno
import pathlib
import tempfile
import unittest

from repro.net.wire import request_from_wire
from repro.service import PlanningService
from repro.service.journal import JobJournal, scan_journal
from repro.service.pool import PoolConfig

SPEC = {"robot": "mobile2d", "obstacles": 4, "seed": 9, "samples": 40}


def _request(request_id, seed=9):
    return request_from_wire(
        {"spec": dict(SPEC, seed=seed)}, request_id=request_id
    )


def _fail_once(obj, name, when=lambda *args: True):
    """Make ``obj.name(...)`` raise ENOSPC the first time ``when`` holds."""
    original = getattr(obj, name)
    armed = [True]

    def failing(*args, **kwargs):
        if armed[0] and when(*args):
            armed[0] = False
            raise OSError(errno.ENOSPC, "No space left on device")
        return original(*args, **kwargs)

    setattr(obj, name, failing)


class _LoopCase(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.directory = pathlib.Path(self._tmp.name)
        self.journal = JobJournal(self.directory, fsync="off")
        self.service = PlanningService(num_workers=0, journal=self.journal)

    def tearDown(self):
        self.service.close()
        self.journal.close()
        self._tmp.cleanup()

    def assertUnwound(self):
        self.assertEqual(self.service.outstanding, 0)
        self.assertEqual(self.service._followers, {})
        self.assertEqual(self.service._jobs, {})

    def assertServedAgain(self, request_id, seed=9):
        [again] = self.service.run_batch([_request(request_id, seed=seed)])
        self.assertEqual(again.status, "ok")


class TestJournalWriteFailures(_LoopCase):
    def test_failed_admit_write_settles_that_request_alone(self):
        _fail_once(self.journal, "append", lambda kind: kind == "admit")
        first, other = self.service.run_batch(
            [_request("lf-1"), _request("lf-2", seed=2)]
        )
        self.assertEqual(first.status, "error")
        self.assertIn("admission failed", first.error)
        self.assertEqual(other.status, "ok")
        self.assertUnwound()
        self.assertServedAgain("lf-3")

    def test_failed_dispatch_write_leaves_no_inflight_key(self):
        _fail_once(self.journal, "append", lambda kind: kind == "dispatch")
        leader, twin = self.service.run_batch(
            [_request("lf-1"), _request("lf-2")]
        )
        # The leader never registered its key, so its twin is not parked
        # behind a job that does not exist: it plans on its own.
        self.assertEqual(leader.status, "error")
        self.assertEqual(twin.status, "ok")
        self.assertUnwound()
        self.assertServedAgain("lf-3")

    def test_failed_done_write_still_settles_the_followers(self):
        _fail_once(self.journal, "append", lambda kind: kind == "done")
        leader, follower = self.service.run_batch(
            [_request("lf-1"), _request("lf-2")]
        )
        self.assertEqual(leader.status, "error")
        self.assertIn("journal write failed", leader.error)
        self.assertEqual(follower.status, "ok")
        self.assertUnwound()
        self.assertServedAgain("lf-3")

    def test_failed_group_commit_answers_error(self):
        _fail_once(self.journal, "sync")
        [response] = self.service.run_batch([_request("lf-1")])
        # The done record may not be durable, so the result is withheld.
        self.assertEqual(response.status, "error")
        self.assertIn("journal sync failed", response.error)
        self.assertUnwound()
        self.assertServedAgain("lf-2")

    def test_each_request_settles_exactly_once(self):
        _fail_once(self.journal, "append", lambda kind: kind == "done")
        self.service.run_batch([_request("lf-1"), _request("lf-2"),
                                _request("lf-3", seed=3)])
        self.journal.sync()
        records, _ = scan_journal(self.directory)
        done = [r["request_id"] for r in records if r["kind"] == "done"]
        # lf-1's done write is the one that failed.
        self.assertEqual(sorted(done), ["lf-2", "lf-3"])


class TestPoolStepFailure(_LoopCase):
    def test_pool_failure_fails_open_requests_and_recovers(self):
        pool = self.service._ensure_pool()
        _fail_once(pool, "step")
        responses = self.service.run_batch(
            [_request("lf-1"), _request("lf-2"), _request("lf-3", seed=3)]
        )
        self.assertEqual([r.status for r in responses], ["error"] * 3)
        self.assertIn("service loop failed", responses[0].error)
        self.assertUnwound()
        self.assertIsNone(self.service._pool)
        self.assertServedAgain("lf-4")

    def test_worker_pool_is_replaced_after_a_failed_step(self):
        service = PlanningService(
            pool_config=PoolConfig(num_workers=1, start_method="fork"),
            journal=self.journal,
        )
        try:
            pool = service._ensure_pool()
            _fail_once(pool, "step")
            [failed] = service.run_batch([_request("lf-1")])
            self.assertEqual(failed.status, "error")
            self.assertEqual(service.outstanding, 0)
            [again] = service.run_batch([_request("lf-2")])
            self.assertEqual(again.status, "ok")
            self.assertIsNot(service._pool, pool)
        finally:
            service.close()


if __name__ == "__main__":
    unittest.main()
