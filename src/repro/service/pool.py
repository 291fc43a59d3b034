"""Supervised ``multiprocessing`` worker pool with timeouts and retries.

The supervisor owns N long-lived worker processes, each connected by a
*private duplex pipe* — deliberately not a shared queue.  A shared
``multiprocessing.Queue`` has a write lock all workers contend on, and a
worker killed (or crashing) at the wrong instant can die holding it,
deadlocking every sibling's result delivery.  With one pipe per worker a
sick worker can only corrupt its own channel, which the supervisor discards
wholesale on respawn; crash detection comes free as end-of-file on the
pipe.

The dispatch loop interleaves four duties:

1. hand eligible jobs from the :class:`~repro.service.jobs.JobQueue` to
   idle workers (one in-flight job per worker, so ownership is always
   unambiguous);
2. wait on the busy workers' pipes and drain results;
3. detect workers that died mid-job (pipe EOF) and synthesise a structured
   ``"crash"`` failure;
4. kill-and-respawn any worker past its job deadline, synthesising a
   structured ``"timeout"`` failure.

Failures whose status is in ``retry_statuses`` are requeued with
exponential backoff up to ``max_retries`` extra attempts; everything else
finalises immediately.  The invariant the service layer relies on: *every
submitted job reaches a terminal state with a structured response* — a sick
worker can cost latency, never the batch.

Job ids disambiguate results as a second line of defence: a message that
does not match the slot's current job is dropped on the floor.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from types import SimpleNamespace
from multiprocessing import connection as mp_connection
from typing import Dict, List, Optional, Tuple

from repro.faults import FaultPlan, get_injector
from repro.obs import bump, get_tracer
from repro.service.breaker import CircuitBreaker
from repro.service.jobs import DONE, FAILED, RUNNING, Job, JobQueue
from repro.service.request import PlanResponse, failure_response
from repro.service.worker import run_job, worker_main


@dataclass(frozen=True)
class PoolConfig:
    """Scheduling knobs of the worker pool.

    Attributes:
        num_workers: worker process count.
        default_timeout_s: per-job wall budget when the request does not
            carry its own ``timeout_s``.
        max_retries: extra attempts after the first (2 means up to 3 runs).
        backoff_base_s: retry ``k`` waits ``backoff_base_s * 2**(k-1)``.
        retry_statuses: failure statuses eligible for retry.  Timeouts are
            excluded by default — a job that blew its wall budget once will
            blow it again.
        poll_interval_s: supervisor wait granularity; bounds how stale
            deadline enforcement can be.
        start_method: ``multiprocessing`` start method; ``None`` keeps the
            platform default (``fork`` on Linux, ``spawn`` elsewhere).
        poison_threshold: a job whose worker crashes this many times is
            quarantined as ``"poison"`` in the dead-letter list instead of
            being retried again (0 disables).  Quarantine preempts retry,
            so it only matters when ``max_retries`` would keep a
            worker-killing job alive.
        breaker_threshold: consecutive worker-side failures that trip the
            dispatch circuit breaker (0 — the default — disables it).
        breaker_cooldown_s: how long a tripped breaker pauses dispatch.
        fault_plan: optional :class:`~repro.faults.FaultPlan` installed in
            every worker (scoped per worker id) and honoured at the
            supervisor's own ``pool.*`` sites.  ``None`` (default) keeps
            the zero-overhead no-op path.
    """

    num_workers: int = 2
    default_timeout_s: float = 60.0
    max_retries: int = 1
    backoff_base_s: float = 0.05
    retry_statuses: Tuple[str, ...] = ("crash", "error")
    poll_interval_s: float = 0.02
    start_method: Optional[str] = None
    poison_threshold: int = 3
    breaker_threshold: int = 0
    breaker_cooldown_s: float = 1.0
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.default_timeout_s <= 0:
            raise ValueError("default_timeout_s must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be positive")
        if self.poison_threshold < 0:
            raise ValueError("poison_threshold must be >= 0")
        if self.breaker_threshold < 0:
            raise ValueError("breaker_threshold must be >= 0")
        if self.breaker_cooldown_s <= 0:
            raise ValueError("breaker_cooldown_s must be positive")

    # The retry arithmetic lives in two pure helpers so the policy is
    # testable without a live pool (and reusable by the inline runner).

    def should_retry(self, status: str, attempts: int) -> bool:
        """Is a failure with ``status`` after ``attempts`` runs retryable?"""
        return status in self.retry_statuses and attempts <= self.max_retries

    def backoff_delay(self, attempts: int) -> float:
        """Backoff before retry number ``attempts`` (exponential, base 2)."""
        return self.backoff_base_s * (2.0 ** (max(1, attempts) - 1))


class _Slot:
    """Supervisor-side view of one worker process and its pipe."""

    def __init__(self, worker_id: int, process, conn) -> None:
        self.worker_id = worker_id
        self.process = process
        self.conn = conn
        self.job: Optional[Job] = None
        self.deadline: Optional[float] = None


class _Races:
    """Portfolio-race tokens and cancellation, shared by both pools.

    ``cancel_flags.value`` is the race-cancellation bitmask (bit
    ``token % 64`` per active race).
    """

    def new_race_token(self) -> int:
        """Fresh token for one portfolio race (bit ``token % 64``).

        Tokens only grow; with 64 bits, collisions require 64 concurrently
        *active* races, far beyond what the service runs.
        """
        self._race_seq += 1
        return self._race_seq

    def cancel_race(self, token: int) -> None:
        """Cancel every member of race ``token``: flip the shared bit (in-
        flight members degrade out at their next budget poll) and mark the
        race so still-queued members settle as ``"cancelled"`` without
        dispatching."""
        self.cancel_flags.value |= 1 << (token % 64)
        self._cancelled_races.add(token)

    def clear_race(self, token: int) -> None:
        """Retire a finished race's token so its bit can be reused."""
        self.cancel_flags.value &= ~(1 << (token % 64))
        self._cancelled_races.discard(token)


class WorkerPool(_Races):
    """Fixed-size pool of planner processes driven by :meth:`run`."""

    def __init__(self, config: Optional[PoolConfig] = None) -> None:
        self.config = config if config is not None else PoolConfig()
        self._ctx = multiprocessing.get_context(self.config.start_method)
        #: Shared race-cancellation bitmask (bit ``token % 64`` per active
        #: race).  Single writer (the supervisor), many readers (workers
        #: poll it through the planner budget check), so no lock is needed.
        self.cancel_flags = self._ctx.Value("Q", 0, lock=False)
        self._race_seq = 0
        self._cancelled_races: set = set()
        #: Settlement hook: ``on_settle(job)`` runs synchronously as each
        #: job reaches a terminal state.  The service settles requests
        #: here (cache put, coalesced followers, journal ``done``) and
        #: cancels portfolio losers the moment a winner lands.
        self.on_settle = None
        self._slots: List[_Slot] = [
            self._spawn(i) for i in range(self.config.num_workers)
        ]
        self.restarts = 0
        self._closed = False
        #: Tracer timestamp of each in-flight job's first dispatch, so the
        #: supervisor can emit a ``service.job`` span (dispatch -> settle)
        #: tagged with the job id.  Keyed by job_id; only populated while
        #: the ambient tracer is enabled.
        self._span_starts: Dict[int, float] = {}
        self.breaker = CircuitBreaker(
            self.config.breaker_threshold, self.config.breaker_cooldown_s
        )
        #: Jobs quarantined as poison (terminal ``"poison"`` responses).
        self.dead_letters: List[Job] = []
        #: Fault/retry event counters (also bumped into the obs registry as
        #: ``repro_service_faults_total{event=...}`` when metrics are on).
        self.counters: Dict[str, int] = {
            "retries": 0, "crashes": 0, "timeouts": 0, "errors": 0,
            "invalid": 0, "poisoned": 0, "corrupt_payloads": 0,
            "dispatch_failures": 0, "breaker_trips": 0,
        }

    def _count(self, event: str, amount: int = 1) -> None:
        self.counters[event] = self.counters.get(event, 0) + amount
        bump("repro_service_faults_total", amount,
             help="Worker-pool fault and retry events", event=event)

    # ------------------------------------------------------------ lifecycle

    def _spawn(self, worker_id: int) -> _Slot:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=worker_main,
            args=(worker_id, child_conn, self.config.fault_plan,
                  self.cancel_flags),
            daemon=True,
            name=f"repro-service-worker-{worker_id}",
        )
        process.start()
        # Drop the parent's copy of the child end so the worker's death
        # surfaces as EOF on ``parent_conn``.
        child_conn.close()
        return _Slot(worker_id, process, parent_conn)

    def _replace(self, slot: _Slot, kill: bool) -> None:
        """Retire a slot's process and pipe (killing if alive) and respawn."""
        if kill and slot.process.is_alive():
            slot.process.terminate()
        slot.process.join(timeout=2.0)
        if slot.process.is_alive():  # terminate ignored; escalate
            slot.process.kill()
            slot.process.join(timeout=2.0)
        slot.conn.close()
        fresh = self._spawn(slot.worker_id)
        slot.process, slot.conn = fresh.process, fresh.conn
        slot.job, slot.deadline = None, None
        self.restarts += 1

    def close(self) -> None:
        """Shut the workers down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for slot in self._slots:
            try:
                slot.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for slot in self._slots:
            slot.process.join(timeout=1.0)
            if slot.process.is_alive():
                slot.process.terminate()
                slot.process.join(timeout=1.0)
            slot.conn.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------- dispatch

    def _dispatch(self, slot: _Slot, job: Job, now: float, queue: JobQueue) -> None:
        injector = get_injector()
        if injector is not None and injector.fire(
            "pool.dispatch", detail=f"job {job.job_id}"
        ) == "drop":
            # Simulated lost dispatch: the worker never sees the job, so
            # the per-job deadline reaps it (terminal, never silent).
            job.state = RUNNING
            job.attempts += 1
            slot.job = job
            slot.deadline = now + self._timeout_for(job)
            return
        job.state = RUNNING
        job.attempts += 1
        if job.dispatched_at is None:
            job.dispatched_at = now
            tracer = get_tracer()
            if tracer.enabled:
                self._span_starts[job.job_id] = tracer.now()
        timeout = self._timeout_for(job)
        slot.job = job
        slot.deadline = now + timeout
        try:
            slot.conn.send((job.job_id, job.request))
        except (BrokenPipeError, OSError):
            # The worker died while idle; that is no fault of the job —
            # respawn and hand it to the fresh process.
            self._replace(slot, kill=False)
            slot.job = job
            slot.deadline = now + timeout
            try:
                slot.conn.send((job.job_id, job.request))
            except (BrokenPipeError, OSError):
                # The fresh worker died during the handshake too.  Undo
                # this attempt (the job never ran) and put it back in the
                # queue so it is handed to whichever worker survives —
                # dropping it here would violate the every-job-terminal
                # invariant.
                self._count("dispatch_failures")
                job.attempts -= 1
                slot.job, slot.deadline = None, None
                queue.requeue(job, self.config.poll_interval_s, now)

    def _timeout_for(self, job: Job) -> float:
        return (
            job.request.timeout_s
            if job.request.timeout_s is not None
            else self.config.default_timeout_s
        )

    def _settle(
        self,
        queue: JobQueue,
        job: Job,
        response: PlanResponse,
        done: List[Job],
        now: float,
    ) -> None:
        """Finalise, quarantine, or requeue a job that just produced ``response``."""
        response.attempts = job.attempts
        status = response.status
        if status == "crash":
            job.crash_count += 1
            self._count("crashes")
        elif status == "timeout":
            self._count("timeouts")
        elif status == "error":
            self._count("errors")
        elif status == "invalid":
            self._count("invalid")
        if status in ("crash", "timeout", "error"):
            trips_before = self.breaker.trips
            self.breaker.record_failure(now)
            if self.breaker.trips > trips_before:
                self._count("breaker_trips")
        elif status in ("ok", "degraded"):
            self.breaker.record_success()
        if status not in ("ok", "degraded"):
            job.failures.append(f"{status}: {response.error}")
        retryable = self.config.should_retry(status, job.attempts)
        if retryable and self.config.poison_threshold > 0 \
                and job.crash_count >= self.config.poison_threshold:
            # Quarantine: this job keeps killing workers; retrying it again
            # would grind the pool down one respawn at a time.
            response = failure_response(
                job.request, "poison",
                f"quarantined after crashing {job.crash_count} workers",
            )
            response.attempts = job.attempts
            self.dead_letters.append(job)
            self._count("poisoned")
            retryable = False
        if retryable:
            self._count("retries")
            queue.requeue(job, self.config.backoff_delay(job.attempts), now)
            return
        job.response = response
        job.state = DONE if response.status in ("ok", "degraded") else FAILED
        job.finished_at = now
        done.append(job)
        if self.on_settle is not None:
            self.on_settle(job)
        start = self._span_starts.pop(job.job_id, None)
        if start is not None:
            tracer = get_tracer()
            if tracer.enabled:
                tracer.span_at(
                    "service.job", start, tracer.now(),
                    job_id=job.job_id,
                    request_id=job.request.request_id,
                    status=response.status,
                    worker_id=response.worker_id,
                    attempts=job.attempts,
                )

    def run(self, queue: JobQueue) -> List[Job]:
        """Step until every job in ``queue`` reaches a terminal state.

        Returns the finished jobs in completion order; each carries a
        :class:`PlanResponse` (structured failure included).
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        done: List[Job] = []
        while len(queue) or any(s.job is not None for s in self._slots):
            done.extend(self.step(queue))
        return done

    def step(self, queue: JobQueue, wake=None) -> List[Job]:
        """One supervisor turn; returns the jobs that settled in it.

        Feeds idle workers, waits on the busy pipes and on ``wake`` (an fd
        the caller signals, and drains, to cut the wait short), drains
        results, and reaps dead or overdue workers.  The wait lasts at
        most ``poll_interval_s``, less if a backoff matures sooner.
        """
        done: List[Job] = []
        injector = get_injector()
        now = time.monotonic()
        # 0. Settle still-queued members of cancelled races without
        # dispatching them (their siblings' race already has a winner).
        if self._cancelled_races:
            cancelled = self._cancelled_races
            for job in queue.purge(
                lambda request: request.race_token in cancelled
            ):
                job.attempts = max(job.attempts, 1)
                self._settle(
                    queue, job,
                    failure_response(job.request, "cancelled",
                                     "portfolio race already won"),
                    done, now,
                )
        # 1. Feed idle workers (unless the circuit breaker is open:
        # jobs then stay queued — delayed, never dropped or failed).
        if self.breaker.allow(now):
            for slot in self._slots:
                if slot.job is None:
                    job = queue.pop_ready(now)
                    if job is None:
                        break
                    self._dispatch(slot, job, now, queue)
        # 2. Wait on busy pipes and the wake fd (doubles as the sleep).
        busy = {slot.conn: slot for slot in self._slots if slot.job is not None}
        delay = queue.next_eligible_in(now)
        timeout = min(delay or self.config.poll_interval_s,
                      self.config.poll_interval_s)
        waitables = list(busy) + ([wake] if wake is not None else [])
        if waitables:
            ready = mp_connection.wait(waitables, timeout=timeout)
        else:
            # Only backoff-delayed jobs remain; nap until one matures.
            time.sleep(timeout)
            ready = []
        for conn in ready:
            slot = busy.get(conn)
            job = slot.job if slot is not None else None
            if job is None:  # the wake fd, or settled earlier this turn
                continue
            try:
                message = slot.conn.recv()
            except (EOFError, OSError):
                # 3. Pipe EOF: the worker died mid-job.
                self._replace(slot, kill=False)
                self._settle(
                    queue, job,
                    failure_response(job.request, "crash",
                                     "worker process died mid-job"),
                    done, time.monotonic(),
                )
                continue
            except Exception as exc:
                # Corrupted payload (unpickling error, truncated
                # frame): the channel can no longer be trusted —
                # discard worker and pipe wholesale, classify the job
                # as a crash (retryable).
                self._count("corrupt_payloads")
                self._replace(slot, kill=True)
                self._settle(
                    queue, job,
                    failure_response(
                        job.request, "crash",
                        f"corrupted result payload: {exc!r}",
                    ),
                    done, time.monotonic(),
                )
                continue
            if injector is not None:
                injector.fire("pool.recv", detail=f"job {job.job_id}")
            if (
                not isinstance(message, tuple)
                or len(message) != 2
                or not isinstance(message[1], PlanResponse)
            ):
                # Pickled fine but violates the (job_id, response)
                # protocol: same trust failure as a corrupt payload.
                self._count("corrupt_payloads")
                self._replace(slot, kill=True)
                self._settle(
                    queue, job,
                    failure_response(job.request, "crash",
                                     "malformed result message"),
                    done, time.monotonic(),
                )
                continue
            job_id, response = message
            if job_id != job.job_id:  # stale/foreign message; drop
                continue
            slot.job, slot.deadline = None, None
            response.worker_id = slot.worker_id
            self._settle(queue, job, response, done, time.monotonic())
        # 4. Deadline enforcement.
        now = time.monotonic()
        for slot in self._slots:
            job = slot.job
            if job is None or slot.deadline is None or now <= slot.deadline:
                continue
            self._replace(slot, kill=True)
            self._settle(
                queue, job,
                failure_response(
                    job.request, "timeout",
                    f"exceeded per-job budget after "
                    f"{job.attempts} attempt(s)",
                ),
                done, now,
            )
        return done

    def stats(self) -> Dict[str, object]:
        """Counters for the telemetry summary."""
        return {
            "count": self.config.num_workers,
            "restarts": self.restarts,
            "faults": dict(self.counters),
            "dead_letters": len(self.dead_letters),
            "breaker": self.breaker.snapshot(),
        }


class InlinePool(_Races):
    """In-process stand-in for :class:`WorkerPool` (``num_workers=0``).

    Same surface, so the service drives both through one loop.  Each step
    plans one job on the calling thread: no timeouts, retries or breaker.
    Races degenerate to sequential first-feasible: members of a cancelled
    race settle ``"cancelled"`` without executing.
    """

    def __init__(self) -> None:
        self.on_settle = None
        self.cancel_flags = SimpleNamespace(value=0)  # no workers to share it
        self._race_seq = 0
        self._cancelled_races: set = set()

    def step(self, queue: JobQueue, wake=None) -> List[Job]:
        """Plan the next queued job (nothing here waits)."""
        job = queue.pop_ready(time.monotonic())
        if job is None:
            return []
        job.attempts = 1
        if job.request.race_token in self._cancelled_races:
            response = failure_response(job.request, "cancelled",
                                        "portfolio race already won")
            response.planner = job.request.planner
        else:
            job.dispatched_at = time.monotonic()
            response = run_job(job.request)
        response.attempts = 1
        job.response = response
        job.state = DONE if response.status in ("ok", "degraded") else FAILED
        job.finished_at = time.monotonic()
        if self.on_settle is not None:
            self.on_settle(job)
        return [job]

    def stats(self) -> Dict[str, object]:
        return {"count": 0, "restarts": 0}

    def close(self) -> None:
        pass
