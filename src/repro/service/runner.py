"""The service facade: cache -> coalesce -> pool -> telemetry.

:class:`PlanningService` is the object callers hold.  ``run_batch`` takes a
list of :class:`PlanRequest` and returns one :class:`PlanResponse` per
request, in order, after routing each through:

1. **Cache lookup** — a previously-planned (task, config, lanes, smooth)
   digest is answered immediately with the stored response.
2. **Single-flight coalescing** — a request whose key is already in
   flight plans once; the followers are answered from the leader's
   freshly-cached result (and count as cache hits, which is what they
   are).
3. **The worker pool** — misses fan out across processes with timeouts,
   retries, and crash isolation (:mod:`repro.service.pool`).
4. **Telemetry** — every response (hit, miss, or structured failure)
   becomes a :class:`~repro.service.telemetry.JobRecord`, is appended to
   the service's JSONL :class:`~repro.obs.EventLog`, and — for traced
   requests — has its worker-side span buffer and metric deltas absorbed
   into the ambient ``repro.obs`` tracer/registry, tagged with the job id.

Requests flow through one continuous loop: :meth:`PlanningService.admit`
takes requests in, :meth:`PlanningService.step` advances the pool one
turn and settles whatever finished.  ``run_batch`` is "admit all, step
until settled"; the network engine admits each request as it arrives.
The pool is created lazily and reused for the service lifetime, so worker
start-up cost is amortised — the request-level analogue of the engine's
amortised setup.  ``num_workers=0`` selects *inline* mode (plan
sequentially in-process, no timeout enforcement): handy for tests and for
environments where ``multiprocessing`` is unwelcome.
"""

from __future__ import annotations

import functools
import time
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import portfolio as portfolio_mod
from repro.core.moped import config_for_variant
from repro.core.world import PlanningTask
from repro.obs import EventLog, bump, get_registry, get_tracer
from repro.service.cache import PlanCache
from repro.service.jobs import Job, JobQueue
from repro.service.journal import JobJournal
from repro.service.pool import InlinePool, PoolConfig, WorkerPool
from repro.service.request import PlanRequest, PlanResponse, failure_response
from repro.service.telemetry import (
    TelemetrySink,
    record_from_job,
    record_from_response,
)


class PlanningService:
    """Accepts planning jobs; caches, schedules, and observes them."""

    def __init__(
        self,
        num_workers: int = 2,
        cache_capacity: int = 128,
        pool_config: Optional[PoolConfig] = None,
        telemetry: Optional[TelemetrySink] = None,
        cache: Optional[PlanCache] = None,
        portfolio_stats: Optional[portfolio_mod.PortfolioStats] = None,
        portfolio_stats_path: Optional[str] = None,
        journal: Optional[JobJournal] = None,
    ) -> None:
        if pool_config is not None:
            num_workers = pool_config.num_workers
        self.inline = num_workers == 0
        self.pool_config = (
            pool_config
            if pool_config is not None
            else (None if self.inline else PoolConfig(num_workers=num_workers))
        )
        #: The plan cache: the in-process LRU by default, or any object
        #: with the same ``get``/``put``/``stats``/``clear`` surface — the
        #: network layer injects its consistent-hash sharded tier here
        #: (:class:`repro.net.shard.ShardedPlanCache`), which is how N
        #: front-end processes share cached plans.
        self.cache = cache if cache is not None else PlanCache(cache_capacity)
        self.telemetry = telemetry if telemetry is not None else TelemetrySink()
        #: Structured JSONL event log; every event carries this service
        #: instance's ``run_id`` so traces, telemetry records, and events
        #: from one run correlate.
        self.events = EventLog()
        #: Learned portfolio win-rate table driving ``portfolio=("auto",)``.
        #: Pass an instance to share across services, or a path to persist.
        self.portfolio_stats = (
            portfolio_stats
            if portfolio_stats is not None
            else portfolio_mod.PortfolioStats(path=portfolio_stats_path)
        )
        #: Durable write-ahead job journal (:mod:`repro.service.journal`).
        #: ``None`` (the default) costs each hook one ``is not None`` check;
        #: with a journal, every admission, dispatch, and terminal status is
        #: logged so :meth:`recover` can replay work a crash lost.
        self.journal = journal
        self._pool = None  # WorkerPool, or InlinePool for num_workers=0
        self._pending: List[PlanRequest] = []
        # Live loop state: the queue the pool steps, (entry, cache key) per
        # job, followers per in-flight key, races by token, every admitted
        # (request, on_done) entry not yet settled (by id), and settled
        # (on_done, response) pairs awaiting the turn's group commit.
        self._queue = JobQueue()
        self._jobs: Dict[int, Tuple[tuple, Optional[str]]] = {}
        self._followers: Dict[str, List[tuple]] = {}
        self._races: Dict[int, Dict] = {}
        self._open: Dict[int, tuple] = {}
        self._publish: List[tuple] = []

    @property
    def outstanding(self) -> int:
        """Admitted requests whose response is not yet published."""
        return len(self._open) + len(self._publish)

    # ----------------------------------------------------------- lifecycle

    def _ensure_pool(self):
        if self._pool is None:
            self._pool = (InlinePool() if self.inline
                          else WorkerPool(self.pool_config))
            self._pool.on_settle = self._job_settled
        return self._pool

    @property
    def breaker(self):
        """The live pool's circuit breaker (``None`` before it exists, and inline).

        The network front end reads this to shed load at the edge while
        the breaker is open (429 + Retry-After instead of queueing jobs
        into a sick pool).
        """
        return getattr(self._pool, "breaker", None)

    def close(self) -> None:
        """Shut down the worker pool (idempotent; service stays queryable)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        if self.journal is not None:
            self.journal.sync()

    def __enter__(self) -> "PlanningService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------- serving

    def submit(self, request: PlanRequest) -> int:
        """Queue a request for the next :meth:`drain`; returns its index."""
        self._pending.append(request)
        return len(self._pending) - 1

    def drain(self) -> List[PlanResponse]:
        """Run everything :meth:`submit` queued since the last drain."""
        pending, self._pending = self._pending, []
        return self.run_batch(pending)

    def recover(self) -> Dict:
        """Replay the journal after a crash: settle every admitted job.

        Scans the journal (truncating a torn tail), then for every admit
        record with no terminal status since the last clean shutdown:

        * **quarantined** hashes (too many interrupted dispatches across
          restarts — the job keeps killing the process) are dead-lettered
          with a terminal ``"poison"`` instead of replayed;
        * admit payloads that no longer parse are settled ``"invalid"``;
        * everything else is rebuilt from its wire payload, marked
          ``recovered=True``, and re-run through :meth:`run_batch` —
          idempotently: duplicates coalesce by request hash, and a job
          whose result already reached the cache tier (its ``done`` record
          was the one torn off) is answered from the cache without
          re-planning.

        Degraded and cancelled results are terminal statuses, so they are
        never resurrected.  Returns the recovery summary (counts plus the
        replayed responses).
        """
        if self.journal is None:
            return {"enabled": False, "replayed": 0, "quarantined": 0,
                    "invalid": 0}
        from repro.errors import InvalidRequest
        from repro.net.wire import request_from_wire

        state = self.journal.recover_state()
        self.journal.start_epoch(
            pending=len(state.pending),
            quarantined=len(state.quarantined),
            torn=state.torn,
        )
        for record in state.quarantined:
            rid = str(record.get("request_id", ""))
            self.journal.record_done(rid, "poison")
            self._observe_response(
                PlanResponse(
                    request_id=rid, status="poison",
                    error="quarantined by recovery: job repeatedly "
                          "interrupted the process mid-dispatch",
                ),
                job_id=None,
            )
            bump("repro_recovery_replayed_total",
                 help="Journal admits settled by crash recovery",
                 outcome="quarantined")
        requests: List[PlanRequest] = []
        invalid = 0
        for record in state.pending:
            rid = str(record.get("request_id", ""))
            try:
                request = request_from_wire(
                    record.get("request") or {}, request_id=rid
                )
            except InvalidRequest as exc:
                invalid += 1
                self.journal.record_done(rid, "invalid")
                self._observe_response(
                    PlanResponse(request_id=rid, status="invalid",
                                 error=f"unreplayable admit record: {exc}"),
                    job_id=None,
                )
                bump("repro_recovery_replayed_total",
                     help="Journal admits settled by crash recovery",
                     outcome="invalid")
                continue
            requests.append(replace(request, recovered=True))
            bump("repro_recovery_replayed_total",
                 help="Journal admits settled by crash recovery",
                 outcome="replayed")
        responses = self.run_batch(requests) if requests else []
        self.journal.sync()
        self.events.emit(
            "recovery.done",
            replayed=len(requests),
            quarantined=len(state.quarantined),
            invalid=invalid,
            torn=state.torn,
            records=state.records,
        )
        return {
            "enabled": True,
            "replayed": len(requests),
            "quarantined": len(state.quarantined),
            "invalid": invalid,
            "torn": state.torn,
            "records": state.records,
            "responses": responses,
        }

    def run_batch(self, requests: Sequence[PlanRequest]) -> List[PlanResponse]:
        """Plan a batch; one response per request, original order.

        Admit all, then step until all have settled: the loop the network
        engine drives one request at a time.
        """
        responses: List[Optional[PlanResponse]] = [None] * len(requests)
        self.events.emit("batch.start", requests=len(requests))
        self.admit([(request, functools.partial(responses.__setitem__, i))
                    for i, request in enumerate(requests)])
        while any(r is None for r in responses):
            self.step()
        self.events.emit(
            "batch.end",
            requests=len(requests),
            ok=sum(1 for r in responses if r.status == "ok"),
        )
        return responses  # type: ignore[return-value]

    def admit(
        self, items: Sequence[Tuple[PlanRequest, Callable[[PlanResponse], None]]]
    ) -> None:
        """Admission step: journal each ``(request, on_done)``, then answer
        it from the cache, coalesce it onto the in-flight leader with the
        same cache key, or queue it.  ``on_done(response)`` runs at the end
        of the :meth:`step` that settles the request.  A request whose
        admission raises (a failed journal write) alone settles ``"error"``.
        """
        with get_tracer().span(
            "service.batch", run_id=self.events.run_id, requests=len(items)
        ):
            for entry in items:
                self._open[id(entry)] = entry
                try:
                    self._admit_one(entry)
                except Exception as exc:
                    self._settled(entry, failure_response(
                        entry[0], "error", f"admission failed: {exc!r}"))

    def _admit_one(self, entry) -> None:
        # Every journal write precedes the loop-state registration, so a
        # write that raises leaves no follower list or job behind.
        request = entry[0]
        journal = self.journal
        if journal is not None and not getattr(request, "recovered", False):
            # Write-ahead: admission is durable before any work starts.
            # Recovered requests are already in the journal — their
            # original admit record is the one being settled.
            journal.record_admit(request)
        if request.portfolio:
            # Portfolio race: expand into K member jobs sharing a race
            # token.  Races bypass the cache both ways — each race is a
            # fresh controlled experiment, and the parent response is a
            # synthesis, not a single planner's cacheable answer.
            if journal is not None:
                journal.record_dispatch(request.request_id)
            self._start_race(entry)
            return
        # Faulted and traced requests always execute (chaos hooks and
        # observability runs both want a real execution, not a replay).
        key = None if (request.fault or request.trace) else request.cache_key()
        if key is not None:
            if key in self._followers:  # coalesce before a (miss-counting) lookup
                self._followers[key].append(entry)
                return
            cached = self.cache.get(key, request.request_id)
            if cached is not None:
                self._observe_response(cached, job_id=None, request=request)
                self._settled(entry, cached)
                return
        if journal is not None:
            journal.record_dispatch(request.request_id)
        if key is not None:
            self._followers[key] = []
        job = self._queue.submit(request, time.monotonic())
        self._jobs[job.job_id] = (entry, key)

    def step(self, wake=None) -> None:
        """One loop turn: advance the pool once, then publish.

        Jobs settle through the pool's ``on_settle`` hook as they finish.
        Publishing takes one group-commit ``journal.sync()``, *then* runs
        the settled requests' ``on_done`` — so in ``fsync="batch"`` mode
        no caller hears of a result whose ``done`` record could be lost.
        ``wake`` (a readable fd or connection) ends the pool's wait early.
        A turn with results already waiting (cache hits, admission
        failures) publishes them without a pool step; the next turn feeds
        the workers.  If the pool step itself raises, every open request
        settles ``"error"`` and the loop starts over with a fresh pool.
        """
        if not self._publish:
            try:
                self._ensure_pool().step(self._queue, wake)
            except Exception as exc:
                self._abort(exc)
        publish, self._publish = self._publish, []
        if publish and self.journal is not None:
            try:
                self.journal.sync()
            except Exception as exc:
                publish = [(on_done, PlanResponse(
                    request_id=response.request_id, status="error",
                    error=f"journal sync failed: {exc!r}",
                )) for on_done, response in publish]
        for on_done, response in publish:
            on_done(response)

    def _settled(self, entry, response: PlanResponse) -> None:
        """Terminal status for one admitted request, exactly once (published
        at the end of the turn).  A ``done`` record that cannot be written
        turns the response into a structured ``"error"``."""
        if self._open.pop(id(entry), None) is None:
            return  # already settled
        request, on_done = entry
        if self.journal is not None:
            try:
                self.journal.record_done(request.request_id, response.status)
            except Exception as exc:
                response = failure_response(
                    request, "error", f"journal write failed: {exc!r}")
        self._publish.append((on_done, response))

    def _abort(self, exc: Exception) -> None:
        """The loop itself failed: settle every open request ``"error"``
        and drop the queue, in-flight keys, races and pool."""
        for entry in list(self._open.values()):
            self._settled(entry, failure_response(
                entry[0], "error", f"service loop failed: {exc!r}"))
        self._queue = JobQueue()
        self._jobs.clear()
        self._followers.clear()
        self._races.clear()
        if self._pool is not None:
            pool, self._pool = self._pool, None
            pool.close()
        self.events.emit("loop.abort", error=repr(exc))

    def _job_settled(self, job: Job) -> None:
        """Pool ``on_settle`` hook: settle the job's request(s) at once."""
        token = job.request.race_token
        if token is not None:
            self._race_member_settled(token, job)
            return
        entry, key = self._jobs.pop(job.job_id)
        followers = self._followers.pop(key) if key is not None else []
        response = job.response
        self._observe_response(response, job.job_id, job=job)
        if response.status == "ok" and key is not None:
            self.cache.put(key, replace(response))
        self._settled(entry, response)
        for follower in followers:
            rid = follower[0].request_id
            hit = self.cache.get(key, rid)
            if hit is None:  # leader failed; echo its failure (miss counted)
                hit = replace(response, request_id=rid)
            self._observe_response(hit, job_id=None, request=follower[0])
            self._settled(follower, hit)

    # ------------------------------------------------------------- racing

    def _start_race(self, entry) -> None:
        """Expand one portfolio request into member jobs sharing a token.

        Each member is an ordinary job carrying ``planner=name``, the
        member's derived config (:func:`repro.core.portfolio.member_config`)
        and the shared ``race_token`` that the supervisor's cancel bit and
        the worker's cancel predicate meet on.  ``"auto"`` entries resolve
        through :attr:`portfolio_stats` here, so the learned default is
        whatever the stats file said at submit time.
        """
        request: PlanRequest = entry[0]
        signature = portfolio_mod.task_signature(request.task)
        names = portfolio_mod.resolve(
            request.portfolio, signature, self.portfolio_stats
        )
        token = self._ensure_pool().new_race_token()
        members: List[Tuple[str, int]] = []
        for name in names:
            member = replace(
                request,
                request_id=f"{request.request_id}#{name}",
                planner=name,
                portfolio=None,
                race_token=token,
                config=portfolio_mod.member_config(name, request.config),
            )
            job = self._queue.submit(member, time.monotonic())
            members.append((name, job.job_id))
        self._races[token] = {
            "token": token,
            "signature": signature,
            "names": names,
            "members": members,
            "entry": entry,
            "winner_job": None,
            "jobs": {},
        }
        self.events.emit(
            "race.start",
            request_id=request.request_id,
            planners=list(names),
            signature=signature,
            token=token,
        )

    def _race_member_settled(self, token: int, job: Job) -> None:
        """First feasible member wins: flip the race's cancel bit so the
        losers degrade out through the cancel -> deadline path.  The race
        settles once every member has."""
        race = self._races[token]
        race["jobs"][job.job_id] = job
        response = job.response
        if (race["winner_job"] is None and response is not None
                and response.status == "ok" and response.success):
            race["winner_job"] = job.job_id
            self._pool.cancel_race(token)
        if len(race["jobs"]) == len(race["members"]):
            del self._races[token]
            self._pool.clear_race(token)
            self._settled(race["entry"], self._finalise_race(race))

    def _finalise_race(self, race: Dict) -> PlanResponse:
        """Pick the race winner, account for the losers, learn from the win.

        Runs once every member has settled.  Winner policy: the
        first-feasible member recorded at settle time; otherwise (no
        ``ok`` arrived while racing — e.g. every member degraded) the
        cheapest feasible response, then the first member, in member
        order.  The parent response is the winner's response re-labelled
        with the parent request id plus a ``race`` summary; every member
        is observed as its own job so telemetry/RCA see the losers'
        terminal statuses too.
        """
        request: PlanRequest = race["entry"][0]
        members = [(name, race["jobs"][job_id])
                   for name, job_id in race["members"]]
        if race["winner_job"] is not None:
            winner_name, winner_job = next(
                (n, j) for n, j in members if j.job_id == race["winner_job"]
            )
        else:
            feasible = [(n, j) for n, j in members if j.response.success]
            best = [(n, j) for n, j in feasible if j.response.status == "ok"]
            winner_name, winner_job = min(
                best or feasible or members[:1],
                key=lambda nj: nj[1].response.path_cost,
            )

        statuses: Dict[str, str] = {}
        for name, job in members:
            statuses[name] = job.response.status
            self._observe_response(job.response, job.job_id, job=job)
        cancelled = sum(1 for s in statuses.values() if s == "cancelled")

        summary = {
            "planners": list(race["names"]),
            "winner": winner_name,
            "statuses": statuses,
            "cancelled": cancelled,
            "signature": race["signature"],
        }
        parent = replace(
            winner_job.response,
            request_id=request.request_id,
            planner=winner_name,
            race=summary,
        )
        won = (winner_job.response.status == "ok"
               and winner_job.response.success)
        if won:
            bump(
                "repro_portfolio_wins_total",
                help="Portfolio race wins by planner.",
                planner=winner_name,
                robot=request.task.robot_name,
            )
            self.portfolio_stats.record(race["signature"], winner_name)
        self.events.emit(
            "race.done",
            request_id=request.request_id,
            winner=winner_name,
            won=won,
            planners=list(race["names"]),
            statuses=statuses,
            cancelled=cancelled,
        )
        return parent

    def _observe_response(
        self,
        response: PlanResponse,
        job_id: Optional[int],
        request: Optional[PlanRequest] = None,
        job: Optional[Job] = None,
    ) -> None:
        """Telemetry + event for one terminal response; a pooled ``job``'s
        shipped-back trace and metric buffers are absorbed too."""
        if job is not None:
            self._absorb_job_obs(job.job_id, response)
            record = record_from_job(job)
        else:
            record = record_from_response(response, request=request)
        self.telemetry.record(record, counter=response.counter())
        self.events.emit(
            "job.done",
            job_id=job_id,
            request_id=response.request_id,
            status=response.status,
            cache_hit=response.cache_hit,
            worker_id=response.worker_id,
            attempts=response.attempts,
            plan_seconds=response.plan_seconds,
        )

    def _absorb_job_obs(self, job_id: int, response: PlanResponse) -> None:
        """Fold a traced job's shipped-back buffers into the ambient
        tracer/registry, tagging every span with the job's identity."""
        if response.trace_spans:
            tracer = get_tracer()
            if tracer.enabled:
                tracer.absorb(
                    response.trace_spans,
                    job_id=job_id,
                    request_id=response.request_id,
                )
        if response.metric_deltas:
            registry = get_registry()
            if registry.enabled:
                registry.merge_dict(response.metric_deltas)

    # ----------------------------------------------------------- telemetry

    def summary(self, include_records: bool = False) -> Dict:
        """Aggregate telemetry: counts, cache stats, latency percentiles."""
        pool_stats = (
            self._pool.stats()
            if self._pool is not None
            else {"count": 0 if self.inline else self.pool_config.num_workers,
                  "restarts": 0}
        )
        return self.telemetry.summary(
            cache_stats=self.cache.stats(),
            pool_stats=pool_stats,
            include_records=include_records,
        )


def build_requests(
    robot: str = "mobile2d",
    obstacles: int = 8,
    jobs: int = 8,
    seed: int = 0,
    variant: str = "full",
    samples: int = 500,
    goal_bias: float = 0.1,
    lanes: int = 1,
    smooth: bool = False,
    timeout_s: Optional[float] = None,
    duplicate: int = 1,
    inject: Optional[str] = None,
    tasks: Optional[Sequence[PlanningTask]] = None,
    trace: bool = False,
    deadline_s: Optional[float] = None,
    mode: str = "rrtstar",
    portfolio: Optional[Sequence[str]] = None,
) -> List[PlanRequest]:
    """Seeded request batch for the CLIs and tests.

    Without ``tasks``, generates ``jobs`` tasks with seeds ``seed .. seed +
    jobs - 1`` (each task's planner config uses the matching seed, so the
    whole request is deterministic).  ``duplicate=k`` repeats the batch k
    times — duplicates coalesce or hit the cache, which is how the CLIs
    demonstrate a non-zero hit rate.  ``inject="kind"`` or ``"kind:index"``
    arms the fault hook on one request (default index 0); ``kind`` is any
    :class:`PlanRequest.fault` spec (``hang`` / ``crash`` / ``error`` /
    ``slow:<s>`` / transport kinds).  ``trace=True`` marks every request
    for the observability layer (workers ship spans/metrics back).
    ``deadline_s`` arms anytime planning on every request's config (expired
    budgets return ``status="degraded"`` best-so-far results).
    ``mode="connect"`` plans every request with the bidirectional
    RRT-Connect planner; ``portfolio=("connect", "wave")`` turns every
    request into a planner race instead (``mode`` is then the base config
    the members derive from).
    """
    if jobs < 1 and tasks is None:
        raise ValueError("jobs must be >= 1")
    if duplicate < 1:
        raise ValueError("duplicate must be >= 1")
    base: List[PlanRequest] = []
    if tasks is not None:
        source = [(t, seed) for t in tasks]
    else:
        from repro.workloads import random_task

        source = [
            (random_task(robot, obstacles, seed=seed + i, task_id=i), seed + i)
            for i in range(jobs)
        ]
    for i, (task, task_seed) in enumerate(source):
        config = config_for_variant(
            variant, max_samples=samples, seed=task_seed, goal_bias=goal_bias,
            deadline_s=deadline_s, mode=mode,
        )
        base.append(
            PlanRequest(
                task=task,
                config=config,
                lanes=lanes,
                smooth=smooth,
                timeout_s=timeout_s,
                request_id=f"job-{i:03d}",
                trace=trace,
                portfolio=tuple(portfolio) if portfolio else None,
            )
        )
    requests: List[PlanRequest] = []
    for k in range(duplicate):
        for req in base:
            rid = req.request_id if k == 0 else f"{req.request_id}-dup{k}"
            requests.append(replace(req, request_id=rid))
    if inject:
        kind, _, index_str = inject.partition(":")
        index = int(index_str) if index_str else 0
        if not 0 <= index < len(requests):
            raise ValueError(f"inject index {index} out of range")
        requests[index] = replace(requests[index], fault=kind)
    return requests
