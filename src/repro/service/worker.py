"""Worker-side job execution: runs in the pool's child processes.

Everything here must be importable and picklable from a fresh interpreter
(``spawn`` start method) — no closures, no references to supervisor state.
The worker loop is deliberately dumb: pull ``(job_id, request)`` pairs off
the inbox, plan, push ``(worker_id, job_id, response)`` onto the shared
result queue.  All scheduling intelligence (timeouts, retries, respawn)
lives in :mod:`repro.service.pool` on the supervisor side, which is what
lets a hung or crashed worker be killed without losing the service.
"""

from __future__ import annotations

import os
import time
import traceback
from typing import Optional

from repro.core.metrics import PlanResult
from repro.errors import InvalidRequest
from repro.faults import FaultPlan, install_plan
from repro.service.request import PlanRequest, PlanResponse

#: Exit code a deliberately crashed worker dies with (tests assert on the
#: *structured* response, but the code makes post-mortems unambiguous).
CRASH_EXIT_CODE = 87

#: How long the "hang" fault sleeps — effectively forever next to any
#: realistic per-job timeout.
_HANG_SECONDS = 3600.0

#: Shared-memory race-cancellation bitmask (a ``multiprocessing.Value``
#: of 64 bits, one per active race token modulo 64).  ``worker_main``
#: installs the pool's flag here at start-up; inline execution leaves it
#: None and the service cancels inline races without it.
_RACE_CANCEL = None


def apply_fault(fault: Optional[str]) -> None:
    """Honour a request's chaos hook (see :class:`PlanRequest.fault`)."""
    if not fault:
        return
    if fault == "hang":
        time.sleep(_HANG_SECONDS)
    elif fault == "crash":
        os._exit(CRASH_EXIT_CODE)
    elif fault == "error":
        raise RuntimeError("injected worker error")
    elif fault.startswith("slow:"):
        time.sleep(float(fault.split(":", 1)[1]))
    elif fault.startswith("flaky:"):
        flag = fault.split(":", 1)[1]
        if os.path.exists(flag):
            # Consume the flag first so the retry takes the healthy path.
            os.unlink(flag)
            os._exit(CRASH_EXIT_CODE)
    elif fault in ("corrupt", "duplicate", "wrong_id", "crash_after_send", "drop"):
        pass  # transport faults: honoured at send time by worker_main
    else:
        raise ValueError(f"unknown fault spec {fault!r}")


def response_from_result(
    request: PlanRequest, result: PlanResult, plan_seconds: float
) -> PlanResponse:
    """Flatten a :class:`PlanResult` into the plain-data wire response.

    A planner run that expired its deadline/op budget ships as
    ``status="degraded"`` (carrying the best-so-far path and the remaining
    goal distance); a run stopped by race cancellation
    (``degraded_reason == "cancelled"``) ships as the terminal
    ``"cancelled"``; only a complete run is ``"ok"`` — the distinction is
    load-bearing because the plan cache stores nothing but ``"ok"``.
    """
    brief = result.brief()
    if result.status == "complete":
        status = "ok"
    elif result.degraded_reason == "cancelled":
        status = "cancelled"
    else:
        status = "degraded"
    return PlanResponse(
        request_id=request.request_id,
        status=status,
        success=brief["success"],
        path_cost=brief["path_cost"],
        num_nodes=brief["num_nodes"],
        iterations=brief["iterations"],
        first_solution_iteration=brief["first_solution_iteration"],
        path=[p.tolist() for p in result.path],
        op_events=dict(result.counter.events),
        op_macs=dict(result.counter.macs),
        plan_seconds=plan_seconds,
        degraded_reason=result.degraded_reason,
        best_goal_distance=result.best_goal_distance,
        planner=request.planner,
    )


def execute_request(request: PlanRequest) -> PlanResponse:
    """Plan one request to completion (the body of a worker job).

    Also usable inline (no pool) — :class:`PlanningService` falls back to
    this for ``num_workers == 0``, and tests exercise planner behaviour
    through it without multiprocessing.

    Traced requests (``request.trace``) run under a *private* tracer and
    metrics registry installed as the process globals for the duration of
    the job; the drained span buffer and registry snapshot ship back in the
    response as plain data, ready to cross the pool pipe.  The supervisor
    absorbs them tagged with the job id (:mod:`repro.service.runner`).
    """
    from repro import obs
    from repro.core import cancel as _cancel
    from repro.core.planners import make_planner
    from repro.core.robots import get_robot
    from repro.faults import get_injector

    apply_fault(request.fault)
    request.validate()
    injector = get_injector()
    if injector is not None:
        injector.fire("worker.plan", detail=request.request_id)
    robot = get_robot(request.task.robot_name)

    # Race members poll the pool's shared cancel flag through the planner's
    # budget check; non-race requests keep the zero-overhead no-predicate
    # path.  The predicate is installed per job and always removed.
    previous_cancel = None
    race_armed = request.race_token is not None and _RACE_CANCEL is not None
    if race_armed:
        flag, bit = _RACE_CANCEL, request.race_token % 64
        previous_cancel = _cancel.install(lambda: bool((flag.value >> bit) & 1))

    observing = bool(request.trace)
    if observing:
        tracer = obs.Tracer(enabled=True)
        registry = obs.MetricsRegistry(enabled=True)
        previous = obs.install(tracer, registry)
    try:
        start = time.perf_counter()
        with obs.get_tracer().span(
            "job", request_id=request.request_id, lanes=request.lanes
        ):
            if request.lanes > 1 and request.config.mode == "rrtstar":
                from repro.core.batch import BatchRRTStarPlanner

                planner = BatchRRTStarPlanner(
                    robot, request.task, request.config, batch_size=request.lanes
                )
            else:
                planner = make_planner(robot, request.task, request.config)
            result = planner.plan()

            if request.smooth and result.success:
                from repro.core.collision import BruteOBBChecker
                from repro.core.smoothing import shortcut_smooth

                checker = BruteOBBChecker(
                    robot, request.task.environment,
                    motion_resolution=robot.step_size / 4.0,
                )
                smoothed, cost = shortcut_smooth(
                    result.path, checker, iterations=150, seed=request.config.seed
                )
                result.path = smoothed
                result.path_cost = cost
        elapsed = time.perf_counter() - start
    finally:
        if observing:
            obs.restore(previous)
        if race_armed:
            _cancel.install(previous_cancel)

    response = response_from_result(request, result, elapsed)
    if observing:
        response.trace_spans = tracer.drain()
        response.metric_deltas = registry.to_dict()
        response.phase_seconds = {
            name: round(entry["total_s"], 9)
            for name, entry in obs.aggregate_spans(
                response.trace_spans, names=obs.PHASES
            ).items()
        }
    return response


def run_job(request: PlanRequest) -> PlanResponse:
    """:func:`execute_request` with any failure folded into a structured
    ``"invalid"`` or ``"error"`` response — never fatal to the caller."""
    try:
        return execute_request(request)
    except InvalidRequest as exc:
        return PlanResponse(request_id=request.request_id, status="invalid",
                            error=str(exc))
    except Exception as exc:
        return PlanResponse(
            request_id=request.request_id, status="error",
            error="".join(
                traceback.format_exception_only(type(exc), exc)).strip(),
        )


def _send_with_faults(conn, job_id: int, response: PlanResponse, kind: Optional[str]) -> None:
    """Send a result, honouring a transport-fault kind on this one send.

    ``kind`` comes either from the request's own ``fault`` hook or from an
    installed :class:`~repro.faults.FaultInjector` firing at
    ``"worker.send"``.  The supervisor must survive every one of these:
    garbage bytes, an unknown job id, the same result twice, a worker that
    dies right after (or instead of) writing.
    """
    if kind == "drop":
        return  # result lost in transit; the supervisor's deadline reaps it
    if kind == "corrupt":
        conn.send_bytes(b"\x80\x04 not a pickle \x00\xff")
        return
    if kind == "wrong_id":
        conn.send((job_id + 1_000_000, response))
        return
    conn.send((job_id, response))
    if kind == "duplicate":
        conn.send((job_id, response))
    elif kind == "crash_after_send":
        os._exit(CRASH_EXIT_CODE)


def worker_main(worker_id: int, conn, fault_plan: Optional[FaultPlan] = None,
                cancel_flags=None) -> None:
    """Child-process loop: serve jobs over the private duplex pipe.

    Runs until the ``None`` sentinel arrives or the supervisor end of the
    pipe disappears.  ``worker_id`` only labels the process; the pipe
    itself identifies the worker to the supervisor.  When the pool carries
    a :class:`~repro.faults.FaultPlan`, an injector scoped to this worker
    is installed process-globally so planner-loop sites fire here too.
    ``cancel_flags`` is the pool's shared race-cancellation bitmask;
    installing it process-globally lets :func:`execute_request` arm the
    per-job cancel predicate for portfolio race members.
    """
    global _RACE_CANCEL
    if cancel_flags is not None:
        _RACE_CANCEL = cancel_flags
    injector = install_plan(fault_plan, scope=f"worker{worker_id}")
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError):
            return  # supervisor went away
        if item is None:
            return
        job_id, request = item
        if injector is not None:
            injector.fire("worker.recv", detail=f"job {job_id}")
        response = run_job(request)
        send_kind = None
        if request.fault in ("corrupt", "duplicate", "wrong_id",
                             "crash_after_send", "drop"):
            send_kind = request.fault
        elif injector is not None:
            send_kind = injector.fire("worker.send", detail=f"job {job_id}")
        try:
            _send_with_faults(conn, job_id, response, send_kind)
        except (BrokenPipeError, OSError):
            return
