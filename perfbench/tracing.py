"""Benchmark-side tracing on the program's own ``repro.obs`` tracer.

:func:`install` wraps the public entry points of each layer — ``kernels``,
``core.collision``, ``spatial``, the planner entry, ``service`` (pool,
caches, journal) and ``net`` (wire parse and encode, the shard RPC, the
front end's request route) — so that every call records a span into the
process-global :class:`repro.obs.Tracer`.  The program's own spans come
along: ``service.batch`` around each micro-batch, ``service.job`` for each
pool job, and the planner's ``plan``/``wave``/phase spans.  Nothing is
recorded while that tracer is disabled, and no program file changes: the
wrappers live here and are installed by the benchmark's own process or by
its front-end launcher (``frontend.py``), whose forked pool workers
inherit them.

In a pool worker, each job runs the way the program runs a request with
``trace=True``: under a private tracer whose spans ship back in the
response and are absorbed into the front end's tracer, tagged with the job
and request id.  The request itself stays untraced, so the plan cache
serves and stores it as usual.

The one thing the benchmark adds to the tracer is a thread stamp on every
span (``args["thread"]``).  The front end records from its event-loop
thread and its engine thread at once, and :func:`nest` nests spans per
thread to get each span's *self time*: its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import os
import threading
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Spans of work that interleaves on one thread (concurrent pool jobs on
#: the engine thread, async request routes on the event loop).  They are
#: kept as intervals and never become parents.
INTERVALS = ("service.job", "net.route")


def _traced(name: str, fn: Callable, args_of: Optional[Callable] = None) -> Callable:
    """``fn`` recording span ``name``; ``args_of(args, kwargs, result)``
    gives the span's args.  A call that raises records no span."""
    from repro.obs import get_tracer

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer = get_tracer()
        if not tracer.enabled:
            return fn(*args, **kwargs)
        t0 = tracer.now()
        result = fn(*args, **kwargs)
        extra = args_of(args, kwargs, result) if args_of is not None else {}
        tracer.span_at(name, t0, tracer.now(), **extra)
        return result

    return traced


def _patch(owner, attr: str, name: str, args_of: Optional[Callable] = None) -> None:
    setattr(owner, attr, _traced(name, getattr(owner, attr), args_of))


def install() -> None:
    """Stamp spans with their thread and wrap every layer's entry points."""
    from repro.core import collision, moped, neighbors
    from repro.kernels import batch as kernels_batch
    from repro.net import frontend, shard, wire
    from repro.obs import get_tracer, trace
    from repro.service import cache, journal, pool, worker
    from repro.spatial import simbr

    append = trace.Tracer._append

    def stamped(self, name, ts, dur, depth, args):
        append(self, name, ts, dur, depth, {**args, "thread": threading.get_ident()})

    trace.Tracer._append = stamped

    # kernels: collision.py calls them through the module attribute.
    for name, fn in list(vars(kernels_batch).items()):
        if not name.startswith("_") and inspect.isfunction(fn) \
                and fn.__module__ == kernels_batch.__name__:
            _patch(kernels_batch, name, "kernels")

    # core.collision: whole-edge validation entry points.
    _patch(collision.CollisionChecker, "motion_results_batch", "collision.edge",
           lambda a, k, r: {"edges": len(a[1])})
    _patch(collision.CollisionChecker, "motion_in_collision", "collision.edge",
           lambda a, k, r: {"edges": 1})

    # spatial: the neighbour index the planner queries, and the SI-MBR tree.
    for cls in (neighbors.BruteStrategy, neighbors.KDTreeStrategy,
                neighbors.SIMBRStrategy, simbr.SIMBRTree):
        _patch(cls, "nearest", "spatial.nearest")
    for cls in (neighbors.BruteStrategy, neighbors.KDTreeStrategy,
                neighbors.SIMBRStrategy):
        _patch(cls, "neighborhood", "spatial.neighborhood")
    _patch(simbr.SIMBRTree, "neighbors_within", "spatial.neighborhood")
    _patch(simbr.SIMBRTree, "leaf_siblings", "spatial.neighborhood")

    # core: one span per in-process plan (a pool job has the program's own
    # ``job`` span).
    _patch(moped.MopedEngine, "plan_task", "core.plan")

    # A worker job runs on the program's traced-request path; ``worker_main``
    # looks ``execute_request`` up in its module at call time.
    execute = worker.execute_request

    @functools.wraps(execute)
    def execute_traced(request):
        if not get_tracer().enabled:
            return execute(request)
        response = execute(dataclasses.replace(request, trace=True))
        response.phase_seconds = {}   # keep the wire reply as untraced
        return response

    worker.execute_request = execute_traced

    # service.pool: the supervisor's run, and each worker respawn.
    _patch(pool.WorkerPool, "run", "pool.run")
    _patch(pool.WorkerPool, "_replace", "pool.restart")

    # service.runner's plan cache, in-process or sharded.
    for cls in (cache.PlanCache, shard.ShardedPlanCache):
        _patch(cls, "get", "cache.get", lambda a, k, r: {"hit": r is not None})
        _patch(cls, "put", "cache.put")
    _patch(shard.ShardClient, "call", "shard.rpc")

    # service.journal: each record (its kind and request id) and each sync.
    _patch(journal.JobJournal, "append", "journal.append",
           lambda a, k, r: {"kind": a[1], "request_id": k.get("request_id")})
    _patch(journal.JobJournal, "sync", "journal.sync")

    # net: wire parse/encode (the front end imported them by name) and the
    # request route.
    for module in (wire, frontend):
        _patch(module, "request_from_wire", "net.parse",
               lambda a, k, r: {"request_id": r.request_id})
    _patch(frontend, "response_to_wire", "net.encode",
           lambda a, k, r: {"request_id": a[0].request_id})

    route = frontend.PlanFrontEnd._route

    @functools.wraps(route)
    async def route_traced(self_, method, target, headers, body):
        tracer = get_tracer()
        t0 = tracer.now()
        result = await route(self_, method, target, headers, body)
        payload = result[1]
        if tracer.enabled and isinstance(payload, dict) and payload.get("request_id"):
            tracer.span_at("net.route", t0, tracer.now(),
                           request_id=payload["request_id"])
        return result

    frontend.PlanFrontEnd._route = route_traced


def dump(path) -> None:
    """Write the global tracer's spans and the obs registry as JSON."""
    from repro.obs import get_registry, get_tracer

    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"pid": os.getpid(), "spans": get_tracer().spans,
                   "registry": get_registry().to_dict()}, fh)


def nest(spans: List[Dict]) -> Tuple[List[float], List[Optional[int]]]:
    """Self time and parent index of every span, nested per thread.

    Spans group by process and thread; spans absorbed from a pool worker
    (tagged with a ``job_id``) group by request too, as each job ran under
    its own tracer and timebase.  Within a group spans nest by interval
    containment.  :data:`INTERVALS` spans keep their whole duration and
    have no parent.
    """
    self_s = [span["dur"] for span in spans]
    parent: List[Optional[int]] = [None] * len(spans)
    groups: Dict[tuple, List[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span["name"] not in INTERVALS:
            args = span["args"]
            job = args.get("request_id") if "job_id" in args else None
            groups[(span["pid"], args.get("thread"), job)].append(i)
    for group in groups.values():
        group.sort(key=lambda i: (spans[i]["ts"], -spans[i]["dur"]))
        stack: List[int] = []
        for i in group:
            while stack and spans[i]["ts"] >= (spans[stack[-1]]["ts"]
                                               + spans[stack[-1]]["dur"]):
                stack.pop()
            if stack:
                parent[i] = stack[-1]
                self_s[stack[-1]] -= spans[i]["dur"]
            stack.append(i)
    return self_s, parent
