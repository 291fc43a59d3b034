"""Asyncio HTTP/JSON front end over the planning service.

Architecture: one process, two lanes.  The asyncio event loop owns the
sockets — accepting connections, parsing HTTP/1.1, and writing responses —
while a single *engine thread* owns the :class:`~repro.service.runner.
PlanningService` (and through it the cache tier and the multiprocessing
worker pool).  Handlers hand admitted requests to the engine as
``(PlanRequest, Future)`` pairs; the engine admits each one into the
service's continuous admit/settle loop the moment it arrives and resolves
its future when the job settles, which the handlers ``await`` without
blocking the loop.  The service object is therefore touched by exactly
one thread — the same single-owner discipline the worker pool applies to
its pipes.

Endpoints:

* ``POST /plan`` — plan a request (full or spec wire form).  Default is
  synchronous (the response body is the terminal ``PlanResponse``);
  ``?wait=0`` returns ``202 {"id": ...}`` immediately.
* ``GET /result/<id>`` — fetch an async result: 200 terminal, 202 still
  planning, 404 unknown/expired.
* ``GET /healthz`` — liveness + admission state (queue depth, inflight,
  breaker snapshot).
* ``GET /metrics`` — Prometheus text exposition from :mod:`repro.obs`.

Admission control and backpressure: a request is *shed* with ``429 Too
Many Requests`` plus a ``Retry-After`` header when (a) the engine's queue
depth is at ``max_queue_depth``, (b) more than ``max_inflight`` HTTP
requests are already being served, or (c) the worker pool's circuit
breaker (PR 5) is open — an unhealthy pool sheds at the edge for the
remaining cooldown instead of queueing more doomed work.  Shedding happens
*before* a request becomes a job, so the planning layers never see the
overload.

Fault sites (chaos harness): ``net.accept`` fires per accepted connection
(error/slow kinds, or ``drop`` to close unserved) and ``net.respond``
before each response write (``drop`` closes the socket mid-exchange);
``net.shard_rpc`` lives in :mod:`repro.net.shard`.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import functools
import itertools
import json
import math
import multiprocessing
import os
import queue
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.errors import FaultInjected, InvalidRequest
from repro.faults import get_injector
from repro.obs import bump, get_registry
from repro.service.breaker import OPEN
from repro.service.pool import PoolConfig
from repro.service.runner import PlanningService
from repro.service.request import PlanRequest, PlanResponse
from repro.net.wire import (
    error_body,
    http_status_for,
    request_from_wire,
    response_to_wire,
)

__all__ = ["FrontEndConfig", "PlanFrontEnd", "run_server"]

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}

#: Refuse request bodies above this size (a planning task is small; a
#: multi-megabyte body is a client bug or abuse).
MAX_BODY_BYTES = 4 * 1024 * 1024


@dataclass
class FrontEndConfig:
    """Knobs of one front-end process.

    Attributes:
        host / port: bind address (``port=0`` = ephemeral, resolved after
            start).
        workers: planner worker processes (0 = inline, for tests).
        cache_capacity: in-process cache size when no shard tier is given.
        shards: shard endpoints; non-empty selects the sharded tier.
        max_queue_depth: engine backlog above which POSTs are shed.
        max_inflight: concurrent HTTP requests above which POSTs are shed.
        retry_after_s: baseline ``Retry-After`` for queue/inflight sheds.
        timeout_s: per-job wall budget handed to the pool.
        breaker_threshold / breaker_cooldown_s: circuit-breaker wiring
            (non-zero threshold arms edge shedding on an open breaker).
        virtual_nodes: hash-ring vnodes per shard.
        replication: copies of each entry on the shard tier (>1 arms
            read failover + anti-entropy backfill).
        journal_dir: directory for the write-ahead job journal; ``None``
            disables durability (no WAL, no crash recovery).
        drain_deadline_s: seconds a SIGTERM drain waits for inflight
            jobs to reach terminal status before shutting down anyway.
    """

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 2
    cache_capacity: int = 512
    shards: Tuple[str, ...] = ()
    max_queue_depth: int = 64
    max_inflight: int = 128
    retry_after_s: float = 1.0
    timeout_s: float = 30.0
    breaker_threshold: int = 5
    breaker_cooldown_s: float = 2.0
    virtual_nodes: int = 64
    replication: int = 1
    journal_dir: Optional[str] = None
    drain_deadline_s: float = 10.0
    fault_spec: Optional[str] = None
    fault_seed: int = 1

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.retry_after_s <= 0:
            raise ValueError("retry_after_s must be positive")
        if self.replication < 1:
            raise ValueError("replication must be >= 1")
        if self.drain_deadline_s <= 0:
            raise ValueError("drain_deadline_s must be positive")


class _Engine(threading.Thread):
    """The single thread that owns the PlanningService.

    Runs the service's admit/settle loop continuously: each turn admits
    whatever the intake holds, then takes one :meth:`PlanningService.step`
    — so a request reaches an idle worker as soon as it arrives instead
    of waiting for a batch to finish.  Each intake item is
    ``(PlanRequest, concurrent Future)``; the future resolves to the
    terminal :class:`PlanResponse` once its ``done`` record is synced.
    :meth:`submit` writes to a self-pipe that is part of the step's wait
    set, so an arrival never sits out a poll interval.
    """

    def __init__(self, service: PlanningService, prepare=None) -> None:
        super().__init__(name="repro-net-engine", daemon=True)
        self.service = service
        #: Optional callable run on the engine thread before the first
        #: turn — crash recovery replays here, so recovered jobs execute
        #: under the same single-owner discipline as live traffic.
        self.prepare = prepare
        self.intake: "queue.Queue[Optional[tuple]]" = queue.Queue()
        # Self-pipe; the write end never blocks and is left for the GC to
        # close, so a late submit() after shutdown cannot hit a reused fd.
        self._wake_r, self._wake_w = multiprocessing.Pipe(duplex=False)
        os.set_blocking(self._wake_w.fileno(), False)

    def depth(self) -> int:
        """Engine backlog: queued intake plus every admitted request whose
        response is not yet published (read from the handler thread)."""
        return self.intake.qsize() + self.service.outstanding

    def _wake(self) -> None:
        try:
            self._wake_w.send_bytes(b"")
        except OSError:
            pass  # pipe full (a wake-up is pending) or engine gone

    def submit(self, request: PlanRequest):
        future: "concurrent.futures.Future[PlanResponse]" = (
            concurrent.futures.Future()
        )
        self.intake.put((request, future))
        self._wake()
        return future

    def stop(self) -> None:
        self.intake.put(None)
        self._wake()

    @staticmethod
    def _resolve(future, response: PlanResponse) -> None:
        try:
            future.set_result(response)
        except concurrent.futures.InvalidStateError:
            pass  # the client hung up, which cancelled its future

    def run(self) -> None:
        try:
            if self.prepare is not None:
                self.prepare()
            stopping = False
            while not stopping or self.service.outstanding:
                # Drain the wake pipe *before* the intake: a submit racing
                # this turn leaves a fresh byte behind for the next wait.
                while self._wake_r.poll():
                    self._wake_r.recv_bytes()
                items = []
                while True:
                    try:
                        item = self.intake.get_nowait()
                    except queue.Empty:
                        break
                    if item is None:
                        stopping = True
                    else:
                        items.append(item)
                # Neither call raises: a request whose admission fails, or
                # every open one if the pool fails, settles "error".
                if items:
                    self.service.admit([
                        (req, functools.partial(self._resolve, fut))
                        for req, fut in items
                    ])
                if self.service.outstanding:
                    self.service.step(wake=self._wake_r)
                elif not stopping:
                    mp_connection.wait([self._wake_r])
        finally:
            self.service.close()
            self._wake_r.close()


class PlanFrontEnd:
    """The HTTP server: admission control at the edge, engine behind it."""

    def __init__(self, config: Optional[FrontEndConfig] = None) -> None:
        self.config = config if config is not None else FrontEndConfig()
        cfg = self.config
        cache = None
        if cfg.shards:
            from repro.net.shard import ShardedPlanCache

            cache = ShardedPlanCache(list(cfg.shards),
                                     virtual_nodes=cfg.virtual_nodes,
                                     replication=cfg.replication)
        pool_config = None
        if cfg.workers > 0:
            pool_config = PoolConfig(
                num_workers=cfg.workers,
                default_timeout_s=cfg.timeout_s,
                breaker_threshold=cfg.breaker_threshold,
                breaker_cooldown_s=cfg.breaker_cooldown_s,
            )
        journal = None
        if cfg.journal_dir:
            from repro.service.journal import JobJournal

            journal = JobJournal(cfg.journal_dir)
        self.service = PlanningService(
            num_workers=cfg.workers,
            cache_capacity=cfg.cache_capacity,
            pool_config=pool_config,
            cache=cache,
            journal=journal,
        )
        self.engine = _Engine(self.service, prepare=self._recover)
        self._ids = itertools.count(1)
        #: Async-mode results: id -> Future, bounded FIFO eviction.
        self._results: "OrderedDict[str, object]" = OrderedDict()
        self._results_cap = 4096
        self.inflight = 0
        self.shed = {"queue": 0, "inflight": 0, "breaker": 0, "draining": 0}
        self.started_at = time.monotonic()
        self._server: Optional[asyncio.AbstractServer] = None
        #: Readiness gate: set once journal recovery has replayed (or there
        #: is no journal).  ``/healthz?ready=1`` answers 503 until then.
        self.ready = threading.Event()
        if journal is None:
            # Nothing to recover: ready immediately, even in unit tests
            # that never start the engine thread.
            self.ready.set()
        #: SIGTERM drain state: True stops admissions (503 + Retry-After)
        #: while inflight work runs to terminal status.
        self.draining = False
        #: Recovery summary from the engine's prepare step (None before).
        self.recovery: Optional[Dict] = None

    def _recover(self) -> None:
        """Engine prepare step: replay the journal, then open readiness."""
        try:
            result = self.service.recover()
            # Responses are live objects, not JSON — /healthz reports the
            # counts, telemetry already observed the responses themselves.
            result.pop("responses", None)
            self.recovery = result
        except Exception as exc:  # recovery must never wedge the engine
            self.recovery = {
                "enabled": True,
                "error": f"{type(exc).__name__}: {exc}",
            }
        finally:
            self.ready.set()

    # ------------------------------------------------------------ lifecycle

    @property
    def port(self) -> int:
        return self.config.port

    async def start(self) -> None:
        self.engine.start()
        self._server = await asyncio.start_server(
            self._serve_connection, self.config.host, self.config.port
        )
        self.config.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.engine.stop()
        self.engine.join(timeout=5.0)

    async def drain_and_stop(self) -> bool:
        """Graceful shutdown: stop admissions, drain, mark clean.

        The SIGTERM path.  New ``POST /plan`` requests answer 503 with a
        ``Retry-After`` the moment ``draining`` flips; inflight jobs get
        up to ``drain_deadline_s`` to reach terminal status.  Only a
        fully-drained shutdown writes the journal's clean-shutdown marker
        — an expired deadline leaves the journal "dirty" so the next
        start replays whatever was cut off.  Returns True when the drain
        completed in time.
        """
        self.draining = True
        deadline = time.monotonic() + self.config.drain_deadline_s
        while time.monotonic() < deadline:
            if self.engine.depth() == 0 and self.inflight == 0:
                break
            await asyncio.sleep(0.05)
        drained = self.engine.depth() == 0 and self.inflight == 0
        await self.stop()
        journal = getattr(self.service, "journal", None)
        if journal is not None:
            if drained:
                journal.mark_clean_shutdown()
            journal.close()
        return drained

    # ------------------------------------------------------------ admission

    def _shed_reason(self) -> Optional[Tuple[str, float]]:
        """Why a POST must be shed right now (reason, retry-after s)."""
        cfg = self.config
        breaker = self.service.breaker
        if breaker is not None and breaker.enabled and breaker.state == OPEN:
            remaining = breaker.cooldown_s - (time.monotonic() - breaker.opened_at)
            if remaining > 0:
                return "breaker", remaining
        if self.engine.depth() >= cfg.max_queue_depth:
            return "queue", cfg.retry_after_s
        if self.inflight > cfg.max_inflight:
            return "inflight", cfg.retry_after_s
        return None

    # ----------------------------------------------------------------- http

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        injector = get_injector()
        if injector is not None:
            try:
                if injector.fire("net.accept") is not None:
                    writer.close()  # transport kind: drop the connection
                    return
            except FaultInjected:
                writer.close()
                return
        try:
            while True:
                parsed = await self._read_request(reader)
                if parsed is None:
                    break
                method, target, headers, body = parsed
                keep_alive = headers.get("connection", "keep-alive") != "close"
                self.inflight += 1
                try:
                    code, payload, extra = await self._route(
                        method, target, headers, body
                    )
                finally:
                    self.inflight -= 1
                if not await self._write_response(
                    writer, code, payload, extra, keep_alive
                ):
                    break
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
            except Exception:
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        line = await reader.readline()
        if not line:
            return None
        try:
            method, target, _version = line.decode("latin-1").split()
        except ValueError:
            return None
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0) or 0)
        if length > MAX_BODY_BYTES:
            return method, target, headers, b"__too_large__"
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    async def _write_response(self, writer, code: int, payload: Dict,
                              extra_headers: Dict[str, str],
                              keep_alive: bool) -> bool:
        injector = get_injector()
        if injector is not None:
            try:
                if injector.fire("net.respond") is not None:
                    writer.close()  # dropped response: client sees a reset
                    return False
            except FaultInjected:
                writer.close()
                return False
        # /metrics hands over pre-encoded text; everything else is JSON.
        body = payload if isinstance(payload, bytes) \
            else json.dumps(payload).encode("utf-8")
        headers = {
            "Content-Type": "application/json",
            "Content-Length": str(len(body)),
            "Connection": "keep-alive" if keep_alive else "close",
        }
        headers.update(extra_headers)
        head = f"HTTP/1.1 {code} {_REASONS.get(code, 'Unknown')}\r\n" + "".join(
            f"{name}: {value}\r\n" for name, value in headers.items()
        ) + "\r\n"
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
        return True

    # -------------------------------------------------------------- routing

    async def _route(self, method: str, target: str, headers: Dict[str, str],
                     body: bytes):
        parts = urlsplit(target)
        path = parts.path
        t0 = time.perf_counter()
        try:
            if path == "/plan" and method == "POST":
                result = await self._handle_plan(parts.query, body)
            elif path.startswith("/result/") and method == "GET":
                result = self._handle_result(path[len("/result/"):])
            elif path == "/healthz" and method == "GET":
                result = self._handle_health(parts.query)
            elif path == "/metrics" and method == "GET":
                return await self._handle_metrics()
            elif path in ("/plan", "/healthz", "/metrics") \
                    or path.startswith("/result/"):
                result = 405, {"error": f"method {method} not allowed"}, {}
            else:
                result = 404, {"error": f"no route for {path}"}, {}
        except Exception as exc:  # route bug: answer 500, keep serving
            result = (500, error_body("error",
                                      f"{type(exc).__name__}: {exc}"), {})
        code = result[0]
        bump("repro_net_requests_total", help="Front-end HTTP requests",
             route=path if not path.startswith("/result/") else "/result",
             code=code)
        registry = get_registry()
        if registry.enabled and path == "/plan":
            registry.histogram(
                "repro_net_request_seconds",
                "Front-end request latency (admission to response build)",
            ).observe(time.perf_counter() - t0, route="/plan", code=str(code))
        return result

    async def _handle_plan(self, query: str, body: bytes):
        if body == b"__too_large__":
            return 413, error_body("invalid", "request body too large"), {}
        if self.draining:
            # Graceful drain: refuse new work outright (503, not 429 —
            # this server is going away, not merely busy) but keep
            # serving what was already admitted.
            self.shed["draining"] += 1
            bump("repro_net_shed_total",
                 help="Requests shed by admission control", reason="draining")
            retry_s = max(1, math.ceil(self.config.retry_after_s))
            return (
                503,
                {"error": "draining", "shed": True, "reason": "draining",
                 "retry_after_s": retry_s},
                {"Retry-After": str(retry_s)},
            )
        shed = self._shed_reason()
        if shed is not None:
            reason, retry_after = shed
            self.shed[reason] += 1
            bump("repro_net_shed_total",
                 help="Requests shed by admission control", reason=reason)
            retry_s = max(1, math.ceil(retry_after))
            return (
                429,
                {"error": "overloaded", "shed": True, "reason": reason,
                 "retry_after_s": retry_s},
                {"Retry-After": str(retry_s)},
            )
        try:
            data = json.loads(body or b"{}")
        except json.JSONDecodeError as exc:
            return 400, error_body("invalid", f"bad JSON: {exc}"), {}
        request_id = f"net-{next(self._ids):06d}"
        try:
            request = request_from_wire(data, request_id=request_id)
        except InvalidRequest as exc:
            return 400, error_body("invalid", str(exc), request_id), {}
        future = self.engine.submit(request)
        wait = parse_qs(query).get("wait", ["1"])[0] not in ("0", "false", "no")
        if not wait:
            self._results[request_id] = future
            while len(self._results) > self._results_cap:
                self._results.popitem(last=False)
            return 202, {"id": request_id, "status": "accepted"}, {}
        # The engine never fails a future: every admitted request settles
        # with a response, a structured "error" included.
        response = await asyncio.wrap_future(future)
        return http_status_for(response.status), response_to_wire(response), {}

    def _handle_result(self, result_id: str):
        future = self._results.get(result_id)
        if future is None:
            return 404, {"error": f"unknown result id {result_id!r}"}, {}
        if not future.done():
            return 202, {"id": result_id, "status": "pending"}, {}
        response = future.result()
        return http_status_for(response.status), response_to_wire(response), {}

    def _handle_health(self, query: str):
        """Liveness always answers 200; ``?ready=1`` is the gate probe.

        Readiness is 503 while journal recovery has not finished *or*
        the server is draining — in both states the process is alive but
        must not receive new traffic (rolling-restart orchestrators and
        load balancers key off exactly this split).
        """
        probe = parse_qs(query).get("ready", ["0"])[0] \
            not in ("0", "", "false", "no")
        # Gate first, body second: the ready flag is set *after* the
        # recovery summary is published, so a body built after a passing
        # gate check is guaranteed to carry it (building the body first
        # can snapshot a pre-recovery state and then pass the gate).
        if probe and (self.draining or not self.ready.is_set()):
            body = self._health()
            body["status"] = "draining" if self.draining else "starting"
            return 503, body, {"Retry-After": "1"}
        return 200, self._health(), {}

    def _health(self) -> Dict:
        breaker = self.service.breaker
        return {
            "status": "ok",
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "ready": self.ready.is_set() and not self.draining,
            "draining": self.draining,
            "recovery": self.recovery,
            "queue_depth": self.engine.depth(),
            "max_queue_depth": self.config.max_queue_depth,
            "inflight": self.inflight,
            "workers": 0 if self.service.inline else self.config.workers,
            "shed": dict(self.shed),
            "breaker": breaker.snapshot() if breaker is not None else None,
            "cache": self.service.cache.stats(),
        }

    async def _handle_metrics(self):
        registry = get_registry()
        text = registry.to_prometheus() if registry.enabled else ""
        body = text.encode("utf-8")
        # /metrics is the one non-JSON route; returned pre-encoded.
        return 200, body, {"Content-Type": "text/plain; version=0.0.4"}

    # _write_response JSON-encodes dict payloads; bytes pass through.


def run_server(config: FrontEndConfig, announce: bool = True) -> None:
    """Blocking entry point: serve one front end until interrupted.

    SIGTERM triggers the graceful drain (:meth:`PlanFrontEnd.
    drain_and_stop`): admissions stop with 503 + Retry-After, inflight
    work runs to terminal status within the drain deadline, and a clean
    drain stamps the journal's clean-shutdown marker.  SIGINT/KILL skip
    all of that — which is exactly what the recovery path is for.
    """
    if config.fault_spec:
        from repro.faults import FaultPlan, install_plan

        install_plan(FaultPlan.from_spec(config.fault_spec,
                                         seed=config.fault_seed),
                     scope="frontend")
    front = PlanFrontEnd(config)

    async def _main() -> None:
        import signal

        await front.start()
        term = asyncio.Event()
        try:
            asyncio.get_running_loop().add_signal_handler(
                signal.SIGTERM, term.set
            )
        except (NotImplementedError, RuntimeError):
            pass  # non-main thread or platform without signal support
        if announce:  # parseable line so orchestrators can learn the port
            print(f"FRONTEND {front.config.host}:{front.config.port}",
                  flush=True)
        serve = asyncio.ensure_future(front.serve_forever())
        waiter = asyncio.ensure_future(term.wait())
        await asyncio.wait({serve, waiter},
                           return_when=asyncio.FIRST_COMPLETED)
        if term.is_set():
            # Drain fully *inside* the running loop — asyncio.run would
            # cancel a half-finished drain task on teardown otherwise.
            drained = await front.drain_and_stop()
            if announce:
                print(f"DRAINED {'clean' if drained else 'deadline'}",
                      flush=True)
        waiter.cancel()
        serve.cancel()
        try:
            await serve
        except (asyncio.CancelledError, Exception):
            pass

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
