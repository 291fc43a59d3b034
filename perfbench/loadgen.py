"""Load generator: paced open loop, or closed loop.

One process, one thread per connection and at most ``nproc`` of them (the
CPUs this process may run on), one keep-alive HTTP/1.1 connection per
thread.  In the open loop, requests follow a seeded arrival
schedule: each thread takes the next request in due order, sleeps until it
is due, sends it and reads the reply.  Latency is timed from when the
request was *due*, not from when it was sent, so a stall is charged to
every request queued behind it; how late the generator sent each request
is kept as ``lag``.  In the closed loop each connection sends its next
request as soon as its previous reply arrived, so a request is due when
it is sent.  Non-2xx replies (429 sheds included) and transport errors are
recorded, never retried.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence


@dataclass
class Record:
    """One request: schedule, timing and raw outcome."""

    index: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: bytes = b""
    error: Optional[str] = None

    @property
    def latency_s(self) -> float:
        return self.done - self.due

    @property
    def lag_s(self) -> float:
        return self.sent - self.due


def max_connections() -> int:
    """``nproc``: the CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def run(host: str, port: int, due: Optional[Sequence[float]],
        bodies: Sequence[bytes], connections: int, start: Optional[float] = None,
        until: Optional[float] = None, timeout_s: float = 60.0) -> List[Record]:
    """Send ``bodies[i]`` at ``start + due[i]``; return one record per request.

    ``due=None`` runs the closed loop instead, from ``start`` until the clock
    passes ``until``; bodies not sent by then are dropped from the result.
    ``connections`` is capped at :func:`max_connections`.
    """
    if due is not None and len(due) != len(bodies):
        raise ValueError("one due time per body")
    connections = max(1, min(connections, max_connections(), len(bodies) or 1))
    start = time.perf_counter() if start is None else start
    records = [Record(index=i, due=start + (float(due[i]) if due is not None else 0.0))
               for i in range(len(bodies))]
    cursor = iter(range(len(records)))
    lock = threading.Lock()

    def worker() -> None:
        conn = None
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                break
            rec = records[i]
            wait = rec.due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            if due is None:
                rec.due = time.perf_counter()
                if until is not None and rec.due >= until:
                    break
            if conn is None:
                conn = http.client.HTTPConnection(host, port, timeout=timeout_s)
            rec.sent = time.perf_counter()
            try:
                conn.request("POST", "/plan", body=bodies[i],
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                rec.body = response.read()
                rec.status = response.status
            except (OSError, http.client.HTTPException) as exc:
                rec.error = f"{type(exc).__name__}: {exc}"
                conn.close()
                conn = None
            rec.done = time.perf_counter()
        if conn is not None:
            conn.close()

    threads = [threading.Thread(target=worker, name=f"loadgen-{k}", daemon=True)
               for k in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [rec for rec in records if rec.sent]


def encode(spec) -> bytes:
    return json.dumps({"spec": spec}).encode("utf-8")
