"""A fresh serving tier per run: one cache shard plus one front end.

:class:`Tier` starts ``repro.net shard`` and the front end (through
``frontend.py``) on ephemeral ports with a new journal directory, waits
for ``/healthz?ready=1``, and at teardown drains the front end with
SIGTERM, stops the shard, and checks that no process it started — the
front end's pool workers included — is left.  Nothing is shared between
tiers, so no cache entry or journal record leaks from one run into the
next.
"""

from __future__ import annotations

import http.client
import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

#: Front-end settings of both HTTP workloads: 2 workers, one shard.
WORKERS = 2
#: Warm-up requests queued at a time, below the front end's queue-depth
#: limit.
WARM_CHUNK = 32
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


class TierError(RuntimeError):
    """The tier failed to start, or left a process behind."""


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _children(pid: int) -> List[int]:
    """Direct children of ``pid`` (all of its threads)."""
    out: List[int] = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out.extend(int(c) for c in fh.read().split())
        except OSError:
            continue
    return out


def _alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("State:"):
                    return "Z" not in line.split()[1]
    except OSError:
        return False
    return False


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of ``pid`` in MB, 0 when it is gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Tier:
    """One shard and one front end, started fresh in ``workdir``."""

    def __init__(self, workdir: pathlib.Path, trace_dir: Optional[pathlib.Path] = None):
        self.workdir = pathlib.Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.journal_dir = self.workdir / "journal"
        self.trace_dir = trace_dir
        self.shard: Optional[subprocess.Popen] = None
        self.frontend: Optional[subprocess.Popen] = None
        self.port = 0

    # -------------------------------------------------------------- start

    def _spawn(self, name: str, argv: List[str]) -> subprocess.Popen:
        out = open(self.workdir / f"{name}.out", "wb")
        try:
            return subprocess.Popen(
                argv, cwd=str(ROOT), env=_env(), stdout=out,
                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
            )
        finally:
            out.close()

    def _announced(self, name: str, proc: subprocess.Popen, tag: str,
                   deadline: float) -> str:
        pattern = re.compile(rf"^{tag} (\S+:\d+)$", re.M)
        path = self.workdir / f"{name}.out"
        while time.monotonic() < deadline:
            match = pattern.search(path.read_text(errors="replace"))
            if match:
                return match.group(1)
            if proc.poll() is not None:
                break
            time.sleep(0.01)
        raise TierError(f"{name} did not announce its port:\n"
                        + path.read_text(errors="replace")[-2000:])

    def start(self) -> None:
        """Boot the tier and wait until the front end reports ready."""
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        self.shard = self._spawn(
            "shard", [sys.executable, "-m", "repro.net", "shard", "--port", "0"])
        endpoint = self._announced("shard", self.shard, "SHARD", deadline)
        argv = [sys.executable, str(HERE / "frontend.py")]
        if self.trace_dir is not None:
            argv += ["--trace-dir", str(self.trace_dir)]
        argv += ["serve", "--port", "0", "--workers", str(WORKERS),
                 "--shards", endpoint, "--journal-dir", str(self.journal_dir)]
        self.frontend = self._spawn("frontend", argv)
        address = self._announced("frontend", self.frontend, "FRONTEND", deadline)
        self.port = int(address.rsplit(":", 1)[1])
        while time.monotonic() < deadline:
            if self.get("/healthz?ready=1")[0] == 200:
                return
            time.sleep(0.02)
        raise TierError("front end never became ready")

    def get(self, path: str):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5.0)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        except OSError:
            return 0, b""
        finally:
            conn.close()

    def plan_async(self, bodies: List[bytes]) -> List[Dict]:
        """Plan ``bodies`` through ``POST /plan?wait=0``; return the responses.

        Requests are queued :data:`WARM_CHUNK` at a time, so the engine
        drains them in full micro-batches and both workers stay busy; each
        chunk is collected from ``GET /result/<id>`` before the next is
        queued.
        """
        out: List[Dict] = []
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60.0)
        try:
            for lo in range(0, len(bodies), WARM_CHUNK):
                ids = []
                for body in bodies[lo:lo + WARM_CHUNK]:
                    conn.request("POST", "/plan?wait=0", body=body,
                                 headers={"Content-Type": "application/json"})
                    response = conn.getresponse()
                    reply = json.loads(response.read())
                    if response.status != 202:
                        raise TierError(f"async submit refused: {response.status} {reply}")
                    ids.append(reply["id"])
                for request_id in ids:
                    while True:
                        conn.request("GET", f"/result/{request_id}")
                        response = conn.getresponse()
                        reply = json.loads(response.read())
                        if response.status != 202:
                            break
                        time.sleep(0.01)
                    if response.status != 200:
                        raise TierError(f"warm-up plan failed: {response.status} {reply}")
                    out.append(reply)
        finally:
            conn.close()
        return out

    # ------------------------------------------------------------ observe

    def processes(self) -> List[int]:
        """Front end, its pool workers, and the shard."""
        pids = []
        if self.frontend is not None:
            pids.append(self.frontend.pid)
            pids.extend(_children(self.frontend.pid))
        if self.shard is not None:
            pids.append(self.shard.pid)
        return pids

    def peak_rss_mb(self) -> float:
        return sum(peak_rss_mb(pid) for pid in self.processes())

    def journal_bytes(self) -> int:
        if not self.journal_dir.exists():
            return 0
        return sum(p.stat().st_size for p in self.journal_dir.iterdir())

    # --------------------------------------------------------------- stop

    def stop(self) -> None:
        """SIGTERM drain, then confirm every started process has ended."""
        leftovers = []
        if self.frontend is not None:
            workers = _children(self.frontend.pid)
            self._terminate(self.frontend)
            deadline = time.monotonic() + STOP_TIMEOUT_S
            while any(_alive(p) for p in workers) and time.monotonic() < deadline:
                time.sleep(0.02)
            for pid in workers:
                if _alive(pid):
                    leftovers.append(pid)
                    os.kill(pid, signal.SIGKILL)
        if self.shard is not None:
            self._terminate(self.shard)
        self.frontend = self.shard = None
        if leftovers:
            raise TierError(f"worker processes outlived the front end: {leftovers}")

    @staticmethod
    def _terminate(proc: subprocess.Popen) -> None:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
