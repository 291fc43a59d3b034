"""Durable job journal: an append-only write-ahead log for the service.

Every request the service accepts is recorded *before* it is worked on, so
a crash — a kill -9, an OOM kill, a power cut — loses at most in-memory
state, never accepted work.  The journal is deliberately boring: one JSONL
record per line, each stamped with a CRC32 of its canonical JSON, written
to numbered segment files that rotate by size.  Recovery reads the
segments back, truncates at the first torn record (write-ahead semantics:
nothing after a tear is trusted), and rebuilds the set of admitted jobs
that never reached a terminal status.

Record kinds:

* ``admit`` — a request was accepted; carries the full wire payload
  (:func:`repro.net.wire.request_to_wire`) plus the request hash, so the
  job can be rebuilt and deduplicated after a crash.
* ``dispatch`` — the request was handed to the execution layer.  A
  dispatch with no matching terminal record before the journal ends is an
  *interrupted* dispatch; a request hash that accumulates too many of
  them across restarts is quarantined (it keeps killing the process).
* ``done`` / ``cancel`` — the job reached a terminal status.  Any
  terminal status counts: ``degraded`` and ``cancelled`` results are
  settled outcomes and are never resurrected by recovery.
* ``startup`` — written by :meth:`JobJournal.start_epoch` when a process
  (re)opens the journal; an epoch boundary for interrupted-dispatch
  accounting.
* ``clean_shutdown`` — the drain path finished with nothing in flight;
  recovery after this marker replays nothing.

Durability policy (``fsync``): ``"always"`` fsyncs every append (maximum
durability, slowest), ``"batch"`` (the default) fsyncs when the caller
invokes :meth:`sync` — the service calls it once per loop turn, before
it releases any response settled in that turn, so loss is bounded to one
turn's records and never covers a result a caller has seen — and ``"off"`` leaves flushing to the
OS.  With no journal configured the service pays a single ``is not None``
check per hook, mirroring the fault-injection zero-overhead contract.

The ``journal.append`` fault site fires before each record is written:
``crash`` simulates kill -9 mid-append (the recovery harness's bread and
butter), ``drop`` loses the record, ``corrupt`` writes a torn half-line.
"""

from __future__ import annotations

import json
import os
import pathlib
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs import bump

__all__ = [
    "JOURNAL_SCHEMA",
    "JobJournal",
    "ReplayState",
    "TERMINAL_KINDS",
    "scan_journal",
]

#: Version stamp carried by every record so a newer reader can reject or
#: upgrade an older journal instead of mis-parsing it.
JOURNAL_SCHEMA = 1

#: Record kinds that settle a request (recovery replays nothing for them).
TERMINAL_KINDS = ("done", "cancel")

#: Segment file name pattern: ``segment-000001.jsonl``.
_SEGMENT_FMT = "segment-{:06d}.jsonl"
_SEGMENT_PREFIX = "segment-"

#: Interrupted dispatches (same request hash, across restarts) after which
#: recovery quarantines the job instead of replaying it again — the
#: journal-level analogue of the pool's poison threshold.
DEFAULT_QUARANTINE_THRESHOLD = 2


def _canonical(payload: Dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _stamp(record: Dict) -> str:
    """Serialise ``record`` with a CRC32 over its canonical payload."""
    body = _canonical(record)
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    return _canonical({**record, "crc": crc})


def _verify(line: str) -> Optional[Dict]:
    """Decode one journal line; ``None`` when torn/corrupt/mis-stamped."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(record, dict):
        return None
    crc = record.pop("crc", None)
    if crc is None:
        return None
    expected = zlib.crc32(_canonical(record).encode("utf-8")) & 0xFFFFFFFF
    if crc != expected:
        return None
    return record


@dataclass
class ReplayState:
    """What recovery learned from scanning the journal.

    Attributes:
        pending: admit records (in admission order) with no terminal
            record — the jobs a crash lost; recovery re-enqueues them.
        quarantined: admit records whose request hash crossed the
            interrupted-dispatch threshold — recovery dead-letters them
            with a terminal ``"poison"`` instead of replaying a job that
            keeps killing the process.
        interrupted: interrupted-dispatch count per request hash.
        records: total verified records scanned.
        torn: a torn/corrupt tail record was found and truncated.
        clean: the journal ends in a ``clean_shutdown`` epoch (nothing to
            replay, by construction).
    """

    pending: List[Dict] = field(default_factory=list)
    quarantined: List[Dict] = field(default_factory=list)
    interrupted: Dict[str, int] = field(default_factory=dict)
    records: int = 0
    torn: bool = False
    clean: bool = False


def _segment_paths(directory: pathlib.Path) -> List[pathlib.Path]:
    return sorted(
        p for p in directory.glob(_SEGMENT_PREFIX + "*.jsonl") if p.is_file()
    )


def scan_journal(directory) -> Tuple[List[Dict], bool]:
    """Read every record back, truncating at the first torn line.

    Returns ``(records, torn)``.  Write-ahead semantics: a record that
    fails its CRC (or fails to parse) marks the end of trustworthy
    history — everything after it is discarded, even in later segments,
    because ordering across the tear can no longer be established.
    """
    records: List[Dict] = []
    directory = pathlib.Path(directory)
    if not directory.is_dir():
        return records, False
    for path in _segment_paths(directory):
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                record = _verify(line)
                if record is None:
                    return records, True
                records.append(record)
    return records, False


def replay_state(
    records: List[Dict],
    torn: bool = False,
    quarantine_threshold: int = DEFAULT_QUARANTINE_THRESHOLD,
) -> ReplayState:
    """Fold scanned records into the recovery work list.

    Admitted requests stay pending until a terminal record or a
    ``clean_shutdown`` marker; ``startup`` markers bound the epochs used
    to count interrupted dispatches (a dispatch whose terminal record
    never arrived before the process died).
    """
    state = ReplayState(torn=torn)
    admits: "Dict[str, Dict]" = {}
    open_dispatch: Dict[str, str] = {}  # request_id -> request hash

    def _close_epoch() -> None:
        for rhash in open_dispatch.values():
            state.interrupted[rhash] = state.interrupted.get(rhash, 0) + 1
        open_dispatch.clear()

    for record in records:
        state.records += 1
        kind = record.get("kind")
        rid = str(record.get("request_id", ""))
        if kind == "admit":
            admits[rid] = record
            state.clean = False
        elif kind == "dispatch":
            admit = admits.get(rid)
            if admit is not None:
                open_dispatch[rid] = str(admit.get("rhash", rid))
            state.clean = False
        elif kind in TERMINAL_KINDS:
            admits.pop(rid, None)
            open_dispatch.pop(rid, None)
            state.clean = False
        elif kind == "startup":
            _close_epoch()
        elif kind == "clean_shutdown":
            _close_epoch()
            admits.clear()
            state.clean = True
    # The journal simply ends here: if it did not end cleanly, every
    # still-open dispatch was interrupted by the crash being recovered.
    if not state.clean:
        _close_epoch()
    for record in admits.values():
        rhash = str(record.get("rhash", record.get("request_id", "")))
        if state.interrupted.get(rhash, 0) >= quarantine_threshold:
            state.quarantined.append(record)
        else:
            state.pending.append(record)
    return state


class JobJournal:
    """Append-only, CRC-stamped, segment-rotated JSONL write-ahead log.

    Args:
        directory: where segments live (created if missing).
        fsync: ``"always"`` | ``"batch"`` | ``"off"`` (see module doc).
        segment_bytes: rotate to a fresh segment once the current one
            grows past this size.
        quarantine_threshold: interrupted-dispatch count after which
            recovery quarantines a request hash.
    """

    def __init__(
        self,
        directory,
        fsync: str = "batch",
        segment_bytes: int = 4 * 1024 * 1024,
        quarantine_threshold: int = DEFAULT_QUARANTINE_THRESHOLD,
    ) -> None:
        if fsync not in ("always", "batch", "off"):
            raise ValueError("fsync must be 'always', 'batch', or 'off'")
        if segment_bytes < 1:
            raise ValueError("segment_bytes must be >= 1")
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.segment_bytes = segment_bytes
        self.quarantine_threshold = quarantine_threshold
        self.appended = 0
        self._seq = 0
        self._dirty = False
        self._fh = None
        existing = _segment_paths(self.directory)
        self._segment_index = (
            int(existing[-1].name[len(_SEGMENT_PREFIX):-len(".jsonl")])
            if existing else 1
        )

    # ------------------------------------------------------------- plumbing

    @property
    def segment_path(self) -> pathlib.Path:
        return self.directory / _SEGMENT_FMT.format(self._segment_index)

    def _file(self):
        if self._fh is None:
            self._fh = open(self.segment_path, "a", encoding="utf-8")
        return self._fh

    def _rotate_if_needed(self) -> None:
        if self._fh is None:
            return
        if self._fh.tell() < self.segment_bytes:
            return
        self._sync_file()
        self._fh.close()
        self._fh = None
        self._segment_index += 1

    def _sync_file(self) -> None:
        if self._fh is None or not self._dirty:
            return
        self._fh.flush()
        if self.fsync != "off":
            os.fsync(self._fh.fileno())
        self._dirty = False

    def sync(self) -> None:
        """Flush (and fsync, unless ``fsync="off"``) buffered appends."""
        self._sync_file()

    def close(self) -> None:
        if self._fh is not None:
            self._sync_file()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -------------------------------------------------------------- writing

    def append(self, kind: str, **fields) -> None:
        """Stamp and append one record (the one write path).

        The ``journal.append`` fault site fires first: ``crash`` kills the
        process before the write lands (kill -9 mid-append), ``drop``
        loses the record silently, ``corrupt`` writes a torn half-line —
        exactly the failure shapes :func:`scan_journal` must absorb.
        """
        from repro.faults import get_injector

        self._seq += 1
        record = {"schema": JOURNAL_SCHEMA, "seq": self._seq, "kind": kind}
        record.update(fields)
        line = _stamp(record) + "\n"
        injector = get_injector()
        if injector is not None:
            fired = injector.fire("journal.append", detail=kind)
            if fired == "drop":
                return
            if fired == "corrupt":
                line = line[: max(1, len(line) // 2)]
        fh = self._file()
        fh.write(line)
        self._dirty = True
        self.appended += 1
        bump("repro_journal_records_total",
             help="Journal records appended by kind", kind=kind)
        if self.fsync == "always":
            self._sync_file()
        self._rotate_if_needed()

    def record_admit(self, request) -> None:
        """Journal an accepted request (wire payload + request hash)."""
        from repro.net.wire import request_to_wire

        self.append(
            "admit",
            request_id=request.request_id,
            rhash=request.cache_key(),
            request=request_to_wire(request),
        )

    def record_dispatch(self, request_id: str) -> None:
        self.append("dispatch", request_id=request_id)

    def record_done(self, request_id: str, status: str) -> None:
        kind = "cancel" if status == "cancelled" else "done"
        self.append(kind, request_id=request_id, status=status)

    def start_epoch(self, **fields) -> None:
        """Mark a process (re)start; closes the interrupted-dispatch epoch."""
        self.append("startup", **fields)
        self.sync()

    def mark_clean_shutdown(self) -> None:
        """Journal the drained-clean marker (recovery then replays nothing)."""
        self.append("clean_shutdown")
        self.sync()

    # ------------------------------------------------------------- recovery

    def scan(self) -> Tuple[List[Dict], bool]:
        """Read history back (see :func:`scan_journal`)."""
        return scan_journal(self.directory)

    def repair(self) -> bool:
        """Truncate the torn tail so new appends extend trusted history.

        Without this, a reopened journal would append *after* the torn
        bytes and :func:`scan_journal` — which stops at the first bad
        line — would discard every post-recovery record forever (and a
        half-line without a newline would even swallow the next append
        into itself).  Truncating at the tear is the standard WAL move:
        the damaged suffix was never trusted, so removing it loses
        nothing that recovery would have used.  Later segments are
        deleted outright (ordering across the tear is unprovable).
        Returns True when something was repaired.
        """
        paths = _segment_paths(self.directory)
        for index, path in enumerate(paths):
            offset = 0
            bad_at: Optional[int] = None
            with open(path, "rb") as fh:
                for raw in fh:
                    text = raw.decode("utf-8", "replace").strip()
                    if text and _verify(text) is None:
                        bad_at = offset
                        break
                    offset += len(raw)
            if bad_at is None:
                continue
            self.close()
            with open(path, "r+b") as fh:
                fh.truncate(bad_at)
            for later in paths[index + 1:]:
                later.unlink()
            self._segment_index = int(
                path.name[len(_SEGMENT_PREFIX):-len(".jsonl")]
            )
            return True
        return False

    def recover_state(self) -> ReplayState:
        """Scan + fold: the work list recovery executes.

        A torn tail is repaired (truncated) as a side effect, so the
        records this epoch appends land on trustworthy history.
        """
        records, torn = self.scan()
        if torn:
            self.repair()
        return replay_state(
            records, torn=torn,
            quarantine_threshold=self.quarantine_threshold,
        )

    def stats(self) -> Dict[str, object]:
        return {
            "directory": str(self.directory),
            "segments": len(_segment_paths(self.directory)),
            "appended": self.appended,
            "fsync": self.fsync,
        }
