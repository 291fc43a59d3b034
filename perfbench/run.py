"""MOPED serving-stack benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload plan-arm --seed 1 --seconds 40 --trace 0

Workloads (see ``perfbench/README.md``; ``BENCHMARK.json`` gates the first
two):

* ``plan-arm``  — ``MopedEngine.plan_task`` back to back in this process.
* ``http-cold`` — a fresh shard + front-end tier, closed-loop traffic of
  distinct tasks over 2 connections (every request misses the plan cache).
* ``http-hot``  — the same tier after planning 64 specs in set-up; every
  timed request is a cache hit.

Every returned path is re-checked with the scalar reference checker after
the timed window.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run (preceded by a self-time table).  The exit code is 0 only when every
returned path is valid; with ``--trace 1`` that covers both halves.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from layers import mean, median, pct  # noqa: E402  (after the path set-up)

WORKLOADS = ("plan-arm", "http-cold", "http-hot")

#: Latency limits of ``slo_frac``: the share of attempted operations served
#: valid within the limit.
SLO_MS = {"plan-arm": 2000.0, "http-cold": 500.0, "http-hot": 50.0}
#: ``latency_ms.tail`` percentile: a high one with at least ten samples
#: beyond it at the workload's operation count per run.  http-cold could
#: support p95, but its p95 followed the host's steal time too closely.
TAIL_Q = {"plan-arm": 90.0, "http-cold": 90.0, "http-hot": 99.0}
#: Set-up is repeated this many times per run and its median reported;
#: the first ``SETUP_BEFORE`` before the timed window, the rest after it.
SETUP_REPEATS = 5
SETUP_BEFORE = 3
#: Seconds of untimed hit traffic between http-hot's warm-up and its window.
SETTLE_S = 5.0
#: Client connections of the HTTP workloads (capped at ``nproc``).
CONNECTIONS = 2


# ---------------------------------------------------------------- helpers


def cpu_ticks() -> List[int]:
    """Whole-host CPU time counters from ``/proc/stat`` (user .. steal)."""
    with open("/proc/stat") as fh:
        return [int(v) for v in fh.readline().split()[1:9]]


def self_rss_mb() -> float:
    from tier import peak_rss_mb

    return peak_rss_mb(os.getpid())


class Outcome:
    """Per-operation outcomes of one timed window."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.latency_ms: List[float] = []   # of valid operations
        self.lag_ms: List[float] = []
        self.stretch: List[float] = []       # cost / straight-line distance
        self.attempted = 0
        self.failed = 0
        self.invalid = 0
        self.solved = 0
        self.within_slo = 0
        self.causes: Dict[str, int] = {}
        self.window_s = 0.0
        self.setup_s = 0.0
        self.rss_mb = 0.0
        self.ticks: List[int] = []

    def fail(self, cause: str) -> None:
        self.failed += 1
        self.causes[cause] = self.causes.get(cause, 0) + 1

    def ok(self, latency_ms: float, stretch: Optional[float]) -> None:
        """A valid operation; ``stretch`` is set when it returned a path."""
        self.latency_ms.append(latency_ms)
        if latency_ms <= SLO_MS[self.workload]:
            self.within_slo += 1
        if stretch is not None:
            self.solved += 1
            self.stretch.append(stretch)

    def end_to_end(self) -> Dict[str, Dict]:
        attempted = max(1, self.attempted)
        valid = self.attempted - self.failed
        values = {
            "setup_s": (self.setup_s, "s"),
            "rss_mb": (self.rss_mb, "MB"),
            "latency_ms.p50": (pct(self.latency_ms, 50), "ms"),
            "latency_ms.tail": (pct(self.latency_ms, TAIL_Q[self.workload]), "ms"),
            "success_rate": (self.solved / attempted, "fraction"),
            "path_stretch": (mean(self.stretch), "ratio"),
            "slo_frac": (self.within_slo / attempted, "fraction"),
            "ok_frac": (valid / attempted, "fraction"),
        }
        return {name: {"value": value, "unit": unit}
                for name, (value, unit) in values.items()}

    def goodput_rps(self) -> float:
        """Operations that did not fail, per second of the window.

        Printed, not gated: in both closed loops it is the number of
        callers over the mean latency, so the latency gate already covers
        it.
        """
        valid = self.attempted - self.failed
        return valid / self.window_s if self.window_s else 0.0

    def host_line(self) -> str:
        """Host CPU shares over the window; steal is time the hypervisor
        gave this machine's CPUs to someone else."""
        if len(self.ticks) != 16:
            return "# host: n/a"
        delta = [b - a for a, b in zip(self.ticks[:8], self.ticks[8:])]
        total = max(1, sum(delta))
        names = ("user", "nice", "system", "idle", "iowait", "irq", "softirq", "steal")
        return "# host: " + " ".join(f"{n}={100 * d / total:.1f}%"
                                     for n, d in zip(names, delta) if n != "nice")

    def summary_lines(self) -> List[str]:
        return [
            self.host_line(),
            f"# {self.workload}: attempted={self.attempted} failed={self.failed} "
            f"invalid_paths={self.invalid} solved={self.solved} "
            f"window_s={self.window_s:.2f} causes={self.causes}",
            f"# failed_frac={self.failed / max(1, self.attempted):.4f} "
            f"goodput_rps={self.goodput_rps():.4g} "
            f"tail=p{TAIL_Q[self.workload]:g} samples={len(self.latency_ms)}",
        ]


# --------------------------------------------------------------- plan-arm


def _arm_window(seed: int, seconds: float, outcome: Outcome, results: list,
                keep_rounds: bool = False) -> None:
    """Plan back to back until ``seconds`` have passed.

    A plan's time covers building its engine and planning.  Only what
    validation (and, traced, the wave metrics) needs is kept of each result,
    so memory does not grow with the number of plans a run gets through.
    """
    from repro.core.moped import MopedEngine
    from repro.errors import PlanningError
    import workloads

    outcome.ticks = cpu_ticks()
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < seconds:
        task, args, kwargs = workloads.arm_task(seed, index)
        index += 1
        outcome.attempted += 1
        t0 = time.perf_counter()
        try:
            engine = MopedEngine(*args, **kwargs)
            result = engine.plan_task(task)
        except (PlanningError, ValueError, RuntimeError) as exc:
            outcome.fail(f"planner:{type(exc).__name__}")
            continue
        elapsed_ms = 1e3 * (time.perf_counter() - t0)
        results.append((task, engine.config, result.success, result.path,
                        float(result.path_cost),
                        result.rounds if keep_rounds else None, elapsed_ms))
    outcome.window_s = time.perf_counter() - start
    outcome.ticks += cpu_ticks()


def stretch(task, cost: float) -> float:
    """Path cost over the start-goal distance, comparable across tasks."""
    import numpy as np

    return cost / float(np.linalg.norm(task.goal - task.start))


def _arm_validate(outcome: Outcome, results: list) -> None:
    from validate import PathChecker

    checker = PathChecker()
    for task, config, success, path, cost, _, elapsed_ms in results:
        ratio = None
        if success:
            reason = checker.check(task, config, path, cost)
            if reason is not None:
                outcome.invalid += 1
                outcome.fail("invalid_path")
                print(f"# invalid path (task {task.task_id}): {reason}")
                continue
            ratio = stretch(task, cost)
        outcome.ok(elapsed_ms, ratio)


def _cold_start(seed: int) -> float:
    """Seconds from launching a fresh planner process to its first plan."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "coldstart.py"), str(seed)],
                            cwd=str(ROOT), stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL)
    ready = False
    try:
        ready = proc.stdout.readline().strip() == b"READY"
        elapsed = time.perf_counter() - t0
    finally:
        if not ready:
            proc.kill()
        proc.stdout.close()
        proc.wait()
    if not ready or proc.returncode != 0:
        raise RuntimeError(f"cold-start planner failed (exit {proc.returncode})")
    return elapsed


def run_plan_arm(seed: int, seconds: float, trace: bool):
    from repro.core.moped import MopedEngine
    import workloads

    # Untimed warm-up plan: the first plan in a process is slower.
    task, args, kwargs = workloads.arm_task(seed, -1)
    MopedEngine(*args, **kwargs).plan_task(task)

    if not trace:
        # Set-up is a fresh process's import, engine build and first plan,
        # repeated before and after the window so the median spans the run.
        setups = [_cold_start(seed) for _ in range(SETUP_BEFORE)]
        outcome, results = Outcome("plan-arm"), []
        _arm_window(seed, seconds, outcome, results)
        outcome.rss_mb = self_rss_mb()
        setups += [_cold_start(seed) for _ in range(SETUP_REPEATS - SETUP_BEFORE)]
        outcome.setup_s = median(setups)
        _arm_validate(outcome, results)
        return [outcome], outcome.end_to_end(), None

    from repro import obs
    import layers
    import tracing

    # Same inputs, untraced then traced: the difference is the overhead.
    base, base_results = Outcome("plan-arm"), []
    _arm_window(seed, seconds / 2, base, base_results)
    _arm_validate(base, base_results)
    tracing.install()
    obs.configure(trace=True, metrics=True)
    outcome, results = Outcome("plan-arm"), []
    _arm_window(seed, seconds / 2, outcome, results, keep_rounds=True)
    spans, registry = obs.get_tracer().drain(), obs.get_registry().to_dict()
    obs.configure(trace=False, metrics=False)
    _arm_validate(outcome, results)
    trace_report = layers.plan_arm_layers(spans, registry, outcome, base, results)
    return [base, outcome], None, trace_report


# ------------------------------------------------------------------- http


def _expand(spec: Dict, memo: Dict):
    import workloads

    key = spec["seed"]
    if key not in memo:
        memo[key] = workloads.expand_spec(spec)
    return memo[key]


def _http_validate(outcome: Outcome, records, specs, memo: Dict, checker) -> None:
    for rec in records:
        outcome.attempted += 1
        outcome.lag_ms.append(1e3 * rec.lag_s)
        if rec.error is not None:
            outcome.fail("transport")
            continue
        if not 200 <= rec.status < 300:
            outcome.fail(f"http_{rec.status}")
            continue
        try:
            body = json.loads(rec.body)
        except ValueError:
            outcome.fail("bad_body")
            continue
        if body.get("status") != "ok":
            outcome.fail(f"status_{body.get('status')}")
            continue
        ratio = None
        if body.get("success"):
            task, config, key = _expand(specs[rec.index], memo)
            reason = checker.check(task, config, body.get("path", []),
                                   body.get("path_cost"), key=key)
            if reason is not None:
                outcome.invalid += 1
                outcome.fail("invalid_path")
                print(f"# invalid path ({body.get('request_id')}): {reason}")
                continue
            ratio = stretch(task, float(body["path_cost"]))
        outcome.ok(1e3 * rec.latency_s, ratio)


def _ready_tier(workload: str, seed: int, work: pathlib.Path, trace_dir=None):
    """Boot a fresh tier and warm it; return it and the seconds that took.

    The warm-up is part of set-up: every worker plans before the window,
    and http-hot plans the specs its window will hit.
    """
    import loadgen
    import workloads
    from tier import Tier

    tier = Tier(work, trace_dir=trace_dir)
    t0 = time.perf_counter()
    try:
        tier.start()
        tier.plan_async([loadgen.encode(s) for s in workloads.warm_specs(seed, workload)])
    except BaseException:
        tier.stop()
        raise
    return tier, time.perf_counter() - t0


def _setup_s(workload: str, seed: int, work: pathlib.Path) -> float:
    """Set-up time of one more fresh tier, which is then stopped."""
    tier, setup_s = _ready_tier(workload, seed, work)
    tier.stop()
    return setup_s


def _http_window(workload: str, seed: int, seconds: float, work: pathlib.Path,
                 checker, memo: Dict, trace_dir=None, setup: bool = True):
    """Run one window on a fresh tier; return the validated outcome, the raw
    records and the journal bytes the window wrote.

    With ``setup``, ``setup_s`` is the median over :data:`SETUP_REPEATS`
    fresh tiers: the window's own and extra ones booted before and after
    it, so the median spans the run.
    """
    import loadgen
    import workloads

    setups = []
    if setup:
        setups = [_setup_s(workload, seed, work / f"before{rep}")
                  for rep in range(SETUP_BEFORE - 1)]
    tier, setup_s = _ready_tier(workload, seed, work / "tier", trace_dir=trace_dir)
    setups.append(setup_s)
    try:
        if workload == "http-hot":
            # Untimed hit traffic first: the front end's hit path keeps
            # speeding up for several seconds after the warm-up plans.
            warm = workloads.warm_specs(seed, workload)
            due, specs = workloads.hot_schedule(seed, SETTLE_S, warm, stream=1)
            loadgen.run("127.0.0.1", tier.port, due,
                        [loadgen.encode(s) for s in specs],
                        connections=CONNECTIONS)
            due, specs = workloads.hot_schedule(seed, seconds, warm)
        else:
            due, specs = None, workloads.cold_specs(seed, seconds)
        if trace_dir is not None:
            tier.frontend.send_signal(signal.SIGUSR1)   # the traced window starts here
            time.sleep(0.2)
        journal_before = tier.journal_bytes()
        ticks = cpu_ticks()
        start = time.perf_counter() + 0.05
        records = loadgen.run("127.0.0.1", tier.port, due,
                              [loadgen.encode(s) for s in specs],
                              connections=CONNECTIONS, start=start,
                              until=start + seconds)
        ticks += cpu_ticks()
        outcome = Outcome(workload)
        outcome.ticks = ticks
        outcome.window_s = max(r.done for r in records) - start
        outcome.rss_mb = tier.peak_rss_mb()
        journal_bytes = tier.journal_bytes() - journal_before
    finally:
        tier.stop()
    if setup:
        setups += [_setup_s(workload, seed, work / f"after{rep}")
                   for rep in range(SETUP_REPEATS - SETUP_BEFORE)]
    outcome.setup_s = median(setups)
    _http_validate(outcome, records, specs, memo, checker)
    return outcome, records, journal_bytes


def run_http(workload: str, seed: int, seconds: float, trace: bool,
             work: pathlib.Path):
    from validate import PathChecker

    checker, memo = PathChecker(), {}
    if not trace:
        outcome, _, _ = _http_window(workload, seed, seconds, work, checker, memo)
        return [outcome], outcome.end_to_end(), None

    import layers

    half = seconds / 2
    base, _, _ = _http_window(workload, seed, half, work / "untraced",
                              checker, memo, setup=False)
    trace_dir = work / "trace"
    trace_dir.mkdir(parents=True)
    outcome, records, journal_bytes = _http_window(
        workload, seed, half, work / "traced", checker, memo,
        trace_dir=trace_dir, setup=False)
    with open(trace_dir / "frontend.json", encoding="utf-8") as fh:
        dump = json.load(fh)
    trace_report = layers.http_layers(dump, records, outcome, base,
                                      journal_bytes)
    return [base, outcome], None, trace_report


# ------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import repro  # noqa: F401  (fails here, before any result, without the sources)

    # SIGTERM unwinds like Ctrl-C, so every tier started is torn down.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.workload == "plan-arm":
            outcomes, metrics, report = run_plan_arm(
                args.seed, args.seconds, bool(args.trace))
        else:
            outcomes, metrics, report = run_http(
                args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass   # another run is using it

    # With --trace 1 the untraced half comes first, then the traced one.
    for outcome in outcomes:
        for line in outcome.summary_lines():
            print(line)
    if report is not None:
        for line in report["table"]:
            print(line)
        metrics = report["metrics"]
    else:
        for name, entry in metrics.items():
            print(f"# {name} = {entry['value']:.6g} {entry['unit']}")
    attempted = sum(o.attempted for o in outcomes)
    correct = attempted > 0 and all(o.invalid == 0 for o in outcomes)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": sum(o.failed for o in outcomes),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
