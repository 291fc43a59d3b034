"""Per-layer metrics and the self-time table of a traced run.

Input is what the program's ``repro.obs`` tracer recorded in the traced
window — span dicts, stamped with their thread by ``tracing.py`` — and an
obs registry snapshot.  Output is every per-layer metric that
``BENCHMARK.json`` lists under ``per_layer`` (the same names on every
workload; a layer a workload does not reach reads 0) and a table that
splits the mean operation — a plan on ``plan-arm``, a request on the HTTP
workloads — into each layer's self time, with whatever no span covers in
its own ``unattributed`` row.
"""

from __future__ import annotations

import bisect
import json
import pathlib
import statistics
from collections import defaultdict
from typing import Dict, List, Tuple

from tracing import nest

BENCHMARK = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"

PHASES = ("sample", "nearest", "repair", "steer", "collision", "rewire")

#: Rows of the self-time table, in blocking order from client to kernel.
ROWS = ("gen.lag", "client", "net", "net.engine_wait", "service.runner",
        "service.journal", "service.pool", "core", "spatial",
        "core.collision", "kernels", "unattributed")

#: Table row of each span name.  Every other span — the worker's ``job``,
#: the planner's ``plan``, ``wave`` and phase spans, ``core.plan`` — is
#: ``core``.
ROW_OF = {
    "kernels": "kernels", "collision.edge": "core.collision",
    "spatial.nearest": "spatial", "spatial.neighborhood": "spatial",
    "service.batch": "service.runner", "cache.get": "service.runner",
    "cache.put": "service.runner", "journal.append": "service.journal",
    "journal.sync": "service.journal", "pool.run": "service.pool",
    "pool.restart": "service.pool", "shard.rpc": "net",
    "net.parse": "net", "net.encode": "net",
}

_EMPTY = (0, 0.0, 0.0, 0)


def per_layer_units() -> Dict[str, str]:
    """Name -> unit of every per-layer metric, as ``BENCHMARK.json`` lists them."""
    with open(BENCHMARK, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def median(values) -> float:
    """Median, 0 for no values."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def mean(values) -> float:
    """Mean, 0 for no values."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pct(values, q: float) -> float:
    """``q``-th percentile (linear interpolation), 0 for no values."""
    from repro.obs.stats import percentile

    out = percentile(list(values), q)
    return 0.0 if out is None else out


def aggregate(spans, self_s, parent, keep=None) -> Dict[str, List[float]]:
    """Span name -> [calls, total_s, self_s, edges] over the spans ``keep``
    accepts (all by default).

    A span nested in a span of the same name (``spatial.nearest`` of the
    strategy around the SI-MBR tree's) adds its self time, not a call.
    """
    out: Dict[str, List[float]] = {}
    for i, span in enumerate(spans):
        if keep is not None and not keep(span):
            continue
        entry = out.setdefault(span["name"], [0, 0.0, 0.0, 0])
        entry[2] += self_s[i]
        p = parent[i]
        if p is None or spans[p]["name"] != span["name"]:
            entry[0] += 1
            entry[1] += span["dur"]
            entry[3] += span["args"].get("edges", 0)
    return out


def counters(snapshot) -> Dict[Tuple[str, Tuple], float]:
    """(metric, sorted labels) -> value of every counter in a registry snapshot."""
    out: Dict[Tuple[str, Tuple], float] = defaultdict(float)
    for metric in (snapshot or {}).get("metrics", []):
        if metric["type"] != "counter":
            continue
        for series in metric["series"]:
            key = (metric["name"], tuple(sorted(series["labels"].items())))
            out[key] += series["value"]
    return out


def _counter(reg, name: str, **labels) -> float:
    want = set(labels.items())
    return sum(v for (n, lab), v in reg.items()
               if n == name and want <= set(lab))


def planner_metrics(agg, reg) -> Dict[str, float]:
    """kernels, core.collision, spatial and planner-phase metrics."""
    kern = agg.get("kernels", _EMPTY)
    edge = agg.get("collision.edge", _EMPTY)
    near = agg.get("spatial.nearest", _EMPTY)
    hood = agg.get("spatial.neighborhood", _EMPTY)

    def hit_ratio(cache: str) -> float:
        hits = _counter(reg, "repro_cache_events_total", cache=cache, event="hit")
        miss = _counter(reg, "repro_cache_events_total", cache=cache, event="miss")
        return _ratio(hits, hits + miss)

    out = {
        "kernels.calls": kern[0], "kernels.s": kern[1],
        "collision.edges": edge[3], "collision.edge_s": edge[1],
        "collision.us_per_edge": 1e6 * _ratio(edge[1], edge[3]),
        "collision.macs": _counter(reg, "repro_macs_total",
                                   category="collision_check"),
        "collision.edge_cache.hit_ratio": hit_ratio("edge"),
        "nearest.calls": near[0], "nearest.s": near[1],
        "nearest.us_per_call": 1e6 * _ratio(near[1], near[0]),
        "neighborhood.calls": hood[0], "neighborhood.s": hood[1],
        "neighborhood_cache.hit_ratio": hit_ratio("neighborhood"),
    }
    for phase in PHASES:
        out[f"phase.{phase}.s"] = _counter(reg, "repro_phase_seconds_total",
                                           phase=phase)
        out[f"phase.{phase}.macs"] = _counter(reg, "repro_phase_macs_total",
                                              phase=phase)
    return out


def _finish(metrics: Dict[str, float], rows: Dict[str, List[float]],
            title: str, ops: int) -> Dict:
    """Complete the metric set and render the self-time table."""
    for row in ROWS:
        metrics[f"self_ms.{row}"] = mean(rows.get(row, []))
    units = per_layer_units()
    unlisted = set(metrics) - set(units)
    if unlisted:
        raise KeyError(f"per-layer metrics missing from BENCHMARK.json: "
                       f"{sorted(unlisted)}")
    out = {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
           for name, unit in units.items()}
    total = sum(mean(rows.get(row, [])) for row in ROWS)
    table = [f"# {title}: self time per operation over {ops} operations "
             f"(mean {total:.3f} ms)",
             f"# {'layer':<18} {'mean_ms':>10} {'median_ms':>10} "
             f"{'median_op_ms':>12} {'share':>7}"]
    order = rows.get("_order", [])
    pick = order[len(order) // 2] if order else None
    for row in ROWS:
        values = rows.get(row, [])
        at_median = f"{values[pick]:.3f}" if pick is not None and values else "-"
        table.append(
            f"# {row:<18} {mean(values):>10.3f} {median(values):>10.3f} "
            f"{at_median:>12} {_ratio(mean(values), total):>7.1%}")
    return {"metrics": out, "table": table}


# ---------------------------------------------------------------- plan-arm


def plan_arm_layers(spans, registry, outcome, base, results) -> Dict:
    """Per-layer metrics of one traced plan-arm window (in-process spans)."""
    from repro.core.metrics import wave_occupancy

    self_s, parent = nest(spans)
    agg = aggregate(spans, self_s, parent)
    metrics = planner_metrics(agg, counters(registry))
    rounds = [r for *_, plan_rounds, _ in results for r in plan_rounds]
    metrics["wave.occupancy"] = wave_occupancy(rounds) or 0.0
    metrics["wave.repair_frac"] = _ratio(sum(1 for r in rounds if r.repaired),
                                         len(rounds))
    metrics["trace.overhead_frac"] = _ratio(
        median(outcome.latency_ms), median(base.latency_ms)) - 1.0
    plans = max(1, len(results))
    # Mean self time per plan; what the plan's wall time holds beyond the
    # core.plan span (the wrapper and the timing around it) is left over.
    per_row: Dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_s):
        per_row[ROW_OF.get(span["name"], "core")] += own
    rows = {row: [1e3 * total / plans] for row, total in per_row.items()}
    wall_ms = sum(elapsed_ms for *_, elapsed_ms in results)
    rows["unattributed"] = [(wall_ms - 1e3 * agg.get("core.plan", _EMPTY)[1])
                            / plans]
    return _finish(metrics, rows, "plan-arm", plans)


# -------------------------------------------------------------------- http


def http_layers(dump, records, outcome, base, journal_bytes: int) -> Dict:
    """Per-layer metrics of one traced HTTP window.

    ``dump`` is the front end's tracer and registry (``tracing.dump``);
    its spans include each pool job's spans, absorbed from the worker.
    """
    from tier import WORKERS

    spans, front = dump["spans"], dump["pid"]
    reg = counters(dump["registry"])
    self_s, parent = nest(spans)
    agg = aggregate(spans, self_s, parent)
    # The planner layers as the pool jobs saw them; spec expansion in the
    # front end's parse also calls kernels, but that counts as net.
    metrics = planner_metrics(
        aggregate(spans, self_s, parent, keep=lambda span: span["pid"] != front),
        reg)

    def batch_of(i):
        while i is not None and spans[i]["name"] != "service.batch":
            i = parent[i]
        return i

    # Request-level join.  A request's micro-batch is the one that journals
    # its admit record; each request of a batch waits for all of it.
    by_req: Dict[str, Dict[str, int]] = defaultdict(dict)
    jobs: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    parts: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    runs, pool_jobs = [], []
    for i, span in enumerate(spans):
        name, args = span["name"], span["args"]
        rid = args.get("request_id")
        if span["pid"] != front:   # absorbed from a pool worker
            if name == "job":
                jobs[rid]["dur"] = span["dur"]
            jobs[rid][ROW_OF.get(name, "core")] += self_s[i]
            continue
        if name == "service.job":
            pool_jobs.append(span)
        elif name == "pool.run":
            runs.append(span["ts"])
        elif name in ("net.parse", "net.encode", "net.route"):
            by_req[rid][name] = i
        elif name == "journal.append" and args.get("kind") == "admit":
            by_req[rid]["batch"] = batch_of(i)
        b = batch_of(i)
        if b is not None:
            parts[b][ROW_OF.get(name, "core")] += self_s[i]

    rows: Dict[str, List[float]] = defaultdict(list)
    parse, encode, wait, server, gap, latency, overhead = [], [], [], [], [], [], []
    for rec in records:
        if rec.error is not None or rec.status != 200:
            continue
        rid = json.loads(rec.body).get("request_id")
        ev = by_req.get(rid, {})
        if ev.get("batch") is None or "net.route" not in ev or "net.parse" not in ev:
            continue
        b, p, route = spans[ev["batch"]], spans[ev["net.parse"]], spans[ev["net.route"]]
        e = spans[ev["net.encode"]]["dur"] if "net.encode" in ev else 0.0
        part, job = parts[ev["batch"]], jobs.get(rid, {})
        w = b["ts"] - (p["ts"] + p["dur"])
        lat = rec.done - rec.due
        client_gap = (rec.done - rec.sent) - route["dur"]
        values = {
            "gen.lag": rec.sent - rec.due,
            "client": client_gap,
            "net": p["dur"] + e + part["net"],
            "net.engine_wait": w,
            "service.runner": part["service.runner"],
            "service.journal": part["service.journal"],
            "service.pool": part["service.pool"] - job.get("dur", 0.0),
            **{row: job.get(row, 0.0)
               for row in ("core", "spatial", "core.collision", "kernels")},
        }
        values["unattributed"] = lat - sum(values.values())
        for row, value in values.items():
            rows[row].append(1e3 * value)
        latency.append(lat)
        parse.append(p["dur"])
        encode.append(e)
        wait.append(w)
        server.append(route["dur"])
        gap.append(client_gap)
    rows["_order"] = sorted(range(len(latency)), key=latency.__getitem__)

    # Pool: queue time runs from the supervisor's run to the job's dispatch.
    starts = sorted(runs)
    queue, job_ms = [], []
    for job in pool_jobs:
        k = bisect.bisect_right(starts, job["ts"]) - 1
        if k >= 0:
            queue.append(1e3 * (job["ts"] - starts[k]))
        job_ms.append(1e3 * job["dur"])
        planned = jobs.get(job["args"].get("request_id"), {}).get("dur")
        if planned is not None:
            overhead.append(1e3 * (job["dur"] - planned))

    batches = [s for s in spans if s["name"] == "service.batch"]
    gets = [s for s in spans if s["name"] == "cache.get"]
    admits = sum(1 for s in spans if s["name"] == "journal.append"
                 and s["args"].get("kind") == "admit")
    served = max(1, len(latency))
    metrics.update({
        "pool.queue_ms": median(queue),
        "pool.job_ms": median(job_ms),
        "pool.plan_ms": median(1e3 * job["dur"] for job in jobs.values()
                               if "dur" in job),
        "pool.overhead_ms": median(overhead),
        "pool.busy_frac": _ratio(sum(job_ms) / 1e3, WORKERS * outcome.window_s),
        "pool.retries": _counter(reg, "repro_service_faults_total", event="retries"),
        "pool.restarts": agg.get("pool.restart", _EMPTY)[0],
        "pool.timeouts": _counter(reg, "repro_service_faults_total", event="timeouts"),
        "service.batch_s": mean(s["dur"] for s in batches),
        "service.batch_size": mean(s["args"].get("requests", 0) for s in batches),
        "cache.get_ms": 1e3 * mean(s["dur"] for s in gets),
        "cache.put_ms": 1e3 * _ratio(agg.get("cache.put", _EMPTY)[1],
                                     agg.get("cache.put", _EMPTY)[0]),
        "cache.hit_ratio": _ratio(sum(1 for s in gets if s["args"].get("hit")),
                                  len(gets)),
        "cache.coalesced": admits - len(gets),
        "journal.appends": agg.get("journal.append", _EMPTY)[0],
        "journal.append_us": 1e6 * _ratio(agg.get("journal.append", _EMPTY)[1],
                                          agg.get("journal.append", _EMPTY)[0]),
        "journal.bytes": journal_bytes / served,
        "journal.sync_ms": 1e3 * _ratio(agg.get("journal.sync", _EMPTY)[1],
                                        agg.get("journal.sync", _EMPTY)[0]),
        "net.parse_ms": 1e3 * median(parse),
        "net.encode_ms": 1e3 * median(encode),
        "net.engine_wait_ms": 1e3 * median(wait),
        "net.server_ms": 1e3 * median(server),
        "net.client_gap_ms": 1e3 * median(gap),
        "net.shed": outcome.causes.get("http_429", 0),
        "shard.rpc_ms": 1e3 * _ratio(agg.get("shard.rpc", _EMPTY)[1],
                                     agg.get("shard.rpc", _EMPTY)[0]),
        "shard.errors": _counter(reg, "repro_net_shard_errors_total"),
        "gen.lag_ms.p95": pct(outcome.lag_ms, 95),
        "trace.overhead_frac": _ratio(median(outcome.latency_ms),
                                      median(base.latency_ms)) - 1.0,
    })
    return _finish(metrics, rows, outcome.workload, len(latency))
