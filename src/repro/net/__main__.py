"""Network-tier CLI: serve a front end, host a shard, or run the demo.

Usage::

    python -m repro.net serve --port 8421 --workers 4 \
        --shards 127.0.0.1:9001,127.0.0.1:9002
    python -m repro.net shard --port 9001 --capacity 2048
    python -m repro.net demo --rps 200 --duration 10
    python -m repro.net.traffic --url http://127.0.0.1:8421 ...  (harness)

``serve`` and ``shard`` print a parseable ``FRONTEND host:port`` /
``SHARD host:port`` line once bound (ephemeral ``--port 0`` supported),
which is what the demo orchestrator reads to discover the topology.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.net", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run one HTTP front-end process")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8421,
                       help="bind port (0 = ephemeral)")
    serve.add_argument("--workers", type=int, default=2,
                       help="planner worker processes (0 = inline)")
    serve.add_argument("--shards", default=None, metavar="EP[,EP...]",
                       help="cache-shard endpoints; selects the sharded "
                            "tier instead of the in-process cache")
    serve.add_argument("--cache-capacity", type=int, default=512)
    serve.add_argument("--max-queue-depth", type=int, default=64)
    serve.add_argument("--max-inflight", type=int, default=128)
    serve.add_argument("--timeout", type=float, default=30.0,
                       help="per-job wall budget handed to the pool")
    serve.add_argument("--retry-after", type=float, default=1.0,
                       help="Retry-After seconds for queue/inflight sheds")
    serve.add_argument("--breaker-threshold", type=int, default=5,
                       help="consecutive failures tripping the breaker "
                            "(0 disables edge shedding on breaker state)")
    serve.add_argument("--breaker-cooldown", type=float, default=2.0)
    serve.add_argument("--virtual-nodes", type=int, default=64)
    serve.add_argument("--replication", type=int, default=1,
                       help="copies of each entry on the shard tier "
                            "(>1 arms read failover + backfill)")
    serve.add_argument("--journal-dir", default=None, metavar="DIR",
                       help="write-ahead job journal directory; arms "
                            "crash recovery on restart")
    serve.add_argument("--drain-deadline", type=float, default=10.0,
                       help="seconds a SIGTERM drain waits for inflight "
                            "jobs before shutting down anyway")
    serve.add_argument("--metrics", action="store_true",
                       help="enable the obs metrics registry so GET "
                            "/metrics exports live counters")
    serve.add_argument("--fault-plan", default=None, metavar="SPEC",
                       help="repro.faults plan for the net.* sites, e.g. "
                            "'net.respond:drop@0.05'")
    serve.add_argument("--fault-seed", type=int, default=1)

    shard = sub.add_parser("shard", help="run one cache-shard process")
    shard.add_argument("--host", default="127.0.0.1")
    shard.add_argument("--port", type=int, default=9001,
                       help="bind port (0 = ephemeral)")
    shard.add_argument("--capacity", type=int, default=2048)

    demo = sub.add_parser(
        "demo", help="stand up shards + servers, drive traffic, report"
    )
    demo.add_argument("--rps", type=float, default=200.0)
    demo.add_argument("--duration", type=float, default=10.0)
    demo.add_argument("--servers", type=int, default=2)
    demo.add_argument("--shards", type=int, default=2)
    demo.add_argument("--workers", type=int, default=2,
                      help="planner workers per server process")
    demo.add_argument("--mix", default="smoke")
    demo.add_argument("--arrival", default="poisson",
                      choices=("poisson", "uniform", "burst"))
    demo.add_argument("--concurrency", type=int, default=16)
    demo.add_argument("--max-queue-depth", type=int, default=32)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--rolling", action="store_true",
                      help="restart every server one at a time under "
                           "live traffic (journals + replication on); "
                           "the gate still requires zero errors")
    demo.add_argument("--journal-dir", default=None, metavar="DIR",
                      help="journal root for --rolling (default: tempdir)")
    demo.add_argument("--out", default=None,
                      help="write the JSON report here too")
    demo.add_argument("--quiet", action="store_true")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "serve":
        from repro import obs
        from repro.net.frontend import FrontEndConfig, run_server

        if args.metrics:
            obs.configure(metrics=True)
        shards = tuple(
            ep.strip() for ep in (args.shards or "").split(",") if ep.strip()
        )
        run_server(FrontEndConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            cache_capacity=args.cache_capacity,
            shards=shards,
            max_queue_depth=args.max_queue_depth,
            max_inflight=args.max_inflight,
            retry_after_s=args.retry_after,
            timeout_s=args.timeout,
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown_s=args.breaker_cooldown,
            virtual_nodes=args.virtual_nodes,
            replication=args.replication,
            journal_dir=args.journal_dir,
            drain_deadline_s=args.drain_deadline,
            fault_spec=args.fault_plan,
            fault_seed=args.fault_seed,
        ))
        return 0

    if args.command == "shard":
        from repro.net.shard import run_shard

        run_shard(args.host, args.port, args.capacity)
        return 0

    if args.command == "demo":
        from repro.net.demo import run_demo

        return run_demo(
            rps=args.rps,
            duration_s=args.duration,
            servers=args.servers,
            shards=args.shards,
            workers=args.workers,
            mix=args.mix,
            arrival=args.arrival,
            concurrency=args.concurrency,
            max_queue_depth=args.max_queue_depth,
            seed=args.seed,
            out=args.out,
            quiet=args.quiet,
            rolling=args.rolling,
            journal_dir=args.journal_dir,
        )

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
