"""Front-end launcher: ``repro.net serve``, optionally with benchmark tracing.

Usage::

    python3 perfbench/frontend.py [--trace-dir DIR] serve --port 0 ...

Everything after the launcher's own options is passed to ``python -m
repro.net``.  With ``--trace-dir``, the layer wrappers of ``tracing.py``
are installed before the server starts (so the forked pool workers carry
them too) and the program's obs tracer and metrics registry are switched
on.  ``SIGUSR1`` drops what was recorded so far (the benchmark sends it
when its timed window starts), and the spans and registry are written to
``DIR/frontend.json`` when the server exits.
"""

from __future__ import annotations

import os
import pathlib
import signal
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(argv) -> int:
    trace_dir = None
    if argv[:1] == ["--trace-dir"]:
        trace_dir, argv = argv[1], argv[2:]
    from repro.net.__main__ import main as net_main

    if trace_dir is None:
        return net_main(argv)

    from repro import obs
    import tracing

    tracing.install()
    obs.configure(trace=True, metrics=True)

    def start_window(signum, frame):
        obs.get_tracer().drain()
        obs.set_registry(obs.MetricsRegistry(enabled=True))

    signal.signal(signal.SIGUSR1, start_window)
    try:
        return net_main(argv)
    finally:
        tracing.dump(os.path.join(trace_dir, "frontend.json"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
