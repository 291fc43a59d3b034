"""Cold start of a planner process: import the program, build, plan once.

Usage (from the repository root)::

    python3 perfbench/coldstart.py SEED

Plans plan-arm's warm-up task for ``SEED`` with a small sample budget
(every planner stage runs, but the task's difficulty barely shows) and
prints ``READY``; ``plan-arm``'s ``setup_s`` is the time from launching
this process to that line.
"""

from __future__ import annotations

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main(seed: int) -> int:
    from repro.core.moped import MopedEngine
    import workloads

    task, args, kwargs = workloads.arm_task(seed, -1)
    kwargs["max_samples"] = workloads.COLD_START_SAMPLES
    MopedEngine(*args, **kwargs).plan_task(task)
    print("READY", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1])))
