"""Seeded inputs for the three workloads.

Everything the program receives is generated here from the run's
``--seed``: arm planning tasks for ``plan-arm``, wire-format request specs
for the HTTP workloads, and ``http-hot``'s open-loop arrival schedule.  The
same seed always gives the same inputs.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.workloads import random_task

#: plan-arm: RRT* full variant, batch kernels, W=8, 300 samples, 32 obstacles.
ARM_ROBOTS = ("rozum", "xarm7")
ARM_OBSTACLES = 32
ARM_SAMPLES = 300
ARM_WAVE = 8
#: plan-arm set-up plans its warm-up task in a fresh process with this
#: sample budget: five waves run every planner stage once.
COLD_START_SAMPLES = 40

#: http-cold: distinct mobile2d/8 obstacles/120 samples RRT* specs through
#: the spec path (W=1), sent closed-loop.  xarm7 RRT-Connect requests are
#: left out: about one in sixteen of them plans for 0.2-2 s, and whether a
#: run drew one decided its tail latency (p90 spread 1.2 over five seeds).
#: Specs generated per second of window; the closed loop sends about 10.
COLD_SPECS_PER_S = 40
#: http-cold set-up plans this many distinct specs, so each worker has
#: planned before the window (the first plan in a process is slower).
COLD_WARM = 4
#: http-hot: 64 distinct mobile2d specs planned in set-up, then 50 rps of hits.
HOT_RATE = 50.0
HOT_SPECS = 64

#: Seed of the arrival schedules (see :func:`arrivals`).
SCHEDULE_SEED = 20240302

MOBILE_SPEC = {"robot": "mobile2d", "obstacles": 8, "samples": 120}


def arm_task(seed: int, index: int):
    """The ``index``-th plan-arm task and the ``MopedEngine`` arguments that
    plan it, ``(task, args, kwargs)``; robots alternate."""
    robot = ARM_ROBOTS[index % len(ARM_ROBOTS)]
    task_seed = seed * 100_003 + index
    task = random_task(robot, ARM_OBSTACLES, seed=task_seed, task_id=index)
    kwargs = dict(max_samples=ARM_SAMPLES, seed=task_seed, wave_width=ARM_WAVE,
                  kernels="batch")
    return task, (robot, task.environment, "full"), kwargs


def _spec_seed(seed: int, stream: int, index: int) -> int:
    # Distinct per (run seed, stream, index); streams keep warm-up, timed
    # and warm-up-of-another-workload specs apart.
    return (seed * 7 + stream) * 1_000_003 + index


def warm_specs(seed: int, workload: str) -> List[Dict]:
    """Specs planned in set-up: http-hot's working set, or one per worker
    slot for http-cold (distinct from every timed request)."""
    count = HOT_SPECS if workload == "http-hot" else COLD_WARM
    stream = 2 if workload == "http-hot" else 3
    return [{**MOBILE_SPEC, "seed": _spec_seed(seed, stream, i)} for i in range(count)]


def arrivals(rate: float, seconds: float, stream: int = 0) -> np.ndarray:
    """Poisson arrival offsets (s) in ``[0, seconds)`` with a fixed count.

    A Poisson process conditioned on its count has uniformly distributed,
    sorted arrival times; fixing the count at ``rate * seconds`` keeps the
    offered load identical across runs, so goodput measures the server
    rather than the draw.  The times come from a fixed seed, not the run's,
    so every run offers the same bursts; the run's seed picks the tasks.
    """
    count = max(1, int(round(rate * seconds)))
    rng = np.random.default_rng([SCHEDULE_SEED, stream])
    return np.sort(rng.uniform(0.0, seconds, size=count))


def cold_specs(seed: int, seconds: float) -> List[Dict]:
    """Distinct specs for one http-cold window, more than it can send."""
    count = int(COLD_SPECS_PER_S * seconds) + 1
    return [{**MOBILE_SPEC, "seed": _spec_seed(seed, 1, i)} for i in range(count)]


def hot_schedule(seed: int, seconds: float, specs: List[Dict], stream: int = 0):
    """(due offsets, specs) for one http-hot window: uniform picks of ``specs``."""
    rng = np.random.default_rng([seed, 2, stream])
    due = arrivals(HOT_RATE, seconds, stream=1 + stream)
    picks = rng.integers(0, len(specs), size=len(due))
    return due, [specs[int(i)] for i in picks]


def expand_spec(spec: Dict):
    """(task, config) the server derives from ``spec`` (for validation)."""
    from repro.net.wire import spec_to_request

    request = spec_to_request(spec)
    return request.task, request.config, request.cache_key()
