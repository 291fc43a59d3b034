"""A deterministic clock for planner deadline tests.

Both planners read the wall clock only through ``_RunState`` in
:mod:`repro.core.rrtstar`: once to arm ``deadline_s`` and once per budget
poll.  Replacing that module's ``time`` with a :class:`StepClock` makes
every read advance time by a fixed step, so a deadline expires after the
same number of polls on any host.
"""


class StepClock:
    """Fake monotonic clock: every read advances it by a fixed step."""

    def __init__(self, step: float) -> None:
        self.now = 0.0
        self.step = step

    def monotonic(self) -> float:
        self.now += self.step
        return self.now


def install_step_clock(monkeypatch, step: float) -> StepClock:
    """Drive every planner deadline from a :class:`StepClock` of ``step``."""
    from repro.core import rrtstar

    clock = StepClock(step)
    monkeypatch.setattr(rrtstar, "time", clock)
    return clock
