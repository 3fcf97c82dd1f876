"""A TaskPool whose dispatch loop lost its profiler tag.

``_dispatch`` burns simulated service time but never accounts it, so
the profiler's busy-time coverage guarantee silently breaks — exactly
what the perf-attribution check must flag.
"""


class TaskPool:
    def __init__(self, kernel):
        self.kernel = kernel
        self.busy_us_total = 0

    def _dispatch(self):
        # service time accrues, but nothing feeds probe.account(...)
        service_us = 10
        self.busy_us_total += service_us
