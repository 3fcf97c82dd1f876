"""A TaskPool dispatch loop that keeps its profiler tag — lints clean."""


class TaskPool:
    def __init__(self, kernel, probe=None):
        self.kernel = kernel
        self.probe = probe
        self.busy_us_total = 0

    def _dispatch(self):
        service_us = 10
        self.busy_us_total += service_us
        if self.probe:
            self.probe.account("service", "pool.dispatch", service_us)

    def _make_completion(self, span, queued_from):
        # keeps the structured wait tap the critical-path engine needs
        if span is not None:
            span.wait("storage_read", start_us=queued_from)
