"""A MobileClient refactor that renamed ``flush`` away entirely.

The profiler-tagged entry point vanished, so perf-attribution must
raise its missing-method diagnostic for ``MobileClient.flush``.
"""


class MobileClient:
    def __init__(self, database):
        self.database = database
        self._pending = []

    def push(self):
        # flush was renamed; the REQUIRED_TAPS map was not updated
        count = len(self._pending)
        self._pending.clear()
        return count
