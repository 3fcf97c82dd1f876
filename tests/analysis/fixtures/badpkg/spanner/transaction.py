"""A ReadWriteTransaction refactor that dropped its history taps.

``_inject_commit_faults`` lost its recorder reference, and ``_abort``
was renamed away entirely — both must be history-tap diagnostics. The
other required methods keep their taps and must NOT be flagged.
``commit`` exists but lost its profiler tag — a perf-attribution
diagnostic.
"""


class ReadWriteTransaction:
    def __init__(self, db, txn_id):
        self.txn_id = txn_id
        recorder = db.recorder
        if recorder is not None:
            recorder.txn_begin(txn_id, 0)

    def read_versioned(self, table, row_key, for_update=False):
        recorder = self._db.recorder
        if recorder is not None:
            recorder.txn_read(self.txn_id, b"", -1, for_update)

    def scan(self, table, start, end):
        recorder = self._db.recorder
        if recorder is not None:
            recorder.txn_scan(self.txn_id, b"", None)

    def commit(self):
        # the rewrite forgot the probe.measure("spanner", "commit") tag
        self._apply(0)

    def _inject_commit_faults(self, min_commit_ts, max_commit_ts):
        # the refactor forgot to re-plumb the unknown-outcome tap here
        self._state = "unknown"

    def _apply(self, commit_ts):
        recorder = self._db.recorder
        if recorder is not None:
            recorder.txn_commit(self.txn_id, commit_ts, [], 0, None, 0, 0)
