"""repro.check — transactional history checker + schedule explorer.

The paper's core claims are *consistency guarantees*: serializable
transactions (section IV-D1), externally consistent TrueTime commit
timestamps, and Real-time Cache notifications delivered complete and in
commit order (section IV-D4). This package verifies them over whole
executions, Elle-style, instead of trusting the implementation:

- :mod:`repro.check.history` — a **history recorder** hooked into the
  Spanner transaction path, the Firestore seven-step write protocol, and
  the Real-time Cache delivery path. Enabled via ``REPRO_CHECK=1`` (or
  ``pytest --check``), it emits a compact JSONL log of reads (with the
  versions they observed), writes, commit timestamps with their TrueTime
  windows, and notification deliveries.
- :mod:`repro.check.graph` / :mod:`repro.check.checker` — an offline
  **checker** (``python -m repro.check``) that builds the wr/ww/rw
  dependency graph over the recorded transactions, detects
  serializability cycles, and verifies external consistency, snapshot
  reads, index/document atomicity, and notification order/completeness.
- :mod:`repro.check.explorer` — a **schedule explorer** that reruns a
  scenario across seed sweeps and biased event-queue perturbations
  (``repro.sim.events`` priorities + the fault plan's armed one-shot
  commit faults), shrinking any violating run to a minimal
  ``(seed, perturbation, ops)`` reproducer.
- :mod:`repro.check.anomalies` — deliberately broken toy stores (lost
  update, write skew, stale notification, non-monotonic commit
  timestamps) proving the checker can actually fail.

Violations surface through :class:`repro.errors.CheckerViolation`, the
same :class:`repro.errors.VerificationError` family the dynamic
sanitizers raise, and bump ``checker.violations`` metrics counters when
a registry is attached.
"""

from repro.check.checker import (
    CommitWindowViolation,
    ExternalConsistencyViolation,
    IndexInconsistency,
    LostUpdate,
    NonMonotonicCommit,
    NotificationLoss,
    NotificationOrderViolation,
    SerializabilityCycle,
    StaleSnapshotRead,
    Violation,
    WriteSkew,
    assert_clean,
    check_history,
)
from repro.check.history import (
    HistoryRecorder,
    checking_enabled,
    drain_recorders,
    install,
    maybe_install,
    recording,
    set_enabled,
)

__all__ = [
    "CommitWindowViolation",
    "ExternalConsistencyViolation",
    "HistoryRecorder",
    "IndexInconsistency",
    "LostUpdate",
    "NonMonotonicCommit",
    "NotificationLoss",
    "NotificationOrderViolation",
    "SerializabilityCycle",
    "StaleSnapshotRead",
    "Violation",
    "WriteSkew",
    "assert_clean",
    "check_history",
    "checking_enabled",
    "drain_recorders",
    "install",
    "maybe_install",
    "recording",
    "set_enabled",
]
