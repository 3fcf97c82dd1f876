"""Admission control: in-flight limits, load shedding, traffic conformance.

Paper section IV-C: "some components do targeted load-shedding to drop
excess work before auto-scaling can take effect", and section VI: "a
low-tech manual tool that limits the number of per-task in-flight RPCs
for a given database has been one of our more effective mechanisms".

The conforming-traffic rule — "increase at most 50% every 5 minutes,
starting from a 500 QPS base" — is tracked per database; Firestore "will
still accept traffic that violates this rule as long as it can maintain
isolation", so non-conformance is reported, not enforced, unless a limit
is configured.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.service.overload import AdaptiveLimit, ShedReason
from repro.sim.clock import SimClock

CONFORMING_BASE_QPS = 500.0
CONFORMING_GROWTH = 1.5
CONFORMING_WINDOW_US = 300_000_000  # 5 minutes


@dataclass
class AdmissionConfig:
    #: global queue depth beyond which excess work is shed
    """Knobs for load shedding, in-flight limits, memory pressure."""
    shed_queue_depth: int = 5_000
    #: optional per-database in-flight RPC cap (the manual emergency tool)
    per_database_inflight_limit: Optional[int] = None
    #: databases the limit applies to (empty = all, when limit set)
    limited_databases: set[str] = field(default_factory=set)
    #: total in-flight query memory before pressure-based rejection kicks
    #: in (paper section VIII: "selective slowdown or rejection of traffic
    #: of a given database when under memory pressure, based on the memory
    #: consumed by in-flight queries to that database"). None = disabled.
    memory_pressure_bytes: Optional[int] = None


class AdmissionController:
    """Decides whether each arriving RPC is admitted."""

    __slots__ = (
        "clock",
        "config",
        "metrics",
        "probe",
        "_probe_on",
        "_inflight",
        "_inflight_memory",
        "_windows",
        "admitted",
        "shed",
        "limited",
        "memory_rejected",
        "adaptive",
        "batch_admit_fraction",
    )

    def __init__(
        self,
        clock: SimClock,
        config: AdmissionConfig | None = None,
        metrics=None,
        probe=None,
    ):
        self.clock = clock
        self.config = config if config is not None else AdmissionConfig()
        self.metrics = metrics
        #: optional repro.obs.probe.Probe; decisions count in its ledger
        self.probe = probe
        self._probe_on = bool(probe)
        self._inflight: dict[str, int] = {}
        self._inflight_memory: dict[str, int] = {}
        # conformance tracking, per database:
        # [window_start, count, allowance] — a mutable record so the
        # per-request count bump is an item store, not a tuple rebuild
        self._windows: dict[str, list] = {}
        self.admitted = 0
        self.shed = 0
        self.limited = 0
        self.memory_rejected = 0
        #: optional :class:`repro.service.overload.AdaptiveLimit`; when
        #: present its AIMD limit replaces the static ``shed_queue_depth``
        self.adaptive: Optional[AdaptiveLimit] = None
        #: fraction of the adaptive limit at which batch traffic already
        #: sheds (user-facing ops degrade last); only used with ``adaptive``
        self.batch_admit_fraction = 0.5

    # -- admission ---------------------------------------------------------------

    def try_admit(
        self,
        database_id: str,
        queue_depth: int,
        memory_bytes: int = 0,
        latency_sensitive: bool = True,
    ) -> tuple[bool, Optional[ShedReason]]:
        """(admitted, shed reason). Also counts toward conformance.

        ``memory_bytes`` is the request's estimated in-flight memory; when
        the component is under memory pressure, rejection targets the
        database holding the most in-flight memory — selective pressure,
        not collective punishment (section VIII). With an ``adaptive``
        limiter attached the depth gate uses its AIMD limit, and batch
        traffic (``latency_sensitive=False``) sheds already at
        ``batch_admit_fraction`` of it.
        """
        # conformance tracking, inlined from _track: this runs once per
        # request and the common case is a single item-store
        window = self._windows.get(database_id)
        if window is not None and self.clock._now_us - window[0] < CONFORMING_WINDOW_US:
            window[1] += 1
        else:
            self._track(database_id)
        config = self.config
        if config.per_database_inflight_limit is not None and (
            not config.limited_databases or database_id in config.limited_databases
        ):
            if self._inflight.get(database_id, 0) >= config.per_database_inflight_limit:
                self.limited += 1
                self._record(database_id, "inflight")
                return False, ShedReason.INFLIGHT
        adaptive = self.adaptive
        if adaptive is None:
            depth_limit = config.shed_queue_depth
        else:
            depth_limit = adaptive.limit
            if not latency_sensitive:
                depth_limit = int(depth_limit * self.batch_admit_fraction)
        if queue_depth >= depth_limit:
            self.shed += 1
            self._record(database_id, "queue_depth")
            return False, ShedReason.QUEUE_DEPTH
        if (
            config.memory_pressure_bytes is not None
            and self.total_inflight_memory() + memory_bytes
            > config.memory_pressure_bytes
            and database_id == self._top_memory_consumer(database_id, memory_bytes)
        ):
            self.memory_rejected += 1
            self._record(database_id, "memory")
            return False, ShedReason.MEMORY
        self._inflight[database_id] = self._inflight.get(database_id, 0) + 1
        if memory_bytes:
            self._inflight_memory[database_id] = (
                self._inflight_memory.get(database_id, 0) + memory_bytes
            )
        self.admitted += 1
        if self.metrics is not None or self._probe_on:
            self._record(database_id, "admitted")
        return True, None

    def recheck(self, database_id: str, queue_depth: int) -> Optional[ShedReason]:
        """Re-judge an *already admitted* request about to be re-queued.

        The crash-requeue path: the RPC holds its admission slot, so only
        the queue-depth gate applies — under pressure a crashed request is
        shed rather than silently re-inserted ahead of the gate.
        """
        adaptive = self.adaptive
        depth_limit = (
            self.config.shed_queue_depth if adaptive is None else adaptive.limit
        )
        if queue_depth >= depth_limit:
            self.shed += 1
            self._record(database_id, "queue_depth")
            return ShedReason.QUEUE_DEPTH
        return None

    def record_decision(self, database_id: str, reason: ShedReason) -> None:
        """Ledger a shed decided outside this controller (breaker, CoDel).

        Keeps every shed cause on the one ``admission_decisions`` metric so
        the dashboard splits them on a single label.
        """
        self.shed += 1
        self._record(database_id, reason.value)

    def _record(self, database_id: str, outcome: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                "admission_decisions", database_id=database_id, outcome=outcome
            ).inc()
        if self._probe_on:
            # decisions are free in sim time; the ledger keeps the count
            self.probe.account(
                "service", f"admission.{outcome}", 0, database_id
            )

    def release(self, database_id: str, memory_bytes: int = 0) -> None:
        """Mark one admitted request finished."""
        count = self._inflight.get(database_id, 0)
        if count > 0:
            self._inflight[database_id] = count - 1
        if memory_bytes:
            current = self._inflight_memory.get(database_id, 0)
            self._inflight_memory[database_id] = max(0, current - memory_bytes)

    def inflight(self, database_id: str) -> int:
        """Admitted-but-unfinished requests for a database."""
        return self._inflight.get(database_id, 0)

    def inflight_memory(self, database_id: str) -> int:
        """In-flight query memory held by a database."""
        return self._inflight_memory.get(database_id, 0)

    def total_inflight_memory(self) -> int:
        """In-flight query memory across all databases."""
        return sum(self._inflight_memory.values())

    def _top_memory_consumer(self, candidate: str, candidate_extra: int) -> str:
        """Which database would hold the most memory if this request were
        admitted? Under pressure, only that one is rejected."""
        totals = dict(self._inflight_memory)
        totals[candidate] = totals.get(candidate, 0) + candidate_extra
        return max(totals, key=lambda db: (totals[db], db))

    # -- conforming-traffic tracking ------------------------------------------------

    def _track(self, database_id: str) -> None:
        now = self.clock.now_us
        window = self._windows.get(database_id)
        if window is None or now - window[0] >= CONFORMING_WINDOW_US:
            previous_rate = 0.0
            if window is not None:
                previous_rate = window[1] / (CONFORMING_WINDOW_US / 1_000_000)
            allowance = max(
                CONFORMING_BASE_QPS,
                previous_rate * CONFORMING_GROWTH,
            )
            self._windows[database_id] = [now, 1, allowance]
        else:
            window[1] += 1

    def is_conforming(self, database_id: str) -> bool:
        """Does the database's current window respect the ramp rule?"""
        window = self._windows.get(database_id)
        if window is None:
            return True
        start, count, allowance = window
        elapsed_s = max(1e-6, (self.clock.now_us - start) / 1_000_000)
        return count / elapsed_s <= allowance

    def conforming_allowance_qps(self, database_id: str) -> float:
        """The ramp rule's current QPS allowance for a database."""
        window = self._windows.get(database_id)
        if window is None:
            return CONFORMING_BASE_QPS
        return window[2]
