"""The In-memory Changelog.

Per document-name range, the Changelog:

- answers Prepare RPCs with a minimum allowed commit timestamp,
- buffers Accepted mutations "in memory sorted in timestamp-order",
- knows it has "a complete sequence of updates until time t once it has
  received Accept responses for all Prepare RPCs that it sent out with a
  minimum timestamp less than t" (paper section IV-D4),
- generates "a heartbeat every few milliseconds for every idle key range",
- and marks a range **out-of-sync** when an Accept times out or reports
  an unknown outcome, triggering the fail-safe reset all the way up to
  the Frontends.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.sim.clock import SimClock
from repro.realtime.protocol import DocumentChange, PrepareHandle, WriteOutcome
from repro.realtime.ranges import NameRange, RangeOwnership

#: Extra time past a prepare's max commit timestamp before it is presumed
#: lost ("The maximum timestamp (plus a small margin) sets how long the
#: Changelog will wait for the corresponding Accept").
ACCEPT_TIMEOUT_MARGIN_US = 1_000_000


@dataclass(slots=True)
class _OutstandingPrepare:
    prepare_id: int
    min_commit_ts: int
    deadline_us: int


@dataclass(slots=True)
class _RangeLog:
    """Changelog state for one owned range."""

    name_range: NameRange
    watermark: int = 0
    outstanding: dict[int, _OutstandingPrepare] = field(default_factory=dict)
    #: accepted but not yet flushed mutations, as (commit_ts, change)
    buffer: list[tuple[int, DocumentChange]] = field(default_factory=list)
    out_of_sync: bool = False


class Changelog:
    """Changelog tasks for one database's ranges."""

    def __init__(
        self,
        ownership: RangeOwnership,
        clock: SimClock,
        probe=None,
        metrics=None,
    ):
        from repro.obs.probe import NULL_PROBE

        self.ownership = ownership
        self.clock = clock
        self._prepare_ids = itertools.count(1)
        self._logs: dict[int, _RangeLog] = {}
        # downstream (Query Matcher) callbacks
        self.on_change: Optional[Callable[[NameRange, DocumentChange], None]] = None
        self.on_heartbeat: Optional[Callable[[NameRange, int], None]] = None
        self.on_out_of_sync: Optional[Callable[[NameRange], None]] = None
        # observability
        self.probe = probe if probe is not None else NULL_PROBE
        self.metrics = metrics
        self.prepares = 0
        self.timeouts = 0
        # history recorder (repro.check): wired by FirestoreDatabase to
        # the shared Spanner database's recorder when checking is enabled
        self.recorder = None
        # SLO engine (repro.obs), duck-typed like the recorder; the
        # delivery path feeds it notification staleness
        self.slo = None

    def _log_for(self, name_range: NameRange) -> _RangeLog:
        log = self._logs.get(name_range.range_id)
        if log is None:
            log = _RangeLog(name_range, watermark=self.clock.now_us)
            self._logs[name_range.range_id] = log
        return log

    # -- the 2PC participant side --------------------------------------------------

    def prepare(self, ranges: list[NameRange], max_commit_ts: int) -> PrepareHandle:
        """Step 5: reserve a commit window across the affected ranges.

        The minimum returned is one past the highest watermark involved,
        guaranteeing no commit can land at or below a timestamp already
        reported complete.
        """
        prepare_id = next(self._prepare_ids)
        self.prepares += 1
        if self.metrics is not None:
            self.metrics.counter("rtc_prepares").inc()
        min_ts = 0
        deadline = max_commit_ts + ACCEPT_TIMEOUT_MARGIN_US
        with self.probe.span(
            "rtc.changelog.prepare",
            component="realtime",
            attributes={"prepare_id": prepare_id, "ranges": len(ranges)},
        ) as span:
            for name_range in ranges:
                log = self._log_for(name_range)
                min_ts = max(min_ts, log.watermark + 1)
            for name_range in ranges:
                log = self._log_for(name_range)
                log.outstanding[prepare_id] = _OutstandingPrepare(
                    prepare_id, min_ts, deadline
                )
            span.set_attribute("min_commit_ts", min_ts)
            return PrepareHandle(prepare_id, min_ts, max_commit_ts)

    def accept(
        self,
        ranges: list[NameRange],
        handle: PrepareHandle,
        outcome: WriteOutcome,
        commit_ts: int,
        changes: list[DocumentChange],
    ) -> None:
        """Step 7: resolve an outstanding prepare."""
        with self.probe.span(
            "rtc.changelog.accept",
            component="realtime",
            attributes={
                "prepare_id": handle.prepare_id,
                "outcome": outcome.name.lower(),
                "changes": len(changes),
            },
        ):
            if self.metrics is not None:
                self.metrics.counter(
                    "rtc_accepts", outcome=outcome.name.lower()
                ).inc()
            if self.probe:
                self.probe.account(
                    "realtime", f"changelog.accept.{outcome.name.lower()}", 0
                )
            recorder = self.recorder
            for name_range in ranges:
                log = self._log_for(name_range)
                log.outstanding.pop(handle.prepare_id, None)
                covered: list[DocumentChange] = []
                if outcome is WriteOutcome.UNKNOWN:
                    self._mark_out_of_sync(log)
                elif outcome is WriteOutcome.COMMITTED:
                    covered = [
                        change
                        for change in changes
                        if name_range.covers(RangeOwnership.key_for(change.path))
                    ]
                    if not log.out_of_sync:
                        for change in covered:
                            log.buffer.append((commit_ts, change))
                    # while out-of-sync, committed changes are dropped:
                    # every listener on the range re-queries at a timestamp
                    # at or after this commit, so nothing is lost
                # FAILED: nothing buffered, the prepare simply resolves
                if recorder is not None:
                    recorded_outcome = outcome.name.lower()
                    if outcome is WriteOutcome.COMMITTED and log.out_of_sync:
                        recorded_outcome = "dropped"
                    recorder.changelog_accept(
                        log.name_range.range_id,
                        handle.prepare_id,
                        recorded_outcome,
                        commit_ts,
                        [str(change.path) for change in covered],
                    )
                self._advance(log)

    # -- heartbeats and timeouts ------------------------------------------------------

    def pump(self) -> None:
        """Advance watermarks and emit heartbeats for every range.

        Called "every few milliseconds"; drives idle-range heartbeats,
        expired-prepare detection, and flushing of complete prefixes.
        """
        now = self.clock.now_us
        # heartbeat *every* owned range — an idle range with no log yet
        # must still advance, or frontends could never reach a consistent
        # timestamp across all the ranges a query subscribes to
        for name_range in self.ownership.ranges:
            self._log_for(name_range)
        for log in list(self._logs.values()):
            expired = [
                p for p in log.outstanding.values() if p.deadline_us < now
            ]
            for prepare in expired:
                del log.outstanding[prepare.prepare_id]
                self.timeouts += 1
                if self.metrics is not None:
                    self.metrics.counter("rtc_accept_timeouts").inc()
                self._mark_out_of_sync(log)
            self._advance(log, idle_floor=now)

    def _advance(self, log: _RangeLog, idle_floor: Optional[int] = None) -> None:
        """Flush the complete prefix of mutations and heartbeat."""
        if log.out_of_sync:
            return
        if log.outstanding:
            new_watermark = min(p.min_commit_ts for p in log.outstanding.values()) - 1
        else:
            # no in-flight commits: everything buffered is complete, and
            # idle ranges may advance to the current time
            new_watermark = max(
                (ts for ts, _ in log.buffer), default=log.watermark
            )
            if idle_floor is not None:
                new_watermark = max(new_watermark, idle_floor)
        if new_watermark < log.watermark:
            return
        recorder = self.recorder
        advanced = new_watermark != log.watermark
        log.watermark = new_watermark
        ready = sorted(
            (item for item in log.buffer if item[0] <= new_watermark),
            key=lambda item: item[0],
        )
        log.buffer = [item for item in log.buffer if item[0] > new_watermark]
        if recorder is not None:
            for ts, change in ready:
                recorder.changelog_deliver(
                    log.name_range.range_id, ts, str(change.path)
                )
            if advanced:
                recorder.changelog_watermark(
                    log.name_range.range_id, new_watermark
                )
        probe = self.probe
        if ready and (probe or self.slo):
            now = self.clock.now_us
            for ts, _ in ready:
                # staleness: how long the committed mutation waited in the
                # buffer before the watermark released it to listeners
                staleness_us = max(0, now - ts)
                probe.account("realtime", "changelog.deliver", staleness_us)
                if self.slo:
                    self.slo.record_latency(
                        "notify.staleness", now, staleness_us
                    )
        if self.on_change is not None:
            for _, change in ready:
                self.on_change(log.name_range, change)
        if self.on_heartbeat is not None:
            self.on_heartbeat(log.name_range, log.watermark)

    def _mark_out_of_sync(self, log: _RangeLog) -> None:
        """The fail-safe: discard buffered mutations and signal upward."""
        log.out_of_sync = True
        log.buffer.clear()
        if self.metrics is not None:
            self.metrics.counter("rtc_out_of_sync").inc()
        recorder = self.recorder
        if recorder is not None:
            recorder.changelog_out_of_sync(log.name_range.range_id)
        if self.on_out_of_sync is not None:
            self.on_out_of_sync(log.name_range)

    def resync(self, name_range: NameRange) -> None:
        """Bring a range back after its listeners have reset.

        Outstanding prepares (if any) keep their windows; the watermark
        restarts from the current time so only post-reset commits flow.
        """
        log = self._log_for(name_range)
        log.out_of_sync = False
        log.buffer.clear()
        log.watermark = max(log.watermark, self.clock.now_us)
        recorder = self.recorder
        if recorder is not None:
            recorder.changelog_resync(log.name_range.range_id)

    # -- introspection --------------------------------------------------------------------

    def watermark_of(self, name_range: NameRange) -> int:
        """The complete-prefix timestamp of one range."""
        return self._log_for(name_range).watermark

    def is_out_of_sync(self, name_range: NameRange) -> bool:
        """Whether the range is in the fail-safe state."""
        return self._log_for(name_range).out_of_sync
