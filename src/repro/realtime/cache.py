"""The Real-time Cache facade.

Wires range ownership, the In-memory Changelog, the Query Matcher, and the
Frontends together, and implements the Prepare/Accept interface the
Backend drives (paper Fig. 5). Failure injection knobs let tests exercise
the paper's full failure matrix:

- ``available = False``: Prepare RPCs fail -> the write fails.
- ``drop_accepts = True``: the Spanner commit succeeds but the Accept
  never arrives -> the Changelog times out, marks ranges out-of-sync, and
  every affected query resets.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import Unavailable
from repro.sim.clock import SimClock
from repro.core.path import Path
from repro.realtime.changelog import Changelog
from repro.realtime.frontend import Frontend
from repro.realtime.matcher import QueryMatcher
from repro.realtime.protocol import DocumentChange, PrepareHandle, WriteOutcome
from repro.realtime.ranges import NameRange, RangeOwnership

if TYPE_CHECKING:  # circular at runtime: the Backend drives this module
    from repro.core.backend import Backend


class RealtimeCache:
    """One database's Real-time Cache (Changelog + Query Matcher)."""

    def __init__(
        self,
        clock: SimClock,
        auto_resync: bool = True,
        probe=None,
        metrics=None,
    ):
        self.clock = clock
        self.probe = probe
        self.metrics = metrics
        self.ownership = RangeOwnership()
        self.changelog = Changelog(
            self.ownership, clock, probe=probe, metrics=metrics
        )
        self.matcher = QueryMatcher(self.ownership, probe=probe, metrics=metrics)
        self.frontends: list[Frontend] = []
        self._handles: dict[int, list[NameRange]] = {}
        self.available = True
        self.drop_accepts = False
        self._auto_resync = auto_resync
        # deterministic fault plane (repro.faults.FaultPlan), duck-typed:
        # None keeps the per-accept / per-pump injection hooks inert
        self.fault_plan = None

        self.changelog.on_change = self.matcher.on_change
        self.changelog.on_heartbeat = self.matcher.on_heartbeat
        self.changelog.on_out_of_sync = self._handle_out_of_sync
        self.ownership.on_reassign = self.matcher.on_reassign

    # -- Backend-facing 2PC interface ---------------------------------------------

    def prepare(
        self, database_id: str, paths: list[Path], max_commit_ts: int
    ) -> PrepareHandle:
        """Step 5 of the write protocol: reserve a commit window."""
        if not self.available:
            raise Unavailable("Real-time Cache unreachable")
        ranges = self.ownership.ranges_for_paths(paths)
        handle = self.changelog.prepare(ranges, max_commit_ts)
        self._handles[handle.prepare_id] = ranges
        return handle

    def accept(
        self,
        database_id: str,
        handle: PrepareHandle,
        outcome: WriteOutcome,
        commit_ts: int,
        changes: list[DocumentChange],
    ) -> None:
        """Step 7: deliver the commit outcome and mutations."""
        ranges = self._handles.pop(handle.prepare_id, [])
        if self.drop_accepts:
            return  # the Changelog will time the prepare out
        plan = self.fault_plan
        if plan is not None and plan.decide("realtime.drop_accept") is not None:
            # a changelog gap: this Accept is lost, the prepare times out,
            # the range goes out-of-sync and recovers via resync
            return
        self.changelog.accept(ranges, handle, outcome, commit_ts, changes)

    # -- frontends --------------------------------------------------------------------

    def create_frontend(self, backend: Backend) -> Frontend:
        """Register a new Frontend task over this cache."""
        frontend = Frontend(backend, self.matcher, probe=self.probe)
        self.frontends.append(frontend)
        return frontend

    # -- driving ------------------------------------------------------------------------

    def pump(self) -> int:
        """One heartbeat tick: advance watermarks, deliver snapshots."""
        plan = self.fault_plan
        if plan is not None and plan.decide("realtime.frontend_loss") is not None:
            # a Frontend task died: its replacement redoes every query's
            # initial snapshot (listeners see a fresh consistent state)
            for frontend in self.frontends:
                frontend.crash()
        self.changelog.pump()
        return sum(frontend.pump() for frontend in self.frontends)

    def _handle_out_of_sync(self, name_range: NameRange) -> None:
        self.matcher.on_out_of_sync(name_range)
        if self._auto_resync:
            self.changelog.resync(name_range)

    # -- introspection ---------------------------------------------------------------------

    @property
    def active_queries(self) -> int:
        """Currently registered real-time queries."""
        return self.matcher.subscription_count()

    @property
    def total_resets(self) -> int:
        """Query resets performed across all frontends."""
        return sum(frontend.resets for frontend in self.frontends)
