"""Fair-CPU-share scheduling keyed by database ID.

"We use a fair-CPU-share scheduler in our Backend tasks, keyed by
database ID" (paper section IV-C) — the mechanism evaluated in Figure 11.
Implemented as stride scheduling over per-database virtual time: the next
RPC comes from the runnable database with the smallest virtual CPU time,
so a database flooding the queue cannot starve others. Latency-sensitive
RPCs are served before tagged batch traffic within each database.

With ``fair=False`` the scheduler degrades to global FIFO — the ablation
arm of the Figure 11 experiment.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.service.rpc import Rpc

_INF = float("inf")


class _DatabaseQueue:
    __slots__ = ("interactive", "batch", "virtual_time_us")

    def __init__(self) -> None:
        self.interactive: deque = deque()
        self.batch: deque = deque()
        self.virtual_time_us = 0.0

    def __len__(self) -> int:
        return len(self.interactive) + len(self.batch)

    def pop(self) -> Rpc:
        if self.interactive:
            return self.interactive.popleft()
        return self.batch.popleft()


class FairShareScheduler:
    """Per-database fair queueing of backend CPU."""

    __slots__ = (
        "fair",
        "metrics",
        "probe",
        "_probe_on",
        "slo",
        "clock",
        "_queues",
        "_queue_view",
        "_fifo",
        "_global_virtual_us",
        "enqueued",
        "dispatched",
        "pending",
    )

    def __init__(self, fair: bool = True, metrics=None, probe=None, slo=None):
        self.fair = fair
        self.metrics = metrics
        #: optional repro.obs.probe.Probe: queue waits are recorded at
        #: dispatch as structured wait causes for critical-path
        #: attribution, and each dispatch counts in the profiler ledger
        self.probe = probe
        self._probe_on = bool(probe)
        #: optional repro.obs.slo.SloEngine fed per-tenant CPU shares;
        #: needs a clock to timestamp them
        self.slo = slo
        self.clock = None
        self._queues: dict[str, _DatabaseQueue] = {}
        # a dict view is live, so build it once: pick() iterates it per
        # dispatch and a fresh .values() call per pick adds up
        self._queue_view = self._queues.values()
        self._fifo: deque[Rpc] = deque()
        #: floor for virtual time of newly-active databases, so an idle
        #: database cannot bank unbounded credit
        self._global_virtual_us = 0.0
        self.enqueued = 0
        self.dispatched = 0
        #: RPCs currently queued (either mode); the pools read this to
        #: skip a dispatch pass entirely when there is nothing to pick
        self.pending = 0

    def enqueue(self, rpc: Rpc) -> None:
        """Queue one RPC under its database's share."""
        self.enqueued += 1
        self.pending += 1
        if self.metrics is not None:
            self.metrics.counter(
                "scheduler_enqueued", database_id=rpc.database_id
            ).inc()
        if not self.fair:
            self._fifo.append(rpc)
            return
        queue = self._queues.get(rpc.database_id)
        if queue is None:
            queue = _DatabaseQueue()
            self._queues[rpc.database_id] = queue
        if not queue.interactive and not queue.batch:
            # (re)activating: start from the current global virtual time
            if queue.virtual_time_us < self._global_virtual_us:
                queue.virtual_time_us = self._global_virtual_us
        if rpc.latency_sensitive:
            queue.interactive.append(rpc)
        else:
            queue.batch.append(rpc)

    def pick(self) -> Optional[Rpc]:
        """Dispatch the next RPC, or None when idle."""
        if not self.fair:
            if not self._fifo:
                return None
            self.dispatched += 1
            self.pending -= 1
            rpc = self._fifo.popleft()
            self._record_dispatch(rpc)
            return rpc
        # one pass tracking best and runner-up virtual times: the
        # post-pop global floor is derived from these two, avoiding a
        # second sweep (and a per-pick generator) over the queues
        best_queue: Optional[_DatabaseQueue] = None
        best_vt = 0.0
        second_vt = _INF
        for queue in self._queue_view:
            if not queue.interactive and not queue.batch:
                continue
            vt = queue.virtual_time_us
            if best_queue is None:
                best_queue = queue
                best_vt = vt
            elif vt < best_vt:
                second_vt = best_vt
                best_queue = queue
                best_vt = vt
            elif vt < second_vt:
                second_vt = vt
        if best_queue is None:
            return None
        rpc = best_queue.pop()
        new_vt = best_vt + rpc.cpu_cost_us
        best_queue.virtual_time_us = new_vt
        # min virtual time over queues still runnable after this pop
        # (the picked queue re-enters at its advanced time if non-empty)
        if best_queue.interactive or best_queue.batch:
            floor = new_vt if new_vt < second_vt else second_vt
        else:
            floor = second_vt if second_vt is not _INF else new_vt
        if floor > self._global_virtual_us:
            self._global_virtual_us = floor
        self.dispatched += 1
        self.pending -= 1
        if self.metrics is not None or self._probe_on or self.slo is not None:
            self._record_dispatch(rpc)
        return rpc

    def _record_dispatch(self, rpc: Rpc) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                "scheduler_dispatched", database_id=rpc.database_id
            ).inc()
            # per-tenant CPU share: the profiler's ledger and Figure 11's
            # isolation verdict both read this counter
            self.metrics.counter(
                "scheduler_cpu_us", database_id=rpc.database_id
            ).inc(rpc.cpu_cost_us)
        if self._probe_on:
            # the time from RPC arrival to this dispatch was queue wait —
            # annotate it on the request's trace so the critical-path
            # engine can blame the scheduler rather than leave a gap. Zero
            # sim-time: dispatch itself is free, the pool accounts the
            # service time; the ledger entry carries the per-tenant count
            self.probe.wait(
                "queue",
                start_us=rpc.arrival_us,
                end_us=self.probe.clock.now_us,
                context=rpc.trace_ctx,
                perf=("service", "scheduler.dispatch"),
                tenant=rpc.database_id,
                perf_us=0,
            )
        if self.slo and self.clock is not None:
            self.slo.record_share(
                "tenant.cpu",
                self.clock.now_us,
                rpc.database_id,
                rpc.cpu_cost_us,
            )

    def queued(self, database_id: Optional[str] = None) -> int:
        """Queued RPCs, optionally for one database."""
        if database_id is None:
            # the running counter equals the sum over queues in either
            # mode; admission reads this per request, so no sweep here
            return self.pending
        if not self.fair:
            return sum(1 for r in self._fifo if r.database_id == database_id)
        queue = self._queues.get(database_id)
        return len(queue) if queue is not None else 0
