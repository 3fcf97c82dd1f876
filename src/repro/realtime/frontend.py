"""Frontend tasks: long-lived connections and consistent snapshots.

The Frontend (paper section IV-D4):

- serves each new real-time query's initial snapshot through the Backend,
- subscribes to the Query Matcher tasks owning the covering ranges,
- "is responsible for tracking when it has received all the updates
  necessary to reach a consistent timestamp" across those ranges, and
  only then ships the accumulated delta as an incremental snapshot,
- keeps the *multiple* queries multiplexed on one connection mutually
  consistent: "queries on the same connection are only updated to a
  timestamp t once all queries' max-commit-version has reached at least
  t",
- and on an out-of-sync signal "aborts all accumulated state for that
  query and redoes the steps starting with the initial query request".
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Optional

from typing import TYPE_CHECKING

from repro.core.document import Document
from repro.core.path import Path
from repro.core.query import NormalizedQuery, Query
from repro.core.values import compare_values, get_field
from repro.realtime.matcher import QueryMatcher, Subscription, document_matches_query
from repro.realtime.protocol import DocumentChange

if TYPE_CHECKING:  # circular at runtime: the Backend drives this module
    from repro.core.backend import Backend


@dataclass(frozen=True)
class SnapshotDelta:
    """One incremental snapshot for one query."""

    query_tag: Any
    read_ts: int
    added: tuple[Document, ...]
    modified: tuple[Document, ...]
    removed: tuple[Path, ...]
    #: the full result, in query order, at read_ts
    documents: tuple[Document, ...]
    #: True for the first snapshot and after each reset
    is_initial: bool = False

    @property
    def is_empty(self) -> bool:
        """True when nothing changed in this snapshot."""
        return not (self.added or self.modified or self.removed)


def _delta_paths(delta: SnapshotDelta) -> list[str]:
    """Every document path a snapshot delta touched, for the history log."""
    return [
        str(doc.path) for doc in delta.added + delta.modified
    ] + [str(path) for path in delta.removed]


def query_order_key(normalized: NormalizedQuery):
    """A sort key over (path, data) pairs matching the query's order."""

    def cmp(a: tuple[Path, dict], b: tuple[Path, dict]) -> int:
        for order in normalized.core_orders:
            _, va = get_field(a[1], order.field_path)
            _, vb = get_field(b[1], order.field_path)
            result = compare_values(va, vb)
            if result:
                return result if order.direction == "asc" else -result
        if a[0] == b[0]:
            return 0
        result = -1 if a[0] < b[0] else 1
        return result if normalized.name_direction == "asc" else -result

    return functools.cmp_to_key(cmp)


class _QueryState:
    """Frontend-side state for one registered real-time query."""

    def __init__(self, tag: Any, query: Query, on_snapshot: Callable[[SnapshotDelta], None]):
        self.tag = tag
        #: run-deterministic listener identity for recorded histories
        #: ("<connection>.<tag>"); the API-visible tag is per-connection
        self.record_tag = str(tag)
        self.query = query
        self.normalized = query.normalize()
        key = query_order_key(self.normalized)
        #: the query's sort key over result documents, built once
        self.sort_key: Callable[[Document], Any] = lambda doc: key((doc.path, doc.data))
        self.on_snapshot = on_snapshot
        self.subscription: Optional[Subscription] = None
        #: current result contents by path
        self.result: dict[Path, Document] = {}
        #: the current result in query order, kept between pumps
        self.documents: tuple[Document, ...] = ()
        self.max_commit_version = 0
        self.pending: list[tuple[int, DocumentChange]] = []
        self.range_watermarks: dict[int, int] = {}
        self.needs_reset = False

    def consistent_ts(self) -> int:
        if not self.range_watermarks:
            return self.max_commit_version
        return min(self.range_watermarks.values())


class RealtimeConnection:
    """One client's long-lived connection, multiplexing its queries."""

    def __init__(self, frontend: "Frontend", conn_id: int = 0):
        self._frontend = frontend
        self._conn_id = conn_id
        # per-connection, not process-global: auto-assigned tags must be
        # a function of this run alone so recorded histories replay
        # byte-identically from the same seed
        self._tags = itertools.count(1)
        self._states: dict[Any, _QueryState] = {}
        self._emitted_ts = 0
        self.closed = False

    # -- client API ----------------------------------------------------------------

    def listen(
        self,
        query: Query,
        on_snapshot: Callable[[SnapshotDelta], None],
        tag: Any = None,
    ) -> Any:
        """Register a real-time query; the initial snapshot is delivered
        synchronously, subsequent deltas on :meth:`Frontend.pump`."""
        if tag is None:
            tag = next(self._tags)
        state = _QueryState(tag, query, on_snapshot)
        # tags are only unique per connection; histories need a
        # run-deterministic identity unique per listener
        state.record_tag = f"{self._conn_id}.{tag}"
        self._states[tag] = state
        self._frontend._start_query(state, is_initial=True)
        return tag

    def unlisten(self, tag: Any) -> None:
        """Deregister one query from this connection."""
        state = self._states.pop(tag, None)
        if state is not None and state.subscription is not None:
            self._frontend.matcher.unsubscribe(state.subscription.subscription_id)

    def close(self) -> None:
        """Tear the connection down, dropping all queries."""
        for tag in list(self._states):
            self.unlisten(tag)
        self.closed = True
        self._frontend._connections.discard(self)

    @property
    def query_count(self) -> int:
        """Queries multiplexed on this connection."""
        return len(self._states)

    # -- consistency-tracked emission --------------------------------------------------

    def _pump(self) -> int:
        """Handle resets, then emit consistent snapshots. Returns count."""
        emitted = 0
        for state in list(self._states.values()):
            if state.needs_reset:
                self._frontend._reset_query(state)
                emitted += 1
        if not self._states:
            return emitted
        target = min(s.consistent_ts() for s in self._states.values())
        if target <= self._emitted_ts:
            return emitted
        self._emitted_ts = target
        tracer = self._frontend.tracer
        for state in self._states.values():
            if target > state.max_commit_version:
                delta = self._frontend._apply_pending(state, target)
                if delta is not None and not delta.is_empty:
                    with tracer.span(
                        "listener.notify",
                        component="frontend",
                        attributes={
                            "read_ts": delta.read_ts,
                            "added": len(delta.added),
                            "modified": len(delta.modified),
                            "removed": len(delta.removed),
                        }
                        if tracer
                        else None,
                    ):
                        state.on_snapshot(delta)
                    recorder = self._frontend.recorder
                    if recorder is not None:
                        recorder.notify(
                            state.record_tag,
                            delta.read_ts,
                            False,
                            _delta_paths(delta),
                        )
                    emitted += 1
        return emitted


class Frontend:
    """One Frontend task serving real-time connections for a database."""

    def __init__(self, backend: Backend, matcher: QueryMatcher, tracer=None):
        from repro.obs.tracer import NULL_TRACER

        self.backend = backend
        self.matcher = matcher
        self._connections: set[RealtimeConnection] = set()
        self._conn_ids = itertools.count(1)
        # observability
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.snapshots_sent = 0
        self.resets = 0

    @property
    def recorder(self):
        """The shared execution-history recorder (None when disabled)."""
        return self.backend.layout.spanner.recorder

    def connect(self) -> RealtimeConnection:
        """Open a new long-lived client connection."""
        connection = RealtimeConnection(self, next(self._conn_ids))
        self._connections.add(connection)
        return connection

    @property
    def connection_count(self) -> int:
        """Open connections on this task."""
        return len(self._connections)

    @property
    def active_queries(self) -> int:
        """Registered queries across all connections."""
        return sum(c.query_count for c in self._connections)

    def pump(self) -> int:
        """Deliver any snapshots that have become consistent."""
        emitted = 0
        with self.tracer.span("frontend.pump", component="frontend") as span:
            for connection in list(self._connections):
                emitted += connection._pump()
            span.set_attribute("snapshots", emitted)
        self.snapshots_sent += emitted
        return emitted

    def crash(self) -> int:
        """Simulate losing this Frontend task (fault injection).

        The task's in-memory query state — buffered pending changes and
        watermarks — is gone; the replacement task redoes every query
        from scratch on the next pump, the same fail-safe path an
        out-of-sync range takes. Listeners then receive one snapshot with
        the net difference, so nothing is missed or duplicated. Returns
        the number of queries marked for reset.
        """
        marked = 0
        for connection in self._connections:
            for state in connection._states.values():
                state.pending.clear()
                state.needs_reset = True
                marked += 1
        return marked

    # -- query lifecycle --------------------------------------------------------------

    def _start_query(self, state: _QueryState, is_initial: bool) -> None:
        """Steps 2-4: initial snapshot via the Backend, then Subscribe."""
        previous = state.result
        result = self.backend.run_query(state.query)
        state.result = {doc.path: doc for doc in result.documents}
        state.max_commit_version = result.read_ts
        state.pending.clear()
        state.needs_reset = False

        subscription = self.matcher.subscribe(
            state.normalized,
            resume_ts=result.read_ts,
            deliver=lambda _sid, change: state.pending.append(
                (change.commit_ts, change)
            ),
            notify_watermark=self._make_watermark_cb(state),
            notify_reset=lambda _sid: setattr(state, "needs_reset", True),
        )
        state.subscription = subscription
        state.range_watermarks = {
            range_id: result.read_ts for range_id in subscription.range_ids
        }
        delta = self._diff_snapshots(state, previous, result.read_ts, is_initial=True)
        with self.tracer.span(
            "listener.notify",
            component="frontend",
            attributes={"read_ts": delta.read_ts, "initial": True}
            if self.tracer
            else None,
        ):
            state.on_snapshot(delta)
        recorder = self.recorder
        if recorder is not None:
            recorder.notify(
                state.record_tag, delta.read_ts, True, _delta_paths(delta)
            )
        self.snapshots_sent += 1

    def _make_watermark_cb(self, state: _QueryState):
        def callback(_sid: int, range_id: int, watermark: int) -> None:
            current = state.range_watermarks.get(range_id, 0)
            if watermark > current:
                state.range_watermarks[range_id] = watermark

        return callback

    def _reset_query(self, state: _QueryState) -> None:
        """The fail-safe: abort accumulated state and redo from scratch.

        "This reset is fast, and is mostly transparent to the end-user"
        — the client receives one snapshot containing the net difference.
        """
        self.resets += 1
        if state.subscription is not None:
            self.matcher.unsubscribe(state.subscription.subscription_id)
        self._start_query(state, is_initial=False)

    # -- applying buffered changes --------------------------------------------------------

    def _apply_pending(self, state: _QueryState, target_ts: int) -> Optional[SnapshotDelta]:
        """Apply buffered changes with commit_ts <= target, build a delta.

        A query with no change ready only advances its version. In a full
        limited window, an entrant that sorts after the last member is
        dropped without touching the view; a member that leaves or sorts
        past that last member re-runs the query, since the document that
        replaces it is outside the view. Only a changed result is
        re-sorted and diffed.
        """
        ready = [item for item in state.pending if item[0] <= target_ts]
        if not ready:
            state.max_commit_version = target_ts
            return None
        ready.sort(key=itemgetter(0))
        state.pending = [item for item in state.pending if item[0] > target_ts]
        result = state.result
        limit = state.normalized.query.limit
        full = limit is not None and len(result) >= limit
        edge = state.sort_key(state.documents[-1]) if full and state.documents else None
        previous = None

        for commit_ts, change in ready:
            path = change.path
            old = result.get(path)
            doc = None
            if document_matches_query(state.normalized, path, change.new_data):
                create_ts = commit_ts if change.is_create or old is None else old.create_time
                doc = Document(path, change.new_data, create_ts, commit_ts)
                if edge is not None and state.sort_key(doc) > edge:
                    if old is None:
                        continue
                    return self._reset_from(state, previous)
            elif old is None:
                continue
            elif full:
                return self._reset_from(state, previous)
            if previous is None:
                previous = dict(result)
            if doc is None:
                del result[path]
            else:
                result[path] = doc

        state.max_commit_version = target_ts
        if previous is None:
            return None
        return self._diff_snapshots(state, previous, target_ts, is_initial=False)

    def _reset_from(
        self, state: _QueryState, previous: Optional[dict[Path, Document]]
    ) -> None:
        """Drop this pump's partial changes and re-run the query, so its
        snapshot is diffed against what the listener last received."""
        if previous is not None:
            state.result = previous
        self._reset_query(state)

    def _diff_snapshots(
        self,
        state: _QueryState,
        previous: dict[Path, Document],
        read_ts: int,
        is_initial: bool,
    ) -> SnapshotDelta:
        """Re-sort the result, trim it to the limit, diff it against
        ``previous``."""
        ordered = sorted(state.result.values(), key=state.sort_key)
        limit = state.normalized.query.limit
        if limit is not None and len(ordered) > limit:
            for doc in ordered[limit:]:
                del state.result[doc.path]
            del ordered[limit:]
        documents = state.documents = tuple(ordered)
        added = []
        modified = []
        for doc in documents:
            old = previous.get(doc.path)
            if old is None:
                added.append(doc)
            elif old.data != doc.data:
                modified.append(doc)
        removed = tuple(path for path in previous if path not in state.result)
        return SnapshotDelta(
            query_tag=state.tag,
            read_ts=read_ts,
            added=tuple(added),
            modified=tuple(modified),
            removed=removed,
            documents=documents,
            is_initial=is_initial,
        )
