"""The Query Matcher.

"On receiving the document, the Query Matcher matches it with all the
queries registered for that key range and sends the matched documents to
the Frontend task" (paper section IV-D4, step 5). A subscription carries
the query and a ``max-commit-version``; only updates with later commit
timestamps are forwarded.

A change is relevant when the document matched the query *before or
after* the mutation — leaving a result set is as much an update as
entering it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.path import Path
from repro.core.query import NormalizedQuery, matches_filter
from repro.core.values import get_field
from repro.realtime.protocol import DocumentChange
from repro.realtime.ranges import NameRange, RangeOwnership


def document_matches_query(
    normalized: NormalizedQuery, path: Path, data: Optional[dict]
) -> bool:
    """Would a document with ``data`` appear in this query's results?

    Checks collection membership, every filter, and presence of every
    order-by field (documents missing an ordered field are absent from
    the index the query scans).
    """
    return path.parent() == normalized.query.parent and _data_matches_query(
        normalized, data
    )


def _data_matches_query(normalized: NormalizedQuery, data: Optional[dict]) -> bool:
    """The filter and order-field half of :func:`document_matches_query`,
    for a caller that has already checked the collection."""
    if data is None:
        return False
    for flt in normalized.query.filters:
        if not matches_filter(data, flt):
            return False
    for order in normalized.core_orders:
        present, _ = get_field(data, order.field_path)
        if not present:
            return False
    return True


@dataclass
class Subscription:
    """One real-time query registered with the Matcher."""

    subscription_id: int
    normalized: NormalizedQuery
    resume_ts: int  # forward only commits strictly after this
    deliver: Callable[[int, DocumentChange], None]  # (subscription_id, change)
    notify_watermark: Callable[[int, int, int], None]  # (sub_id, range_id, ts)
    notify_reset: Callable[[int], None]  # (sub_id)
    range_ids: set[int]


class QueryMatcher:
    """Matcher tasks for one database's ranges."""

    def __init__(self, ownership: RangeOwnership, tracer=None, metrics=None):
        from repro.obs.tracer import NULL_TRACER

        self.ownership = ownership
        self._ids = itertools.count(1)
        # range_id -> {subscription_id -> Subscription}
        self._by_range: dict[int, dict[int, Subscription]] = {}
        self._subs: dict[int, Subscription] = {}
        # observability
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.changes_examined = 0
        self.changes_forwarded = 0

    # -- subscription management ----------------------------------------------------

    def subscribe(
        self,
        normalized: NormalizedQuery,
        resume_ts: int,
        deliver: Callable[[int, DocumentChange], None],
        notify_watermark: Callable[[int, int, int], None],
        notify_reset: Callable[[int], None],
    ) -> Subscription:
        """Register a query over the ranges covering its collection."""
        ranges = self.ownership.ranges_for_collection(normalized.query.parent)
        subscription = Subscription(
            subscription_id=next(self._ids),
            normalized=normalized,
            resume_ts=resume_ts,
            deliver=deliver,
            notify_watermark=notify_watermark,
            notify_reset=notify_reset,
            range_ids={r.range_id for r in ranges},
        )
        self._subs[subscription.subscription_id] = subscription
        for name_range in ranges:
            self._by_range.setdefault(name_range.range_id, {})[
                subscription.subscription_id
            ] = subscription
        return subscription

    def unsubscribe(self, subscription_id: int) -> None:
        """Remove a subscription from every range."""
        subscription = self._subs.pop(subscription_id, None)
        if subscription is None:
            return
        for range_id in subscription.range_ids:
            self._by_range.get(range_id, {}).pop(subscription_id, None)

    def subscription_count(self) -> int:
        """Registered subscriptions."""
        return len(self._subs)

    # -- change / heartbeat / reset fan-in from the Changelog ---------------------------

    def on_change(self, name_range: NameRange, change: DocumentChange) -> None:
        """Changelog fan-in: match one mutation against subscribers."""
        examined = 0
        forwarded = 0
        attrs = (
            {"range_id": name_range.range_id, "path": str(change.path)}
            if self.tracer
            else None
        )
        with self.tracer.span(
            "matcher.match", component="realtime", attributes=attrs
        ) as span:
            subscriptions = list(self._by_range.get(name_range.range_id, {}).values())
            # one path for every subscription: find its collection once,
            # and only when someone listens on the range
            parent = change.path.parent() if subscriptions else None
            for subscription in subscriptions:
                examined += 1
                if change.commit_ts <= subscription.resume_ts:
                    continue
                normalized = subscription.normalized
                if parent != normalized.query.parent:
                    continue
                if _data_matches_query(
                    normalized, change.old_data
                ) or _data_matches_query(normalized, change.new_data):
                    forwarded += 1
                    subscription.deliver(subscription.subscription_id, change)
            span.set_attribute("examined", examined)
            span.set_attribute("forwarded", forwarded)
        self.changes_examined += examined
        self.changes_forwarded += forwarded
        if self.metrics is not None:
            self.metrics.counter("matcher_changes_examined").inc(examined)
            self.metrics.counter("matcher_changes_forwarded").inc(forwarded)

    def on_heartbeat(self, name_range: NameRange, watermark: int) -> None:
        """Changelog fan-in: forward a range watermark."""
        for subscription in list(self._by_range.get(name_range.range_id, {}).values()):
            subscription.notify_watermark(
                subscription.subscription_id, name_range.range_id, watermark
            )

    def on_out_of_sync(self, name_range: NameRange) -> None:
        """Propagate the reset "all the way up to all Frontend tasks with a
        real-time query that matches the name range"."""
        for subscription in list(self._by_range.get(name_range.range_id, {}).values()):
            subscription.notify_reset(subscription.subscription_id)

    def on_reassign(self, old: NameRange, new: list[NameRange]) -> None:
        """Ownership moved (Slicer re-sharding): reset affected queries."""
        affected = list(self._by_range.pop(old.range_id, {}).values())
        for subscription in affected:
            subscription.notify_reset(subscription.subscription_id)
