"""The execution-history recorder.

A :class:`HistoryRecorder` receives hook calls from the instrumented hot
paths — the Spanner transaction (begin/read/commit/abort), the Backend's
seven-step write protocol (Prepare/Accept, query results), and the
Real-time Cache delivery pipeline (Changelog accept/flush/watermark,
Frontend snapshot notifications) — and appends one compact,
JSON-serializable event per call. The log is the checker's only input:
``python -m repro.check`` replays nothing, it judges the history.

Like the dynamic sanitizers, recording is opt-in (``REPRO_CHECK=1`` in
the environment, ``pytest --check``, or the :func:`recording` context
manager) and purely observational: a recorded run takes exactly the same
code path as an unrecorded one, so same-seed runs produce byte-identical
history logs (asserted by the replay harness).

Event encoding. Every event is a dict with ``k`` (kind), ``t`` (the sim
clock at record time), an optional ``span`` (current trace span id, the
link back into the Chrome-trace export), and kind-specific fields. Row
keys are hex-encoded composite keys; document paths are their string
form. Kinds:

====================  ====================================================
``begin``             transaction started (``txn``, ``start``)
``read``              transactional point read (``txn``, ``key``, ``ts``
                      = observed version commit_ts — a committed
                      tombstone keeps its commit_ts, -1 means no
                      version ever existed; ``fu`` = for_update)
``scan``              transactional range scan (``txn``, ``lo``, ``hi``)
``commit``            commit applied (``txn``, ``ts``, ``writes`` =
                      [[key, "w"|"d"], ...], ``min``/``max`` window,
                      ``tt_e``/``tt_l`` TrueTime interval at issuance)
``abort``             transaction aborted (``txn``)
``unknown``           commit outcome lost (``txn``, ``applied``)
``snap_read``         lock-free snapshot read (``key``, ``read_ts``,
                      ``ts`` = observed version, -1 for absent)
``query``             query result (``db``, ``read_ts``, ``rows`` =
                      [[entity key, update_ts], ...])
``prepare``           write-protocol step 5 (``db``, ``pid``, ``min``,
                      ``max``, ``paths``)
``accept``            write-protocol step 7 (``db``, ``pid``,
                      ``outcome``, ``ts``, ``paths``)
``cl_accept``         Changelog buffered an accepted commit for a range
                      (``range``, ``pid``, ``outcome``, ``ts``,
                      ``paths``; dropped buffers record outcome
                      ``dropped``)
``cl_deliver``        Changelog flushed one change downstream
                      (``range``, ``ts``, ``path``)
``cl_watermark``      a range's complete-prefix watermark advanced
                      (``range``, ``wm``)
``cl_oos``            range entered the out-of-sync fail-safe
                      (``range``)
``cl_resync``         range recovered (``range``)
``notify``            Frontend delivered a snapshot to a listener
                      (``tag``, ``read_ts``, ``initial``, ``paths``)
``repl_commit``       a replica group quorum-committed a log entry
                      (``grp``, ``term``, ``leader``, ``ts``, ``acks``)
``repl_apply``        a follower applied a shipped entry (``grp``,
                      ``region``, ``ts`` — the per-replica watermark)
``repl_elect``        leader failover (``grp``, ``term``, ``leader`` =
                      the new leader, ``min_ts`` = floor on later
                      commit timestamps)
``repl_read``         bounded-staleness read routed to a replica
                      (``grp``, ``region``, ``read_ts``, ``safe``,
                      ``bound``)
====================  ====================================================
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Iterable, Optional

#: process-wide override (None = follow the environment)
_FORCED: Optional[bool] = None

#: recorders installed while checking was enabled, for collection by the
#: CLI / pytest --check teardown (drained, never implicitly cleared)
_LIVE: list["HistoryRecorder"] = []


def checking_enabled() -> bool:
    """Whether new SpannerDatabases should install a history recorder."""
    if _FORCED is not None:
        return _FORCED
    return os.environ.get("REPRO_CHECK", "").lower() not in (
        "",
        "0",
        "false",
        "no",
    )


def set_enabled(on: Optional[bool]) -> None:
    """Force recording on/off for this process (None = follow the env)."""
    global _FORCED
    _FORCED = on


class HistoryRecorder:
    """Append-only execution history for one Spanner database's world."""

    def __init__(
        self,
        clock=None,
        tracer_provider: Optional[Callable[[], Any]] = None,
        name: str = "",
    ):
        self.clock = clock
        self.name = name
        self._tracer_provider = tracer_provider
        self.events: list[dict] = []

    # -- event plumbing ----------------------------------------------------

    def _record(self, kind: str, **fields) -> None:
        event: dict[str, Any] = {"k": kind}
        if self.clock is not None:
            event["t"] = self.clock.now_us
        tracer = self._tracer_provider() if self._tracer_provider else None
        if tracer:
            context = tracer.current_context()
            if context is not None:
                event["span"] = context.span_id
        event.update(fields)
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    # -- Spanner transaction taps ------------------------------------------

    def txn_begin(self, txn_id: int, start_ts: int) -> None:
        """A read-write transaction started."""
        self._record("begin", txn=txn_id, start=start_ts)

    def txn_read(
        self, txn_id: int, key: bytes, version_ts: int, for_update: bool
    ) -> None:
        """A transactional point read observed the version committed at
        ``version_ts`` (tombstones included; -1 = no version existed)."""
        self._record(
            "read", txn=txn_id, key=key.hex(), ts=version_ts, fu=for_update
        )

    def txn_scan(
        self, txn_id: int, start: bytes, end: Optional[bytes]
    ) -> None:
        """A transactional range scan opened over [start, end)."""
        self._record(
            "scan",
            txn=txn_id,
            lo=start.hex(),
            hi=end.hex() if end is not None else None,
        )

    def txn_commit(
        self,
        txn_id: int,
        commit_ts: int,
        writes: Iterable[tuple[bytes, str]],
        min_ts: int,
        max_ts: Optional[int],
        tt_earliest: int,
        tt_latest: int,
    ) -> None:
        """A commit applied its mutations at ``commit_ts``."""
        self._record(
            "commit",
            txn=txn_id,
            ts=commit_ts,
            writes=[[key.hex(), kind] for key, kind in writes],
            min=min_ts,
            max=max_ts,
            tt_e=tt_earliest,
            tt_l=tt_latest,
        )

    def txn_abort(self, txn_id: int) -> None:
        """A transaction aborted and released its locks."""
        self._record("abort", txn=txn_id)

    def txn_unknown(self, txn_id: int, applied: bool) -> None:
        """A commit acknowledgement was lost (outcome unknown)."""
        self._record("unknown", txn=txn_id, applied=applied)

    def snapshot_read(self, key: bytes, read_ts: int, version_ts: int) -> None:
        """A lock-free snapshot read observed ``version_ts`` (-1 absent)."""
        self._record("snap_read", key=key.hex(), read_ts=read_ts, ts=version_ts)

    # -- Backend write-protocol taps ---------------------------------------

    def backend_prepare(
        self,
        database_id: str,
        prepare_id: int,
        min_ts: int,
        max_ts: int,
        paths: Iterable[str],
    ) -> None:
        """Step 5: the Backend reserved a commit window."""
        self._record(
            "prepare",
            db=database_id,
            pid=prepare_id,
            min=min_ts,
            max=max_ts,
            paths=list(paths),
        )

    def backend_accept(
        self,
        database_id: str,
        prepare_id: int,
        outcome: str,
        commit_ts: int,
        paths: Iterable[str],
    ) -> None:
        """Step 7: the Backend reported the commit outcome."""
        self._record(
            "accept",
            db=database_id,
            pid=prepare_id,
            outcome=outcome,
            ts=commit_ts,
            paths=list(paths),
        )

    def query_result(
        self,
        database_id: str,
        read_ts: int,
        rows: Iterable[tuple[str, int]],
    ) -> None:
        """A query returned ``rows`` = (entity key hex, update_ts) pairs."""
        self._record(
            "query",
            db=database_id,
            read_ts=read_ts,
            rows=[[key, ts] for key, ts in rows],
        )

    # -- Real-time Cache delivery taps -------------------------------------

    def changelog_accept(
        self,
        range_id: int,
        prepare_id: int,
        outcome: str,
        commit_ts: int,
        paths: Iterable[str],
    ) -> None:
        """The Changelog resolved a prepare on one range."""
        self._record(
            "cl_accept",
            range=range_id,
            pid=prepare_id,
            outcome=outcome,
            ts=commit_ts,
            paths=list(paths),
        )

    def changelog_deliver(self, range_id: int, commit_ts: int, path: str) -> None:
        """The Changelog flushed one buffered change downstream."""
        self._record("cl_deliver", range=range_id, ts=commit_ts, path=path)

    def changelog_watermark(self, range_id: int, watermark: int) -> None:
        """A range's complete-prefix watermark advanced."""
        self._record("cl_watermark", range=range_id, wm=watermark)

    def changelog_out_of_sync(self, range_id: int) -> None:
        """A range entered the out-of-sync fail-safe."""
        self._record("cl_oos", range=range_id)

    def changelog_resync(self, range_id: int) -> None:
        """A range recovered from out-of-sync."""
        self._record("cl_resync", range=range_id)

    def notify(
        self,
        tag: Any,
        read_ts: int,
        initial: bool,
        paths: Iterable[str],
    ) -> None:
        """A Frontend delivered one consistent snapshot to a listener."""
        self._record(
            "notify",
            tag=str(tag),
            read_ts=read_ts,
            initial=initial,
            paths=list(paths),
        )

    # -- replication taps --------------------------------------------------

    def repl_commit(
        self, group: str, term: int, leader: str, commit_ts: int, acks: int
    ) -> None:
        """A replica group quorum-committed one log entry."""
        self._record(
            "repl_commit", grp=group, term=term, leader=leader, ts=commit_ts,
            acks=acks,
        )

    def repl_apply(self, group: str, region: str, commit_ts: int) -> None:
        """A follower applied a shipped entry (its watermark advanced)."""
        self._record("repl_apply", grp=group, region=region, ts=commit_ts)

    def repl_elect(
        self, group: str, term: int, leader: str, min_next_commit_ts: int
    ) -> None:
        """A leader failover completed."""
        self._record(
            "repl_elect", grp=group, term=term, leader=leader,
            min_ts=min_next_commit_ts,
        )

    def follower_read(
        self,
        group: str,
        region: str,
        read_ts: int,
        safe_ts: int,
        bound_us: int,
    ) -> None:
        """A bounded-staleness read was routed to a replica."""
        self._record(
            "repl_read", grp=group, region=region, read_ts=read_ts,
            safe=safe_ts, bound=bound_us,
        )

    # -- serialization -----------------------------------------------------

    def to_jsonl(self) -> str:
        """The compact, line-per-event log (byte-identical across same-
        seed runs — the replay harness asserts this)."""
        return "\n".join(
            json.dumps(event, sort_keys=True, separators=(",", ":"))
            for event in self.events
        )

    @staticmethod
    def parse_jsonl(text: str) -> list[dict]:
        """Parse a history log back into its event list."""
        return [json.loads(line) for line in text.splitlines() if line.strip()]


# -- installation ----------------------------------------------------------


def install(db) -> HistoryRecorder:
    """Install a history recorder onto a SpannerDatabase instance."""
    recorder = HistoryRecorder(
        clock=db.clock,
        tracer_provider=lambda: getattr(db, "probe", None),
        name=db.name,
    )
    db.recorder = recorder
    _LIVE.append(recorder)
    return recorder


def maybe_install(db) -> Optional[HistoryRecorder]:
    """Install a recorder iff checking is enabled and none is present."""
    if checking_enabled() and getattr(db, "recorder", None) is None:
        return install(db)
    return None


def drain_recorders() -> list[HistoryRecorder]:
    """Collect (and forget) every recorder installed since the last drain."""
    drained = list(_LIVE)
    _LIVE.clear()
    return drained


class recording:
    """Context manager: force recording on, collect the recorders.

    ::

        with recording() as recorders:
            run_scenario()
        for recorder in recorders:
            assert_clean(check_history(recorder.events))
    """

    def __init__(self) -> None:
        self.recorders: list[HistoryRecorder] = []

    def __enter__(self) -> list[HistoryRecorder]:
        self._previous = _FORCED
        drain_recorders()
        set_enabled(True)
        return self.recorders

    def __exit__(self, exc_type, exc, tb) -> None:
        self.recorders.extend(drain_recorders())
        set_enabled(self._previous)
