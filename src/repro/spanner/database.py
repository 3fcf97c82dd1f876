"""The simulated Spanner database: tables, directories, tablets, snapshots.

Key layout. Every row lives in the *composite keyspace*::

    composite_key = table_tag (1 byte) || row_key

Row keys themselves are produced by the Firestore layout layer and begin
with the database's directory prefix, so all rows of one Firestore database
within one table are contiguous — the paper's "specific directory within a
small number of pre-initialized Spanner databases" (section IV-D1).

Tablets partition the composite keyspace into consecutive ranges, so a
transaction touching Entities and IndexEntries rows typically spans
multiple tablets and commits with two-phase commit, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional

from repro.errors import InternalError
from repro.sim.clock import SimClock
from repro.sim.truetime import TrueTime
from repro.spanner.locks import LockTable
from repro.spanner.mvcc import TOMBSTONE
from repro.spanner.tablet import Tablet
from repro.spanner.messaging import TransactionalMessageQueue


@dataclass(frozen=True)
class TableSchema:
    """A fixed-schema table. The simulation stores opaque row payloads;
    the schema records intent and assigns the key-space tag."""

    name: str
    tag: int  # single byte prefixed to row keys

    def prefix(self) -> bytes:
        """The table's one-byte key-space tag."""
        return bytes([self.tag])

    def composite_key(self, row_key: bytes) -> bytes:
        """tag || row_key: the key in the shared keyspace."""
        return bytes([self.tag]) + row_key


class SpannerDatabase:
    """One pre-initialized Spanner database shared by many Firestore DBs."""

    def __init__(
        self,
        name: str = "spanner-db",
        clock: Optional[SimClock] = None,
        truetime: Optional[TrueTime] = None,
        gc_horizon_us: int = 3_600_000_000,  # 1 hour of versions
    ):
        self.name = name
        self.clock = clock if clock is not None else SimClock()
        self.truetime = truetime if truetime is not None else TrueTime(self.clock)
        self.gc_horizon_us = gc_horizon_us
        self.tables: dict[str, TableSchema] = {}
        self._next_tag = 1
        self.tablets: list[Tablet] = [Tablet(b"", None)]
        self.locks = LockTable()
        self.message_queue = TransactionalMessageQueue(clock=self.clock)
        self._next_txn_id = 1
        self._directories: set[bytes] = set()
        # deterministic fault plane (repro.faults.FaultPlan): duck-typed
        # like sanitizer/recorder so this layer needs no import — None
        # means every injection hook is inert
        self.fault_plan = None
        # geo-replica group (repro.replication.ReplicaGroup): duck-typed
        # like fault_plan; None means single-replica semantics (commits
        # skip the quorum machinery, bounded reads serve locally)
        self.replication = None
        # observability: the owning service's repro.obs.probe.Probe
        from repro.obs.probe import NULL_PROBE

        self.probe = NULL_PROBE
        self._metrics = None
        self.commits = 0
        self.aborts = 0
        # dynamic sanitizers (repro.analysis): installed when
        # REPRO_SANITIZE=1 / pytest --sanitize; wraps locks+truetime with
        # checking proxies and receives on_* hooks from the hot paths
        self.sanitizer = None
        from repro.analysis.sanitizers import maybe_install

        maybe_install(self)
        # execution-history recorder (repro.check): installed when
        # REPRO_CHECK=1 / pytest --check; the transaction, write-protocol
        # and realtime-delivery paths feed it the events the offline
        # consistency checker judges
        self.recorder = None
        from repro.check.history import maybe_install as maybe_record

        maybe_record(self)

    @property
    def metrics(self):
        """The optional repro.obs MetricsRegistry this database reports to."""
        return self._metrics

    @metrics.setter
    def metrics(self, registry) -> None:
        self._metrics = registry
        self.locks.metrics = registry
        self.locks.owner = self.name

    # -- schema and directories ---------------------------------------------

    def create_table(self, name: str) -> TableSchema:
        """Register a fixed-schema table with a fresh tag."""
        if name in self.tables:
            raise InternalError(f"table {name!r} already exists")
        if self._next_tag > 0xFE:
            raise InternalError("table tag space exhausted")
        schema = TableSchema(name, self._next_tag)
        self._next_tag += 1
        self.tables[name] = schema
        return schema

    def table(self, name: str) -> TableSchema:
        """Look up a table's schema by name."""
        schema = self.tables.get(name)
        if schema is None:
            raise InternalError(f"no such table: {name!r}")
        return schema

    def create_directory(self, prefix: bytes) -> bytes:
        """Register a directory (a row-key prefix guiding placement)."""
        self._directories.add(prefix)
        return prefix

    @property
    def directories(self) -> set[bytes]:
        """Registered directory prefixes."""
        return set(self._directories)

    # -- tablet lookup -------------------------------------------------------

    def tablet_for(self, composite_key: bytes) -> Tablet:
        """The tablet whose range covers a composite key."""
        lo, hi = 0, len(self.tablets) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            tablet = self.tablets[mid]
            if composite_key < tablet.start_key:
                hi = mid - 1
            elif tablet.end_key is not None and composite_key >= tablet.end_key:
                lo = mid + 1
            else:
                return tablet
        raise InternalError(f"no tablet covers key {composite_key!r}")

    def tablets_for_range(
        self, start: bytes, end: Optional[bytes]
    ) -> list[Tablet]:
        """Tablets intersecting [start, end), in key order."""
        result = []
        for tablet in self.tablets:
            if tablet.end_key is not None and tablet.end_key <= start:
                continue
            if end is not None and tablet.start_key >= end:
                break
            result.append(tablet)
        return result

    # -- snapshot (lock-free) reads -------------------------------------------

    def snapshot_read(self, table: str, row_key: bytes, read_ts: int) -> Any:
        """Timestamped read; returns None if the row is absent/deleted."""
        value = self.snapshot_read_versioned(table, row_key, read_ts)
        return None if value is None else value[1]

    def snapshot_read_versioned(
        self, table: str, row_key: bytes, read_ts: int
    ) -> Optional[tuple[int, Any]]:
        """Like :meth:`snapshot_read` but returns (commit_ts, value).

        Emulates Spanner's commit-timestamp columns: the version's commit
        timestamp is the row's last-update time.
        """
        schema = self.table(table)
        ckey = schema.composite_key(row_key)
        tablet = self.tablet_for(ckey)
        tablet.stats.record_read(self.clock.now_us)
        chain = tablet.rows.get(ckey)
        recorder = self.recorder
        if chain is None:
            if recorder is not None:
                recorder.snapshot_read(ckey, read_ts, -1)
            return None
        version = chain.read_versioned_at(read_ts)
        if self.sanitizer is not None:
            self.sanitizer.on_snapshot_read(ckey, chain, read_ts, version)
        if version is None or version[1] is TOMBSTONE:
            if recorder is not None:
                recorder.snapshot_read(ckey, read_ts, -1)
            return None
        if recorder is not None:
            recorder.snapshot_read(ckey, read_ts, version[0])
        return version

    def snapshot_scan(
        self,
        table: str,
        start: Optional[bytes],
        end: Optional[bytes],
        read_ts: int,
        reverse: bool = False,
        limit: Optional[int] = None,
    ) -> Iterator[tuple[bytes, Any]]:
        """Ordered range scan at ``read_ts`` over row keys [start, end).

        Yields (row_key, value) with the table tag stripped. The scan
        chains across tablets in key order (reverse order if requested),
        mirroring Spanner's efficient in-order linear scans.
        """
        schema = self.table(table)
        cstart = schema.composite_key(start if start is not None else b"")
        if end is not None:
            cend = schema.composite_key(end)
        else:
            cend = bytes([schema.tag + 1])  # first key of the next table
        tablets = self.tablets_for_range(cstart, cend)
        if reverse:
            tablets = list(reversed(tablets))
        now = self.clock.now_us
        yielded = 0
        for tablet in tablets:
            tablet.stats.record_read(now)
            for ckey, value in tablet.scan_at(cstart, cend, read_ts, reverse=reverse):
                yield ckey[1:], value
                yielded += 1
                if limit is not None and yielded >= limit:
                    return

    def bounded_staleness_read(
        self,
        table: str,
        row_key: bytes,
        staleness_bound_us: int,
        client_region: str = "",
    ) -> tuple[str, int, Any]:
        """A bounded-staleness read, served by the nearest caught-up replica.

        The read timestamp is ``now - staleness_bound_us``, so the result
        is never staler than the bound. With a replica group installed the
        group routes to the closest replica whose safe time covers the
        read timestamp (leader fallback); without one the single replica
        serves it. Returns ``(serving_region, read_ts, value)``.
        """
        group = self.replication
        if group is not None:
            region, read_ts = group.route_read(
                client_region or group.leader_region, staleness_bound_us
            )
        else:
            region = ""
            read_ts = max(0, self.clock.now_us - staleness_bound_us)
        return region, read_ts, self.snapshot_read(table, row_key, read_ts)

    def current_timestamp(self) -> int:
        """A safe timestamp for strong reads: every commit <= it is visible."""
        return self.truetime.last_issued or self.clock.now_us

    # -- transactions ----------------------------------------------------------

    def begin(self) -> "ReadWriteTransaction":
        """Start a lock-based read-write transaction."""
        from repro.spanner.transaction import ReadWriteTransaction

        txn_id = self._next_txn_id
        self._next_txn_id += 1
        return ReadWriteTransaction(self, txn_id)

    # -- maintenance -------------------------------------------------------------

    def gc(self) -> int:
        """Garbage-collect versions older than the horizon, all tablets."""
        horizon = max(0, self.clock.now_us - self.gc_horizon_us)
        return sum(tablet.gc(horizon) for tablet in self.tablets)

    def total_rows(self) -> int:
        """Row count across every tablet (including tombstoned chains)."""
        return sum(len(t.rows) for t in self.tablets)

    def __repr__(self) -> str:
        return (
            f"SpannerDatabase({self.name!r}, tables={list(self.tables)}, "
            f"tablets={len(self.tablets)}, rows={self.total_rows()})"
        )
