"""Query execution: index range scans, zig-zag joins, document fetch.

"Firestore's query engine executes all queries using either a linear scan
over a range of a single secondary index in the Spanner IndexEntries
table, or a join of several such secondary indexes, followed by lookup of
the corresponding documents in the Entities table, with no in-memory
sorting, filtering, etc." (paper section IV-D3)

The executor also implements the isolation affordances of section IV-C:
"We limit the result-set size and the amount of work done for a single
RPC ... Firestore APIs support returning partial results for a query as
well as resuming a partially-executed query" — via ``max_work`` and the
returned resume token.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional

from repro.errors import InternalError
from repro.core.document import Document
from repro.core.encoding import encode_doc_name, encode_value, prefix_successor
from repro.core.index_entries import scan_prefix
from repro.core.indexes import IndexMode
from repro.core.layout import ENTITIES, INDEX_ENTRIES, DatabaseLayout, EntityRow
from repro.core.path import Path
from repro.core.planner import IndexScanSpec, QueryPlan
from repro.core.query import (
    Cursor,
    Filter,
    NormalizedQuery,
    Operator,
    matches_filter,
)
from repro.core.serialization import deserialize_document
from repro.core.values import get_field


@dataclass
class QueryResult:
    """Documents matching a query at one timestamp."""

    documents: list[Document]
    read_ts: int
    #: True when the work limit stopped execution early
    partial: bool = False
    #: opaque token to resume a partial query (pass as ``resume_token``)
    resume_token: Optional[bytes] = None

    @property
    def paths(self) -> list[Path]:
        """The result documents' paths, in query order."""
        return [doc.path for doc in self.documents]


@dataclass
class _ByteRange:
    """Absolute [start, end) row-key bounds; None end means unbounded."""

    start: bytes
    end: Optional[bytes]

    def clamp_start(self, bound: bytes) -> None:
        if bound > self.start:
            self.start = bound

    def clamp_end(self, bound: Optional[bytes]) -> None:
        if bound is not None and (self.end is None or bound < self.end):
            self.end = bound

    def is_empty(self) -> bool:
        return self.end is not None and self.start >= self.end


class QueryExecutor:
    """Executes query plans against one database's layout."""

    def __init__(self, layout: DatabaseLayout, probe=None):
        from repro.obs.probe import NULL_PROBE

        self.layout = layout
        self.probe = probe if probe is not None else NULL_PROBE

    # -- public entry point -----------------------------------------------------

    def execute(
        self,
        plan: QueryPlan,
        read_ts: int,
        txn=None,
        max_work: Optional[int] = None,
        resume_token: Optional[bytes] = None,
    ) -> QueryResult:
        """Run ``plan`` at ``read_ts`` (or inside ``txn``, under locks).

        ``max_work`` caps the number of index entries / rows examined; a
        capped query returns ``partial=True`` with a resume token (only
        single-index and entities plans can resume; joins re-run).
        """
        normalized = plan.normalized
        budget = _WorkBudget(max_work)
        with self.probe.span(
            "executor.execute",
            component="backend",
            attributes={"plan": plan.kind, "read_ts": read_ts},
        ) as span:
            if plan.kind == "entities":
                rows = self._entities_rows(plan, read_ts, txn, budget, resume_token)
            elif plan.kind == "single":
                rows = self._single_index_rows(
                    plan, read_ts, txn, budget, resume_token
                )
            elif plan.kind == "join":
                rows = self._zigzag_rows(plan, read_ts, txn, budget)
            else:  # pragma: no cover - planner only emits the three kinds
                raise InternalError(f"unknown plan kind {plan.kind}")

            documents: list[Document] = []
            skipped = 0
            limit = normalized.query.limit
            offset = normalized.query.offset
            partial = False
            last_processed: Optional[bytes] = None
            for doc, resume in rows:
                if budget.exhausted:
                    # the current row is NOT processed; the resume token
                    # names the last row that was, so a continuation
                    # re-examines this one rather than skipping it
                    partial = True
                    break
                last_processed = resume
                if not self._residual_match(doc, normalized):
                    continue
                if skipped < offset:
                    skipped += 1
                    continue
                if limit is not None and len(documents) >= limit:
                    break
                documents.append(self._project(doc, normalized))
                if limit is not None and len(documents) >= limit:
                    break
            span.set_attribute("rows_examined", budget.spent)
            span.set_attribute("documents", len(documents))
            span.set_attribute("partial", partial)
            return QueryResult(
                documents,
                read_ts,
                partial=partial,
                resume_token=last_processed if partial else None,
            )

    def count(
        self,
        plan: QueryPlan,
        read_ts: int,
        txn=None,
        max_work: Optional[int] = None,
    ) -> tuple[int, int]:
        """COUNT aggregation: how many documents match, without fetching.

        Returns (count, rows_examined). The paper's future-work section
        (VIII) notes that "a COUNT query returns a single value but may
        count millions of documents" — ``rows_examined`` is the billing-
        relevant work metric that motivates extending the billing model.
        """
        normalized = plan.normalized
        budget = _WorkBudget(max_work)
        examined = 0
        raw = 0
        if plan.kind == "entities":
            parent = normalized.query.parent
            start, end = self.layout.collection_scan_range(parent)
            expected_depth = parent.depth + 1
            from repro.core.encoding import decode_doc_name

            prefix_len = len(self.layout.directory_prefix)
            for key, _row in self._scan(
                ENTITIES, _ByteRange(start, end), read_ts, txn, False
            ):
                budget.spend()
                examined += 1
                if budget.exhausted:
                    break
                segments, _ = decode_doc_name(key[prefix_len:])
                if len(segments) == expected_depth:
                    raw += 1
        elif plan.kind == "single":
            bounds = self._scan_bounds(plan, plan.scans[0])
            if not bounds.is_empty():
                for _key, _payload in self._scan(
                    INDEX_ENTRIES, bounds, read_ts, txn, False
                ):
                    budget.spend()
                    examined += 1
                    if budget.exhausted:
                        break
                    raw += 1
        else:  # zig-zag join: count agreements without document fetch
            for _ in self._zigzag_matches(plan, read_ts, txn, budget):
                raw += 1
            examined = budget.spent
        query = normalized.query
        effective = max(0, raw - query.offset)
        if query.limit is not None:
            effective = min(effective, query.limit)
        return effective, examined

    def _zigzag_matches(self, plan: QueryPlan, read_ts: int, txn, budget):
        """Yield one item per zig-zag agreement, fetch-free."""
        scanners = []
        for spec in plan.scans:
            bounds = self._scan_bounds(plan, spec)
            if bounds.is_empty():
                return
            prefix_len = len(
                self._index_prefix(spec, plan.normalized.query.parent)
            )
            scanners.append(
                _SeekableScan(
                    self, bounds, prefix_len, read_ts, txn, plan.reverse, budget
                )
            )
        while True:
            if budget.exhausted:
                return
            suffixes = []
            for scanner in scanners:
                head = scanner.peek()
                if head is None:
                    return
                suffixes.append(head[0])
            target = max(suffixes) if not plan.reverse else min(suffixes)
            if all(suffix == target for suffix in suffixes):
                for scanner in scanners:
                    scanner.advance()
                yield target
                continue
            for scanner, suffix in zip(scanners, suffixes):
                if suffix != target:
                    scanner.seek(target)

    # -- entities scans -------------------------------------------------------------

    def _entities_rows(
        self,
        plan: QueryPlan,
        read_ts: int,
        txn,
        budget: "_WorkBudget",
        resume_token: Optional[bytes],
    ) -> Iterator[tuple[Document, bytes]]:
        parent = plan.normalized.query.parent
        start, end = self.layout.collection_scan_range(parent)
        bounds = _ByteRange(start, end)
        self._apply_name_cursors(plan, parent, bounds)
        if resume_token is not None:
            if plan.reverse:
                bounds.clamp_end(resume_token)
            else:
                bounds.clamp_start(_key_successor(resume_token))
        if bounds.is_empty():
            return
        expected_depth = parent.depth + 1
        for key, value in self._scan(
            ENTITIES, bounds, read_ts, txn, plan.reverse
        ):
            budget.spend()
            doc = self._decode_entity(key, value, read_ts, txn)
            if doc is None or doc.path.depth != expected_depth:
                continue
            yield doc, key

    def _apply_name_cursors(self, plan: QueryPlan, parent: Path, bounds: _ByteRange) -> None:
        query = plan.normalized.query
        for cursor, is_start in ((query.start_cursor, True), (query.end_cursor, False)):
            if cursor is None or not cursor.values:
                continue
            path = self._cursor_path(parent, cursor.values[0])
            absolute = self.layout.entity_key(path)
            inclusive_edge = cursor.before == is_start
            self._clamp_for_cursor(
                bounds, absolute, is_start, inclusive_edge, plan.reverse
            )

    def _cursor_path(self, parent: Path, value: Any) -> Path:
        if isinstance(value, Path):
            return value
        if isinstance(value, str):
            if "/" in value:
                return Path.parse(value)
            return parent.child(value)
        raise InternalError(f"bad __name__ cursor value: {value!r}")

    # -- single-index scans -------------------------------------------------------------

    def _single_index_rows(
        self,
        plan: QueryPlan,
        read_ts: int,
        txn,
        budget: "_WorkBudget",
        resume_token: Optional[bytes],
    ) -> Iterator[tuple[Document, bytes]]:
        spec = plan.scans[0]
        bounds = self._scan_bounds(plan, spec)
        if resume_token is not None:
            if plan.reverse:
                bounds.clamp_end(resume_token)
            else:
                bounds.clamp_start(_key_successor(resume_token))
        if bounds.is_empty():
            return
        for key, payload in self._scan(
            INDEX_ENTRIES, bounds, read_ts, txn, plan.reverse
        ):
            budget.spend()
            doc = self._fetch_document(Path(*payload), read_ts, txn)
            if doc is not None:
                yield doc, key

    # -- zig-zag joins ----------------------------------------------------------------------

    def _zigzag_rows(
        self,
        plan: QueryPlan,
        read_ts: int,
        txn,
        budget: "_WorkBudget",
    ) -> Iterator[tuple[Document, bytes]]:
        """Zig-zag merge join over index scans sharing an order suffix.

        Each scanner yields entries keyed by (suffix values, doc name);
        the join repeatedly advances the laggards to the frontrunner's
        position and emits when all scanners agree (paper section IV-D3:
        '"zig-zag joins" [16]').
        """
        scanners = []
        for spec in plan.scans:
            bounds = self._scan_bounds(plan, spec)
            if bounds.is_empty():
                return
            prefix_len = len(
                self._index_prefix(spec, plan.normalized.query.parent)
            )
            scanners.append(
                _SeekableScan(
                    self, bounds, prefix_len, read_ts, txn, plan.reverse, budget
                )
            )
        while True:
            suffixes = []
            for scanner in scanners:
                head = scanner.peek()
                if head is None:
                    return
                suffixes.append(head[0])
            target = max(suffixes) if not plan.reverse else min(suffixes)
            if all(suffix == target for suffix in suffixes):
                _, payload = scanners[0].peek()
                doc = self._fetch_document(Path(*payload), read_ts, txn)
                for scanner in scanners:
                    scanner.advance()
                if doc is not None:
                    yield doc, target
                continue
            for scanner, suffix in zip(scanners, suffixes):
                if suffix != target:
                    scanner.seek(target)

    # -- bounds construction -------------------------------------------------------------

    def _index_prefix(self, spec: IndexScanSpec, parent: Path) -> bytes:
        """index_id + parent + encoded equality/contains prefix values."""
        encoded = bytearray()
        for index_field, flt in zip(spec.index.fields, spec.prefix_filters):
            direction = (
                "asc" if index_field.mode is IndexMode.CONTAINS else index_field.direction
            )
            encoded += encode_value(flt.value, direction)
        return self.layout.index_key(
            scan_prefix(spec.index.index_id, parent, bytes(encoded))
        )

    def _scan_bounds(self, plan: QueryPlan, spec: IndexScanSpec) -> _ByteRange:
        prefix = self._index_prefix(spec, plan.normalized.query.parent)
        bounds = _ByteRange(prefix, prefix_successor(prefix))
        normalized = plan.normalized
        split = spec.prefix_len
        suffix_fields = spec.index.fields[split:]

        # inequality bounds apply to the first suffix field, encoded with
        # the *index's* stored direction (byte bounds are orientation-free)
        if normalized.inequalities and suffix_fields:
            direction = suffix_fields[0].direction
            for flt in normalized.inequalities:
                self._apply_inequality(bounds, prefix, flt, direction)

        # cursors bound the full suffix tuple
        query = normalized.query
        for cursor, is_start in ((query.start_cursor, True), (query.end_cursor, False)):
            if cursor is None:
                continue
            encoded = self._encode_cursor(cursor, spec, normalized, prefix)
            inclusive_edge = cursor.before == is_start
            self._clamp_for_cursor(bounds, encoded, is_start, inclusive_edge, plan.reverse)
        return bounds

    def _apply_inequality(
        self, bounds: _ByteRange, prefix: bytes, flt: Filter, direction: str
    ) -> None:
        encoded = prefix + encode_value(flt.value, direction)
        ascending = direction == "asc"
        op = flt.op
        if not ascending:
            # in a descending index, larger values have smaller keys
            op = {
                Operator.GT: Operator.LT,
                Operator.GE: Operator.LE,
                Operator.LT: Operator.GT,
                Operator.LE: Operator.GE,
            }[op]
        if op is Operator.GT:
            bounds.clamp_start(prefix_successor(encoded) or encoded)
        elif op is Operator.GE:
            bounds.clamp_start(encoded)
        elif op is Operator.LT:
            bounds.clamp_end(encoded)
        elif op is Operator.LE:
            bounds.clamp_end(prefix_successor(encoded))

    def _encode_cursor(
        self,
        cursor: Cursor,
        spec: IndexScanSpec,
        normalized: NormalizedQuery,
        prefix: bytes,
    ) -> bytes:
        suffix_fields = spec.index.fields[spec.prefix_len :]
        encoded = bytearray(prefix)
        for value, index_field in zip(cursor.values, suffix_fields):
            encoded += encode_value(value, index_field.direction)
        if len(cursor.values) > len(suffix_fields):
            # final cursor value addresses the document name
            path = self._cursor_path(
                normalized.query.parent, cursor.values[len(suffix_fields)]
            )
            encoded += encode_doc_name(path.segments, spec.index.fields[-1].direction)
        return bytes(encoded)

    def _clamp_for_cursor(
        self,
        bounds: _ByteRange,
        encoded: bytes,
        is_start: bool,
        inclusive_edge: bool,
        reverse: bool,
    ) -> None:
        """Convert a query-order cursor into ascending byte bounds.

        In a reverse scan the query's start is the top of the byte range,
        so start/end swap roles.
        """
        clamp_low = is_start != reverse
        if clamp_low:
            if inclusive_edge:
                bounds.clamp_start(encoded)
            else:
                bounds.clamp_start(prefix_successor(encoded) or encoded)
        else:
            if inclusive_edge:
                bounds.clamp_end(prefix_successor(encoded))
            else:
                bounds.clamp_end(encoded)

    # -- row access helpers ---------------------------------------------------------------

    def _scan(
        self,
        table: str,
        bounds: _ByteRange,
        read_ts: int,
        txn,
        reverse: bool,
    ) -> Iterator[tuple[bytes, Any]]:
        if txn is not None:
            yield from txn.scan(table, bounds.start, bounds.end, reverse=reverse)
        else:
            yield from self.layout.spanner.snapshot_scan(
                table, bounds.start, bounds.end, read_ts, reverse=reverse
            )

    def _fetch_document(self, path: Path, read_ts: int, txn) -> Optional[Document]:
        key = self.layout.entity_key(path)
        if txn is not None:
            version = txn.read_versioned(ENTITIES, key)
        else:
            version = self.layout.spanner.snapshot_read_versioned(
                ENTITIES, key, read_ts
            )
        if version is None:
            return None
        version_ts, row = version
        return self._row_to_document(path, row, version_ts)

    def _decode_entity(self, key: bytes, row: Any, read_ts: int, txn) -> Optional[Document]:
        from repro.core.encoding import decode_doc_name

        relative = key[len(self.layout.directory_prefix) :]
        segments, _ = decode_doc_name(relative)
        # re-read for the version timestamp (cheap: same tablet, cached path)
        return self._fetch_document(Path(*segments), read_ts, txn)

    def _row_to_document(self, path: Path, row: EntityRow, version_ts: int) -> Document:
        if not row.verify_checksum():
            raise InternalError(
                f"checksum mismatch reading {path}: stored data is corrupt"
            )
        return Document(
            path=path,
            data=deserialize_document(row.data),
            create_time=row.resolve_create_ts(version_ts),
            update_time=version_ts,
        )

    # -- post-processing -------------------------------------------------------------------

    def _residual_match(self, doc: Document, normalized: NormalizedQuery) -> bool:
        """Re-verify every filter against the fetched document.

        Index entries are kept strongly consistent with documents, so this
        is defense in depth — but it also enforces that ordered fields
        exist (documents missing an order-by field are not in that index
        and must not appear in results).
        """
        for flt in normalized.query.filters:
            if not matches_filter(doc.data, flt):
                return False
        for order in normalized.core_orders:
            present, _ = get_field(doc.data, order.field_path)
            if not present:
                return False
        return True

    def _project(self, doc: Document, normalized: NormalizedQuery) -> Document:
        projection = normalized.query.projection
        if projection is None:
            return doc
        from repro.core.values import set_field

        data: dict = {}
        for field_path in projection:
            present, value = get_field(doc.data, field_path)
            if present:
                set_field(data, field_path, value)
        return Document(doc.path, data, doc.create_time, doc.update_time)


class _WorkBudget:
    """Caps and accounts rows examined per RPC (isolation, section IV-C)."""

    __slots__ = ("remaining", "spent")

    def __init__(self, max_work: Optional[int]):
        self.remaining = max_work
        self.spent = 0

    def spend(self, amount: int = 1) -> None:
        self.spent += amount
        if self.remaining is not None:
            self.remaining -= amount

    @property
    def exhausted(self) -> bool:
        return self.remaining is not None and self.remaining < 0


class _SeekableScan:
    """A peekable, seekable index-entry scan used by the zig-zag join.

    Seeks re-open the underlying range scan at the target position, which
    is O(log n) against the B+tree — the same cost profile as a real
    Spanner seek.
    """

    def __init__(
        self,
        executor: QueryExecutor,
        bounds: _ByteRange,
        prefix_len: int,
        read_ts: int,
        txn,
        reverse: bool,
        budget: _WorkBudget,
    ):
        self._executor = executor
        self._bounds = bounds
        self._prefix_len = prefix_len
        self._read_ts = read_ts
        self._txn = txn
        self._reverse = reverse
        self._budget = budget
        self._iter = self._open(bounds)
        self._head: Optional[tuple[bytes, tuple[str, ...]]] = None
        self._exhausted = False

    def _open(self, bounds: _ByteRange) -> Iterator[tuple[bytes, Any]]:
        return self._executor._scan(
            INDEX_ENTRIES, bounds, self._read_ts, self._txn, self._reverse
        )

    def peek(self) -> Optional[tuple[bytes, tuple[str, ...]]]:
        if self._head is None and not self._exhausted:
            self._pull()
        return self._head

    def advance(self) -> None:
        self._head = None

    def _pull(self) -> None:
        try:
            key, payload = next(self._iter)
        except StopIteration:
            self._exhausted = True
            self._head = None
            return
        self._budget.spend()
        self._head = (key[self._prefix_len :], payload)

    def seek(self, target_suffix: bytes) -> None:
        """Position at the first entry >= target (<= when reversed)."""
        head = self.peek()
        if head is None:
            return
        prefix = self._bounds.start[: self._prefix_len]
        absolute = prefix + target_suffix
        if self._reverse:
            top = _key_successor(absolute)
            if self._bounds.end is not None and self._bounds.end < top:
                top = self._bounds.end
            new_bounds = _ByteRange(self._bounds.start, top)
        else:
            start = max(absolute, self._bounds.start)
            new_bounds = _ByteRange(start, self._bounds.end)
        if new_bounds.is_empty():
            self._exhausted = True
            self._head = None
            return
        self._iter = self._open(new_bounds)
        self._head = None
        self._exhausted = False


def _key_successor(key: bytes) -> bytes:
    """The smallest key strictly greater than ``key``."""
    return key + b"\x00"
