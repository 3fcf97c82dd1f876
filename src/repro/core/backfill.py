"""Background index backfill and backremoval.

"Adding or removing a Firestore secondary index requires a backfill or
backremoval in the Spanner IndexEntries table. This is managed by a
background service that receives index change requests, scans the Entities
table for all affected documents, makes the required IndexEntries row
additions or removals in Spanner, and finally marks the index change as
complete." (paper section IV-D1)

Live writes conform to an in-progress change: the write path maintains
entries for CREATING composites and skips DELETING ones, so the backfill
only has to converge, not coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import Aborted
from repro.core.encoding import decode_doc_name, encode_doc_name
from repro.core.index_entries import (
    composite_entry_values,
    entry_key,
    index_id_prefix,
)
from repro.core.indexes import IndexRegistry, IndexState
from repro.core.layout import ENTITIES, INDEX_ENTRIES, DatabaseLayout
from repro.core.path import Path
from repro.core.serialization import deserialize_document


@dataclass
class BackfillStats:
    """Work counters reported by backfill/backremoval runs."""
    documents_scanned: int = 0
    entries_added: int = 0
    entries_removed: int = 0
    batches: int = 0
    retries: int = 0


class IndexBackfillService:
    """Executes index creation backfills and deletion backremovals."""

    def __init__(
        self,
        layout: DatabaseLayout,
        registry: IndexRegistry,
        batch_size: int = 100,
    ):
        self.layout = layout
        self.registry = registry
        self.batch_size = batch_size

    # -- composite index creation ------------------------------------------------

    def backfill(self, index_id: int) -> BackfillStats:
        """Scan Entities, add missing rows, then mark the index READY."""
        definition = self.registry.get(index_id)
        name_direction = definition.fields[-1].direction
        stats = BackfillStats()
        batch: list[tuple[bytes, tuple[str, ...]]] = []
        for path, data in self._scan_collection_group(definition.collection_group):
            stats.documents_scanned += 1
            parent = path.parent()
            assert parent is not None
            encoded_parent = encode_doc_name(parent.segments)
            encoded_name = encode_doc_name(path.segments, name_direction)
            for encoded in composite_entry_values(definition, data):
                batch.append(
                    (
                        entry_key(index_id, encoded_parent, encoded, encoded_name),
                        path.segments,
                    )
                )
            if len(batch) >= self.batch_size:
                stats.entries_added += self._apply_inserts(batch, stats)
                batch = []
        if batch:
            stats.entries_added += self._apply_inserts(batch, stats)
        self.registry.set_state(index_id, IndexState.READY)
        return stats

    def _apply_inserts(
        self, batch: list[tuple[bytes, tuple[str, ...]]], stats: BackfillStats
    ) -> int:
        """Insert a batch, retrying on contention with live writes."""
        stats.batches += 1
        while True:
            txn = self.layout.spanner.begin()
            try:
                written = 0
                for relative_key, payload in batch:
                    key = self.layout.index_key(relative_key)
                    if txn.read(INDEX_ENTRIES, key) is None:
                        txn.put(INDEX_ENTRIES, key, payload)
                        written += 1
                txn.commit()
                return written
            except Aborted:
                stats.retries += 1
                continue

    # -- index deletion / exemption backremoval ----------------------------------------

    def backremove(self, index_id: int) -> BackfillStats:
        """Mark DELETING, remove every row of the index, drop it."""
        self.registry.set_state(index_id, IndexState.DELETING)
        stats = self._remove_index_rows(index_id)
        self.registry.drop(index_id)
        return stats

    def apply_exemption(self, collection_group: str, field_path: str) -> BackfillStats:
        """Back-remove automatic index entries after an exemption is added.

        The exemption must already be registered (new writes stop
        producing entries); this removes the historical entries for both
        directions and the array-contains variant.
        """
        stats = BackfillStats()
        from repro.core.encoding import ASCENDING, DESCENDING

        for auto in (
            self.registry.auto_index(collection_group, field_path, ASCENDING),
            self.registry.auto_index(collection_group, field_path, DESCENDING),
            self.registry.auto_contains_index(collection_group, field_path),
        ):
            partial = self._remove_index_rows(auto.index_id)
            stats.entries_removed += partial.entries_removed
            stats.batches += partial.batches
            stats.retries += partial.retries
        return stats

    def _remove_index_rows(self, index_id: int) -> BackfillStats:
        stats = BackfillStats()
        start, end = self.layout.index_scan_range(index_id_prefix(index_id))
        while True:
            read_ts = self.layout.spanner.current_timestamp()
            keys = [
                key
                for key, _ in self.layout.spanner.snapshot_scan(
                    INDEX_ENTRIES, start, end, read_ts, limit=self.batch_size
                )
            ]
            if not keys:
                return stats
            stats.batches += 1
            while True:
                txn = self.layout.spanner.begin()
                try:
                    for key in keys:
                        txn.delete(INDEX_ENTRIES, key)
                    txn.commit()
                    stats.entries_removed += len(keys)
                    break
                except Aborted:
                    stats.retries += 1

    # -- scanning --------------------------------------------------------------------

    def _scan_collection_group(self, collection_group: str):
        """Yield (path, data) for every document in the collection group."""
        start, end = self.layout.directory_range()
        read_ts = self.layout.spanner.current_timestamp()
        prefix_len = len(self.layout.directory_prefix)
        for key, row in self.layout.spanner.snapshot_scan(
            ENTITIES, start, end, read_ts
        ):
            segments, _ = decode_doc_name(key[prefix_len:])
            if len(segments) >= 2 and segments[-2] == collection_group:
                yield Path(*segments), deserialize_document(row.data)
