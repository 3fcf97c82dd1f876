"""Computing IndexEntries rows for documents.

Every write computes "the index entry changes for the ... documents"
(paper section IV-D2 step 4) from the cached index definitions, keeping
all indexes strongly consistent with the data.

Row-key layout (relative to the database's directory prefix)::

    index_id (4 bytes BE) || parent_collection (encoded path)
                          || values (order-preserving encodings)
                          || document name (encoded path)

Including the parent collection path scopes every scan to exactly one
collection, and the trailing document name makes the key unique and the
two-phase-commit lock granular ("IndexEntries rows include the unique
document name", section IV-D2 step 6). The row value carries the document
path segments so the executor can fetch documents without decoding keys.

Indexing flattens maps into dotted paths and arrays into per-element
entries (section V-B2), so a map/array field costs as many entries as it
has leaves — exactly the write-amplification the Fig. 10 experiment
measures.
"""

from __future__ import annotations

import itertools
import struct

from repro.errors import InvalidArgument
from repro.core.encoding import ASCENDING, DESCENDING, encode_doc_name, encode_value
from repro.core.indexes import IndexDefinition, IndexMode, IndexRegistry, IndexState
from repro.core.path import Path
from repro.core.values import get_field


def iter_indexable_fields(data: dict, prefix: str = ""):
    """Every field path a document exposes to automatic indexing.

    Maps are flattened into dotted leaf paths (paper section V-B2), and
    each non-root map node is *also* indexed as a whole so that equality
    and ordering on a map-valued field work (production semantics).
    """
    for key, value in data.items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            yield path, value
            yield from iter_indexable_fields(value, path)
        else:
            yield path, value

#: Cap on index entries per document (production limit is 40,000).
MAX_ENTRIES_PER_DOCUMENT = 40_000


def index_id_prefix(index_id: int) -> bytes:
    """The 4-byte big-endian key prefix of one index."""
    return struct.pack(">I", index_id)


def entry_key(
    index_id: int,
    encoded_parent: bytes,
    encoded_values: bytes,
    encoded_name: bytes,
) -> bytes:
    """Build one IndexEntries row key from its encoded parts.

    ``encoded_parent`` and ``encoded_name`` are :func:`encode_doc_name`
    of the parent collection (ascending) and of the document. The
    trailing document name is encoded with the direction of the index's
    *last* field, so the index's natural tiebreak matches the query
    semantics (orderBy(f, desc) implies name desc).
    """
    return index_id_prefix(index_id) + encoded_parent + encoded_values + encoded_name


def scan_prefix(index_id: int, parent: Path, encoded_values: bytes = b"") -> bytes:
    """The shared key prefix of all entries for one index + collection."""
    return index_id_prefix(index_id) + encode_doc_name(parent.segments) + encoded_values


def _distinct_in_order(values: list) -> list:
    """Array elements, de-duplicated by encoding, original order."""
    seen: set[bytes] = set()
    out = []
    for value in values:
        marker = encode_value(value)
        if marker not in seen:
            seen.add(marker)
            out.append(value)
    return out


def compute_document_entries(
    registry: IndexRegistry,
    doc_path: Path,
    data: dict,
) -> dict[bytes, tuple[str, ...]]:
    """All IndexEntries row keys this document should have right now.

    Returns ``{row_key: doc_segments}``. Composite indexes in CREATING
    state are maintained (so writes conform to an on-going backfill);
    DELETING indexes are not (so writes conform to a backremoval).
    """
    parent = doc_path.parent()
    assert parent is not None  # document paths always have a parent
    collection_group = parent.id
    entries: dict[bytes, tuple[str, ...]] = {}
    segments = doc_path.segments
    encoded_parent = encode_doc_name(parent.segments)
    name_asc = encode_doc_name(segments, ASCENDING)
    name_desc = encode_doc_name(segments, DESCENDING)

    def add(index_id: int, encoded_values: bytes, encoded_name: bytes) -> None:
        key = entry_key(index_id, encoded_parent, encoded_values, encoded_name)
        entries[key] = segments
        if len(entries) > MAX_ENTRIES_PER_DOCUMENT:
            raise InvalidArgument(
                f"document {doc_path} produces more than "
                f"{MAX_ENTRIES_PER_DOCUMENT} index entries"
            )

    # Automatic single-field indexes: ascending + descending per indexed
    # field, plus array-contains entries per array element.
    for leaf_path, value in iter_indexable_fields(data):
        if registry.is_exempt(collection_group, leaf_path):
            continue
        asc = registry.auto_index(collection_group, leaf_path, ASCENDING)
        add(asc.index_id, encode_value(value, ASCENDING), name_asc)
        desc = registry.auto_index(collection_group, leaf_path, DESCENDING)
        add(desc.index_id, encode_value(value, DESCENDING), name_desc)
        if isinstance(value, list):
            contains = registry.auto_contains_index(collection_group, leaf_path)
            for element in _distinct_in_order(value):
                add(contains.index_id, encode_value(element, ASCENDING), name_asc)

    # Composite indexes.
    for definition in registry.composites_for(collection_group):
        if definition.state is IndexState.DELETING:
            continue
        name = name_desc if definition.fields[-1].direction == DESCENDING else name_asc
        for encoded in composite_entry_values(definition, data):
            add(definition.index_id, encoded, name)

    return entries


def composite_entry_values(definition: IndexDefinition, data: dict) -> list[bytes]:
    """The encoded value-tuples a document contributes to one composite
    index — empty if the document lacks any indexed field (documents
    missing a field do not appear in that index).
    """
    per_field: list[list[bytes]] = []
    for index_field in definition.fields:
        present, value = get_field(data, index_field.field_path)
        if not present:
            return []
        if index_field.mode is IndexMode.CONTAINS:
            if not isinstance(value, list) or not value:
                return []
            per_field.append(
                [encode_value(v, ASCENDING) for v in _distinct_in_order(value)]
            )
        else:
            per_field.append([encode_value(value, index_field.direction)])
    return [b"".join(combo) for combo in itertools.product(*per_field)]


def diff_entries(
    old: dict[bytes, tuple[str, ...]],
    new: dict[bytes, tuple[str, ...]],
) -> tuple[list[bytes], list[tuple[bytes, tuple[str, ...]]]]:
    """(keys to delete, (key, payload) pairs to insert)."""
    to_delete = [key for key in old if key not in new]
    to_insert = [(key, payload) for key, payload in new.items() if key not in old]
    return to_delete, to_insert
