import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidArgument
from repro.core.encoding import ASCENDING, DESCENDING, encode_doc_name, encode_value
from repro.core.index_entries import (
    compute_document_entries,
    composite_entry_values,
    diff_entries,
    entry_key,
    index_id_prefix,
    iter_indexable_fields,
    scan_prefix,
)
from repro.core.indexes import IndexField, IndexMode, IndexRegistry, IndexState
from repro.core.path import Path

from tests.core.test_values import firestore_values


@pytest.fixture
def registry():
    return IndexRegistry()


DOC = Path.parse("restaurants/one")


class TestAutoEntries:
    def test_two_entries_per_scalar_field(self, registry):
        entries = compute_document_entries(registry, DOC, {"city": "SF"})
        assert len(entries) == 2  # asc + desc
        assert all(payload == ("restaurants", "one") for payload in entries.values())

    def test_entries_per_field_scale_linearly(self, registry):
        one = compute_document_entries(registry, DOC, {"f0": 0})
        ten = compute_document_entries(registry, DOC, {f"f{i}": i for i in range(10)})
        assert len(ten) == 10 * len(one)

    def test_map_fields_flatten(self, registry):
        entries = compute_document_entries(
            registry, DOC, {"address": {"city": "SF", "zip": "94000"}}
        )
        # two leaves plus the map node itself, each asc + desc — leaves
        # for dotted-path queries, the node for whole-map equality
        assert len(entries) == 6

    def test_array_fields_add_contains_entries(self, registry):
        entries = compute_document_entries(registry, DOC, {"tags": ["bbq", "cheap"]})
        # whole-array asc + desc, plus one contains entry per element
        assert len(entries) == 4

    def test_array_duplicates_deduplicated(self, registry):
        entries = compute_document_entries(registry, DOC, {"tags": ["a", "a", "a"]})
        assert len(entries) == 3  # asc + desc + single contains

    def test_exempt_fields_produce_nothing(self, registry):
        registry.add_exemption("restaurants", "blob")
        entries = compute_document_entries(registry, DOC, {"blob": "x", "city": "SF"})
        assert len(entries) == 2  # only city

    def test_entries_scoped_by_parent_collection(self, registry):
        restaurant = compute_document_entries(registry, DOC, {"city": "SF"})
        rating = compute_document_entries(
            registry, Path.parse("restaurants/one/ratings/2"), {"city": "SF"}
        )
        assert not set(restaurant) & set(rating)


class TestCompositeEntries:
    def test_doc_missing_field_absent(self, registry):
        registry.create_composite(
            "restaurants", [("city", ASCENDING), ("rating", DESCENDING)],
            state=IndexState.READY,
        )
        entries = compute_document_entries(registry, DOC, {"city": "SF"})
        assert len(entries) == 2  # auto only; composite needs both fields

    def test_full_doc_gets_composite_entry(self, registry):
        definition = registry.create_composite(
            "restaurants", [("city", ASCENDING), ("rating", DESCENDING)],
            state=IndexState.READY,
        )
        entries = compute_document_entries(
            registry, DOC, {"city": "SF", "rating": 4.5}
        )
        composite_keys = [
            key for key in entries if key.startswith(index_id_prefix(definition.index_id))
        ]
        assert len(composite_keys) == 1

    def test_creating_composites_maintained(self, registry):
        definition = registry.create_composite(
            "restaurants", [("a", ASCENDING), ("b", ASCENDING)]
        )
        assert definition.state is IndexState.CREATING
        entries = compute_document_entries(registry, DOC, {"a": 1, "b": 2})
        assert any(
            key.startswith(index_id_prefix(definition.index_id)) for key in entries
        )

    def test_deleting_composites_skipped(self, registry):
        definition = registry.create_composite(
            "restaurants", [("a", ASCENDING), ("b", ASCENDING)], state=IndexState.READY
        )
        registry.set_state(definition.index_id, IndexState.DELETING)
        entries = compute_document_entries(registry, DOC, {"a": 1, "b": 2})
        assert not any(
            key.startswith(index_id_prefix(definition.index_id)) for key in entries
        )

    def test_contains_fan_out(self, registry):
        definition = registry.create_composite(
            "restaurants",
            [IndexField("tags", ASCENDING, IndexMode.CONTAINS), IndexField("r", ASCENDING)],
            state=IndexState.READY,
        )
        values = composite_entry_values(
            definition, {"tags": ["a", "b", "c"], "r": 1}
        )
        assert len(values) == 3

    def test_contains_requires_nonempty_array(self, registry):
        definition = registry.create_composite(
            "restaurants",
            [IndexField("tags", ASCENDING, IndexMode.CONTAINS), IndexField("r", ASCENDING)],
            state=IndexState.READY,
        )
        assert composite_entry_values(definition, {"tags": [], "r": 1}) == []
        assert composite_entry_values(definition, {"tags": "str", "r": 1}) == []


class TestKeysAndDiff:
    def test_entry_key_layout(self):
        parent = Path.parse("restaurants")
        key = entry_key(
            7, encode_doc_name(parent.segments), b"VALUES", encode_doc_name(DOC.segments)
        )
        assert key.startswith(index_id_prefix(7))
        assert b"VALUES" in key
        assert key.startswith(scan_prefix(7, parent))

    def test_scan_prefix_distinguishes_parents(self):
        a = scan_prefix(7, Path.parse("restaurants"))
        b = scan_prefix(7, Path.parse("hotels"))
        assert a != b
        assert a[:4] == b[:4]

    def test_diff(self):
        old = {b"a": ("d",), b"b": ("d",)}
        new = {b"b": ("d",), b"c": ("d",)}
        to_delete, to_insert = diff_entries(old, new)
        assert to_delete == [b"a"]
        assert to_insert == [(b"c", ("d",))]

    def test_diff_no_change(self):
        entries = {b"a": ("d",)}
        assert diff_entries(entries, dict(entries)) == ([], [])

    def test_entry_cap_enforced(self, registry):
        data = {"tags": [f"t{i}" for i in range(45_000)]}
        with pytest.raises(InvalidArgument):
            compute_document_entries(registry, DOC, data)


def _reference_entries(registry, doc_path, data):
    """Each entry's key built on its own, one entry at a time."""
    parent = doc_path.parent()
    group = parent.id

    def key(index_id, encoded_values, name_direction):
        return (
            index_id_prefix(index_id)
            + encode_doc_name(parent.segments)
            + encoded_values
            + encode_doc_name(doc_path.segments, name_direction)
        )

    keys = set()
    for leaf_path, value in iter_indexable_fields(data):
        for direction in (ASCENDING, DESCENDING):
            index = registry.auto_index(group, leaf_path, direction)
            keys.add(key(index.index_id, encode_value(value, direction), direction))
        if isinstance(value, list):
            index = registry.auto_contains_index(group, leaf_path)
            for element in value:
                keys.add(key(index.index_id, encode_value(element), ASCENDING))
    for definition in registry.composites_for(group):
        for encoded in composite_entry_values(definition, data):
            keys.add(key(definition.index_id, encoded, definition.fields[-1].direction))
    return keys


_composite_registry = IndexRegistry()
_composite_registry.create_composite(
    "restaurants",
    [IndexField("city", ASCENDING), IndexField("r", DESCENDING)],
    state=IndexState.READY,
)
_composite_registry.create_composite(
    "restaurants",
    [IndexField("tags", ASCENDING, IndexMode.CONTAINS), IndexField("city", ASCENDING)],
    state=IndexState.READY,
)


@settings(max_examples=150, deadline=None)
@given(
    doc_id=st.text(min_size=1, max_size=6).filter(
        lambda s: "/" not in s and s not in (".", "..")
    ),
    data=st.fixed_dictionaries(
        {"city": st.text(max_size=4)},
        optional={
            "r": firestore_values(),
            "tags": st.lists(firestore_values(depth=2), max_size=3),
            "extra": firestore_values(),
        },
    ),
)
def test_property_entry_keys_match_per_entry_reference(doc_id, data):
    doc_path = Path("restaurants", doc_id)
    entries = compute_document_entries(_composite_registry, doc_path, data)
    assert set(entries) == _reference_entries(_composite_registry, doc_path, data)
    assert set(entries.values()) == {doc_path.segments}
