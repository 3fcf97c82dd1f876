"""Backend write-protocol tests: the seven steps and the failure matrix
of paper section IV-D2."""

import pytest

from repro.errors import (
    Aborted,
    AlreadyExists,
    DeadlineExceeded,
    FailedPrecondition,
    InvalidArgument,
    NotFound,
    PermissionDenied,
    Unavailable,
)
from repro.core.backend import (
    AuthContext,
    Precondition,
    create_op,
    delete_op,
    set_op,
    update_op,
)
from repro.core.firestore import FirestoreService
from repro.core.values import SERVER_TIMESTAMP, Timestamp
from repro.faults.plan import FaultPlan
from repro.realtime.protocol import WriteOutcome


@pytest.fixture
def service():
    return FirestoreService()


@pytest.fixture
def db(service):
    return service.create_database("backend-tests")


class TestBasicWrites:
    def test_set_creates_and_replaces(self, db):
        db.commit([set_op("r/a", {"x": 1, "y": 2})])
        assert db.lookup("r/a").data == {"x": 1, "y": 2}
        db.commit([set_op("r/a", {"z": 3})])
        assert db.lookup("r/a").data == {"z": 3}  # replace, not merge

    def test_create_requires_absent(self, db):
        db.commit([create_op("r/a", {"x": 1})])
        with pytest.raises(AlreadyExists):
            db.commit([create_op("r/a", {"x": 2})])

    def test_update_requires_present(self, db):
        with pytest.raises(NotFound):
            db.commit([update_op("r/a", {"x": 1})])

    def test_update_merges_dotted_fields(self, db):
        db.commit([set_op("r/a", {"m": {"x": 1, "y": 2}, "keep": True})])
        db.commit([update_op("r/a", {"m": {"x": 10}})])
        assert db.lookup("r/a").data == {"m": {"x": 10, "y": 2}, "keep": True}

    def test_update_deletes_fields(self, db):
        db.commit([set_op("r/a", {"x": 1, "y": 2})])
        db.commit([update_op("r/a", {}, delete_fields=("y",))])
        assert db.lookup("r/a").data == {"x": 1}

    def test_delete(self, db):
        db.commit([set_op("r/a", {"x": 1})])
        db.commit([delete_op("r/a")])
        assert not db.lookup("r/a").exists

    def test_delete_of_missing_is_ok(self, db):
        db.commit([delete_op("r/nothing")])

    def test_multi_write_atomicity(self, db):
        db.commit([set_op("r/a", {"n": 1}), set_op("r/b", {"n": 1})])
        # second write fails its precondition; first must not apply
        with pytest.raises(AlreadyExists):
            db.commit([set_op("r/a", {"n": 2}), create_op("r/b", {"boom": 1})])
        assert db.lookup("r/a").data == {"n": 1}

    def test_multiple_writes_to_one_document_apply_in_order(self, db):
        result = db.commit(
            [set_op("r/a", {"x": 1}), update_op("r/a", {"y": 2})]
        )
        assert result.write_count == 2
        doc = db.lookup("r/a").document
        assert doc.data == {"x": 1, "y": 2}
        assert doc.create_time == result.commit_ts  # created this commit

    def test_empty_commit_rejected(self, db):
        with pytest.raises(InvalidArgument):
            db.commit([])

    def test_oversized_document_rejected(self, db):
        with pytest.raises(InvalidArgument):
            db.commit([set_op("r/big", {"blob": "x" * (1 << 20)})])

    def test_preconditions(self, db):
        result = db.commit([set_op("r/a", {"x": 1})])
        db.commit(
            [update_op("r/a", {"x": 2}, precondition=Precondition(update_time=result.commit_ts))]
        )
        with pytest.raises(FailedPrecondition):
            db.commit(
                [update_op("r/a", {"x": 3}, precondition=Precondition(update_time=result.commit_ts))]
            )
        with pytest.raises(FailedPrecondition):
            db.commit([delete_op("r/a", precondition=Precondition(exists=False))])

    def test_server_timestamp_transform(self, db):
        db.commit([set_op("r/a", {"at": SERVER_TIMESTAMP})])
        value = db.lookup("r/a").data["at"]
        assert isinstance(value, Timestamp)
        assert value.micros > 0


class TestTimesAndMetadata:
    def test_create_and_update_times(self, db):
        first = db.commit([set_op("r/a", {"v": 1})])
        second = db.commit([set_op("r/a", {"v": 2})])
        doc = db.lookup("r/a").document
        assert doc.create_time == first.commit_ts
        assert doc.update_time == second.commit_ts

    def test_recreate_resets_create_time(self, db):
        db.commit([set_op("r/a", {"v": 1})])
        db.commit([delete_op("r/a")])
        third = db.commit([set_op("r/a", {"v": 3})])
        doc = db.lookup("r/a").document
        assert doc.create_time == third.commit_ts

    def test_commit_reports_index_entries(self, db):
        result = db.commit([set_op("r/a", {"f1": 1, "f2": 2})])
        # 2 fields x (asc + desc) = 4 index entries
        assert result.index_entries_written == 4

    def test_index_entry_diff_on_update(self, db):
        def live_index_rows():
            read_ts = db.layout.spanner.current_timestamp()
            return {
                key
                for key, _ in db.layout.spanner.snapshot_scan(
                    "IndexEntries", None, None, read_ts
                )
            }

        db.commit([set_op("r/a", {"f1": 1, "f2": 2})])
        before = live_index_rows()
        db.commit([update_op("r/a", {"f1": 99})])  # f2 untouched
        after = live_index_rows()
        assert len(after) == len(before) == 4
        # f2's entries survive untouched; f1's two were replaced
        assert len(before & after) == 2

    def test_delete_removes_index_entries(self, db):
        db.commit([set_op("r/a", {"f1": 1})])
        db.commit([delete_op("r/a")])
        read_ts = db.layout.spanner.current_timestamp()
        rows = list(
            db.layout.spanner.snapshot_scan("IndexEntries", None, None, read_ts)
        )
        assert rows == []


class TestRealtime2PC:
    def test_prepare_and_accept_on_success(self, db):
        db.commit([set_op("r/a", {"x": 1})])
        assert db.realtime.changelog.prepares == 1

    def test_unavailable_cache_fails_write(self, db):
        db.realtime.available = False
        with pytest.raises(Unavailable):
            db.commit([set_op("r/a", {"x": 1})])
        # the write must not have been applied
        db.realtime.available = True
        assert not db.lookup("r/a").exists

    def test_definitive_spanner_failure_sends_failed_accept(self, db):
        accepts = []
        original = db.realtime.accept

        def spy(database_id, handle, outcome, commit_ts, changes):
            accepts.append(outcome)
            original(database_id, handle, outcome, commit_ts, changes)

        db.realtime.accept = spy
        plan = db.layout.spanner.fault_plan = FaultPlan(seed=0)
        plan.arm("spanner.commit_fail")
        with pytest.raises(Aborted):
            db.commit([set_op("r/a", {"x": 1})])
        assert plan.armed("spanner.commit_fail") == 0
        assert accepts == [WriteOutcome.FAILED]
        assert not db.lookup("r/a").exists

    @pytest.mark.parametrize("applied", [True, False])
    def test_unknown_outcome_notifies_cache(self, db, applied):
        accepts = []
        original = db.realtime.accept

        def spy(database_id, handle, outcome, commit_ts, changes):
            accepts.append(outcome)
            original(database_id, handle, outcome, commit_ts, changes)

        db.realtime.accept = spy
        plan = db.layout.spanner.fault_plan = FaultPlan(seed=0)
        plan.arm("spanner.commit_unknown", applied=applied)
        with pytest.raises(DeadlineExceeded):
            db.commit([set_op("r/a", {"x": 1})])
        assert plan.armed("spanner.commit_unknown") == 0
        assert accepts == [WriteOutcome.UNKNOWN]
        assert db.lookup("r/a").exists is applied


class TestThirdPartyAccess:
    def test_no_rules_denies_third_parties(self, db):
        with pytest.raises(PermissionDenied):
            db.commit([set_op("r/a", {"x": 1})], auth=AuthContext(uid="alice"))
        with pytest.raises(PermissionDenied):
            db.lookup("r/a", auth=AuthContext(uid="alice"))

    def test_privileged_callers_bypass_rules(self, db):
        db.set_rules(
            "service cloud.firestore { match /databases/{d}/documents {"
            " match /r/{id} { allow read, write: if false; } } }"
        )
        db.commit([set_op("r/a", {"x": 1})])  # no auth: privileged
        assert db.lookup("r/a").exists

    def test_query_rules_apply_per_document(self, db):
        db.set_rules(
            "service cloud.firestore { match /databases/{d}/documents {"
            " match /r/{id} { allow read: if resource.data.public == true; } } }"
        )
        db.commit([set_op("r/pub", {"public": True}), set_op("r/priv", {"public": False})])
        alice = AuthContext(uid="alice")
        result = db.run_query(db.query("r").where("public", "==", True), auth=alice)
        assert [p.id for p in result.paths] == ["pub"]
        with pytest.raises(PermissionDenied):
            db.run_query(db.query("r"), auth=alice)


class TestTriggers:
    def test_trigger_delivery(self, db):
        events = []
        db.register_trigger("r", events.append)
        db.commit([set_op("r/a", {"x": 1})])
        assert events == []  # asynchronous: nothing until delivery runs
        delivered = db.deliver_triggers()
        assert delivered == 1
        event = events[0]
        assert str(event.path) == "r/a"
        assert event.is_create
        assert event.new_data == {"x": 1}

    def test_trigger_update_and_delete_deltas(self, db):
        events = []
        db.register_trigger("r", events.append)
        db.commit([set_op("r/a", {"x": 1})])
        db.commit([update_op("r/a", {"x": 2})])
        db.commit([delete_op("r/a")])
        db.deliver_triggers()
        assert [e.is_create for e in events] == [True, False, False]
        assert events[1].old_data == {"x": 1}
        assert events[1].new_data == {"x": 2}
        assert events[2].is_delete

    def test_trigger_scoped_to_collection_group(self, db):
        events = []
        db.register_trigger("r", events.append)
        db.commit([set_op("other/a", {"x": 1})])
        db.deliver_triggers()
        assert events == []

    def test_failed_write_enqueues_nothing(self, db):
        events = []
        db.register_trigger("r", events.append)
        db.commit([set_op("r/existing", {"n": 0})])
        db.deliver_triggers()
        events.clear()
        with pytest.raises(AlreadyExists):
            db.commit([set_op("r/a", {"x": 1}), create_op("r/existing", {})])
        db.deliver_triggers()
        # the atomic commit failed entirely; neither trigger fires
        assert events == []
