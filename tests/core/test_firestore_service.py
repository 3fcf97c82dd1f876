"""FirestoreService-level tests: multi-tenancy over shared Spanner."""

import pytest

from repro.errors import AlreadyExists, InvalidArgument, NotFound
from repro.core.backend import delete_op, set_op
from repro.core.firestore import SPANNER_DATABASES_PER_REGION, FirestoreService


@pytest.fixture
def service():
    return FirestoreService()


def test_create_and_fetch_database(service):
    db = service.create_database("app-one")
    assert service.database("app-one") is db
    assert service.database_count == 1


def test_duplicate_database_rejected(service):
    service.create_database("app")
    with pytest.raises(AlreadyExists):
        service.create_database("app")


def test_empty_database_id_rejected(service):
    with pytest.raises(InvalidArgument):
        service.create_database("")


def test_unknown_database(service):
    with pytest.raises(NotFound):
        service.database("ghost")


def test_few_spanner_databases_shared_by_many(service):
    """Millions of Firestore databases share a small number of Spanner
    databases (paper section IV-D1, footnote 3)."""
    for i in range(20):
        service.create_database(f"tenant-{i}")
    assert len(service.spanner_databases) == SPANNER_DATABASES_PER_REGION
    used = {id(service.database(f"tenant-{i}").layout.spanner) for i in range(20)}
    assert len(used) == SPANNER_DATABASES_PER_REGION  # spread across all


def test_tenants_are_isolated_keyspaces(service):
    a = service.create_database("tenant-a")
    b = service.create_database("tenant-b")
    a.commit([set_op("docs/x", {"owner": "a"})])
    b.commit([set_op("docs/x", {"owner": "b"})])
    assert a.lookup("docs/x").data == {"owner": "a"}
    assert b.lookup("docs/x").data == {"owner": "b"}
    # queries see only the tenant's own documents
    assert len(a.run_query(a.query("docs")).documents) == 1


def test_tenant_indexes_are_isolated(service):
    a = service.create_database("idx-a")
    b = service.create_database("idx-b")
    a.commit([set_op("docs/x", {"n": 1})])
    b.commit([set_op("docs/y", {"n": 1})])
    result = a.run_query(a.query("docs").where("n", "==", 1))
    assert [p.id for p in result.paths] == ["x"]


def test_tenants_may_share_spanner_tablets(service):
    """Contiguous directories within shared tables: the multi-tenant
    layout the paper describes."""
    tenants = [service.create_database(f"t{i}") for i in range(8)]
    for tenant in tenants:
        tenant.commit([set_op("docs/d", {"v": 1})])
    shared = service.spanner_databases[0]
    assert shared.total_rows() > 0


def test_storage_and_document_count(service):
    db = service.create_database("stats")
    assert db.document_count() == 0
    assert db.storage_bytes() == 0
    db.commit([set_op("docs/a", {"blob": "x" * 1000})])
    db.commit([set_op("docs/b", {"blob": "y" * 1000})])
    assert db.document_count() == 2
    assert db.storage_bytes() > 2000


def test_run_maintenance_splits_hot_tablets(service):
    db = service.create_database("hot")
    for i in range(200):
        db.commit([set_op(f"docs/d{i:04d}", {"n": i})])
    spanner = db.layout.spanner
    from repro.spanner.splitting import SplitPolicy

    service.splitters[service.spanner_databases.index(spanner)].policy = SplitPolicy(
        max_rows=100, hot_load=1e12
    )
    before = len(spanner.tablets)
    service.run_maintenance()
    assert len(spanner.tablets) > before
    # data remains intact across the split
    assert db.document_count() == 200


def test_run_maintenance_collects_deletes_of_never_written_documents(service):
    db = service.create_database("ghosts")
    spanner = db.layout.spanner
    for i in range(100):
        db.commit([delete_op(f"c/never{i}")])
    rows = spanner.total_rows()  # one tombstone per delete, plus metadata
    assert rows >= 100
    service.clock.advance_seconds(2 * 3600)
    service.run_maintenance()
    assert spanner.total_rows() == rows - 100


def test_regional_vs_multiregional_latency_models():
    regional = FirestoreService(region="us-east1", multi_region=False)
    multi = FirestoreService(region="nam5", multi_region=True)
    assert multi.latency.quorum_us > regional.latency.quorum_us


def test_clock_is_shared_across_components(service):
    db = service.create_database("clocked")
    assert db.layout.spanner.clock is service.clock
    assert db.realtime.clock is service.clock
