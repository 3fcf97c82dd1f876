"""Failure-injection property tests: whatever commits fail, the database's
invariants hold — indexes stay consistent with documents, checksums stay
valid, the A/B harness finds no divergence, realtime listeners converge
after recovery, and the recorded execution history checks clean.

Every guardrail failure — dynamic sanitizer, replay divergence, history
checker — surfaces through the one ``repro.errors.VerificationError``
family, so these tests assert on that family alone."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.check.checker import assert_clean, check_history
from repro.check.history import recording
from repro.core.ab_testing import QueryABHarness
from repro.core.backend import delete_op, set_op
from repro.core.firestore import FirestoreService
from repro.errors import (
    Aborted,
    CheckerViolation,
    DeadlineExceeded,
    NotFound,
    SanitizerViolation,
    VerificationError,
)
from repro.faults.plan import FaultPlan

OPS = st.lists(
    st.tuples(
        st.sampled_from(["set", "delete"]),
        st.sampled_from(["a", "b", "c", "d"]),
        st.integers(0, 5),
        # fault: None | "fail" | "unknown-applied" | "unknown-lost"
        st.sampled_from([None, None, None, "fail", "unknown-applied", "unknown-lost"]),
    ),
    min_size=1,
    max_size=20,
)


def run_sequence(db, ops):
    """Apply ops with injected faults; returns the surviving expectation.

    Faults are armed through the central fault plane (one-shot, FIFO per
    site) — the deterministic-test mode of :class:`repro.faults.FaultPlan`.
    """
    expected: dict[str, dict | None] = {}
    spanner = db.layout.spanner
    plan = spanner.fault_plan
    if plan is None:
        plan = FaultPlan(seed=0)
        spanner.fault_plan = plan
    for op, doc_id, n, fault in ops:
        path = f"docs/{doc_id}"
        write = set_op(path, {"n": n, "tag": doc_id}) if op == "set" else delete_op(path)
        if fault == "fail":
            plan.arm("spanner.commit_fail")
        elif fault == "unknown-applied":
            plan.arm("spanner.commit_unknown", applied=True)
        elif fault == "unknown-lost":
            plan.arm("spanner.commit_unknown", applied=False)
        try:
            db.commit([write])
            applied = True
        except (Aborted, DeadlineExceeded):
            applied = fault == "unknown-applied"
        except NotFound:
            applied = False
        finally:
            plan.disarm()
        if applied:
            expected[path] = {"n": n, "tag": doc_id} if op == "set" else None
    return {k: v for k, v in expected.items() if v is not None}


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=OPS)
def test_property_invariants_survive_faults(ops):
    service = FirestoreService()
    db = service.create_database("faulty")
    expected = run_sequence(db, ops)

    # 1. the surviving documents are exactly the ones whose commits applied
    survivors = {
        str(d.path): d.data for d in db.run_query(db.query("docs")).documents
    }
    assert survivors == expected

    # 2. indexes are consistent with the documents (validator clean)
    report = db.validate()
    assert report.is_clean, report.summary()

    # 3. the index engine agrees with brute force on a query corpus
    ab = QueryABHarness(db).run_random("docs", count=30, seed=1)
    assert ab.is_clean, [r.describe() for r in ab.mismatches]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=OPS)
def test_property_listeners_recover_from_faults(ops):
    """Every unknown-outcome commit triggers the reset path; after
    recovery the listener's view equals a fresh query."""
    service = FirestoreService()
    db = service.create_database("faulty-rt")
    snaps = []
    db.connect().listen(db.query("docs"), snaps.append)
    run_sequence(db, ops)
    for _ in range(3):
        service.clock.advance(100_000)
        db.pump_realtime()
    fresh = {str(d.path): d.data for d in db.run_query(db.query("docs")).documents}
    listener = {str(d.path): d.data for d in snaps[-1].documents}
    assert listener == fresh


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=OPS)
def test_property_histories_check_clean_under_faults(ops):
    """The recorded execution history of a faulty run has no consistency
    violations: unknown outcomes are excused, everything else must hold.
    A violation here raises CheckerViolation — the VerificationError
    family these tests reserve for reproduction bugs."""
    with recording() as recorders:
        service = FirestoreService()
        db = service.create_database("faulty-hist")
        snaps = []
        connection = db.connect()
        connection.listen(db.query("docs"), snaps.append)
        run_sequence(db, ops)
        for _ in range(3):
            service.clock.advance(100_000)
            db.pump_realtime()
        connection.close()
    assert any(recorder.events for recorder in recorders)
    for recorder in recorders:
        assert_clean(check_history(recorder.events), context="fault run")


def test_guardrail_violations_share_one_exception_family():
    """Sanitizer and checker failures are the same assertable family."""
    assert issubclass(SanitizerViolation, VerificationError)
    assert issubclass(CheckerViolation, VerificationError)

    # a deliberately broken history must surface as VerificationError
    from repro.check.scenarios import run_scenario

    result = run_scenario("anomaly-lost-update", seed=1)
    assert result.violations
    with pytest.raises(VerificationError) as excinfo:
        assert_clean(result.violations, context="anomaly")
    assert isinstance(excinfo.value, CheckerViolation)
    assert excinfo.value.check == result.violations[0].check
