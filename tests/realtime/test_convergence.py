"""Property tests: after arbitrary write sequences and a pump, every
real-time listener's accumulated state equals a fresh strong query —
the fundamental correctness contract of the snapshot pipeline."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.backend import delete_op, set_op, update_op
from repro.core.firestore import FirestoreService
from repro.errors import NotFound

DOC_IDS = [f"d{i}" for i in range(6)]

OPS = st.lists(
    st.tuples(
        st.sampled_from(["set", "update", "delete"]),
        st.sampled_from(DOC_IDS),
        st.integers(min_value=0, max_value=9),
        st.booleans(),
    ),
    min_size=1,
    max_size=25,
)

QUERIES = st.sampled_from(
    [
        lambda db: db.query("docs"),
        lambda db: db.query("docs").where("live", "==", True),
        lambda db: db.query("docs").where("n", ">", 4),
        lambda db: db.query("docs").order_by("n", "desc"),
        lambda db: db.query("docs").where("live", "==", True).order_by("n"),
    ]
)


def apply_op(db, op, doc_id, n, live):
    path = f"docs/{doc_id}"
    try:
        if op == "set":
            db.commit([set_op(path, {"n": n, "live": live})])
        elif op == "update":
            db.commit([update_op(path, {"n": n})])
        else:
            db.commit([delete_op(path)])
    except NotFound:
        pass  # update of a missing doc: fine, nothing happened


#: limited windows, where a member can move out past the window's edge;
#: kept apart so their cases are not diluted by the unlimited queries
LIMITED_QUERIES = st.sampled_from(
    [
        lambda db: db.query("docs").order_by("n", "desc").limit_to(2),
        lambda db: db.query("docs").where("live", "==", True).order_by("n").limit_to(2),
    ]
)


def assert_listener_converges(ops, make_query, pump_every):
    service = FirestoreService()
    db = service.create_database("conv")
    db.create_index("docs", [("live", "asc"), ("n", "asc")])
    query = make_query(db)
    snaps = []
    db.connect().listen(query, snaps.append)

    for index, (op, doc_id, n, live) in enumerate(ops):
        apply_op(db, op, doc_id, n, live)
        if index % pump_every == 0:
            service.clock.advance(50_000)
            db.pump_realtime()
    service.clock.advance(50_000)
    db.pump_realtime()

    fresh = db.run_query(query)
    expected = [(str(d.path), d.data) for d in fresh.documents]
    listener = [(str(d.path), d.data) for d in snaps[-1].documents]
    assert listener == expected
    # each delta, applied to the previous one's state, gives its own view
    state = {}
    for delta in snaps:
        for path in delta.removed:
            state.pop(path, None)
        for doc in delta.added + delta.modified:
            state[doc.path] = doc.data
        assert state == {doc.path: doc.data for doc in delta.documents}


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=OPS, make_query=QUERIES, pump_every=st.integers(1, 10))
def test_property_listener_converges_to_fresh_query(ops, make_query, pump_every):
    assert_listener_converges(ops, make_query, pump_every)


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=OPS, make_query=LIMITED_QUERIES, pump_every=st.integers(1, 10))
def test_property_limited_listener_converges_to_fresh_query(
    ops, make_query, pump_every
):
    assert_listener_converges(ops, make_query, pump_every)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=OPS)
def test_property_deltas_replay_to_final_state(ops):
    """Applying each snapshot's added/modified/removed to a dict always
    reproduces the snapshot's own full document list."""
    service = FirestoreService()
    db = service.create_database("replay")
    snaps = []
    db.connect().listen(db.query("docs"), snaps.append)
    state: dict = {}

    def apply_delta(delta):
        for path in delta.removed:
            state.pop(str(path), None)
        for doc in delta.added + delta.modified:
            state[str(doc.path)] = doc.data
        assert state == {str(d.path): d.data for d in delta.documents}

    consumed = 0
    for index, (op, doc_id, n, live) in enumerate(ops):
        apply_op(db, op, doc_id, n, live)
        if index % 3 == 0:
            service.clock.advance(50_000)
            db.pump_realtime()
            for delta in snaps[consumed:]:
                apply_delta(delta)
            consumed = len(snaps)
    service.clock.advance(50_000)
    db.pump_realtime()
    for delta in snaps[consumed:]:
        apply_delta(delta)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    docs=st.lists(
        st.tuples(
            st.sampled_from(["a", "b"]),  # city
            st.sampled_from(["x", "y"]),  # type
            st.integers(0, 5),
        ),
        min_size=0,
        max_size=20,
    )
)
def test_property_zigzag_join_on_random_data(docs):
    """The zig-zag join agrees with brute force on random datasets."""
    service = FirestoreService()
    db = service.create_database("zz")
    for i, (city, kind, n) in enumerate(docs):
        db.commit([set_op(f"r/d{i:03d}", {"city": city, "type": kind, "n": n})])
    for city in ("a", "b"):
        for kind in ("x", "y"):
            query = (
                db.query("r").where("city", "==", city).where("type", "==", kind)
            )
            plan = db.backend.planner.plan(query.normalize())
            got = sorted(p.id for p in db.run_query(query).paths)
            expected = sorted(
                f"d{i:03d}"
                for i, (c, k, _) in enumerate(docs)
                if c == city and k == kind
            )
            assert got == expected, plan.describe()
