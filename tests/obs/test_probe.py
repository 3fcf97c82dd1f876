"""The observer probe: self-time regions and observer independence.

One probe feeds the tracer and the sim-time profiler from each
instrumented site. Its two contracts: every elapsed sim microsecond of a
measured region lands in exactly one ledger row (nested regions and the
interval waits inside them are not counted twice), and which observers
are installed changes what is recorded, never what the system does.
"""

import json

from repro.check.history import recording
from repro.core.backend import set_op, update_op
from repro.core.firestore import FirestoreService
from repro.errors import FirestoreError
from repro.faults.plan import FaultPlan, install
from repro.obs.export import chrome_trace_json
from repro.obs.perf import Profiler
from repro.obs.probe import Probe
from repro.obs.tracer import Tracer
from repro.sim.clock import SimClock
from repro.sim.rand import SimRandom

#: ledger rows whose sim time elapsed on the clock (the rest are priced
#: without elapsing, like quorum acks, or measure delivery staleness)
ELAPSED_ROWS = {
    ("core", "backend.commit"),
    ("spanner", "commit"),
    ("spanner", "read.tablet_slow"),
}


def _ledger(profiler):
    return {
        (row["subsystem"], row["operation"]): row["sim_us"]
        for row in profiler.rows()
    }


def test_faulted_commit_ledgers_each_elapsed_microsecond_once():
    profiler = Profiler()
    service = FirestoreService(profiler=profiler)
    database = service.create_database("self-time")
    database.commit([set_op("docs/a", {"n": 1})])
    install(FaultPlan(seed=3, rates={"spanner.tablet_slow": 1.0}), database)
    before = _ledger(profiler)
    start = service.clock.now_us
    database.commit([update_op("docs/a", {"n": 2})])
    elapsed = service.clock.now_us - start
    assert elapsed > 0  # the stalled read advanced the clock
    after = _ledger(profiler)
    accounted = {
        key: after.get(key, 0) - before.get(key, 0) for key in ELAPSED_ROWS
    }
    assert accounted[("spanner", "read.tablet_slow")] == elapsed
    assert sum(accounted.values()) == elapsed


def test_nested_regions_account_self_time():
    clock = SimClock()
    profiler = Profiler()
    probe = Probe(clock, profiler=profiler)
    with probe.span("outer", perf=("core", "outer")):
        clock.advance(10)  # outer's own time
        with probe.measure("spanner", "inner"):
            clock.advance(5)  # inner's own time
            clock.advance(20)
            probe.wait(
                "storage_read",
                start_us=clock.now_us - 20,
                end_us=clock.now_us,
                perf=("spanner", "stall"),
            )
            # priced, never elapsed: accounted, subtracts nothing
            probe.wait("quorum_rtt", duration_us=7, perf=("replication", "ack"))
        clock.advance(1)
    assert _ledger(profiler) == {
        ("core", "outer"): 11,
        ("spanner", "inner"): 5,
        ("spanner", "stall"): 20,
        ("replication", "ack"): 7,
    }
    assert profiler.total_us() - 7 == clock.now_us


def _doc_path_run(tracer_on: bool, profiler_on: bool, seed: int = 11):
    """One seeded doc-path workload: faulted commits, a listener, a query."""
    clock = SimClock()
    tracer = Tracer(clock, SimRandom(seed).fork("tracer")) if tracer_on else None
    profiler = Profiler() if profiler_on else None
    with recording() as recorders:
        service = FirestoreService(clock=clock, tracer=tracer, profiler=profiler)
        database = service.create_database("observed")
        deltas = []
        database.connect().listen(
            database.query("docs"),
            lambda delta: deltas.append(
                (
                    delta.read_ts,
                    sorted((str(d.path), d.data["n"]) for d in delta.documents),
                )
            ),
        )
        install(
            FaultPlan(
                seed,
                rates={
                    "spanner.tablet_slow": 0.3,
                    "spanner.commit_unknown": 0.2,
                },
            ),
            database,
        )
        rand = SimRandom(seed).fork("workload")
        outcomes = []
        for op in range(30):
            clock.advance(rand.randint(1_000, 5_000))
            path = f"docs/d{rand.randint(0, 5)}"
            try:
                database.commit([set_op(path, {"n": op})])
                outcomes.append("ok")
            except FirestoreError as exc:
                outcomes.append(type(exc).__name__)
            database.pump_realtime()
        result = database.run_query(database.query("docs"))
    history = [
        json.dumps({k: v for k, v in event.items() if k != "span"}, sort_keys=True)
        for recorder in recorders
        for event in recorder.events
    ]
    return {
        "outcomes": outcomes,
        "clock": clock.now_us,
        "query": sorted((str(d.path), d.data["n"]) for d in result.documents),
        "deltas": deltas,
        "history": history,
        "trace": chrome_trace_json(tracer) if tracer else None,
        "ledger": profiler.rows() if profiler else None,
    }


def test_observers_never_change_what_the_system_does():
    runs = {
        (tracer_on, profiler_on): _doc_path_run(tracer_on, profiler_on)
        for tracer_on in (False, True)
        for profiler_on in (False, True)
    }
    both = runs[(True, True)]
    assert "ok" in both["outcomes"] and len(set(both["outcomes"])) > 1
    assert both["history"] and both["deltas"] and both["ledger"]
    for run in runs.values():
        for key in ("outcomes", "clock", "query", "deltas", "history"):
            assert run[key] == both[key], key
    assert runs[(True, False)]["trace"] == both["trace"]
    assert runs[(False, True)]["ledger"] == both["ledger"]
