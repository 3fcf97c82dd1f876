"""Sim-time profiler: ledger accounting, coverage, flamegraph folding.

The profiler's contract is determinism — every read-side artifact
(rows, top-N table, collapsed stacks, SVG) must be byte-identical for
identical inputs — plus the coverage guarantee the gate checks.
"""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.perf import Profiler, collapse_spans, flamegraph_svg
from repro.obs.probe import NULL_PROBE, Probe
from repro.obs.tracer import Tracer
from repro.sim.clock import SimClock
from repro.sim.rand import SimRandom


def test_account_accumulates_per_triple():
    profiler = Profiler()
    profiler.account("service", "backend.get", 100, "db1")
    profiler.account("service", "backend.get", 50, "db1")
    profiler.account("service", "backend.get", 10, "db2")
    profiler.account("spanner", "commit", 30)
    rows = profiler.rows()
    assert [
        (r["subsystem"], r["operation"], r["database_id"], r["sim_us"], r["calls"])
        for r in rows
    ] == [
        ("service", "backend.get", "db1", 150, 2),
        ("service", "backend.get", "db2", 10, 1),
        ("spanner", "commit", "-", 30, 1),
    ]
    assert profiler.total_us() == 190
    assert profiler.by_subsystem() == {"service": 160, "spanner": 30}
    assert profiler.by_tenant() == {"-": 30, "db1": 150, "db2": 10}


def test_negative_busy_time_rejected():
    with pytest.raises(ValueError):
        Profiler().account("service", "op", -1)


def test_measure_accounts_clock_delta():
    clock = SimClock()
    profiler = Profiler()
    probe = Probe(clock, profiler=profiler)
    with probe.measure("spanner", "commit", "db1"):
        clock.advance(1234)
    with probe.measure("spanner", "commit", "db1"):
        pass  # zero-delta blocks still count a call
    (row,) = profiler.rows()
    assert row["sim_us"] == 1234
    assert row["calls"] == 2


def test_coverage():
    profiler = Profiler()
    assert profiler.coverage(0) == 1.0  # idle run: nothing to explain
    profiler.account("service", "op", 99)
    assert profiler.coverage(100) == pytest.approx(0.99)
    # over-attribution clamps at 1.0 rather than reporting >100%
    assert profiler.coverage(50) == 1.0


def test_top_self_ordering_is_stable():
    profiler = Profiler()
    profiler.account("b", "op", 100)
    profiler.account("a", "op", 100)
    profiler.account("c", "op", 500)
    top = profiler.top_self(2)
    assert [(r["sim_us"], r["subsystem"]) for r in top] == [(500, "c"), (100, "a")]


def test_wall_clock_kept_out_of_deterministic_snapshot():
    profiler = Profiler()
    profiler.account("service", "op", 10)
    profiler.record_wall("kernel.step", 5_000)
    profiler.record_wall("kernel.step", 7_000)
    snapshot = profiler.to_dict()
    assert set(snapshot) == {"total_us", "by_subsystem", "by_tenant", "entries"}
    assert "wall" not in repr(snapshot)
    assert profiler.wall_report() == {
        "kernel.step": {"wall_ns": 12_000, "events": 2}
    }


def test_per_tenant_metrics_surface_only_attributed_work():
    registry = MetricsRegistry()
    profiler = Profiler(metrics=registry)
    profiler.account("service", "op", 100, "db1")
    profiler.account("service", "op", 40)  # shared: no tenant counter
    counters = {
        m.labels: m.value for m in registry.collect() if m.name == "perf_cpu_us"
    }
    assert counters == {
        (("database_id", "db1"), ("subsystem", "service")): 100
    }


def test_null_probe_is_falsy_and_inert():
    assert not NULL_PROBE
    NULL_PROBE.account("service", "op", 10)
    NULL_PROBE.wait("queue", start_us=0, end_us=5, perf=("service", "op"))
    with NULL_PROBE.measure("service", "op") as span:
        assert not span
    with NULL_PROBE.span("x", perf=("service", "op")) as span:
        assert not span
    # nothing recorded anywhere; a probe with an observer is truthy
    assert Probe(SimClock(), profiler=Profiler())


def test_text_table_lists_share_percentages():
    profiler = Profiler()
    profiler.account("service", "backend.get", 75, "db1")
    profiler.account("spanner", "commit", 25, "db1")
    table = profiler.text_table()
    assert "backend.get" in table and "75.0%" in table
    assert "commit" in table and "25.0%" in table
    assert Profiler().text_table() == "profile: no busy time accounted\n"


def _span_tree(seed: int = 4) -> Tracer:
    clock = SimClock()
    tracer = Tracer(clock, SimRandom(seed).fork("tracer"))
    with tracer.span("frontend.rpc"):
        clock.advance(10)  # frontend self-time
        with tracer.span("backend.commit"):
            clock.advance(30)  # backend self-time
            with tracer.span("spanner.commit"):
                clock.advance(60)
        clock.advance(5)  # more frontend self-time
    return tracer


def test_collapse_spans_computes_self_time():
    folded = collapse_spans(_span_tree())
    assert folded == [
        "frontend.rpc 15",
        "frontend.rpc;backend.commit 30",
        "frontend.rpc;backend.commit;spanner.commit 60",
    ]


def test_collapse_spans_aggregates_identical_paths():
    clock = SimClock()
    tracer = Tracer(clock, SimRandom(1).fork("tracer"))
    for _ in range(3):
        with tracer.span("backend.get"):
            clock.advance(7)
    assert collapse_spans(tracer) == ["backend.get 21"]


def test_collapse_spans_byte_identical_across_builds():
    assert collapse_spans(_span_tree(seed=8)) == collapse_spans(
        _span_tree(seed=8)
    )


def test_collapse_spans_clips_child_past_parent_end():
    # regression: a child scheduled past its parent's end used to eat the
    # raw child duration out of the parent, zeroing (or going negative
    # before the clamp) the parent's real self time
    clock = SimClock()
    tracer = Tracer(clock, SimRandom(2).fork("tracer"))
    parent = tracer.start_span("frontend.rpc")
    clock.advance(50)
    child = tracer.start_span("backend.flush", parent=parent.context)
    child.end(end_us=200)  # keeps running 100us past the parent
    parent.end(end_us=100)
    assert collapse_spans(tracer) == [
        "frontend.rpc 50",  # only the clipped [50, 100) is subtracted
        "frontend.rpc;backend.flush 150",
    ]


def test_collapse_spans_merges_overlapping_parallel_children():
    # regression: two hedged children [10,60) and [40,90) cover 80us of
    # the parent, not 100 — summing raw durations double-counted the
    # overlap and reported parent self time as 0 instead of 20 (the
    # children keep their full 50us self each: parallel work may exceed
    # the parent's wall time, the parent's own time must not vanish)
    clock = SimClock()
    tracer = Tracer(clock, SimRandom(3).fork("tracer"))
    parent = tracer.start_span("cluster.rpc")
    clock.advance(10)
    primary = tracer.start_span("tablet.read", parent=parent.context)
    clock.advance(30)
    hedge = tracer.start_span("tablet.read", parent=parent.context)
    clock.advance(20)
    primary.end()  # [10, 60)
    clock.advance(30)
    hedge.end()  # [40, 90)
    clock.advance(10)
    parent.end()  # [0, 100)
    assert collapse_spans(tracer) == [
        "cluster.rpc 20",
        "cluster.rpc;tablet.read 100",
    ]


def test_collapse_spans_ignores_zero_duration_children():
    clock = SimClock()
    tracer = Tracer(clock, SimRandom(4).fork("tracer"))
    with tracer.span("backend.get") as parent:
        clock.advance(5)
        tracer.start_span("cache.probe", parent=parent.context).end()
        clock.advance(5)
    assert collapse_spans(tracer) == [
        "backend.get 10",
        "backend.get;cache.probe 0",
    ]


def test_flamegraph_svg_deterministic_and_well_formed():
    folded = collapse_spans(_span_tree())
    first = flamegraph_svg(folded, title="commit path")
    assert first == flamegraph_svg(folded, title="commit path")
    assert first.startswith("<svg ")
    assert first.rstrip().endswith("</svg>")
    assert "commit path (total 105us)" in first
    for frame in ("frontend.rpc", "backend.commit", "spanner.commit"):
        assert frame in first


def test_flamegraph_svg_empty_input():
    svg = flamegraph_svg([])
    assert "<svg " in svg and "total 0us" in svg
