"""Unified BENCH schema, regression comparison, gate canary, dashboard.

Covers the pure-arithmetic layer (metric/payload/compare), the disk
round-trip, the dashboard's determinism, and the one end-to-end
acceptance property cheap enough for tier-1: the functional-commit
gate cell is byte-stable under same-seed replay and a tablet_slow
canary trips the comparison with a named metric and factor.
"""

import json

import pytest

from repro.obs.bench import (
    BENCH_SCHEMA_VERSION,
    bench_payload,
    compare_bench,
    compare_suites,
    load_bench_dir,
    metric,
    write_payload,
)
from repro.obs.bench.dashboard import render_dashboard
from repro.obs.bench.gate import CANARY_SITE, gate_commit


def _payload(**metrics):
    return bench_payload(name="cell", figure="fig00", metrics=metrics)


def test_metric_validation():
    assert metric(5, "us") == {
        "value": 5, "unit": "us", "kind": "stat", "tolerance": 0.30,
    }
    assert metric(5, kind="exact") == {"value": 5, "unit": "", "kind": "exact"}
    with pytest.raises(ValueError):
        metric(5, kind="fuzzy")


def test_payload_carries_schema_version():
    payload = _payload(ops=metric(1, kind="exact"))
    assert payload["schema_version"] == BENCH_SCHEMA_VERSION
    assert payload["name"] == "cell"
    assert payload["figure"] == "fig00"


def test_identical_payloads_have_no_regressions():
    fresh = _payload(p50=metric(100, "us"), ops=metric(7, kind="exact"))
    assert compare_bench(fresh, fresh) == []


def test_exact_metric_must_match_exactly():
    baseline = _payload(ops=metric(7, kind="exact"))
    fresh = _payload(ops=metric(8, kind="exact"))
    (regression,) = compare_bench(fresh, baseline)
    assert regression.kind == "exact"
    assert regression.metric == "ops"
    assert "8" in str(regression) and "7" in str(regression)


def test_stat_metric_has_tolerance_band():
    baseline = _payload(p50=metric(100, "us", tolerance=0.30))
    # 29% off: inside the band
    assert compare_bench(_payload(p50=metric(129, "us")), baseline) == []
    # 31% off: outside, and the message names metric + factor
    (regression,) = compare_bench(_payload(p50=metric(131, "us")), baseline)
    assert regression.metric == "p50"
    assert regression.factor == pytest.approx(1.31)
    assert "1.31x" in str(regression)
    assert "±30%" in str(regression)
    # improvements beyond the band also flag (they move the baseline)
    assert compare_bench(_payload(p50=metric(60, "us")), baseline)


def test_vanished_metric_and_schema_mismatch_are_regressions():
    baseline = _payload(p50=metric(100, "us"))
    (regression,) = compare_bench(_payload(), baseline)
    assert regression.kind == "schema"
    stale = dict(baseline, schema_version=BENCH_SCHEMA_VERSION + 1)
    (regression,) = compare_bench(_payload(p50=metric(100, "us")), stale)
    assert regression.kind == "schema"


def test_failed_slo_in_fresh_run_is_a_regression():
    verdicts = {
        "request.availability": {
            "name": "request.availability", "ok": False, "target": 0.999,
            "observed": 0.5,
        }
    }
    fresh = bench_payload(name="cell", slos=verdicts)
    baseline = bench_payload(name="cell")
    (regression,) = compare_bench(fresh, baseline)
    assert regression.kind == "slo"
    assert "request.availability" in str(regression)


def test_profile_ledger_rows_must_match_exactly():
    from repro.obs.perf import Profiler

    def with_profile(*rows):
        profiler = Profiler()
        for subsystem, operation, sim_us in rows:
            profiler.account(subsystem, operation, sim_us, "db")
        return bench_payload(name="cell", raw={"profile": profiler.to_dict()})

    baseline = with_profile(("core", "commit", 0), ("spanner", "commit", 5))
    assert compare_bench(baseline, baseline) == []
    drifted = with_profile(
        ("core", "commit", 0),
        ("core", "commit", 0),  # one more call, same sim time
        ("spanner", "commit", 5),
        ("replication", "quorum.ack", 12),  # a row the baseline lacks
    )
    regressions = compare_bench(drifted, baseline)
    assert {r.metric: (r.baseline, r.value) for r in regressions} == {
        "profile:core/commit@db": ((1, 0), (2, 0)),
        "profile:replication/quorum.ack@db": (None, (1, 12)),
    }
    assert all(r.kind == "profile" for r in regressions)
    # a cell whose baseline carries no profile is not judged on one
    assert compare_bench(drifted, bench_payload(name="cell")) == []


def test_compare_suites_catches_missing_runs():
    baseline = {"a": _payload(), "b": _payload()}
    regressions = compare_suites({"a": _payload()}, baseline)
    assert any(r.bench == "b" and "no fresh run" in str(r) for r in regressions)
    # a fresh benchmark with no baseline is skipped, not failed
    extra = {"a": _payload(), "new_cell": _payload()}
    assert compare_suites(extra, {"a": _payload()}) == []


def test_write_and_load_roundtrip(tmp_path):
    payload = _payload(ops=metric(3, kind="exact"))
    path = write_payload(tmp_path, payload)
    assert path.name == "BENCH_cell.json"
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == payload
    # pre-schema files are ignored, not mis-parsed
    (tmp_path / "BENCH_legacy.json").write_text('{"old": true}')
    assert load_bench_dir(tmp_path) == {"cell": payload}


def test_dashboard_deterministic_and_escaped():
    payloads = {
        "<cell>": bench_payload(
            name="<cell>",
            metrics={"p50": metric(100, "us")},
            slos={"s": {"name": "s", "ok": True, "target": 1, "observed": 1}},
        )
    }
    baselines = {"<cell>": bench_payload(
        name="<cell>", metrics={"p50": metric(90, "us")}
    )}
    first = render_dashboard(payloads, baselines=baselines)
    assert first == render_dashboard(payloads, baselines=baselines)
    assert "&lt;cell&gt;" in first and "<cell>" not in first
    assert "gate passed" in first


def test_gate_commit_cell_byte_stable_and_canary_trips():
    clean, _ = gate_commit(seed=42, ops=12)
    again, _ = gate_commit(seed=42, ops=12)
    assert json.dumps(clean, sort_keys=True) == json.dumps(again, sort_keys=True)
    # clean functional commits advance the sim clock by nothing
    assert clean["metrics"]["commit_p50_us"]["value"] == 0
    assert compare_bench(clean, clean) == []

    canary, _ = gate_commit(seed=42, canary=CANARY_SITE, ops=12)
    regressions = compare_bench(canary, clean)
    assert regressions, "tablet_slow canary must trip the gate"
    names = {r.metric for r in regressions}
    assert "commit_p50_us" in names
    for regression in regressions:
        assert regression.factor >= 1.0


def test_gate_failover_cell_byte_stable_and_clean():
    from repro.obs.bench.gate import GATE_CELLS, gate_failover

    assert GATE_CELLS["gate_failover"] is gate_failover
    payload, _ = gate_failover()
    again, _ = gate_failover()
    assert json.dumps(payload, sort_keys=True) == json.dumps(
        again, sort_keys=True
    )
    metrics = payload["metrics"]
    assert metrics["violations"]["value"] == 0
    assert metrics["failovers"]["value"] >= 1
    assert metrics["unavailability_us"]["value"] > 0
    slos = payload["slos"]
    assert slos["replication.lag"]["ok"]
    assert slos["replication.convergence"]["ok"]
    assert compare_bench(payload, payload) == []


def test_gate_tail_cell_pins_blame_and_ships_artifacts():
    from repro.obs.bench.gate import GATE_CELLS, gate_tail

    assert GATE_CELLS["gate_tail"] is gate_tail
    payload, artifacts = gate_tail()
    metrics = payload["metrics"]
    for scenario in ("overload", "failover"):
        assert metrics[f"{scenario}_coverage_ok"]["value"] == 1
        assert metrics[f"{scenario}_blame_ok"]["value"] == 1
        assert metrics[f"{scenario}_unattributed_us"]["value"] == 0
        assert metrics[f"{scenario}_requests"]["value"] > 0
    assert compare_bench(payload, payload) == []
    # artifacts are keyed by output filename, one json + svg per scenario
    assert sorted(artifacts) == [
        "CRITPATH_failover.json",
        "CRITPATH_failover.svg",
        "CRITPATH_overload-storm.json",
        "CRITPATH_overload-storm.svg",
    ]
    summary = json.loads(artifacts["CRITPATH_failover.json"])
    assert summary["schema"] == "repro.critpath/1"
    assert artifacts["CRITPATH_failover.svg"].startswith("<svg ")
    # the dashboard renders the decomposition + blame panel from raw
    html = render_dashboard({"gate_tail": payload})
    assert "critical-path tail attribution" in html
    assert "why the tail is slow" in html
    assert "retry_backoff" in html
