"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload oltp-zipf --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates untraced and traced windows on the same database
and prints the per-layer split, each workload-kind latency from the
untraced windows, and the tracing overhead. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: ``setup_s`` is the median of at least this many builds from nothing...
SETUP_REPEATS = 3
#: ...and of more, up to SETUP_MAX_REPEATS, until the builds took this long
SETUP_MIN_S = 0.5
SETUP_MAX_REPEATS = 25
#: untimed operations after set-up, so lazy work finishes before timing
WARMUP_OPS = 200
#: length of one untraced or traced window in a ``--trace 1`` run
WINDOW_S = 1.0

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "read_p50_us": "us",
    "write_p50_us": "us",
    "rss_peak_mb": "MB",
}

#: per-layer self time per unit of work, from the traced windows: metric
#: name -> the span names it sums
SELF_TIMES = {
    "rules.authorize_us": ("rules.authorize",),
    "core.lookup_self_us": ("core.lookup",),
    "core.query_self_us": ("core.query",),
    "core.commit_self_us": ("core.commit",),
    "core.entries_us": ("core.entries",),
    "core.serialize_us": ("core.serialize",),
    "core.deserialize_us": ("core.deserialize",),
    "core.plan_us": ("core.plan",),
    "core.execute_self_us": ("core.execute",),
    "spanner.read_us": ("spanner.read",),
    "spanner.scan_us": ("spanner.scan",),
    "spanner.txn_read_us": ("spanner.txn_read",),
    "spanner.begin_us": ("spanner.begin",),
    "spanner.txn_commit_self_us": ("spanner.txn_commit",),
    "spanner.maintenance_us": ("spanner.maintenance",),
    "replication.precommit_us": ("replication.precommit",),
    "replication.commit_us": ("replication.commit",),
    "realtime.prepare_us": ("realtime.prepare",),
    "realtime.accept_us": ("realtime.accept",),
    "realtime.pump_us": ("realtime.pump",),
    "realtime.match_us": ("realtime.match",),
    "client.local_write_us": ("client.local_write",),
    "client.flush_us": ("client.flush",),
    "sim.kernel_us": ("sim.run",),
    "service.submit_us": ("service.submit",),
    "service.pick_us": ("service.pick",),
    "service.admit_us": ("service.admit",),
    "harness.self_us": ("harness.op",),
}

#: every per-layer metric and its unit, in output order
PER_LAYER = {
    **{name: "us/op" for name in SELF_TIMES},
    "rules.authorize_calls": "1/op",
    "core.index_entries_per_doc": "entries/doc",
    "core.rows_per_result": "rows/doc",
    "spanner.aborts_per_commit": "1/commit",
    "spanner.lock_conflicts": "count",
    "spanner.versions_gced": "1/op",
    "spanner.splits": "count",
    "spanner.rows_per_doc": "rows/doc",
    "replication.log_entries": "count",
    "realtime.forward_ratio": "ratio",
    "realtime.resets": "count",
    "realtime.prepare_timeouts": "count",
    "client.mutations_flushed": "1/op",
    "sim.events_executed": "events",
    "sim.wall_ns_per_event": "ns",
    "service.shed_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
    "failed_frac": "ratio",
    "lookup_p50_us": "us",
    "lookup_p99_us": "us",
    "commit_p50_us": "us",
    "commit_p99_us": "us",
    "query_p50_us": "us",
    "query_p99_us": "us",
    "fanout_p50_us": "us",
    "fanout_p99_us": "us",
    "sim_read_p99_us": "us",
    "sim_update_p99_us": "us",
}


def percentile(samples: list, pct: float) -> float:
    """Nearest-rank percentile of ``samples`` (0 when there are none)."""
    if not samples:
        return 0
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


class Phase:
    """What one kind of window (untraced or traced) measured."""

    def __init__(self) -> None:
        self.ns = 0
        self.units = 0
        self.events = 0
        #: (kind, label) -> latencies in ns
        self.latencies: dict[tuple[str, str], list[int]] = {}

    def throughput(self) -> float:
        return self.units / (self.ns / 1e9) if self.ns else 0.0

    def latency_us(self, kinds, pct: float) -> float:
        """Percentile of every latency of the given op kinds, pooled."""
        samples = [
            x for (kind, _), xs in self.latencies.items() if kind in kinds for x in xs
        ]
        return percentile(samples, pct) / 1000

    def typical_us(self, kinds) -> float:
        """Geometric mean of each op label's median latency.

        Every label (a query shape, say) weighs the same however often it
        was drawn, so the figure follows the program's speed rather than
        the mix: a pooled median over shapes of different cost lands
        between two shapes' clusters and jumps with the draw.
        """
        medians = [
            percentile(xs, 50) / 1000
            for (kind, _), xs in self.latencies.items()
            if kind in kinds
        ]
        return statistics.geometric_mean(medians) if medians else 0


def measure(workload, seconds: float, log=None) -> tuple[Phase, Phase, int, int]:
    """Drive ``workload`` in a closed loop for ``seconds`` of measured time.

    Time spent checking outputs is left out of the measured time. With a
    span ``log`` the loop alternates untraced and traced windows of
    :data:`WINDOW_S`. Returns (untraced, traced, attempted, failed).
    """
    from repro.errors import FirestoreError

    from tracing import install

    perf = time.perf_counter_ns
    phases = (Phase(), Phase())
    traced = False
    patches = None
    root = log.name_id("harness.op") if log is not None else -1
    window_ns = int(WINDOW_S * 1e9)
    attempted = failed = 0
    window_start = perf()
    window_checks = 0
    try:
        while True:
            phase = phases[traced]
            now = perf()
            in_window = now - window_start - window_checks
            measured = phases[0].ns + phases[1].ns + in_window
            if measured >= seconds * 1e9 and attempted >= workload.min_ops:
                phase.ns += in_window
                break
            if log is not None and in_window >= window_ns:
                phase.ns += in_window
                if traced:
                    patches.restore()
                else:
                    patches = install(log, [workload.db] if workload.db else [])
                traced = not traced
                window_start, window_checks = perf(), 0
                continue
            if traced:
                log.request_id += 1
                span = log.open(root)
            op = workload.next_op()
            attempted += 1
            start = perf()
            try:
                workload.execute(op)
                ok = True
            except FirestoreError as exc:
                failed += 1
                ok = False
                print(f"# {workload.name}: {op.kind} failed: {exc!r}")
            end = perf()
            if traced:
                log.close(span)
            if ok:
                phase.units += op.units
                phase.events += op.events
                phase.latencies.setdefault((op.kind, op.label), []).append(end - start)
                workload.verify(op)
                window_checks += perf() - end
    finally:
        if traced:
            patches.restore()
    return phases[0], phases[1], attempted, failed


def setup(workload_cls, seed: int, scale: float):
    """Build the workload from nothing several times; keep the last build.

    A cheap set-up repeats more, so its median is as steady as an
    expensive one's. Returns the workload and the median build time.
    """
    times: list[float] = []
    workload = None
    while len(times) < SETUP_REPEATS or (
        sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPEATS
    ):
        workload = None
        gc.collect()
        start = time.perf_counter()
        workload = workload_cls(seed, scale)
        workload.setup()
        times.append(time.perf_counter() - start)
    gc.collect()
    return workload, statistics.median(times)


def doc_path_stats(workload, before: dict) -> dict:
    """Counts the program keeps itself, as deltas over the measurement."""
    if workload.db is None:
        return {}
    spanner = workload.db.layout.spanner
    now = _program_counts(workload)
    if now["service"] is not before["service"]:
        # the workload started a new database since (ingest-wide rounds)
        before = dict.fromkeys(before, 0)
    docs = len(workload.shadow)
    stats = {
        "spanner.lock_conflicts": now["conflicts"] - before["conflicts"],
        "spanner.splits": now["splits"] - before["splits"],
        "spanner.rows_per_doc": spanner.total_rows() / docs if docs else 0,
        "replication.log_entries": len(spanner.replication.log),
        "realtime.resets": workload.db.realtime.total_resets,
        "realtime.prepare_timeouts": workload.db.realtime.changelog.timeouts,
    }
    examined = now["examined"] - before["examined"]
    forwarded = now["forwarded"] - before["forwarded"]
    stats["realtime.forward_ratio"] = forwarded / examined if examined else 0
    return stats


def _program_counts(workload) -> dict:
    service = workload.service
    matcher = workload.db.realtime.matcher
    return {
        "service": service,
        "conflicts": sum(db.locks.conflicts for db in service.spanner_databases),
        "splits": sum(s.splits for s in service.splitters),
        "examined": matcher.changes_examined,
        "forwarded": matcher.changes_forwarded,
    }


def layer_metrics(log, traced: Phase, untraced: Phase) -> dict:
    """The per-layer split from the traced windows' spans and counters."""
    from tracing import self_time_by_name

    selfs = self_time_by_name(log)
    counters = log.counters
    units = traced.units or 1
    metrics = {
        name: sum(selfs.get(span, 0) for span in spans) / units / 1000
        for name, spans in SELF_TIMES.items()
    }

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0

    metrics.update(
        {
            "rules.authorize_calls": counters["rules.authorize.calls"] / units,
            "core.index_entries_per_doc": ratio(
                counters["core.index_entries"], counters["core.docs_written"]
            ),
            "core.rows_per_result": ratio(
                counters["spanner.scan.rows"],
                counters["core.docs_returned"] + counters["core.docs_counted"],
            ),
            "spanner.aborts_per_commit": ratio(
                counters["spanner.aborts"], counters["spanner.txn_commit.calls"]
            ),
            "spanner.versions_gced": counters["spanner.versions_gced"] / units,
            "client.mutations_flushed": counters["client.mutations_flushed"] / units,
            "service.shed_frac": ratio(
                counters["service.shed"], counters["service.admit.calls"]
            ),
            "trace.overhead_frac": 1 - ratio(traced.throughput(), untraced.throughput()),
            "trace.coverage_frac": ratio(sum(selfs.values()), traced.ns),
        }
    )
    return metrics


def kind_latencies(phase: Phase) -> dict:
    metrics = {}
    for kind in ("lookup", "commit", "query", "fanout"):
        metrics[f"{kind}_p50_us"] = phase.latency_us((kind,), 50)
        metrics[f"{kind}_p99_us"] = phase.latency_us((kind,), 99)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="multiply the preloaded data sizes (tests use small scales)",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    # measure the default configuration, never a checking one
    os.environ.pop("REPRO_SANITIZE", None)
    os.environ.pop("REPRO_CHECK", None)

    import workloads
    from tracing import SpanLog

    workload_cls = workloads.WORKLOADS.get(args.workload)
    if workload_cls is None:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workload, setup_s = setup(workload_cls, args.seed, args.scale)
    workload.warm_up(WARMUP_OPS)
    gc.collect()
    before = _program_counts(workload) if workload.db is not None else {}
    log = SpanLog() if args.trace else None
    untraced, traced, attempted, failed = measure(workload, args.seconds, log)
    workload.finish()
    failures = failed + workload.mismatches

    if args.trace:
        metrics = layer_metrics(log, traced, untraced)
        metrics.update(kind_latencies(untraced))
        metrics.update(doc_path_stats(workload, before))
        metrics.update(workload.layer_stats())
        if untraced.events:
            metrics["sim.wall_ns_per_event"] = (
                sum(untraced.latencies["sim", "sim"]) / untraced.events
            )
        metrics["failed_frac"] = failures / attempted
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": setup_s,
            "throughput_ops_s": untraced.throughput(),
            "read_p50_us": untraced.typical_us(workloads.READ_KINDS),
            "write_p50_us": untraced.typical_us(workloads.WRITE_KINDS),
            "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics.update(workload.end_to_end())
        units = END_TO_END
    result = {
        "correct": failures == 0,
        "attempted": attempted,
        "failed": failures,
        "metrics": {
            name: {"value": metrics.get(name, 0), "unit": unit}
            for name, unit in units.items()
        },
    }
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "samples": {label: len(v) for (_, label), v in untraced.latencies.items()},
    }
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps({"env": env, **result}, indent=1))
    if log is not None:
        # one file per workload: the last traced run's spans
        log.write_tsv(out / f"{args.workload}-spans.tsv")
    print("# " + json.dumps(env))
    for name, entry in result["metrics"].items():
        print(f"# {name:32s} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
