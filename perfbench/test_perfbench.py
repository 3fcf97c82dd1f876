"""Tests of the benchmark's own code (run: python3 -m pytest perfbench)."""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = 0.02


def describe(op) -> tuple:
    if op.kind == "sim":
        return op.kind, op.args[0].config.seed, op.args[1]
    return op.kind, repr(op.args)


def generated(name: str, seed: int, count: int = 60) -> list:
    workload = workloads.WORKLOADS[name](seed, TINY)
    workload.setup()
    ops = []
    for _ in range(count if workload.db is not None else 4):
        op = workload.next_op()
        ops.append(describe(op))
        if workload.db is not None:
            workload.execute(op)
            workload.verify(op)
    return ops


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_for_a_seed(name):
    assert generated(name, 5) == generated(name, 5)
    assert generated(name, 5) != generated(name, 6)


def test_zipf_keys_repeat_per_seed_and_favour_hot_keys():
    import random

    def draws(seed):
        keys = workloads.ZipfKeys(1000, random.Random(seed))
        return [keys.next() for _ in range(5000)]

    first = draws(1)
    assert first == draws(1) and first != draws(2)
    counts = sorted((first.count(k) for k in set(first)), reverse=True)
    assert counts[0] > 20 * counts[len(counts) // 2]


def log_of(*spans) -> tracing.SpanLog:
    """A span log holding the given ``(name, start, end, parent)`` spans."""
    log = tracing.SpanLog()
    for name, start, end, parent in spans:
        log._records.extend((log.name_id(name), start, end, parent, 0))
    return log


def test_self_time_subtracts_merged_overlapping_children():
    log = log_of(
        ("op", 0, 100, -1),
        ("a", 10, 40, 0),
        ("b", 30, 60, 0),  # overlaps a: [10, 60) counts once against op
        ("c", 80, 90, 0),
        ("d", 12, 20, 1),  # a grandchild is not subtracted from op again
    )
    assert tracing.self_time_by_name(log) == {
        "op": 100 - 50 - 10, "a": 30 - 8, "b": 30, "c": 10, "d": 8,
    }


def test_self_time_clips_children_that_overrun_the_parent():
    log = log_of(
        ("op", 0, 50, -1),
        ("late", 40, 70, 0),  # runs 20 past the op's end
        ("early", -10, 5, 0),  # starts before the op
        ("outside", 60, 90, 0),  # wholly outside the op's window
    )
    assert tracing.self_time_by_name(log)["op"] == 50 - 10 - 5


def test_span_log_records_nesting_and_request_ids():
    log = tracing.SpanLog()
    log.request_id = 7
    outer = log.open(log.name_id("a"))
    inner = log.open(log.name_id("b"))
    log.close(inner)
    log.close(outer)
    (a, *_), (b, _, _, parent, rid) = list(log.spans())
    assert (a, b, parent, rid) == ("a", "b", 0, 7)


def test_generator_wrapper_spans_each_resumption_only():
    log = tracing.SpanLog()

    def numbers():
        yield from range(3)

    wrapped = tracing.wrap_generator(log, "scan", numbers)
    root = log.open(log.name_id("op"))
    assert list(wrapped()) == [0, 1, 2]
    log.close(root)
    # the root, three items and the final StopIteration
    assert len(log) == 5
    assert log.counters["scan.rows"] == 3
    assert all(parent == root for *_, parent, _ in list(log.spans())[1:])


def test_wrappers_record_nothing_outside_an_open_span():
    log = tracing.SpanLog()
    call = tracing.wrap_call(log, "call", lambda: 1)
    scan = tracing.wrap_generator(log, "scan", lambda: iter(range(3)))
    assert call() == 1 and list(scan()) == [0, 1, 2]
    assert len(log) == 0 and not any(log.counters.values())


def test_install_then_restore_leaves_no_patched_attribute():
    workload = workloads.WORKLOADS["query-listen"](1, TINY)
    workload.setup()
    log = tracing.SpanLog()
    patches = tracing.install(log, [workload.db])
    sites = [(owner, attr, original) for owner, attr, original, _ in patches._saved]
    assert len(sites) > 30
    # the Changelog's bound method is patched on the instance holding it
    assert any(owner is workload.db.realtime.changelog for owner, *_ in sites)
    op = workload.next_op()
    root = log.open(log.name_id("op"))
    workload.execute(op)
    log.close(root)
    assert len(log) > 1
    patches.restore()
    for owner, attr, original in sites:
        assert vars(owner).get(attr) is original, (owner, attr)
        assert not hasattr(getattr(owner, attr), "__wrapped__"), (owner, attr)


def test_patches_remove_attributes_that_were_inherited():
    class Base:
        def f(self):
            return 1

    class Child(Base):
        pass

    patches = tracing.Patches()
    patches.replace(Child, "f", lambda fn: lambda self: 2)
    assert Child().f() == 2
    patches.restore()
    assert "f" not in vars(Child) and Child().f() == 1


def _run(*args) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(args)) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_passes_its_output_checks(name, trace):
    result = _run(
        "--workload", name, "--seed", "3", "--seconds", "0.3",
        "--trace", trace, "--scale", str(TINY),
    )
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if trace == "1" else "end_to_end"]
    assert [m["name"] for m in listed] == list(result["metrics"])
    assert all(
        result["metrics"][m["name"]]["unit"] == m["unit"] for m in listed
    )


@pytest.mark.parametrize(
    "name", [n for n, w in sorted(workloads.WORKLOADS.items()) if w is not workloads.FleetYcsb]
)
def test_layer_self_times_cover_the_traced_time(name, monkeypatch):
    # short windows, so a short run has several traced ones
    monkeypatch.setattr(run, "WINDOW_S", 0.2)
    result = _run(
        "--workload", name, "--seed", "3", "--seconds", "2",
        "--trace", "1", "--scale", str(TINY),
    )
    assert 0.95 <= result["metrics"]["trace.coverage_frac"]["value"] <= 1.0


def test_benchmark_file_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oltp-zipf",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
