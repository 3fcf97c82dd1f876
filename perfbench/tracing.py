"""Layer-boundary spans for the traced benchmark run.

The benchmark wraps the public entry point of each layer from outside the
program: :func:`install` replaces each function where its caller looks it
up (a class attribute, a module global imported by name, or an instance
attribute holding a bound method) with a timing wrapper, and
:meth:`Patches.restore` puts every original back. No file under ``src/``
knows about this module.

Spans are kept in memory as flat integer records ``(name, start, end,
parent, request)`` and written out when the run ends. A span's self time
is its duration minus the union of its children's intervals, each child
clipped to the parent's window (see :func:`self_time_by_name`). Wrappers
record only inside an open span, so a call the harness makes between
operations (an output check) leaves no span and no count.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Iterable, Optional

_FIELDS = 5  # name id, start ns, end ns, parent index, request id


class SpanLog:
    """In-memory span records plus the per-name counters wrappers keep."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._records = array("q")
        #: indexes of the open spans, innermost last
        self.stack: list[int] = []
        self.request_id = 0
        #: counts observed at layer boundaries (calls, rows, outcomes)
        self.counters: dict[str, float] = defaultdict(float)

    def name_id(self, name: str) -> int:
        """Intern a span name."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._name_ids[name] = nid
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        """Start a span under the innermost open one; returns its index."""
        records = self._records
        index = len(records) // _FIELDS
        parent = self.stack[-1] if self.stack else -1
        records.extend((nid, time.perf_counter_ns(), 0, parent, self.request_id))
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        """End the innermost open span (which must be ``index``)."""
        self._records[index * _FIELDS + 2] = time.perf_counter_ns()
        self.stack.pop()

    def __len__(self) -> int:
        return len(self._records) // _FIELDS

    def spans(self) -> Iterable[tuple[str, int, int, int, int]]:
        """Every span as ``(name, start_ns, end_ns, parent, request_id)``."""
        records = self._records
        names = self.names
        for base in range(0, len(records), _FIELDS):
            nid, start, end, parent, rid = records[base : base + _FIELDS]
            yield names[nid], start, end, parent, rid

    def write_tsv(self, path) -> None:
        """Write every span, one tab-separated line each, with a header."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\tname\tstart_ns\tend_ns\tparent\trequest\n")
            for index, (name, start, end, parent, rid) in enumerate(self.spans()):
                out.write(f"{index}\t{name}\t{start}\t{end}\t{parent}\t{rid}\n")


class _FlatSpan:
    """One record seen as the span :func:`collapse_spans` expects."""

    __slots__ = ("span_id", "parent_id", "name", "start_us", "end_us")

    def __init__(self, index, name, start, end, parent) -> None:
        # times stay in nanoseconds: collapse_spans only subtracts them
        self.span_id = index
        self.parent_id = parent if parent >= 0 else None
        self.name = name
        self.start_us = start
        self.end_us = end

    @property
    def duration_us(self) -> int:
        return self.end_us - self.start_us


def self_time_by_name(log: SpanLog) -> dict[str, int]:
    """Total self time per span name, in nanoseconds.

    The program's own :func:`repro.obs.perf.collapse_spans` does the
    arithmetic (children clipped to the parent's window, overlapping
    children merged); its stacks are summed by their innermost name.
    """
    from types import SimpleNamespace

    from repro.obs.perf import collapse_spans

    finished = [
        _FlatSpan(index, name, start, end, parent)
        for index, (name, start, end, parent, _) in enumerate(log.spans())
    ]
    totals: dict[str, int] = defaultdict(int)
    for line in collapse_spans(SimpleNamespace(finished=finished)):
        stack, _, value = line.rpartition(" ")
        totals[stack.rpartition(";")[2]] += int(value)
    return dict(totals)


# -- wrappers ------------------------------------------------------------------


def wrap_call(
    log: SpanLog,
    name: str,
    fn: Callable,
    observe: Optional[Callable[[dict, Any], None]] = None,
    on_error: Optional[Callable[[dict, BaseException], None]] = None,
) -> Callable:
    """A wrapper timing each call of ``fn`` as one span named ``name``.

    ``observe(counters, result)`` sees each return value and
    ``on_error(counters, exc)`` each exception, so counts are taken at the
    same boundary as the span. A call made outside every open span is
    passed straight through.
    """
    nid = log.name_id(name)
    counters = log.counters
    stack = log.stack
    calls_key = f"{name}.calls"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not stack:
            return fn(*args, **kwargs)
        counters[calls_key] += 1
        index = log.open(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            log.close(index)
            if on_error is not None:
                on_error(counters, exc)
            raise
        log.close(index)
        if observe is not None:
            observe(counters, result)
        return result

    return wrapper


def wrap_generator(log: SpanLog, name: str, fn: Callable) -> Callable:
    """A wrapper for a generator function: one span per resumption.

    Only the time the generator itself runs is inside a span; the caller's
    work between items stays with the caller. ``<name>.rows`` counts the
    items yielded. A generator created outside every open span is not
    traced.
    """
    nid = log.name_id(name)
    counters = log.counters
    stack = log.stack
    rows_key = f"{name}.rows"
    calls_key = f"{name}.calls"

    def traced(inner):
        try:
            while True:
                index = log.open(nid)
                try:
                    item = next(inner)
                except StopIteration:
                    log.close(index)
                    return
                except BaseException:
                    log.close(index)
                    raise
                log.close(index)
                counters[rows_key] += 1
                yield item
        finally:
            inner.close()

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not stack:
            return fn(*args, **kwargs)
        counters[calls_key] += 1
        return traced(fn(*args, **kwargs))

    return wrapper


class Patches:
    """Replaced attributes and their originals, restorable in one call."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any, bool]] = []

    def replace(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Set ``owner.attr`` to ``make(original)``."""
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        self._saved.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        """Put back every original, newest first."""
        while self._saved:
            owner, attr, original, had_own = self._saved.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


# -- the layer map -------------------------------------------------------------


def _count(key: str, value: Callable[[Any], float]):
    def observe(counters, result) -> None:
        counters[key] += value(result)

    return observe


def _commit_outcome(counters, result) -> None:
    counters["core.index_entries"] += result.index_entries_written
    counters["core.docs_written"] += result.write_count


def _shed(counters, result) -> None:
    _, reason = result
    counters["service.shed"] += reason is not None


def _abort(counters, exc) -> None:
    from repro.errors import Aborted

    counters["spanner.aborts"] += isinstance(exc, Aborted)


def install(log: SpanLog, databases: Iterable[Any] = ()) -> Patches:
    """Wrap every layer's entry point; returns the patches to restore.

    Functions a caller imported by name are patched in that caller's
    module; bound methods a component stored on another are patched on
    the instance holding them (``databases`` supplies those instances).
    """
    from repro.client.client import MobileClient
    from repro.core import backend, executor, firestore, planner
    from repro.realtime.cache import RealtimeCache
    from repro.replication.group import ReplicaGroup
    from repro.rules.evaluator import RulesEngine
    from repro.service.admission import AdmissionController
    from repro.service.cluster import ServingCluster
    from repro.service.scheduler import FairShareScheduler
    from repro.sim.events import EventKernel
    from repro.spanner.database import SpannerDatabase
    from repro.spanner.transaction import ReadWriteTransaction

    calls = [
        # (owner, attribute, span name, observe, on_error)
        (RulesEngine, "authorize", "rules.authorize", None, None),
        (backend.Backend, "lookup", "core.lookup", None, None),
        (
            backend.Backend,
            "run_query",
            "core.query",
            _count("core.docs_returned", lambda r: len(r.documents)),
            None,
        ),
        (
            backend.Backend,
            "run_count",
            "core.query",
            _count("core.docs_counted", lambda r: r[0]),
            None,
        ),
        (backend.Backend, "commit", "core.commit", _commit_outcome, None),
        (backend, "compute_document_entries", "core.entries", None, None),
        (backend, "serialize_document", "core.serialize", None, None),
        (backend, "deserialize_document", "core.deserialize", None, None),
        (executor, "deserialize_document", "core.deserialize", None, None),
        (planner.QueryPlanner, "plan", "core.plan", None, None),
        (executor.QueryExecutor, "execute", "core.execute", None, None),
        (executor.QueryExecutor, "count", "core.execute", None, None),
        (SpannerDatabase, "begin", "spanner.begin", None, None),
        (SpannerDatabase, "snapshot_read_versioned", "spanner.read", None, None),
        (ReadWriteTransaction, "read_versioned", "spanner.txn_read", None, None),
        (ReadWriteTransaction, "commit", "spanner.txn_commit", None, _abort),
        (firestore.FirestoreService, "run_maintenance", "spanner.maintenance", None, None),
        (
            SpannerDatabase,
            "gc",
            "spanner.maintenance",
            _count("spanner.versions_gced", lambda r: r),
            None,
        ),
        (ReplicaGroup, "precommit", "replication.precommit", None, None),
        (ReplicaGroup, "commit", "replication.commit", None, None),
        (RealtimeCache, "prepare", "realtime.prepare", None, None),
        (RealtimeCache, "accept", "realtime.accept", None, None),
        (RealtimeCache, "pump", "realtime.pump", None, None),
        (MobileClient, "set", "client.local_write", None, None),
        (
            MobileClient,
            "flush",
            "client.flush",
            _count("client.mutations_flushed", lambda r: r),
            None,
        ),
        (EventKernel, "run_until", "sim.run", None, None),
        (ServingCluster, "submit", "service.submit", None, None),
        (FairShareScheduler, "pick", "service.pick", None, None),
        (AdmissionController, "try_admit", "service.admit", _shed, None),
    ]
    for database in databases:
        # the Changelog holds the matcher's bound method, not the class's
        changelog = database.realtime.changelog
        calls.append((changelog, "on_change", "realtime.match", None, None))

    patches = Patches()
    try:
        for owner, attr, name, observe, on_error in calls:
            patches.replace(
                owner,
                attr,
                lambda fn, name=name, observe=observe, on_error=on_error: wrap_call(
                    log, name, fn, observe, on_error
                ),
            )
        patches.replace(
            SpannerDatabase,
            "snapshot_scan",
            lambda fn: wrap_generator(log, "spanner.scan", fn),
        )
    except BaseException:
        patches.restore()
        raise
    return patches
