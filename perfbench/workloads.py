"""The benchmark's four workloads, their seeded inputs and output checks.

Every document-path workload is a closed loop with one caller and no
think time: :meth:`Workload.next_op` builds the next request from the
workload's seeded generator and advances the simulated clock by a fixed
step, :meth:`Workload.execute` makes the timed call through the public
API, and :meth:`Workload.verify` compares what came back against a shadow
model of the data. Only ``execute`` is timed per operation.

``fleet-ycsb`` runs the serving-cluster simulation instead: an open loop
in simulated time whose simulator times each request from when it was
due. One of its operations is one whole simulated run.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
from typing import Any, Iterator, Optional

from repro import AuthContext, FirestoreService, set_op, update_op
from repro.client import MobileClient

#: simulated time each document-path operation advances the clock by: long
#: enough that a commit's timestamp is below the next pump's watermark and
#: that an ``oltp-zipf`` run spans more than the one-hour version-GC horizon
STEP_US = 100_000
#: operations between two ``run_maintenance()`` calls in ``oltp-zipf``
MAINTENANCE_EVERY = 2_000

#: ``Op.kind`` values whose latencies are reads and writes; within a kind,
#: ``Op.label`` tells apart shapes whose costs differ
READ_KINDS = ("lookup", "query")
WRITE_KINDS = ("commit", "fanout", "flush")

OLTP_RULES = """
service cloud.firestore {
  match /databases/{database}/documents {
    match /users/{userId} {
      allow read: if request.auth != null;
      allow write: if request.auth != null && request.auth.uid == userId;
    }
  }
}
"""


class Op:
    """One generated request: its timed kind and what ``execute`` needs."""

    __slots__ = ("kind", "label", "args", "result", "units", "events")

    def __init__(self, kind: str, *args: Any):
        self.kind = kind
        #: the op's shape within its kind; each label weighs the same in
        #: the read and write figures
        self.label = kind
        self.args = args
        self.result: Any = None
        #: units of work the op completes toward throughput
        self.units = 1
        #: simulator events the op executed (``fleet-ycsb`` only)
        self.events = 0


class ZipfKeys:
    """Scrambled Zipfian key ranks (YCSB's generator, theta 0.99)."""

    def __init__(self, count: int, rng: random.Random, theta: float = 0.99):
        total = 0.0
        self._cdf = []
        for rank in range(count):
            total += 1.0 / (rank + 1) ** theta
            self._cdf.append(total)
        self._total = total
        # hot ranks land on scattered keys, not on adjacent ids
        self._perm = list(range(count))
        rng.shuffle(self._perm)
        self._rng = rng

    def next(self) -> int:
        """Draw one key index."""
        rank = bisect.bisect_left(self._cdf, self._rng.random() * self._total)
        return self._perm[min(rank, len(self._perm) - 1)]


class Workload:
    """Shared workload state: the seeded generator, counters, the shadow."""

    name = ""
    #: operations that must complete even if the time runs out first
    min_ops = 1

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale
        self.rng = random.Random(f"{self.name}:{seed}")
        self.mismatches = 0
        self.service: Optional[FirestoreService] = None
        self.db = None
        #: path -> last data written, the model every check compares to
        self.shadow: dict[str, dict] = {}

    def sized(self, count: int) -> int:
        """A nominal size under ``scale`` (at least 8)."""
        return max(8, int(count * self.scale))

    def setup(self) -> None:
        raise NotImplementedError

    def next_op(self) -> Op:
        raise NotImplementedError

    def execute(self, op: Op) -> None:
        raise NotImplementedError

    def verify(self, op: Op) -> None:
        """Check ``op``'s output against the shadow, then update it."""

    def finish(self) -> None:
        """End-of-run checks of the whole database against the shadow."""
        self.mismatch_unless(
            self.db.document_count() == len(self.shadow), "document_count"
        )

    def mismatch_unless(self, ok: bool, what: str) -> None:
        if not ok:
            self.mismatches += 1
            if self.mismatches <= 5:
                print(f"# output check failed: {self.name}: {what}")

    def check_document(self, path: str, data: Optional[dict]) -> None:
        self.mismatch_unless(data == self.shadow.get(path), f"document {path}")

    def end_to_end(self) -> dict[str, float]:
        """End-to-end metrics the harness cannot take from wall time."""
        return {}

    def layer_stats(self) -> dict[str, float]:
        """Per-layer metrics read from the program's own objects at the end."""
        return {}

    def warm_up(self, ops: int) -> None:
        """Run untimed operations so first plans, automatic indexes and
        metadata persistence happen before timing starts."""
        for _ in range(ops):
            op = self.next_op()
            self.execute(op)
            self.verify(op)

    def _step(self) -> None:
        self.service.clock.advance(STEP_US)


# -- oltp-zipf -------------------------------------------------------------------


class OltpZipf(Workload):
    """Point reads and small commits on hot keys (the paper's Figs 7/8)."""

    name = "oltp-zipf"

    def setup(self) -> None:
        self.users = self.sized(5_000)
        self.service = FirestoreService(region="nam5")
        self.db = self.service.create_database("oltp")
        self.db.set_rules(OLTP_RULES)
        self.paths = [f"users/u{i:06d}" for i in range(self.users)]
        for start in range(0, self.users, 500):
            batch = self.db.batch()
            for path in self.paths[start : start + 500]:
                data = self._user()
                batch.set(path, data)
                self.shadow[path] = data
            batch.commit()
            self._step()
        self.keys = ZipfKeys(self.users, self.rng)
        self.ops = 0
        # let the preload's write load decay, so tablets split under the
        # run's own load rather than the bulk load's
        self.service.clock.advance(600 * 1_000_000)

    def _user(self) -> dict:
        rng = self.rng
        return {
            "name": f"user-{rng.randrange(10**9)}",
            "age": rng.randrange(18, 90),
            "city": f"city-{rng.randrange(16)}",
            "score": rng.random(),
            "active": rng.random() < 0.5,
        }

    def next_op(self) -> Op:
        self._step()
        self.ops += 1
        if self.ops % MAINTENANCE_EVERY == 0:
            return Op("maintenance")
        path = self.paths[self.keys.next()]
        draw = self.rng.random()
        if draw < 0.80:
            auth = None
            if self.rng.random() < 0.1:
                auth = AuthContext(uid=path.rsplit("/", 1)[1])
            return Op("lookup", path, auth)
        if draw < 0.95:
            return Op("commit", update_op(path, {"score": self.rng.random()}))
        return Op("commit", set_op(path, self._user()))

    def execute(self, op: Op) -> None:
        if op.kind == "lookup":
            op.result = self.db.lookup(op.args[0], auth=op.args[1])
        elif op.kind == "commit":
            op.result = self.db.commit([op.args[0]])
        else:
            op.result = self.service.run_maintenance()
            op.units = 0

    def verify(self, op: Op) -> None:
        if op.kind == "lookup":
            if self.ops % 4 == 0:
                self.check_document(op.args[0], op.result.data)
        elif op.kind == "commit":
            write = op.args[0]
            path = str(write.path)
            if write.kind.value == "update":
                self.shadow[path] = {**self.shadow[path], **write.data}
            else:
                self.shadow[path] = dict(write.data)

    def finish(self) -> None:
        super().finish()
        for path in self.rng.sample(self.paths, min(200, len(self.paths))):
            self.check_document(path, self.db.lookup(path).data)


# -- query-listen ----------------------------------------------------------------

CATEGORIES = [f"cat-{i}" for i in range(8)]
REGIONS = [f"region-{i}" for i in range(4)]
LISTENERS = 200
CONNECTIONS = 4
QUERY_SHAPES = ("eq", "composite", "zigzag", "count")
#: one block of the mix, shuffled per block: 10% fan-outs and the four
#: query shapes evenly. A run holds only a few thousand ops and a fan-out
#: costs ten queries, so an independent draw per op would move the
#: throughput by a few percent from seed to seed.
MIX_BLOCK = ("fanout",) * 4 + QUERY_SHAPES * 9


class QueryListen(Workload):
    """Queries of four plan shapes plus updates fanned out to listeners
    (the paper's Figs 9/10)."""

    name = "query-listen"

    def setup(self) -> None:
        self.items = self.sized(5_000)
        self.service = FirestoreService(region="nam5")
        self.db = self.service.create_database("catalog")
        self.paths = [f"items/i{i:06d}" for i in range(self.items)]
        for start in range(0, self.items, 500):
            batch = self.db.batch()
            for path in self.paths[start : start + 500]:
                data = self._item()
                batch.set(path, data)
                self.shadow[path] = data
            batch.commit()
            self._step()
        self.db.create_index("items", [("category", "asc"), ("price", "asc")])
        # membership of a category or region never changes (updates touch
        # other fields), so each group's name-ordered member list is fixed
        self.by_category = {c: [] for c in CATEGORIES}
        self.by_region = {r: [] for r in REGIONS}
        for path in self.paths:
            data = self.shadow[path]
            self.by_category[data["category"]].append(path)
            self.by_region[data["region"]].append(path)
        self.views: list[tuple] = [()] * LISTENERS
        self.listen_queries = []
        connections = [self.db.connect() for _ in range(CONNECTIONS)]
        for i in range(LISTENERS):
            if i % 2 == 0:
                query = self.db.query("items").where(
                    "category", "==", CATEGORIES[(i // 2) % len(CATEGORIES)]
                ).limit_to(20)
            else:
                query = self.db.query("items").where(
                    "region", "==", REGIONS[(i // 2) % len(REGIONS)]
                ).limit_to(10)
            self.listen_queries.append(query)
            connections[i % CONNECTIONS].listen(query, self._listener(i))
        self.ops = 0
        self.mix: list[str] = []

    def _listener(self, i: int):
        views = self.views

        def on_snapshot(delta) -> None:
            views[i] = delta.documents

        return on_snapshot

    def _item(self) -> dict:
        rng = self.rng
        return {
            "name": f"item-{rng.randrange(10**9)}",
            "category": rng.choice(CATEGORIES),
            "region": rng.choice(REGIONS),
            "price": rng.randrange(1000),
            "score": rng.random(),
            "active": rng.random() < 0.5,
        }

    def next_op(self) -> Op:
        self._step()
        self.ops += 1
        rng = self.rng
        if not self.mix:
            self.mix = rng.sample(MIX_BLOCK, len(MIX_BLOCK))
        shape = self.mix.pop()
        if shape == "fanout":
            path = rng.choice(self.paths)
            field = rng.choice(("price", "score", "active"))
            value = {
                "price": rng.randrange(1000),
                "score": rng.random(),
                "active": rng.random() < 0.5,
            }[field]
            return Op("fanout", update_op(path, {field: value}))
        op = self._query(shape)
        op.label = f"query.{shape}"
        return op

    def _query(self, shape: str) -> Op:
        rng = self.rng
        items = self.db.query("items")
        if shape == "eq":
            region = rng.choice(REGIONS)
            return Op("query", "eq", items.where("region", "==", region).limit_to(20), region)
        category = rng.choice(CATEGORIES)
        if shape == "composite":
            price = rng.randrange(1000)
            query = (
                items.where("category", "==", category)
                .where("price", ">=", price)
                .order_by("price")
                .limit_to(50)
            )
            return Op("query", "composite", query, category, price)
        if shape == "zigzag":
            query = (
                items.where("category", "==", category)
                .where("active", "==", True)
                .limit_to(20)
            )
            return Op("query", "zigzag", query, category)
        query = items.where("category", "==", category)
        return Op("query", "count", query, category)

    def execute(self, op: Op) -> None:
        if op.kind == "fanout":
            self.db.commit([op.args[0]])
            self.service.clock.advance(STEP_US)
            op.result = self.db.pump_realtime()
        elif op.args[0] == "count":
            op.result = self.db.run_count(op.args[1])
        else:
            op.result = self.db.run_query(op.args[1])

    def verify(self, op: Op) -> None:
        if op.kind == "fanout":
            write = op.args[0]
            path = str(write.path)
            self.shadow[path] = {**self.shadow[path], **write.data}
            return
        if self.ops % 4:
            return
        shape = op.args[0]
        if shape == "count":
            self.mismatch_unless(
                op.result[0] == len(self.by_category[op.args[2]]), "count"
            )
            return
        shadow = self.shadow
        if shape == "eq":
            expected = self.by_region[op.args[2]][:20]
        elif shape == "zigzag":
            expected = [p for p in self.by_category[op.args[2]] if shadow[p]["active"]][:20]
        else:
            price = op.args[3]
            expected = sorted(
                (shadow[p]["price"], p)
                for p in self.by_category[op.args[2]]
                if shadow[p]["price"] >= price
            )[:50]
            expected = [p for _, p in expected]
        self._check_result(op.result.documents, expected, shape)

    def _check_result(self, documents, expected: list[str], what: str) -> None:
        got = [str(doc.path) for doc in documents]
        self.mismatch_unless(got == expected, f"{what} query result")
        for doc in documents:
            self.check_document(str(doc.path), doc.data)

    def finish(self) -> None:
        super().finish()
        self.service.clock.advance(STEP_US)
        self.db.pump_realtime()
        for i, query in enumerate(self.listen_queries):
            fresh = [str(doc.path) for doc in self.db.run_query(query).documents]
            self._check_result(self.views[i], fresh, f"listener {i} view")


# -- ingest-wide -----------------------------------------------------------------

BATCH_DOCS = 100
READBACKS = 10
BATCHES_PER_FLUSH = 4
OFFLINE_WRITES = 50
#: cycles (four batches and one flush, 450 documents) per database: each
#: round starts from an empty database, so memory and B-tree depth do not
#: depend on how far a run gets
CYCLES_PER_ROUND = 5
_ID_ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"


class IngestWide(Workload):
    """Wide-document bulk writes plus an offline client's flush."""

    name = "ingest-wide"

    def setup(self) -> None:
        self.batch_docs = self.sized(BATCH_DOCS)
        self.offline_writes = self.sized(OFFLINE_WRITES)
        self.cycles_per_round = max(1, round(CYCLES_PER_ROUND * self.scale))
        self._new_round()
        self._schedule = self._cycle()
        self.cycles = 0

    def _new_round(self) -> None:
        self.service = FirestoreService(region="nam5")
        self.db = self.service.create_database("ingest")
        self.client = MobileClient(self.db)
        self.shadow = {}
        self.written: list[str] = []

    def _new_path(self) -> str:
        return "events/" + "".join(self.rng.choices(_ID_ALPHABET, k=20))

    def _event(self) -> dict:
        rng = self.rng
        data: dict[str, Any] = {}
        # 18 scalar fields, a nested map and an array: 20 fields
        for i in range(6):
            data[f"count{i}"] = rng.randrange(1_000_000)
            data[f"label{i}"] = f"label-{rng.randrange(500)}"
            data[f"ratio{i}"] = rng.random()
        data["meta"] = {
            "source": f"src-{rng.randrange(20)}",
            "version": rng.randrange(10),
            "weight": rng.random(),
        }
        data["tags"] = [f"tag-{rng.randrange(50)}" for _ in range(3)]
        return data

    def _cycle(self) -> Iterator[Op]:
        while True:
            for _ in range(BATCHES_PER_FLUSH):
                docs = [
                    (self._new_path(), self._event())
                    for _ in range(self.batch_docs)
                ]
                op = Op("commit", docs)
                op.units = len(docs)
                yield op
                for _ in range(READBACKS):
                    yield Op("lookup", self.rng.choice(self.written))
            self.client.disconnect()
            offline = []
            for _ in range(self.offline_writes):
                op = Op("local_write", self._new_path(), self._event())
                op.units = 0
                offline.append(op.args)
                yield op
            op = Op("flush", offline)
            op.units = len(offline)
            yield op

    def next_op(self) -> Op:
        self._step()
        return next(self._schedule)

    def execute(self, op: Op) -> None:
        kind = op.kind
        if kind == "commit":
            batch = self.db.batch()
            for path, data in op.args[0]:
                batch.set(path, data)
            op.result = batch.commit()
        elif kind == "lookup":
            op.result = self.db.lookup(op.args[0])
        elif kind == "local_write":
            self.client.set(op.args[0], op.args[1])
        else:
            self.client.connect()

    def verify(self, op: Op) -> None:
        kind = op.kind
        if kind == "lookup":
            self.check_document(op.args[0], op.result.data)
            return
        if kind == "commit":
            writes = op.args[0]
            self.mismatch_unless(
                op.result.write_count == len(writes), "batch write count"
            )
        elif kind == "flush":
            writes = op.args[0]
            self.mismatch_unless(
                not self.client.flush_errors and self.client.pending_writes == 0,
                "offline writes flushed",
            )
        else:
            return
        for path, data in writes:
            self.shadow[path] = data
            self.written.append(path)
        if kind == "flush":
            self.cycles += 1
            if self.cycles % self.cycles_per_round == 0:
                self.finish()
                self._new_round()
                gc.collect()

    def finish(self) -> None:
        super().finish()
        for path in self.rng.sample(self.written, min(200, len(self.written))):
            self.check_document(path, self.db.lookup(path).data)


# -- fleet-ycsb ------------------------------------------------------------------

#: simulated runs whose modeled latencies are reported (median over them)
FLEET_REPORTED_RUNS = 3


class FleetYcsb(Workload):
    """YCSB workload A against the serving-cluster simulation."""

    name = "fleet-ycsb"
    min_ops = FLEET_REPORTED_RUNS

    def setup(self) -> None:
        self.results: dict[int, Any] = {}
        self.events: dict[int, int] = {}
        self.runs = 0
        self.runner = self._runner(0)

    def _runner(self, run: int):
        from repro.workloads import YcsbConfig, YcsbRunner

        config = YcsbConfig(
            workload="A",
            target_qps=2000,
            # the gate_speed configuration at scale 1
            duration_s=max(2, round(25 * self.scale)),
            measure_last_s=max(1, round(10 * self.scale)),
            seed=self._run_seed(run),
        )
        return YcsbRunner(config)

    def _run_seed(self, run: int) -> int:
        # the reported runs use seeds derived from the workload seed; later
        # runs repeat them, which checks that the simulation is deterministic
        return random.Random(f"fleet:{self.seed}:{run % FLEET_REPORTED_RUNS}").randrange(2**31)

    def next_op(self) -> Op:
        if self.runner is None:
            self.runner = self._runner(self.runs)
        op = Op("sim", self.runner, self.runs % FLEET_REPORTED_RUNS)
        self.runner = None
        self.runs += 1
        return op

    def execute(self, op: Op) -> None:
        runner = op.args[0]
        op.result = runner.run()
        cluster = runner.cluster
        op.units = cluster.completed + cluster.rejected
        op.events = cluster.kernel.executed

    def verify(self, op: Op) -> None:
        runner, slot = op.args
        events = op.events
        if slot in self.results:
            self.mismatch_unless(
                op.result == self.results[slot] and events == self.events[slot],
                "simulation repeats for its seed",
            )
        else:
            self.results[slot] = op.result
            self.events[slot] = events
        self.mismatch_unless(op.result.rejected == 0, "no request rejected")

    def finish(self) -> None:
        self.mismatch_unless(len(self.results) == FLEET_REPORTED_RUNS, "reported runs")

    def _median(self, field: str) -> float:
        return statistics.median(getattr(r, field) for r in self.results.values())

    def end_to_end(self) -> dict[str, float]:
        # modeled latencies, timed by the simulator from when each
        # request was due
        return {
            "read_p50_us": self._median("read_p50_us"),
            "write_p50_us": self._median("update_p50_us"),
        }

    def layer_stats(self) -> dict[str, float]:
        return {
            "sim_read_p99_us": self._median("read_p99_us"),
            "sim_update_p99_us": self._median("update_p99_us"),
            "sim.events_executed": self.events[0],
        }

    def warm_up(self, ops: int) -> None:
        from repro.workloads import YcsbConfig, YcsbRunner

        YcsbRunner(YcsbConfig(target_qps=2000, duration_s=2, measure_last_s=1)).run()


WORKLOADS = {w.name: w for w in (OltpZipf, QueryListen, IngestWide, FleetYcsb)}
