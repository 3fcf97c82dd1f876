"""The Mobile/Web SDK entry point: :class:`MobileClient`.

One instance models one end-user device: a local cache, a pending
mutation queue, snapshot listeners with latency compensation, an explicit
connect/disconnect switch for network state, OCC transactions, and
optional persistence across "restarts" (paper sections III-E and IV-E).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import (
    Aborted,
    FirestoreError,
    InvalidArgument,
    NotFound,
    ResourceExhausted,
    Unavailable,
)
from repro.core.backend import AuthContext, WriteOp, delete_op, set_op, update_op
from repro.core.firestore import FirestoreDatabase
from repro.faults.retry import (
    DEFAULT_POLICY,
    RetryBudget,
    RetryPolicy,
    call_with_retry,
    retry_stream,
)
from repro.core.path import Path, collection_path, document_path
from repro.core.query import Query
from repro.client.local_cache import LocalCache
from repro.client.mutations import MutationKind, MutationQueue
from repro.client.persistence import deserialize_state, serialize_state
from repro.client.view import QueryView, ViewSnapshot

OCC_MAX_ATTEMPTS = 5
_OCC_BACKOFF_US = 20_000


@dataclass
class ClientDocumentSnapshot:
    """What ``MobileClient.get`` returns."""

    path: Path
    data: Optional[dict]
    exists: bool
    from_cache: bool
    has_pending_writes: bool

    def get(self, dotted: str) -> Any:
        """The value at a dotted field path, or None."""
        from repro.core.values import get_field

        if self.data is None:
            return None
        _, value = get_field(self.data, dotted)
        return value


class _Listener:
    def __init__(self, tag: Any, query: Query, callback: Callable[[ViewSnapshot], None]):
        self.tag = tag
        self.query = query
        self.view = QueryView(query.normalize())
        self.callback = callback
        self.server_tag: Optional[Any] = None


class MobileClient:
    """One end-user device's SDK instance."""

    _tags = itertools.count(1)

    def __init__(
        self,
        database: FirestoreDatabase,
        auth: Optional[AuthContext] = None,
        persistence=None,
        start_online: bool = True,
        client_id: Optional[str] = None,
        retry_policy: Optional[RetryPolicy] = None,
        retry_budget: Optional[RetryBudget] = None,
    ):
        self.database = database
        self.auth = auth
        self.persistence = persistence
        #: stable device identity; prefixes flush idempotency tokens so a
        #: retried commit dedups server-side (pass one explicitly to model
        #: the same device reinstalling with persisted state)
        self.client_id = (
            client_id if client_id is not None else database.allocate_client_id()
        )
        self.cache = LocalCache()
        self.mutation_queue = MutationQueue()
        self._listeners: dict[Any, _Listener] = {}
        self._connection = None
        self._online = False
        #: errors from mutations the server rejected during a flush
        self.flush_errors: list[FirestoreError] = []
        # billing-relevant counters (cache hits are free, section IV-E)
        self.server_reads = 0
        self.cache_reads = 0
        # graceful degradation: admission-shed flushes park the queue
        # until this sim-clock time instead of failing user writes
        self._retry_rand = retry_stream(self.client_id)
        self._backoff_until_us = 0
        self._shed_streak = 0
        self.shed_requests = 0
        # per-client retry discipline: the backoff ladder starts at a
        # per-device offset (seeded from the client id, drawn from its own
        # stream so existing jitter sequences are unchanged) — a fleet of
        # devices shed at the same instant must not all come back at the
        # same instant. The budget bounds total retry amplification.
        base = retry_policy if retry_policy is not None else DEFAULT_POLICY
        spread = retry_stream(f"{self.client_id}:policy").uniform(0.75, 1.25)
        self.retry_policy = RetryPolicy(
            max_attempts=base.max_attempts,
            initial_backoff_us=max(1, int(base.initial_backoff_us * spread)),
            multiplier=base.multiplier,
            max_backoff_us=base.max_backoff_us,
            jitter=base.jitter,
        )
        self.retry_budget = (
            retry_budget if retry_budget is not None else RetryBudget()
        )

        if persistence is not None:
            blob = persistence.load()
            if blob is not None:
                self.cache, self.mutation_queue = deserialize_state(blob)
        if start_online:
            self.connect()

    # -- network state -----------------------------------------------------------

    @property
    def is_online(self) -> bool:
        """Whether the device currently has connectivity."""
        return self._online

    def connect(self) -> None:
        """Go online: flush pending writes, then re-establish listens.

        Flushing first means the subsequent initial snapshots already
        reflect this device's offline writes — the reconciliation the
        paper describes as automatic on reconnection.
        """
        if self._online:
            return
        self._online = True
        self._connection = self.database.connect()
        self.flush()
        for listener in self._listeners.values():
            self._register_listen(listener)

    def disconnect(self) -> None:
        """Go offline: listeners keep serving from the local cache."""
        if not self._online:
            return
        self._online = False
        if self._connection is not None:
            self._connection.close()
            self._connection = None
        for listener in self._listeners.values():
            listener.server_tag = None
        self.persist()

    def _now_us(self) -> int:
        return self.database.service.clock.now_us

    # -- document reads -----------------------------------------------------------------

    def get(self, path: str | Path, source: str = "default") -> ClientDocumentSnapshot:
        """Read one document: from the server online, the cache offline.

        ``source`` mirrors the SDK option: "default" (server when online,
        else cache), "server" (fail offline), "cache" (never hit the
        network — and never billed, section IV-E).
        """
        if source not in ("default", "server", "cache"):
            raise InvalidArgument(f"unknown source {source!r}")
        doc_path = document_path(path if isinstance(path, Path) else Path.parse(path))
        if source == "server" and not self._online:
            raise Unavailable("source='server' requires connectivity")
        if self.database.service.probe:
            return self._traced_get(doc_path, source)
        return self._get(doc_path, source)

    def _traced_get(self, doc_path: Path, source: str) -> ClientDocumentSnapshot:
        with self.database.service.probe.span(
            "client.get",
            component="client",
            attributes={"path": str(doc_path), "source": source},
        ) as span:
            snapshot = self._get(doc_path, source)
            span.set_attribute("from_cache", snapshot.from_cache)
            return snapshot

    def _get(self, doc_path: Path, source: str) -> ClientDocumentSnapshot:
        if source == "cache":
            cached = self.cache.get(doc_path)
            if cached is None and not self.mutation_queue.has_pending(doc_path):
                raise Unavailable(f"{doc_path} is not in the local cache")
            self.cache_reads += 1
            data, pending = self.mutation_queue.overlay(
                doc_path, cached.data if cached else None, self._now_us()
            )
            return ClientDocumentSnapshot(
                path=doc_path,
                data=data,
                exists=data is not None,
                from_cache=True,
                has_pending_writes=pending,
            )
        if self._online:
            snapshot = self.database.lookup(doc_path, auth=self.auth)
            self.server_reads += 1
            version = (
                snapshot.document.update_time if snapshot.document is not None else snapshot.read_time
            )
            self.cache.record_document(doc_path, snapshot.data, version)
        else:
            cached = self.cache.get(doc_path)
            if cached is None and not self.mutation_queue.has_pending(doc_path):
                raise Unavailable(
                    f"offline and {doc_path} is not in the local cache"
                )
            self.cache_reads += 1
        base = self.cache.get(doc_path)
        server_data = base.data if base is not None else None
        data, pending = self.mutation_queue.overlay(
            doc_path, server_data, self._now_us()
        )
        return ClientDocumentSnapshot(
            path=doc_path,
            data=data,
            exists=data is not None,
            from_cache=not self._online,
            has_pending_writes=pending,
        )

    # -- queries -----------------------------------------------------------------------------

    def query(self, collection: str | Path) -> Query:
        """Start building a query over a collection."""
        parent = collection if isinstance(collection, Path) else Path.parse(collection)
        return Query(parent=collection_path(parent))

    def get_query(self, query: Query) -> ViewSnapshot:
        """One-shot query: server results online, cache offline — always
        with the pending-mutation overlay applied."""
        view = QueryView(query.normalize())
        if self._online:
            result = self.database.run_query(query, auth=self.auth)
            self.server_reads += len(result.documents)
            for doc in result.documents:
                self.cache.record_document(doc.path, doc.data, doc.update_time)
            view.apply_server_snapshot(result.documents)
        else:
            self.cache_reads += 1
            for cached in self.cache.run_query(view.normalized):
                view.server_docs[cached.path] = cached.data
            view.synced = False
        return view.compute(
            self.mutation_queue,
            from_cache=not self._online,
            local_now_us=self._now_us(),
            extra_docs={
                d.path: d.data for d in self.cache.all_documents() if d.exists
            },
        )

    # -- snapshot listeners -------------------------------------------------------------------

    def on_snapshot(
        self, query: Query, callback: Callable[[ViewSnapshot], None], tag: Any = None
    ) -> Any:
        """Register a real-time listener; fires immediately with the
        current state (server-backed online, cache-backed offline)."""
        if tag is None:
            tag = next(self._tags)
        listener = _Listener(tag, query, callback)
        self._listeners[tag] = listener
        if self._online:
            self._register_listen(listener)
        else:
            for cached in self.cache.run_query(listener.view.normalized):
                listener.view.server_docs[cached.path] = cached.data
            self._emit(listener)
        return tag

    def on_document_snapshot(
        self,
        path: str | Path,
        callback: Callable[[ClientDocumentSnapshot], None],
        tag: Any = None,
    ) -> Any:
        """Listen to a single document (the SDKs' doc-reference listener).

        Implemented as a listener on the parent collection narrowed to the
        one path — deletions arrive as a snapshot with ``exists=False``.
        """
        doc_path = document_path(path if isinstance(path, Path) else Path.parse(path))
        parent = doc_path.parent()
        assert parent is not None

        def narrowed(view: ViewSnapshot) -> None:
            match = next(
                (doc for doc in view.documents if doc.path == doc_path), None
            )
            callback(
                ClientDocumentSnapshot(
                    path=doc_path,
                    data=match.data if match else None,
                    exists=match is not None,
                    from_cache=view.from_cache,
                    has_pending_writes=(
                        match.has_pending_writes if match else False
                    ),
                )
            )

        return self.on_snapshot(
            Query(parent=parent), narrowed, tag=tag
        )

    def detach(self, tag: Any) -> None:
        """Remove a snapshot listener by its tag."""
        listener = self._listeners.pop(tag, None)
        if listener is None:
            return
        if listener.server_tag is not None and self._connection is not None:
            self._connection.unlisten(listener.server_tag)

    def _register_listen(self, listener: _Listener) -> None:
        assert self._connection is not None

        def on_delta(delta) -> None:
            for doc in delta.documents:
                self.cache.record_document(doc.path, doc.data, doc.update_time)
            for path in delta.removed:
                self.cache.record_document(path, None, delta.read_ts)
            listener.view.apply_server_snapshot(list(delta.documents))
            self._emit(listener)

        listener.server_tag = self._connection.listen(listener.query, on_delta)

    def _emit(self, listener: _Listener) -> None:
        snapshot = listener.view.compute(
            self.mutation_queue,
            from_cache=not self._online or not listener.view.synced,
            local_now_us=self._now_us(),
            extra_docs={
                d.path: d.data for d in self.cache.all_documents() if d.exists
            },
        )
        listener.callback(snapshot)

    # -- writes (latency compensated) ---------------------------------------------------------

    def set(self, path: str | Path, data: dict) -> None:
        """Blind set: acknowledged locally at once, flushed when online."""
        doc_path = document_path(path if isinstance(path, Path) else Path.parse(path))
        self.mutation_queue.enqueue(MutationKind.SET, doc_path, data)
        self._after_local_write()

    def update(
        self, path: str | Path, data: dict, delete_fields: tuple[str, ...] = ()
    ) -> None:
        """Blind update: merged locally at once, flushed when online."""
        doc_path = document_path(path if isinstance(path, Path) else Path.parse(path))
        self.mutation_queue.enqueue(MutationKind.UPDATE, doc_path, data, delete_fields)
        self._after_local_write()

    def delete(self, path: str | Path) -> None:
        """Blind delete: applied locally at once, flushed when online."""
        doc_path = document_path(path if isinstance(path, Path) else Path.parse(path))
        self.mutation_queue.enqueue(MutationKind.DELETE, doc_path)
        self._after_local_write()

    def _after_local_write(self) -> None:
        # latency compensation: listeners see the write immediately
        for listener in self._listeners.values():
            self._emit(listener)
        if self._online:
            self.flush()

    def flush(self) -> int:
        """Push pending mutations to the service (blind, last-update-wins).

        Each mutation is committed with an idempotency token
        (``<client_id>:<mutation_id>``) and retried with backoff on
        transient failures, so a lost acknowledgement never double-applies
        a write. Mutations the server rejects (rules, missing documents)
        are dropped and their errors recorded in ``flush_errors``; an
        unavailable or load-shedding service re-queues everything and the
        queue stays parked until the backoff window passes.
        """
        if not self._online:
            return 0
        if self._now_us() < self._backoff_until_us:
            return 0  # still backing off after a shed
        mutations = self.mutation_queue.drain()
        if not mutations:
            return 0
        with self.database.service.probe.span(
            "client.flush",
            component="client",
            attributes={"pending": len(mutations)},
            perf=("client", "flush"),
            tenant=self.database.database_id,
        ) as span:
            flushed = self._flush_mutations(mutations)
            span.set_attribute("flushed", flushed)
        return flushed

    def _flush_mutations(self, mutations) -> int:
        flushed = 0
        for index, mutation in enumerate(mutations):
            op = self._to_write_op(mutation)
            token = f"{self.client_id}:{mutation.mutation_id}"
            try:
                outcome = call_with_retry(
                    lambda op=op, token=token: self.database.commit(
                        [op], auth=self.auth, idempotency_token=token
                    ),
                    policy=self.retry_policy,
                    clock=self.database.service.clock,
                    rand=self._retry_rand,
                    idempotent=True,
                    metrics=self.database.service.metrics,
                    budget=self.retry_budget,
                )
                flushed += 1
                self._shed_streak = 0
            except ResourceExhausted as exc:
                # the service shed us (admission control): requeue and
                # back off — degradation, not a user-visible failure
                self.mutation_queue.requeue_front(mutations[index:])
                self.shed_requests += 1
                pause = self.retry_policy.backoff_us(
                    self._shed_streak, self._retry_rand
                )
                hint = exc.retry_after_us
                if hint is not None and hint > pause:
                    # honor the server's backoff ask over our own schedule
                    pause = hint
                self._shed_streak += 1
                self._backoff_until_us = self._now_us() + pause
                metrics = self.database.service.metrics
                if metrics is not None:
                    metrics.counter(
                        "faults_shed_backoff", client=self.client_id
                    ).inc()
                break
            except Unavailable:
                self.mutation_queue.requeue_front(mutations[index:])
                break
            except FirestoreError as exc:
                if isinstance(exc, NotFound) and mutation.kind is MutationKind.UPDATE:
                    continue  # update of a deleted doc: silently lost (LWW)
                self.flush_errors.append(exc)
            else:
                # acknowledged: fold the result into the local cache so
                # reads work even before the listen stream catches up
                snapshot = self.database.lookup(mutation.path)
                version = (
                    snapshot.document.update_time
                    if snapshot.document is not None
                    else outcome.commit_ts
                )
                self.cache.record_document(mutation.path, snapshot.data, version)
        return flushed

    def _to_write_op(self, mutation) -> WriteOp:
        if mutation.kind is MutationKind.SET:
            return set_op(mutation.path, mutation.data)
        if mutation.kind is MutationKind.UPDATE:
            return update_op(mutation.path, mutation.data, mutation.delete_fields)
        return delete_op(mutation.path)

    # -- OCC transactions ------------------------------------------------------------------------

    def run_transaction(
        self, fn: Callable[["ClientTransaction"], Any], max_attempts: int = OCC_MAX_ATTEMPTS
    ) -> Any:
        """Optimistic-concurrency transaction (paper section III-E).

        Reads go to the server without locks; at commit "all data read by
        the transaction is revalidated for freshness"; a failed check
        retries the whole function. Requires connectivity.
        """
        if not self._online:
            raise Unavailable("transactions require connectivity")
        if self.mutation_queue.mutations():
            self.flush()
        clock = self.database.service.clock
        last: Optional[Aborted] = None
        with self.database.service.probe.span(
            "client.transaction", component="client"
        ) as span:
            for attempt in range(max_attempts):
                txn = ClientTransaction(self)
                try:
                    result = fn(txn)
                    txn._commit()
                    span.set_attribute("attempts", attempt + 1)
                    return result
                except Aborted as exc:
                    last = exc
                    clock.advance(_OCC_BACKOFF_US)
            span.set_attribute("attempts", max_attempts)
            raise Aborted(
                f"transaction failed after {max_attempts} attempts: {last}"
            )

    # -- persistence --------------------------------------------------------------------------------

    def persist(self) -> None:
        """Save the cache + pending mutations (if persistence is enabled)."""
        if self.persistence is not None:
            self.persistence.save(serialize_state(self.cache, self.mutation_queue))

    @property
    def pending_writes(self) -> int:
        """Number of unflushed local mutations."""
        return len(self.mutation_queue)

    def wait_for_pending_writes(self) -> bool:
        """Flush everything outstanding; True when the queue drained.

        Mirrors the SDKs' ``waitForPendingWrites()``: resolves once every
        write issued so far has been acknowledged by the service — which
        can only happen while connected.
        """
        if not self._online:
            return self.mutation_queue.is_empty
        self.flush()
        return self.mutation_queue.is_empty


class ClientTransaction:
    """OCC transaction state: read set with versions + buffered writes."""

    def __init__(self, client: MobileClient):
        self._client = client
        #: path -> update_time observed (0 = did not exist)
        self._reads: dict[Path, int] = {}
        self._writes: list[WriteOp] = []

    def get(self, path: str | Path) -> ClientDocumentSnapshot:
        """Read a document, recording its version for OCC validation."""
        doc_path = document_path(path if isinstance(path, Path) else Path.parse(path))
        if self._writes:
            raise InvalidArgument("transactions require all reads before writes")
        snapshot = self._client.database.lookup(doc_path, auth=self._client.auth)
        self._client.server_reads += 1
        version = snapshot.document.update_time if snapshot.document else 0
        self._reads[doc_path] = version
        return ClientDocumentSnapshot(
            path=doc_path,
            data=snapshot.data,
            exists=snapshot.exists,
            from_cache=False,
            has_pending_writes=False,
        )

    def set(self, path: str | Path, data: dict) -> None:
        """Buffer a set within the transaction."""
        self._writes.append(set_op(_to_doc_path(path), data))

    def update(self, path: str | Path, data: dict) -> None:
        """Buffer an update within the transaction."""
        self._writes.append(update_op(_to_doc_path(path), data))

    def delete(self, path: str | Path) -> None:
        """Buffer a delete within the transaction."""
        self._writes.append(delete_op(_to_doc_path(path)))

    def _commit(self) -> None:
        if not self._writes and not self._reads:
            return
        backend = self._client.database.backend
        reads = dict(self._reads)
        writes = list(self._writes)
        auth = self._client.auth

        def validate_and_apply(server_txn) -> None:
            # freshness revalidation of the entire read set
            for path, seen_version in reads.items():
                snapshot = server_txn.get(path)
                current = (
                    snapshot.document.update_time if snapshot.document else 0
                )
                if current != seen_version:
                    raise Aborted(
                        f"optimistic check failed for {path}: "
                        f"read {seen_version}, now {current}"
                    )
            for op in writes:
                server_txn._writes.append(op)

        from repro.core.transaction import run_transaction

        # one server-side attempt: OCC retries happen client-side; rules
        # apply to the writes inside the backend commit path via auth
        run_transaction(backend, validate_and_apply, max_attempts=1, auth=auth)
        for path in reads:
            snapshot = self._client.database.lookup(path)
            version = (
                snapshot.document.update_time if snapshot.document else snapshot.read_time
            )
            self._client.cache.record_document(path, snapshot.data, version)


def _to_doc_path(path: str | Path) -> Path:
    return document_path(path if isinstance(path, Path) else Path.parse(path))
