"""Server-side Firestore transactions.

"Firestore's transactions map directly to Spanner transactions, which are
lock-based and use two-phase-commits across tablets" (paper section
IV-D1). The Server SDKs add "automatic retry with backoff" (section
III-D); :func:`run_transaction` is that loop.

Reads inside a transaction acquire Spanner read locks, so queries are
consistent with other transactions; contention surfaces as
:class:`~repro.errors.Aborted` and the whole function is retried.
Firestore requires all reads to precede writes within a transaction.
"""

from __future__ import annotations

from typing import Callable, Optional, TypeVar

from repro.errors import Aborted, InvalidArgument
from repro.core.backend import (
    Backend,
    CommitOutcomeResult,
    Precondition,
    WriteOp,
    create_op,
    delete_op,
    set_op,
    update_op,
)
from repro.core.document import DocumentSnapshot
from repro.core.executor import QueryResult
from repro.core.path import Path
from repro.core.query import Query

T = TypeVar("T")

DEFAULT_MAX_ATTEMPTS = 5
INITIAL_BACKOFF_US = 10_000
BACKOFF_MULTIPLIER = 2.0


class TransactionContext:
    """The handle passed to a transaction function."""

    def __init__(self, backend: Backend, auth=None):
        self._backend = backend
        self._auth = auth
        self._txn = backend.layout.spanner.begin()
        self._writes: list[WriteOp] = []
        self._finished = False

    # -- reads (must precede writes) ------------------------------------------

    def get(self, path: str | Path) -> DocumentSnapshot:
        """Read a document under its Spanner read lock."""
        self._check_reads_allowed()
        return self._backend.lookup(path, txn=self._txn)

    def query(self, query: Query) -> QueryResult:
        """Run a query under read locks."""
        self._check_reads_allowed()
        return self._backend.run_query(query, txn=self._txn)

    def _check_reads_allowed(self) -> None:
        if self._writes:
            raise InvalidArgument(
                "transactions require all reads before any writes"
            )
        if self._finished:
            raise InvalidArgument("transaction already finished")

    # -- buffered writes ----------------------------------------------------------

    def set(self, path: str | Path, data: dict) -> None:
        """Buffer a create-or-replace write."""
        self._writes.append(set_op(path, data))

    def create(self, path: str | Path, data: dict) -> None:
        """Buffer a must-not-exist write."""
        self._writes.append(create_op(path, data))

    def update(
        self,
        path: str | Path,
        data: dict,
        delete_fields: tuple[str, ...] = (),
        precondition: Precondition = Precondition(),
    ) -> None:
        """Buffer a field-merge write."""
        self._writes.append(update_op(path, data, delete_fields, precondition))

    def delete(self, path: str | Path) -> None:
        """Buffer a deletion."""
        self._writes.append(delete_op(path))

    # -- lifecycle -------------------------------------------------------------------

    def _commit(self) -> Optional[CommitOutcomeResult]:
        self._finished = True
        if not self._writes:
            self._txn.rollback()  # read-only transaction
            return None
        return self._backend.commit(self._writes, auth=self._auth, txn=self._txn)

    def _rollback(self) -> None:
        self._finished = True
        self._txn.rollback()


def run_transaction(
    backend: Backend,
    fn: Callable[[TransactionContext], T],
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    auth=None,
) -> T:
    """Run ``fn`` transactionally with automatic retry on contention.

    Backoff advances the simulated clock (exponential, deterministic), so
    retried transactions observe later timestamps just as real backoff
    observes later wall-clock time.
    """
    if max_attempts < 1:
        raise InvalidArgument("max_attempts must be at least 1")
    clock = backend.layout.spanner.clock
    backoff = INITIAL_BACKOFF_US
    last_error: Optional[Aborted] = None
    for _ in range(max_attempts):
        ctx = TransactionContext(backend, auth=auth)
        try:
            result = fn(ctx)
            ctx._commit()
            return result
        except Aborted as exc:
            ctx._rollback()
            last_error = exc
            clock.advance(backoff)
            # a contention abort means the backoff was spent waiting for
            # a lock holder — blame lock_wait (the error may refine it,
            # e.g. an injected timeout)
            backend.probe.wait(
                getattr(exc, "wait_cause", None) or "lock_wait",
                start_us=clock.now_us - backoff,
                end_us=clock.now_us,
            )
            backoff = int(backoff * BACKOFF_MULTIPLIER)
        except BaseException:
            ctx._rollback()
            raise
    raise Aborted(
        f"transaction failed after {max_attempts} attempts: {last_error}"
    )
