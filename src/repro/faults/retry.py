"""Retry policy: exponential backoff + seeded jitter on the sim clock.

The paper (section III-D) notes that the server SDKs automatically retry
aborted transactions with backoff; production clients extend the same
treatment to transient unavailability and load shedding. This module is
that machinery for the reproduction, with the classification made
explicit over the ``repro.errors`` taxonomy:

==========================  ===============================================
always retryable            ``Aborted``, ``Unavailable``,
                            ``ResourceExhausted`` — the operation
                            definitely did not apply (lock conflict,
                            unreachable component, load shed), so a
                            retry risks nothing.
retryable iff idempotent    ``CommitOutcomeUnknown``, ``DeadlineExceeded``
                            — the operation *may have applied*; retrying
                            is only safe with an idempotency token that
                            lets the Backend deduplicate the replay.
terminal                    everything else (``InvalidArgument``,
                            ``NotFound``, ``AlreadyExists``,
                            ``FailedPrecondition``, ``PermissionDenied``,
                            ``Unauthenticated``, ``InternalError``) —
                            retrying reproduces the same failure.
==========================  ===============================================

All sleeps are ``clock.advance`` on the simulated clock and all jitter
comes from a seeded ``repro.sim.rand`` stream, so a retried run is as
deterministic as a clean one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import DeadlineExceeded, FirestoreError
from repro.sim.rand import SimRandom

#: status codes where the operation certainly did not take effect
RETRYABLE_ALWAYS = frozenset({"ABORTED", "UNAVAILABLE", "RESOURCE_EXHAUSTED"})

#: status codes where the operation *may* have taken effect — retry only
#: with an idempotency token (the Backend's commit ledger deduplicates)
RETRYABLE_IF_IDEMPOTENT = frozenset({"UNKNOWN", "DEADLINE_EXCEEDED"})


def is_retryable(error: Exception, idempotent: bool = False) -> bool:
    """Whether ``error`` warrants another attempt.

    ``idempotent`` widens the set to the may-have-applied codes; only
    pass it when the retried request carries an idempotency token.
    """
    code = getattr(error, "code", None)
    if code in RETRYABLE_ALWAYS:
        return True
    return idempotent and code in RETRYABLE_IF_IDEMPOTENT


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with seeded jitter.

    Backoff for attempt *n* (0-based) is ``initial * multiplier**n``
    capped at ``max_backoff_us``, then jittered multiplicatively into
    ``[1 - jitter, 1]`` of itself — the classic decorrelated-enough
    scheme, fully deterministic given the stream.
    """

    max_attempts: int = 5
    initial_backoff_us: int = 10_000
    multiplier: float = 2.0
    max_backoff_us: int = 2_000_000
    jitter: float = 0.5

    def backoff_us(self, attempt: int, rand: SimRandom) -> int:
        """The jittered pause before retry number ``attempt + 1``."""
        base = min(
            float(self.max_backoff_us),
            self.initial_backoff_us * self.multiplier**attempt,
        )
        if self.jitter > 0.0:
            base *= 1.0 - self.jitter * rand.uniform(0.0, 1.0)
        return max(1, int(base))


#: the default policy, matching the client SDKs' 5-attempt ladder
DEFAULT_POLICY = RetryPolicy()


class RetryBudget:
    """A per-client token bucket bounding total retry amplification.

    The gRPC retry-throttling scheme: each *success* earns ``ratio``
    tokens (capped at ``max_tokens``), each retry spends a whole one.
    A healthy client banks tokens and rides out blips; a client whose
    requests mostly fail runs dry and stops retrying — so a fleet of
    budgeted clients amplifies offered load by at most ``1 + ratio``
    under sustained failure, the property that lets an overloaded
    service drain instead of staying collapsed (metastable failure).

    Starts full: the first failures of a fresh client may retry.
    """

    __slots__ = ("max_tokens", "ratio", "tokens", "exhausted")

    def __init__(self, max_tokens: float = 10.0, ratio: float = 0.1):
        self.max_tokens = max_tokens
        self.ratio = ratio
        self.tokens = max_tokens
        #: retries suppressed because the bucket was dry
        self.exhausted = 0

    def on_success(self) -> None:
        """Earn ``ratio`` tokens for one successful call."""
        tokens = self.tokens + self.ratio
        self.tokens = tokens if tokens < self.max_tokens else self.max_tokens

    def try_spend(self) -> bool:
        """Spend one token to retry; False = budget dry, do not retry."""
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        self.exhausted += 1
        return False


def retry_stream(label: str) -> SimRandom:
    """A deterministic per-caller jitter stream.

    Callers that retry repeatedly (one SDK instance, one worker) should
    hold one stream for their lifetime so successive backoffs draw fresh
    jitter, rather than re-creating the default stream every call.
    """
    return SimRandom(0).fork(f"retry:{label}")


def backoff_wait_cause(error: Exception) -> str:
    """The wait cause a retry backoff after ``error`` should carry.

    Priority: an explicit ``wait_cause`` hint on the error (the raising
    subsystem knows what the caller is really waiting on — replication
    sets ``quorum_rtt``, lock conflicts set ``lock_wait``), then the
    admission-control shed code, then generic ``retry_backoff``.
    """
    hint = getattr(error, "wait_cause", None)
    if hint is not None:
        return hint
    if getattr(error, "code", None) == "RESOURCE_EXHAUSTED":
        return "admission_shed_retry"
    return "retry_backoff"


def _deadline_error(reason: str, attempt: int, error: Exception):
    """Build the terminal deadline verdict for a retry loop.

    Cold path — kept out of :func:`call_with_retry`'s attempt loop so
    the message formatting never rides the hot path.
    """
    return DeadlineExceeded(
        f"{reason} (attempt {attempt}, {type(error).__name__})"
    )


def call_with_retry(
    operation,
    *,
    policy: RetryPolicy = DEFAULT_POLICY,
    clock=None,
    rand: Optional[SimRandom] = None,
    idempotent: bool = False,
    deadline_us: Optional[int] = None,
    metrics=None,
    budget: Optional[RetryBudget] = None,
    probe=None,
):
    """Run ``operation()`` under ``policy``, backing off on retryables.

    ``operation`` is a zero-argument callable. Retries stop when the
    error is terminal, attempts run out, the per-client ``budget`` runs
    dry (``faults_retry_budget_exhausted``), or the deadline would pass
    before the next attempt (the pending backoff is charged against it).
    Backoff advances ``clock`` (the sim clock) when one is given; a
    server-supplied ``retry_after_us`` hint on the error raises the pause
    to at least the server's ask. If the clock lands past the absolute
    deadline after a backoff (timer coalescing, an overshooting sleep),
    the op surfaces terminal ``DeadlineExceeded`` — never another attempt.

    When a ``probe`` is given, every backoff that elapsed on the clock
    is annotated as a wait on the innermost open span, with the cause
    from :func:`backoff_wait_cause` — the raw material for critical-path
    tail attribution (``repro.obs.critpath``).
    """
    stream = rand if rand is not None else SimRandom(0).fork("retry")
    retries_counter = backoff_counter = None
    if metrics is not None:
        retries_counter = metrics.counter("faults_retries")
        backoff_counter = metrics.counter("faults_backoff_us")
    last: Optional[FirestoreError] = None
    for attempt in range(policy.max_attempts):
        try:
            result = operation()
        except FirestoreError as error:
            last = error
            if not is_retryable(error, idempotent=idempotent):
                raise
            if attempt + 1 >= policy.max_attempts:
                raise
            if budget is not None and not budget.try_spend():
                if metrics is not None:
                    metrics.counter("faults_retry_budget_exhausted").inc()
                raise
            pause = policy.backoff_us(attempt, stream)
            hint = error.retry_after_us
            if hint is not None and hint > pause:
                # the server knows its queue better than our schedule does
                pause = hint
            if (
                deadline_us is not None
                and clock is not None
                and clock.now_us + pause >= deadline_us
            ):
                raise _deadline_error(
                    "retry backoff would overrun the deadline",
                    attempt + 1,
                    error,
                ) from error
            if retries_counter is not None:
                retries_counter.inc()
                backoff_counter.inc(pause)
            if clock is not None:
                clock.advance(pause)
                if probe:
                    probe.wait(
                        backoff_wait_cause(error),
                        start_us=clock.now_us - pause,
                        end_us=clock.now_us,
                        detail=error.code,
                    )
                if deadline_us is not None and clock.now_us >= deadline_us:
                    # the backoff timer fired after the absolute deadline
                    # passed: terminal, never another attempt
                    raise _deadline_error(
                        "deadline passed during retry backoff",
                        attempt + 1,
                        error,
                    ) from error
        else:
            if budget is not None:
                budget.on_success()
            return result
    raise last  # pragma: no cover - loop always returns or raises


def commit_with_retry(
    database,
    writes,
    *,
    token: str,
    policy: RetryPolicy = DEFAULT_POLICY,
    rand: Optional[SimRandom] = None,
    deadline_us: Optional[int] = None,
    metrics=None,
    auth=None,
    budget: Optional[RetryBudget] = None,
):
    """Commit ``writes`` with at-most-once semantics under retries.

    The idempotency ``token`` rides the commit into the Backend's commit
    ledger, so a retry after ``CommitOutcomeUnknown`` / a timeout either
    finds the ledger row (first attempt applied — the replayed result is
    returned, nothing is written twice) or commits fresh. This is the
    paper's "the write may or may not be applied" case made safe.
    """
    clock = database.layout.spanner.clock

    def attempt():
        return database.commit(
            writes,
            auth=auth,
            deadline_us=deadline_us,
            idempotency_token=token,
        )

    return call_with_retry(
        attempt,
        policy=policy,
        clock=clock,
        rand=rand,
        idempotent=True,
        deadline_us=deadline_us,
        metrics=metrics,
        budget=budget,
        probe=database.service.probe,
    )
