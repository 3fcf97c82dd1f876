"""Graceful degradation under overload (paper section IV-C).

"Some components do targeted load-shedding to drop excess work before
auto-scaling can take effect." This module is the targeted part — the
mechanisms that keep a spiked fleet serving *some* traffic well instead
of all traffic badly, and that let it recover once the spike passes
(the metastable-failure trap the ``metastable`` chaos scenario probes):

:class:`AdaptiveLimit`
    a gradient/AIMD concurrency limit driven by *observed* queue-wait
    latency. It replaces the fixed ``shed_queue_depth`` threshold: when
    queueing delay stays under the target the limit creeps up additively;
    when delay overshoots, the limit cuts multiplicatively. Queue depth
    then tracks what the fleet can actually serve within its latency
    budget rather than a hand-tuned constant.
:class:`CodelShedder`
    CoDel-style queue-deadline shedding at dispatch time. Sojourn time
    persistently above the target for a full interval enters a dropping
    state whose drop rate accelerates by the inverse-sqrt control law —
    standing queues are drained, short bursts ride through untouched.
    Two instances per pool give the two priority tiers: background /
    backfill traffic (``latency_sensitive=False``) sheds at half the
    target, so user-facing ops degrade last.
:class:`CircuitBreaker` / :class:`BreakerBoard`
    per-(database, region) breakers over a rolling outcome window.
    A database whose requests keep failing downstream is fast-failed at
    the door for a cooldown instead of queueing more doomed work.
:class:`HedgeThrottle` / :class:`ReadLatencyTracker`
    hedged reads: when a read exceeds its observed p99 budget, a backup
    request fires to an eligible follower replica (PR 6's safe-time
    routing picks it) and the first response wins. The throttle caps
    hedges to a small fraction of reads so hedging can never become its
    own overload.

Everything here is pure arithmetic over sim-clock timestamps — no
randomness, no wall clock — so overload behaviour replays byte-identical.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class ShedReason(enum.Enum):
    """Why a request was shed — the structured label metrics split on."""

    #: queue depth beyond the (static or adaptive) concurrency limit
    QUEUE_DEPTH = "queue_depth"
    #: memory-pressure rejection of the top in-flight memory consumer
    MEMORY = "memory"
    #: the per-database in-flight RPC cap (the manual emergency tool)
    INFLIGHT = "inflight"
    #: queue-deadline shedding: the RPC's sojourn blew the CoDel target
    #: (or its own deadline) while it waited
    DEADLINE = "deadline"
    #: the (database, region) circuit breaker is open
    BREAKER = "breaker"

    @property
    def message(self) -> str:
        """Human-readable reject reason (what ``on_reject`` receives)."""
        return _REASON_MESSAGES[self]


_REASON_MESSAGES = {
    ShedReason.QUEUE_DEPTH: "load shed: queue depth over limit",
    ShedReason.MEMORY: "load shed: memory pressure",
    ShedReason.INFLIGHT: "load shed: per-database in-flight limit",
    ShedReason.DEADLINE: "load shed: queue deadline exceeded",
    ShedReason.BREAKER: "load shed: circuit breaker open",
}


@dataclass
class OverloadConfig:
    """Knobs for the graceful-degradation layer.

    ``enabled=False`` (the default) keeps every hook inert and the
    serving path byte-identical to a cluster without this module —
    overload protection is opt-in per cluster, exactly like fault plans.
    """

    enabled: bool = False
    # -- adaptive concurrency (AIMD on observed queue-wait latency) --------
    #: starting queue-depth limit (replaces ``shed_queue_depth``)
    initial_limit: int = 64
    min_limit: int = 4
    max_limit: int = 10_000
    #: queue-wait the limiter steers toward; a window whose mean wait is
    #: below it grows the limit, above it cuts the limit
    target_queue_delay_us: int = 50_000
    additive_increase: int = 4
    multiplicative_decrease: float = 0.7
    #: how often the limit adjusts (one AIMD step per window)
    adjust_interval_us: int = 250_000
    #: fraction of the current limit at which batch traffic already sheds
    #: (the admission-side priority tier: user-facing ops degrade last)
    batch_admit_fraction: float = 0.5
    # -- CoDel queue-deadline shedding ------------------------------------
    codel_target_us: int = 100_000
    codel_interval_us: int = 500_000
    # -- circuit breakers -------------------------------------------------
    breakers_enabled: bool = True
    breaker_failure_threshold: float = 0.5
    breaker_min_volume: int = 10
    breaker_window_us: int = 2_000_000
    breaker_cooldown_us: int = 1_000_000
    # -- hedged reads -----------------------------------------------------
    hedge_enabled: bool = True
    #: hedges earned per completed read (5% = 1 hedge per 20 reads)
    hedge_ratio: float = 0.05
    hedge_burst: float = 4.0
    #: floor for the hedge trigger; the live p99 estimate can only raise it
    hedge_min_delay_us: int = 20_000
    #: trigger before any p99 estimate exists
    hedge_default_delay_us: int = 100_000
    #: staleness bound handed to safe-time routing when picking the
    #: follower that serves the backup request
    hedge_staleness_bound_us: int = 10_000_000
    # -- server-driven backoff hints --------------------------------------
    retry_after_min_us: int = 20_000
    retry_after_max_us: int = 2_000_000


class AdaptiveLimit:
    """Gradient/AIMD concurrency limit on observed queue-wait latency.

    Dispatch feeds every RPC's queue wait in via :meth:`observe`; once
    per ``adjust_interval_us`` the window's *mean* wait drives one AIMD
    step. The mean, not the CoDel-style min: behind a fair-share
    scheduler a single short-queue tenant keeps landing near-zero waits
    every round (its backlog drains within its service share), so the
    windowed min reads healthy while the other tenants sit on a
    standing queue. The current integer limit is what admission control
    compares queue depth against.
    """

    __slots__ = (
        "config",
        "metrics",
        "limit",
        "_window_start_us",
        "_window_wait_us",
        "_window_samples",
        "_window_congested",
        "last_observed_us",
        "increases",
        "decreases",
    )

    def __init__(self, config: OverloadConfig, metrics=None):
        self.config = config
        self.metrics = metrics
        self.limit = int(config.initial_limit)
        self._window_start_us = 0
        self._window_wait_us = 0
        self._window_samples = 0
        self._window_congested = False
        #: the last full window's mean queue wait (drives backoff hints)
        self.last_observed_us = 0
        self.increases = 0
        self.decreases = 0

    def observe(self, queue_wait_us: int, now_us: int) -> None:
        """One dispatched RPC's queue wait; steps the limit per window."""
        self._window_wait_us += queue_wait_us
        self._window_samples += 1
        if now_us - self._window_start_us >= self.config.adjust_interval_us:
            self._adjust(now_us)

    def note_congested(self) -> None:
        """An out-of-band congestion signal (a CoDel shed) this window.

        CoDel purges drain the standing queue, so the dispatches right
        after one wait ~0 and drag the window's mean down mid-overload.
        A shed *is* evidence of a standing queue: it forces the
        window's verdict to a decrease, keeping the two controllers
        from fighting each other.
        """
        self._window_congested = True

    def _adjust(self, now_us: int) -> None:
        config = self.config
        samples = self._window_samples
        observed = self._window_wait_us // samples if samples else 0
        self.last_observed_us = observed
        if (
            observed <= config.target_queue_delay_us
            and not self._window_congested
        ):
            new = min(config.max_limit, self.limit + config.additive_increase)
            if new != self.limit:
                self.increases += 1
        else:
            new = max(
                config.min_limit,
                int(self.limit * config.multiplicative_decrease),
            )
            if new != self.limit:
                self.decreases += 1
        self.limit = new
        self._window_start_us = now_us
        self._window_wait_us = 0
        self._window_samples = 0
        self._window_congested = False
        if self.metrics is not None:
            self.metrics.gauge("overload_limit").set(new)

    def retry_after_us(self) -> int:
        """The server-driven backoff hint for a shed request.

        Twice the last observed queue delay, clamped — long enough that a
        compliant client retries after the standing queue has had a
        chance to drain, short enough to stay responsive when the
        overload clears.
        """
        config = self.config
        hint = 2 * self.last_observed_us
        if hint < config.retry_after_min_us:
            return config.retry_after_min_us
        if hint > config.retry_after_max_us:
            return config.retry_after_max_us
        return hint


class CodelShedder:
    """The CoDel state machine over queue sojourn times.

    ``should_shed`` is asked at dispatch with each RPC's sojourn time.
    Sojourn below target resets the state; sojourn above target for a
    full interval enters the dropping state, where successive drops come
    ``interval / sqrt(drop_count)`` apart — the standing-queue control
    law from the CoDel paper, integer-ized for determinism.
    """

    __slots__ = (
        "target_us",
        "interval_us",
        "_first_above_us",
        "_dropping",
        "_drop_next_us",
        "_drop_count",
        "shed",
    )

    def __init__(self, target_us: int, interval_us: int):
        self.target_us = target_us
        self.interval_us = interval_us
        self._first_above_us = -1
        self._dropping = False
        self._drop_next_us = 0
        self._drop_count = 0
        self.shed = 0

    def should_shed(self, sojourn_us: int, now_us: int) -> bool:
        """Judge one RPC at dispatch; True = shed it, keep draining."""
        if sojourn_us < self.target_us:
            self._first_above_us = -1
            self._dropping = False
            self._drop_count = 0
            return False
        if self._dropping:
            if now_us >= self._drop_next_us:
                self._drop_count += 1
                self._drop_next_us = now_us + int(
                    self.interval_us / (self._drop_count**0.5)
                )
                self.shed += 1
                return True
            return False
        if self._first_above_us < 0:
            self._first_above_us = now_us
            return False
        if now_us - self._first_above_us >= self.interval_us:
            self._dropping = True
            self._drop_count = 1
            self._drop_next_us = now_us + self.interval_us
            self.shed += 1
            return True
        return False


class QueueDiscipline:
    """One pool's CoDel tiers + the limiter feed, asked at dispatch.

    Two :class:`CodelShedder` instances implement the priority tiers:
    background / backfill traffic (``latency_sensitive=False``) runs a
    half-target, half-interval shedder so it drains first under
    pressure, keeping user-facing sojourn inside its own budget.
    """

    __slots__ = ("limiter", "interactive", "batch")

    def __init__(
        self, config: OverloadConfig, limiter: Optional[AdaptiveLimit] = None
    ):
        self.limiter = limiter
        self.interactive = CodelShedder(
            config.codel_target_us, config.codel_interval_us
        )
        self.batch = CodelShedder(
            max(1, config.codel_target_us // 2),
            max(1, config.codel_interval_us // 2),
        )

    def should_shed(
        self, sojourn_us: int, now_us: int, latency_sensitive: bool
    ) -> bool:
        """CoDel verdict for one RPC about to be dispatched."""
        shedder = self.interactive if latency_sensitive else self.batch
        shed = shedder.should_shed(sojourn_us, now_us)
        if shed and self.limiter is not None:
            # a shed is a standing-queue signal the post-purge min wait
            # would hide from the limiter
            self.limiter.note_congested()
        return shed

    def observe(self, sojourn_us: int, now_us: int) -> None:
        """Feed one dispatched RPC's queue wait to the adaptive limit."""
        if self.limiter is not None:
            self.limiter.observe(sojourn_us, now_us)

    @property
    def total_shed(self) -> int:
        """RPCs shed by either tier's CoDel state machine."""
        return self.interactive.shed + self.batch.shed


# breaker states (module ints: the per-request path compares identities)
_CLOSED = 0
_OPEN = 1
_HALF_OPEN = 2

_STATE_NAMES = {_CLOSED: "closed", _OPEN: "open", _HALF_OPEN: "half_open"}


class CircuitBreaker:
    """CLOSED -> OPEN -> HALF_OPEN breaker over a rolling outcome window.

    Counts successes and failures in coarse rolling windows; once volume
    clears ``min_volume`` and the failure rate clears the threshold, the
    breaker opens for a cooldown. The first request after cooldown is
    the half-open probe: its outcome closes the breaker or re-opens it.
    """

    __slots__ = (
        "failure_threshold",
        "min_volume",
        "window_us",
        "cooldown_us",
        "_state",
        "_open_until_us",
        "_window_start_us",
        "_good",
        "_bad",
        "_prev_good",
        "_prev_bad",
        "opens",
    )

    def __init__(
        self,
        failure_threshold: float,
        min_volume: int,
        window_us: int,
        cooldown_us: int,
    ):
        self.failure_threshold = failure_threshold
        self.min_volume = min_volume
        self.window_us = window_us
        self.cooldown_us = cooldown_us
        self._state = _CLOSED
        self._open_until_us = 0
        self._window_start_us = 0
        self._good = 0
        self._bad = 0
        # previous window, so a verdict always sees >= one full window
        self._prev_good = 0
        self._prev_bad = 0
        self.opens = 0

    @property
    def state(self) -> str:
        """``closed`` / ``open`` / ``half_open`` (for tests + metrics)."""
        return _STATE_NAMES[self._state]

    def allow(self, now_us: int) -> bool:
        """May a request for this (database, region) proceed right now?"""
        if self._state == _OPEN:
            if now_us >= self._open_until_us:
                self._state = _HALF_OPEN
                return True  # the probe
            return False
        return True

    def record(self, ok: bool, now_us: int) -> None:
        """One downstream outcome for this (database, region)."""
        if self._state == _HALF_OPEN:
            if ok:
                self._state = _CLOSED
                self._good = self._bad = 0
                self._prev_good = self._prev_bad = 0
                self._window_start_us = now_us
            else:
                self._trip(now_us)
            return
        if now_us - self._window_start_us >= self.window_us:
            self._prev_good = self._good
            self._prev_bad = self._bad
            self._good = 0
            self._bad = 0
            self._window_start_us = now_us
        if ok:
            self._good += 1
        else:
            self._bad += 1
        good = self._good + self._prev_good
        bad = self._bad + self._prev_bad
        total = good + bad
        if (
            self._state == _CLOSED
            and total >= self.min_volume
            and bad / total >= self.failure_threshold
        ):
            self._trip(now_us)

    def _trip(self, now_us: int) -> None:
        self._state = _OPEN
        self._open_until_us = now_us + self.cooldown_us
        self._good = self._bad = 0
        self._prev_good = self._prev_bad = 0
        self.opens += 1


class BreakerBoard:
    """Per-(database, region) circuit breakers, lazily created."""

    __slots__ = ("config", "metrics", "_breakers")

    def __init__(self, config: OverloadConfig, metrics=None):
        self.config = config
        self.metrics = metrics
        self._breakers: dict[tuple[str, str], CircuitBreaker] = {}

    def breaker(self, database_id: str, region: str) -> CircuitBreaker:
        """The breaker for one (database, region), created on first use."""
        key = (database_id, region)
        breaker = self._breakers.get(key)
        if breaker is None:
            config = self.config
            breaker = CircuitBreaker(
                config.breaker_failure_threshold,
                config.breaker_min_volume,
                config.breaker_window_us,
                config.breaker_cooldown_us,
            )
            self._breakers[key] = breaker
        return breaker

    def allow(self, database_id: str, region: str, now_us: int) -> bool:
        """Breaker verdict for a request headed to (database, region)."""
        return self.breaker(database_id, region).allow(now_us)

    def record(
        self, database_id: str, region: str, ok: bool, now_us: int
    ) -> None:
        """Feed one downstream outcome; may trip or close the breaker."""
        breaker = self.breaker(database_id, region)
        opens_before = breaker.opens
        breaker.record(ok, now_us)
        if breaker.opens != opens_before and self.metrics is not None:
            self.metrics.counter(
                "overload_breaker_opens",
                database_id=database_id,
                region=region,
            ).inc()

    def total_opens(self) -> int:
        """Breaker-open transitions across every (database, region)."""
        return sum(b.opens for b in self._breakers.values())


class ReadLatencyTracker:
    """Streaming p99 estimate of read latency — the hedge trigger.

    A fixed ring of recent samples with a lazily recomputed percentile:
    exact enough for a trigger, allocation-free per sample, and
    deterministic (no decay clocks, no reservoir randomness).
    """

    __slots__ = ("_ring", "_size", "_next", "_count", "_cached_p99", "_stale")

    RING = 256
    REFRESH = 32

    def __init__(self):
        self._ring: list[int] = [0] * self.RING
        self._size = self.RING
        self._next = 0
        self._count = 0
        self._cached_p99 = -1
        self._stale = 0

    def observe(self, latency_us: int) -> None:
        """One completed read's end-to-end latency."""
        self._ring[self._next] = latency_us
        self._next = (self._next + 1) % self._size
        if self._count < self._size:
            self._count += 1
        self._stale += 1

    def p99_us(self) -> int:
        """The current p99 estimate (-1 until any sample arrives)."""
        if self._count == 0:
            return -1
        if self._cached_p99 < 0 or self._stale >= self.REFRESH:
            window = sorted(self._ring[: self._count])
            index = min(self._count - 1, (self._count * 99) // 100)
            self._cached_p99 = window[index]
            self._stale = 0
        return self._cached_p99


class HedgeThrottle:
    """Token bucket capping hedged reads to a fraction of real reads."""

    __slots__ = ("ratio", "burst", "tokens", "denied")

    def __init__(self, ratio: float, burst: float):
        self.ratio = ratio
        self.burst = burst
        self.tokens = burst
        self.denied = 0

    def on_read(self) -> None:
        """One primary read completed: earn a fractional hedge token."""
        tokens = self.tokens + self.ratio
        self.tokens = tokens if tokens < self.burst else self.burst

    def try_spend(self) -> bool:
        """Spend one token to fire a hedge; False = over budget."""
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        self.denied += 1
        return False


class OverloadState:
    """Everything one serving cluster tracks for graceful degradation.

    Owns the adaptive limiter (shared with admission control), the
    hedged-read machinery, and the hedge accounting that lands in the
    profiler ledger so dashboards can split overload actions per tenant.
    """

    __slots__ = (
        "config",
        "metrics",
        "probe",
        "limiter",
        "read_latency",
        "hedges",
        "hedges_fired",
        "hedge_wins",
        "hedge_waste",
    )

    def __init__(self, config: OverloadConfig, metrics=None, probe=None):
        self.config = config
        self.metrics = metrics
        self.probe = probe
        self.limiter = AdaptiveLimit(config, metrics=metrics)
        self.read_latency = ReadLatencyTracker()
        self.hedges = HedgeThrottle(config.hedge_ratio, config.hedge_burst)
        self.hedges_fired = 0
        self.hedge_wins = 0
        self.hedge_waste = 0

    def hedge_after_us(self) -> int:
        """Fire the backup read this long after the primary."""
        config = self.config
        p99 = self.read_latency.p99_us()
        if p99 < 0:
            return config.hedge_default_delay_us
        if p99 < config.hedge_min_delay_us:
            return config.hedge_min_delay_us
        return p99

    def account_hedge(self, outcome: str, database_id: str) -> None:
        """Ledger one hedge event (``fired`` / ``win`` / ``waste``).

        Hedge decisions are free in sim time — the backup RPC's service
        cost is accounted by the pool like any other work — so this
        entry carries the count, exactly like admission decisions.
        """
        if outcome == "fired":
            self.hedges_fired += 1
        elif outcome == "win":
            self.hedge_wins += 1
        else:
            self.hedge_waste += 1
        if self.metrics is not None:
            self.metrics.counter(
                "overload_hedges", outcome=outcome, database_id=database_id
            ).inc()
        if self.probe:
            self.probe.account("service", f"hedge.{outcome}", 0, database_id)

    def record_hedge_wait(self, trace_ctx, armed_us: int, fired_us: int) -> None:
        """Annotate the time a request spent waiting on its primary
        before the backup read fired — the ``hedge_wait`` component of
        critical-path attribution (``repro.obs.critpath``). Called by the
        cluster at hedge-fire time; pure observation, no sim effects.
        """
        self.probe.wait(
            "hedge_wait", start_us=armed_us, end_us=fired_us, context=trace_ctx
        )

    def retry_after_us(self) -> int:
        """The backoff hint attached to shed responses."""
        return self.limiter.retry_after_us()
