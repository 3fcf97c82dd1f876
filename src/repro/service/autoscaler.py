"""Delayed load-based auto-scaling of task pools.

"All components build on Google's auto-scaling infrastructure, so the
number of tasks in a given component adjusts in response to load" and
"auto-scaling incorporates delays because short-lived traffic spikes do
not merit auto-scaling" (paper section IV-C). That delay is what produces
the transient p99 inflation during YCSB's rapid ramp-up (section V-B1)
that later recovers — the shape Figures 7/8 show.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.events import EventKernel
from repro.service.pool import TaskPool


@dataclass
class AutoscalerConfig:
    #: how often utilization is evaluated
    """Thresholds, delays, and growth factors for auto-scaling."""
    evaluation_interval_us: int = 5_000_000
    #: consecutive hot evaluations required before scaling up (the delay)
    scale_up_after_evals: int = 2
    #: utilization above which an evaluation counts as hot
    high_watermark: float = 0.75
    #: utilization below which an evaluation counts as cold
    low_watermark: float = 0.20
    #: consecutive cold evaluations before scaling down
    scale_down_after_evals: int = 6
    #: multiplicative growth per scale-up
    growth_factor: float = 1.5
    max_tasks: int = 10_000


class Autoscaler:
    """Periodically resizes one pool based on its utilization."""

    def __init__(
        self,
        pool: TaskPool,
        kernel: EventKernel,
        config: AutoscalerConfig | None = None,
        enabled: bool = True,
        size_floor_fn=None,
        metrics=None,
    ):
        self.pool = pool
        self.kernel = kernel
        self.config = config if config is not None else AutoscalerConfig()
        self.enabled = enabled
        self.metrics = metrics
        #: optional callable giving a minimum pool size — used by the
        #: Frontend pool, which scales with the number of long-lived
        #: Listen connections rather than instantaneous CPU (section
        #: V-B1: autoscaling reacts to "the load on Frontend tasks"
        #: from active real-time queries, independently of the rest)
        self.size_floor_fn = size_floor_fn
        self._hot_evals = 0
        self._cold_evals = 0
        self.scale_ups = 0
        self.scale_downs = 0
        self._schedule()

    def _schedule(self) -> None:
        self.kernel.after(
            self.config.evaluation_interval_us,
            self._evaluate,
            label=f"autoscaler:{self.pool.name}",
        )

    def _record(self, event: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                f"autoscaler_{event}", pool=self.pool.name
            ).inc()
            self.metrics.gauge("pool_tasks", pool=self.pool.name).set(
                self.pool.size
            )

    def _evaluate(self) -> None:
        utilization = self.pool.utilization()
        if self.pool.probe:
            # control-plane work: zero sim-cost, counted for attribution
            self.pool.probe.account(
                "service", f"autoscaler.evaluate.{self.pool.name}", 0
            )
        if self.metrics is not None:
            self.metrics.histogram(
                "pool_utilization_permille", pool=self.pool.name
            ).observe(int(utilization * 1000))
        if self.enabled:
            if self.size_floor_fn is not None:
                floor = min(self.config.max_tasks, self.size_floor_fn())
                if self.pool.size < floor:
                    self.pool.add_tasks(floor - self.pool.size)
                    self.scale_ups += 1
                    self._record("scale_ups")
            self._react(utilization)
        self._schedule()

    def _react(self, utilization: float) -> None:
        config = self.config
        if utilization >= config.high_watermark:
            self._hot_evals += 1
            self._cold_evals = 0
            if self._hot_evals >= config.scale_up_after_evals:
                current = self.pool.size
                target = min(
                    config.max_tasks, max(current + 1, int(current * config.growth_factor))
                )
                if target > current:
                    self.pool.add_tasks(target - current)
                    self.scale_ups += 1
                    self._record("scale_ups")
                self._hot_evals = 0
        elif utilization <= config.low_watermark:
            self._cold_evals += 1
            self._hot_evals = 0
            if self._cold_evals >= config.scale_down_after_evals:
                shrink = max(1, self.pool.size // 4)
                floor = 1
                if self.size_floor_fn is not None:
                    floor = max(floor, self.size_floor_fn())
                if self.pool.size - shrink >= floor:
                    self.pool.remove_tasks(shrink)
                    self.scale_downs += 1
                    self._record("scale_downs")
                self._cold_evals = 0
        else:
            self._hot_evals = 0
            self._cold_evals = 0
