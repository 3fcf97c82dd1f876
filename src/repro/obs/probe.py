"""One observer handle per instrumented site.

A component holds one ``probe`` and makes one call per observed event;
the probe feeds whichever observers the run installed: the span
:class:`~repro.obs.tracer.Tracer` and the sim-time
:class:`~repro.obs.perf.Profiler`. Both are fed from the same call, so a
trace and a profile of one run cannot disagree about what happened.

A measured region (``span(..., perf=...)`` or :meth:`Probe.measure`)
accounts its *self* time: its sim-clock delta minus the elapsed time of
the regions nested in it and of the interval waits accounted inside it,
so each elapsed microsecond lands in one ledger row. Modeled waits
(quorum ack, commit-wait) are priced, never elapsed: accounted, they
subtract nothing.

A probe with no observer (such as :data:`NULL_PROBE`) is falsy and its
methods return the shared null span, so an unobserved site costs one
call or one truthiness check.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.perf import SHARED
from repro.obs.tracer import NULL_SPAN

Perf = Optional[tuple[str, str]]  # (subsystem, operation) of a ledger row


class Probe:
    """The tracer and the sim-time profiler behind one handle.

    ``clock`` is what measured regions read (the tracer stamps spans on
    its own clock); either observer may be None.
    """

    __slots__ = ("clock", "tracer", "profiler", "_regions")

    def __init__(self, clock, tracer=None, profiler=None):
        self.clock = clock
        self.tracer = tracer if tracer else None
        self.profiler = profiler if profiler else None
        self._regions: list[_Region] = []  # open regions, innermost last

    def __bool__(self) -> bool:
        return self.tracer is not None or self.profiler is not None

    def span(
        self,
        name: str,
        component: str = "",
        attributes: Optional[dict] = None,
        parent=None,
        perf: Perf = None,
        tenant: str = SHARED,
    ):
        """A span for a ``with`` block, which ``as`` binds (the null span
        when not tracing); with ``perf`` also a measured region."""
        tracer = self.tracer
        if tracer is None:
            span = NULL_SPAN
        else:
            # reprolint: disable=trace-span-context -- the caller's with-block closes it, directly or through the region
            span = tracer.span(name, parent, attributes, component)
        if perf is None or self.profiler is None:
            return span
        return _Region(self, span, perf, tenant)

    def measure(self, subsystem: str, operation: str, tenant: str = SHARED):
        """A measured region with no span of its own."""
        if self.profiler is None:
            return NULL_SPAN
        return _Region(self, NULL_SPAN, (subsystem, operation), tenant)

    def start_span(
        self,
        name: str,
        parent=None,
        attributes: Optional[dict] = None,
        component: str = "",
        end_us: Optional[int] = None,
        perf: Perf = None,
        tenant: str = SHARED,
    ):
        """A span the caller ends explicitly (the serving plane). With
        ``end_us`` it ends there at once and ``perf`` accounts the busy
        time from now to ``end_us``."""
        tracer = self.tracer
        span = (
            NULL_SPAN
            if tracer is None
            else tracer.start_span(name, parent, attributes, component)
        )
        if end_us is not None:
            if perf is not None and self.profiler is not None:
                self.profiler.account(
                    perf[0], perf[1], end_us - self.clock.now_us, tenant
                )
            span.end(end_us)
        return span

    def current_context(self):
        """The innermost open ``with`` span's context, if tracing."""
        return None if self.tracer is None else self.tracer.current_context()

    def wait(
        self,
        cause: str,
        start_us: Optional[int] = None,
        end_us: Optional[int] = None,
        duration_us: Optional[int] = None,
        detail: str = "",
        context=None,
        perf: Perf = None,
        tenant: str = SHARED,
        perf_us: Optional[int] = None,
    ) -> None:
        """Record one blocking interval and, with ``perf``, its busy time.

        ``start_us``/``end_us`` give a wait that elapsed on the clock,
        ``duration_us`` alone a modeled one. The record goes on
        ``context``, or on the innermost open span when that is None.
        ``perf`` accounts the wait's length (``perf_us`` overrides it)
        whether or not a span is open.
        """
        tracer = self.tracer
        if tracer is not None:
            if context is None:
                context = tracer.current_context()
            tracer.record_wait(
                context, cause, start_us, end_us, duration_us, detail
            )
        if perf is None or self.profiler is None:
            return
        interval = start_us is not None and end_us is not None
        if perf_us is None:
            perf_us = end_us - start_us if interval else duration_us
        self.profiler.account(perf[0], perf[1], perf_us, tenant)
        if interval and self._regions:
            self._regions[-1].inner_us += perf_us

    def account(
        self, subsystem: str, operation: str, sim_us: int, tenant: str = SHARED
    ) -> None:
        """Attribute ``sim_us`` of busy time that no span or wait covers."""
        if self.profiler is not None:
            self.profiler.account(subsystem, operation, sim_us, tenant)


class _Region:
    """A measured region: accounts its self time when it closes."""

    __slots__ = ("probe", "span", "perf", "tenant", "start_us", "inner_us")

    def __init__(self, probe: Probe, span, perf: tuple[str, str], tenant: str):
        self.probe = probe
        self.span = span
        self.perf = perf
        self.tenant = tenant
        self.start_us = 0
        self.inner_us = 0  # elapsed time nested regions and waits accounted

    def __enter__(self):
        self.start_us = self.probe.clock.now_us
        self.probe._regions.append(self)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        probe = self.probe
        regions = probe._regions
        regions.pop()
        elapsed = max(0, probe.clock.now_us - self.start_us)
        subsystem, operation = self.perf
        probe.profiler.account(
            subsystem, operation, max(0, elapsed - self.inner_us), self.tenant
        )
        if regions:
            regions[-1].inner_us += elapsed
        return self.span.__exit__(exc_type, exc, tb)


#: The unobserved probe every component defaults to. Falsy.
NULL_PROBE = Probe(None)
