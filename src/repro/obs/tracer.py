"""Dapper-style distributed tracing over the simulation clock.

A :class:`Tracer` records :class:`Span` trees describing one request's
journey across the reproduction's components — Frontend RPC handling, the
Backend's seven-step write protocol, Spanner lock acquisition and
two-phase commit, the Real-time Cache's Prepare/Accept, and listener
fan-out delivery. Everything is deterministic: span and trace ids are
drawn from a forked :class:`repro.sim.rand.SimRandom` stream and all
timestamps come from the simulated clock, so two runs with the same seed
produce byte-identical trace exports.

Components do not hold a tracer: they hold one
:class:`repro.obs.probe.Probe`, which feeds the tracer and the sim-time
profiler from each instrumented site and is falsy when nothing
observes the run. :data:`NULL_TRACER` is the disabled
tracer the public entry points expose when none was given.

Synchronous code (the functional database stack) uses the implicit
current-span stack via the :meth:`Tracer.span` context manager; the
discrete-event serving simulation propagates an explicit
:class:`SpanContext` through the RPC envelope instead (see
``repro.service.rpc.Rpc.trace_ctx``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Union

from repro.sim.clock import SimClock
from repro.sim.rand import SimRandom


@dataclass(frozen=True)
class SpanContext:
    """The propagatable identity of a span: (trace_id, span_id)."""

    trace_id: str
    span_id: str


#: the structured wait-cause taxonomy — every blocking interval a request
#: can spend time in is annotated at its source with one of these, so the
#: critical-path engine (``repro.obs.critpath``) can explain the tail
WAIT_CAUSES = (
    "queue",                # scheduler queue wait before dispatch
    "admission_shed_retry",  # backoff after an admission-control shed
    "lock_wait",            # transaction aborted on a lock conflict, backing off
    "commit_wait",          # TrueTime commit-wait (modeled, priced not elapsed)
    "quorum_rtt",           # replication quorum round trip / unreachable quorum
    "replication_apply",    # new leader replaying the recovered log suffix
    "retry_backoff",        # generic retry backoff between attempts
    "hedge_wait",           # waiting on the primary before the hedge fired
    "rpc_network",          # modeled network hops (priced, not elapsed)
    "storage_read",         # storage-layer read/commit latency gap
)


class WaitRecord:
    """One annotated blocking interval, bound to a span.

    Two kinds:

    ``interval``
        the wait elapsed on the simulated timeline — ``start_us`` /
        ``end_us`` are clock readings and the critical-path engine
        classifies span gaps by overlap against them.
    ``modeled``
        the wait is *priced* by the stack but never advances the sim
        clock (quorum ack RTT, TrueTime commit-wait, network hops) —
        only ``duration_us`` is meaningful, and the engine adds it on
        top of the elapsed critical path.
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "cause",
        "start_us",
        "end_us",
        "duration_us",
        "kind",
        "detail",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        cause: str,
        start_us: Optional[int],
        end_us: Optional[int],
        duration_us: int,
        kind: str,
        detail: str = "",
    ):
        self.trace_id = trace_id
        self.span_id = span_id
        self.cause = cause
        self.start_us = start_us
        self.end_us = end_us
        self.duration_us = duration_us
        self.kind = kind
        self.detail = detail

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        window = (
            f"[{self.start_us}, {self.end_us}]"
            if self.kind == "interval"
            else f"{self.duration_us}us"
        )
        return f"WaitRecord({self.cause}, {self.kind}, {window})"


class Span:
    """One timed operation within a trace."""

    __slots__ = (
        "_tracer",
        "name",
        "component",
        "trace_id",
        "span_id",
        "parent_id",
        "start_us",
        "end_us",
        "attributes",
        "events",
        "_on_stack",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        component: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        start_us: int,
    ):
        self._tracer = tracer
        self.name = name
        self.component = component
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_us = start_us
        self.end_us: Optional[int] = None
        self.attributes: dict[str, Any] = {}
        self.events: list[tuple[int, str, dict]] = []
        self._on_stack = False

    # -- recording ---------------------------------------------------------

    def set_attribute(self, key: str, value: Any) -> "Span":
        """Attach one key/value to the span."""
        self.attributes[key] = value
        return self

    def set_attributes(self, attributes: dict) -> "Span":
        """Attach several key/values at once."""
        self.attributes.update(attributes)
        return self

    def add_event(self, name: str, attributes: Optional[dict] = None) -> "Span":
        """Record an instant event at the current simulated time."""
        self.events.append(
            (self._tracer.clock.now_us, name, attributes or {})
        )
        return self

    def wait(
        self,
        cause: str,
        start_us: Optional[int] = None,
        end_us: Optional[int] = None,
        duration_us: Optional[int] = None,
        detail: str = "",
    ) -> "Span":
        """Annotate a blocking interval charged to this span.

        Pass ``start_us``/``end_us`` (clock readings) for a wait that
        elapsed on the simulated timeline, or ``duration_us`` alone for
        a *modeled* wait the stack prices but never elapses (quorum ack
        RTT, commit-wait, network hops). Pure observation: recording a
        wait never advances the clock or consumes randomness.
        """
        self._tracer.record_wait(
            self.context,
            cause,
            start_us=start_us,
            end_us=end_us,
            duration_us=duration_us,
            detail=detail,
        )
        return self

    def end(self, end_us: Optional[int] = None) -> None:
        """Finish the span (idempotent). ``end_us`` defaults to now."""
        if self.end_us is not None:
            return
        self.end_us = end_us if end_us is not None else self._tracer.clock.now_us
        if self.end_us < self.start_us:
            self.end_us = self.start_us
        self._tracer._finish(self)

    @property
    def context(self) -> SpanContext:
        """This span's propagatable context."""
        return SpanContext(self.trace_id, self.span_id)

    @property
    def duration_us(self) -> int:
        """Elapsed simulated microseconds (0 while unfinished)."""
        return 0 if self.end_us is None else self.end_us - self.start_us

    # -- context-manager protocol ------------------------------------------

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.set_attribute("error", exc_type.__name__)
        if self._on_stack:
            self._tracer._pop(self)
        self.end()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id}, "
            f"[{self.start_us}, {self.end_us}])"
        )


class _NullSpan:
    """The shared no-op span returned by :class:`NullTracer`."""

    __slots__ = ()

    def set_attribute(self, key: str, value: Any) -> "_NullSpan":
        return self

    def set_attributes(self, attributes: dict) -> "_NullSpan":
        return self

    def add_event(self, name: str, attributes: Optional[dict] = None) -> "_NullSpan":
        return self

    def wait(self, cause, start_us=None, end_us=None, duration_us=None, detail=""):
        return self

    def end(self, end_us: Optional[int] = None) -> None:
        pass

    @property
    def context(self) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def __bool__(self) -> bool:
        return False


NULL_SPAN = _NullSpan()

ParentLike = Union[Span, SpanContext, None]


class Tracer:
    """Collects span trees against the simulated clock.

    ``rand`` seeds the id stream; fork a dedicated stream (e.g.
    ``SimRandom(seed).fork("tracer")``) so tracing draws never perturb
    workload randomness.
    """

    def __init__(
        self,
        clock: SimClock,
        rand: Optional[SimRandom] = None,
        max_spans: int = 1_000_000,
    ):
        self.clock = clock
        self._rand = rand if rand is not None else SimRandom(0).fork("tracer")
        self.max_spans = max_spans
        self.finished: list[Span] = []
        self._stack: list[Span] = []
        self.dropped = 0
        self.waits: list[WaitRecord] = []
        #: wait records dropped past ``max_spans`` (same cap, same policy)
        self.waits_dropped = 0

    def __bool__(self) -> bool:
        return True

    # -- span creation -----------------------------------------------------

    def _new_id(self, nbytes: int) -> str:
        return self._rand.bytes(nbytes).hex()

    def _resolve_parent(self, parent: ParentLike) -> tuple[str, Optional[str]]:
        """(trace_id, parent_span_id) for a new span."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        if isinstance(parent, Span):
            return parent.trace_id, parent.span_id
        if isinstance(parent, SpanContext):
            return parent.trace_id, parent.span_id
        return self._new_id(8), None

    def start_span(
        self,
        name: str,
        parent: ParentLike = None,
        attributes: Optional[dict] = None,
        component: str = "",
    ) -> Span:
        """Begin a span the caller will :meth:`Span.end` explicitly.

        With no explicit ``parent``, the innermost open :meth:`span`
        context (if any) becomes the parent; otherwise a new trace root
        starts.
        """
        trace_id, parent_id = self._resolve_parent(parent)
        if not component:
            component = name.split(".", 1)[0]
        span = Span(
            self,
            name,
            component,
            trace_id,
            self._new_id(4),
            parent_id,
            self.clock.now_us,
        )
        if attributes:
            span.attributes.update(attributes)
        return span

    def span(
        self,
        name: str,
        parent: ParentLike = None,
        attributes: Optional[dict] = None,
        component: str = "",
    ) -> Span:
        """Begin a stack-managed span: ``with tracer.span("x"): ...``.

        While the context is open, nested :meth:`span`/:meth:`start_span`
        calls without an explicit parent nest under it.
        """
        span = self.start_span(name, parent, attributes, component)
        span._on_stack = True
        self._stack.append(span)
        return span

    def current_context(self) -> Optional[SpanContext]:
        """The innermost open stack span's context, if any."""
        return self._stack[-1].context if self._stack else None

    def current_span(self) -> Optional[Span]:
        """The innermost open stack span itself, if any.

        Cross-cutting subsystems (e.g. the fault plane) use this to tag
        whatever operation is in flight when they act.
        """
        return self._stack[-1] if self._stack else None

    # -- wait attribution --------------------------------------------------

    def record_wait(
        self,
        context: Optional[SpanContext],
        cause: str,
        start_us: Optional[int] = None,
        end_us: Optional[int] = None,
        duration_us: Optional[int] = None,
        detail: str = "",
    ) -> None:
        """Record a blocking interval for :class:`SpanContext` holders.

        The discrete-event serving plane carries a ``SpanContext`` (not a
        live span) through RPC envelopes; components reach this through
        :meth:`repro.obs.probe.Probe.wait`. ``start_us``/
        ``end_us`` describe an *interval* wait on the sim timeline;
        ``duration_us`` alone describes a *modeled* (priced-not-elapsed)
        wait. Zero/negative waits are dropped — they carry no blame.
        """
        if context is None:
            return
        if start_us is not None and end_us is not None:
            if end_us <= start_us:
                return
            record = WaitRecord(
                context.trace_id,
                context.span_id,
                cause,
                start_us,
                end_us,
                end_us - start_us,
                "interval",
                detail,
            )
        else:
            if not duration_us or duration_us <= 0:
                return
            record = WaitRecord(
                context.trace_id,
                context.span_id,
                cause,
                None,
                None,
                duration_us,
                "modeled",
                detail,
            )
        if len(self.waits) >= self.max_spans:
            self.waits_dropped += 1
            return
        self.waits.append(record)

    # -- bookkeeping -------------------------------------------------------

    def _pop(self, span: Span) -> None:
        while self._stack:
            top = self._stack.pop()
            if top is span:
                return

    def _finish(self, span: Span) -> None:
        if len(self.finished) >= self.max_spans:
            self.dropped += 1
            return
        self.finished.append(span)

    @property
    def span_count(self) -> int:
        """Finished spans recorded so far."""
        return len(self.finished)

    def clear(self) -> None:
        """Discard every finished span (open stack spans survive)."""
        self.finished.clear()
        self.dropped = 0
        self.waits.clear()
        self.waits_dropped = 0

    # -- introspection -----------------------------------------------------

    def traces(self) -> dict[str, list[Span]]:
        """Finished spans grouped by trace id, in finish order."""
        grouped: dict[str, list[Span]] = {}
        for span in self.finished:
            grouped.setdefault(span.trace_id, []).append(span)
        return grouped

    def find(self, name: str) -> list[Span]:
        """Finished spans with the given name."""
        return [s for s in self.finished if s.name == name]

    def children_of(self, span: Span) -> list[Span]:
        """Direct children of a span among finished spans."""
        return [
            s
            for s in self.finished
            if s.trace_id == span.trace_id and s.parent_id == span.span_id
        ]


class NullTracer:
    """The zero-overhead disabled tracer. Falsy; all methods no-op."""

    finished: list = []
    dropped = 0
    waits: list = []
    waits_dropped = 0

    def __bool__(self) -> bool:
        return False

    def start_span(self, name, parent=None, attributes=None, component=""):
        return NULL_SPAN

    def span(self, name, parent=None, attributes=None, component=""):
        return NULL_SPAN

    def current_context(self) -> None:
        return None

    def current_span(self) -> None:
        return None

    @property
    def span_count(self) -> int:
        return 0

    def clear(self) -> None:
        pass

    def traces(self) -> dict:
        return {}

    def find(self, name: str) -> list:
        return []


#: The process-wide disabled tracer. Components default to this, making
#: instrumentation free until a real :class:`Tracer` is installed.
NULL_TRACER = NullTracer()
