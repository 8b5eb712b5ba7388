"""Observability for the repro simulator: metrics, events, profiling.

The paper's method — study the *same* run at multiple time-scales —
needs the run itself to be observable. This package provides the three
views, all optional and all off by default:

- :class:`MetricsRegistry` (:mod:`repro.obs.metrics`): counters, gauges
  and fixed-bucket histograms, mergeable across runner workers with the
  same Chan-style combine :class:`~repro.stats.moments.StreamingMoments`
  uses.
- :class:`EventTrace` (:mod:`repro.obs.events`): a ring-buffer of typed
  events (serve, seek, queue-depth change, retry, reassignment, scrub
  chunk, ...) dumpable to JSONL and re-analyzable by
  :mod:`repro.core.timescales`.
- :class:`ProfileScope` (:mod:`repro.obs.profiling`): per-phase wall/CPU
  breakdowns the :class:`~repro.core.runner.ExperimentRunner` attaches
  to :class:`~repro.core.runner.SuiteReport`.

:class:`Observer` bundles them behind one handle with three levels:

- ``"off"`` — nothing recorded; the instrumented code must behave
  bit-identically to ``obs=None`` (asserted by tests).
- ``"metrics"`` — registry only; designed for ≤8% overhead on the
  columnar engines (metrics are filled post-hoc from result arrays).
- ``"trace"`` — registry plus event recording.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import ObservabilityError
from repro.obs.events import (
    DEFAULT_EVENT_CAPACITY,
    EventTrace,
    TraceEvent,
    load_events_jsonl,
    request_trace_from_events,
    serve_events,
    timeline_from_events,
)
from repro.obs.metrics import (
    DEFAULT_TIME_EDGES,
    Counter,
    FixedHistogram,
    Gauge,
    MetricsRegistry,
)
from repro.obs.profiling import PhaseTiming, ProfileScope

OBS_LEVELS = ("off", "metrics", "trace")


class Observer:
    """One handle bundling a run's metrics, events and profiling.

    Instrumented code checks :attr:`enabled` / :attr:`tracing` before
    doing any recording work, so an ``"off"`` observer (or no observer
    at all) costs nothing on the hot paths.
    """

    def __init__(
        self,
        level: str = "metrics",
        event_capacity: int = DEFAULT_EVENT_CAPACITY,
    ) -> None:
        if level not in OBS_LEVELS:
            raise ObservabilityError(
                f"unknown observability level {level!r}; expected one of {OBS_LEVELS}"
            )
        self.level = level
        self.metrics = MetricsRegistry()
        self.events: Optional[EventTrace] = (
            EventTrace(capacity=event_capacity) if level == "trace" else None
        )
        self.profile = ProfileScope()

    @property
    def enabled(self) -> bool:
        """True when metrics (and possibly events) are being recorded."""
        return self.level != "off"

    @property
    def tracing(self) -> bool:
        """True when per-event recording is on."""
        return self.level == "trace" and self.events is not None

    def emit(self, kind: str, time: float, source: str, **data: Any) -> None:
        """Record an event when tracing; a no-op otherwise."""
        if self.events is not None and self.level == "trace":
            self.events.emit(kind, time, source, **data)

    def emit_columns(self, kind: str, source: str, times: Any, **columns: Any) -> None:
        """Record a batch of events from parallel arrays when tracing; a
        no-op otherwise (see :meth:`EventTrace.emit_columns`)."""
        if self.events is not None and self.level == "trace":
            self.events.emit_columns(kind, source, times, **columns)

    def __repr__(self) -> str:
        return f"Observer(level={self.level!r}, metrics={len(self.metrics)})"


__all__ = [
    "Counter",
    "DEFAULT_EVENT_CAPACITY",
    "DEFAULT_TIME_EDGES",
    "EventTrace",
    "FixedHistogram",
    "Gauge",
    "MetricsRegistry",
    "OBS_LEVELS",
    "Observer",
    "PhaseTiming",
    "ProfileScope",
    "TraceEvent",
    "load_events_jsonl",
    "request_trace_from_events",
    "serve_events",
    "timeline_from_events",
]
