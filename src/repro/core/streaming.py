"""Streaming workload summarization for traces too large to hold.

Production captures run to hundreds of millions of requests. This module
summarizes a request stream in bounded memory: chunks of a trace (or
individual requests) are folded into streaming moments, direction/byte
totals, sequentiality counts, and a base-scale count series, from which
a :class:`~repro.core.summary.WorkloadSummary`-compatible view and a
burstiness estimate are produced at the end.

Memory use is O(span / count_scale) for the count series (a day at a
1-second base scale is 86 400 floats) plus O(1) for everything else.
Chunks are folded with vectorized numpy passes (one ``np.diff``, one
``np.bincount``, and a handful of reductions per chunk), so throughput
is bounded by memory bandwidth rather than the Python interpreter; the
scalar :meth:`StreamingCharacterizer.add_request` path is retained as
the per-request API and as the reference the vectorized path is tested
against.

Streams need not start at clock zero: a capture sliced from the middle
of a longer recording (first arrival at t >> 0) is summarized relative
to its own start, so rates, spans, and the Hurst count series match the
same stream rebased to t = 0. Pass ``start=`` when the observation
window is known to begin before the first arrival (e.g. a capture that
opens with idle time).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.summary import WorkloadSummary
from repro.errors import AnalysisError
from repro.stats.hurst import hurst_aggregate_variance
from repro.stats.moments import StreamingMoments
from repro.traces.millisecond import RequestTrace
from repro.units import KIB


class StreamingCharacterizer:
    """Fold trace chunks into a bounded-memory characterization.

    Chunks must arrive in time order on a shared clock (each chunk's
    times are absolute, as produced by slicing one long capture without
    rebasing, or by a collector's shards read back in order).

    Parameters
    ----------
    label:
        Name carried into the emitted :class:`WorkloadSummary`.
    count_scale:
        Bin width in seconds for the arrival-count series feeding
        :meth:`hurst`.
    start:
        Absolute clock time at which the observation window opens.
        ``None`` (default) infers it from the first arrival seen, which
        is correct for captures that begin with a request; pass it
        explicitly when the window is known to open earlier (e.g. a
        trace whose ``span`` starts at clock 0 but whose first request
        lands later).
    """

    def __init__(
        self,
        label: str = "stream",
        count_scale: float = 1.0,
        start: Optional[float] = None,
    ) -> None:
        if count_scale <= 0:
            raise AnalysisError(f"count_scale must be > 0, got {count_scale!r}")
        self.label = str(label)
        self.count_scale = float(count_scale)
        self._sizes = StreamingMoments()
        self._gaps = StreamingMoments()
        self._counts = np.zeros(0, dtype=np.int64)
        self._n = 0
        self._bytes_total = 0
        self._bytes_written = 0
        self._writes = 0
        self._sequential = 0
        self._start = None if start is None else float(start)
        self._first_time: Optional[float] = None
        self._prev_time: Optional[float] = None
        self._prev_end: Optional[int] = None
        self._span_end = 0.0

    # ------------------------------------------------------------------
    # Folding
    # ------------------------------------------------------------------

    def _resolve_origin(self, first_time: float) -> float:
        """The stream's clock origin, fixed on the first arrival."""
        if self._first_time is None:
            self._first_time = first_time
            if self._start is None:
                self._start = first_time
            elif first_time < self._start:
                raise AnalysisError(
                    f"first arrival at {first_time} precedes the declared "
                    f"stream start {self._start}"
                )
        return self._start  # type: ignore[return-value]

    def add_request(
        self, time: float, lba: int, nsectors: int, is_write: bool
    ) -> None:
        """Fold a single request (the scalar reference path).

        Semantically identical to :meth:`add_chunk` on a one-request
        chunk; kept both as a convenience for event-at-a-time producers
        and as the reference implementation the vectorized path is
        verified against.
        """
        time = float(time)
        if self._prev_time is not None and time < self._prev_time:
            raise AnalysisError(
                f"request at {time} precedes the stream's clock at "
                f"{self._prev_time}"
            )
        origin = self._resolve_origin(time)
        lba = int(lba)
        n = int(nsectors)
        nbytes = n * 512
        self._n += 1
        self._bytes_total += nbytes
        if is_write:
            self._writes += 1
            self._bytes_written += nbytes
        self._sizes.add(nbytes / KIB)
        if self._prev_time is not None:
            self._gaps.add(time - self._prev_time)
        if self._prev_end is not None and lba == self._prev_end:
            self._sequential += 1
        index = int((time - origin) / self.count_scale)
        if index >= self._counts.size:
            grown = np.zeros(index + 1, dtype=np.int64)
            grown[: self._counts.size] = self._counts
            self._counts = grown
        self._counts[index] += 1
        self._prev_time = time
        self._prev_end = lba + n
        self._span_end = max(self._span_end, time)

    def add_chunk(self, chunk: RequestTrace) -> None:
        """Fold one chunk; its times must not precede prior chunks."""
        times = chunk.times
        if times.size == 0:
            self._span_end = max(self._span_end, float(chunk.span))
            return
        if self._prev_time is not None and times[0] < self._prev_time:
            raise AnalysisError(
                f"chunk starts at {times[0]} before the stream's "
                f"clock at {self._prev_time}"
            )
        gaps = np.diff(times)
        if np.any(gaps < 0):
            raise AnalysisError(
                f"chunk {chunk.label!r} times are not monotonically "
                "non-decreasing"
            )
        origin = self._resolve_origin(float(times[0]))
        nbytes = chunk.nsectors * 512
        is_write = chunk.is_write
        self._n += int(times.size)
        self._bytes_total += int(nbytes.sum())
        self._writes += int(is_write.sum())
        self._bytes_written += int(nbytes[is_write].sum())
        self._sizes.add_many(nbytes / KIB)
        if self._prev_time is not None:
            gaps = np.concatenate(([times[0] - self._prev_time], gaps))
        if gaps.size:
            self._gaps.add_many(gaps)
        ends = chunk.lbas + chunk.nsectors
        self._sequential += int(np.count_nonzero(chunk.lbas[1:] == ends[:-1]))
        if self._prev_end is not None and int(chunk.lbas[0]) == self._prev_end:
            self._sequential += 1
        indices = ((times - origin) / self.count_scale).astype(np.int64)
        nbins = max(self._counts.size, int(indices[-1]) + 1)
        binned = np.bincount(indices, minlength=nbins)
        binned[: self._counts.size] += self._counts
        self._counts = binned
        self._prev_time = float(times[-1])
        self._prev_end = int(ends[-1])
        self._span_end = max(self._span_end, float(chunk.span), self._prev_time)

    def observe_span(self, end: float) -> None:
        """Extend the observation window to absolute clock ``end``.

        A stream sliced from a longer run can end with idle time past the
        last arrival; callers that know the true window end (a trace's
        ``span``, or an event stream's ``run_end`` event) declare it here
        so rates are computed over the real window, not just up to the
        last request. Moving the end *backwards* is ignored.
        """
        self._span_end = max(self._span_end, float(end))

    # ------------------------------------------------------------------
    # Accumulated state
    # ------------------------------------------------------------------

    @property
    def n_requests(self) -> int:
        """Requests folded so far."""
        return self._n

    @property
    def first_time(self) -> Optional[float]:
        """Absolute clock time of the first arrival (None before any)."""
        return self._first_time

    @property
    def span(self) -> float:
        """Observation span in seconds, relative to the stream's start."""
        if self._start is None:
            return 0.0
        return max(self._span_end, self._prev_time or 0.0) - self._start

    def summary(self) -> WorkloadSummary:
        """The accumulated summary (requires at least one request)."""
        if self._n == 0:
            raise AnalysisError("stream is empty; nothing to summarize")
        span = self.span
        cv = self._gaps.cv if self._gaps.n >= 2 else float("nan")
        return WorkloadSummary(
            name=self.label,
            n_requests=self._n,
            span_seconds=span,
            request_rate=self._n / span if span > 0 else 0.0,
            byte_rate=self._bytes_total / span if span > 0 else 0.0,
            write_request_fraction=self._writes / self._n,
            write_byte_fraction=(
                self._bytes_written / self._bytes_total
                if self._bytes_total else float("nan")
            ),
            mean_request_kib=self._sizes.mean,
            median_request_kib=float("nan"),  # medians need the sample
            sequentiality=(
                self._sequential / (self._n - 1) if self._n > 1 else float("nan")
            ),
            interarrival_cv=cv,
        )

    def hurst(self) -> float:
        """Aggregate-variance Hurst estimate of the streamed counts."""
        if self._counts.size < 64:
            raise AnalysisError(
                f"only {self._counts.size} count bins; Hurst needs >= 64"
            )
        return hurst_aggregate_variance(self._counts.astype(np.float64))


def characterize_events(
    events,
    label: str = "events",
    count_scale: float = 1.0,
    start: Optional[float] = 0.0,
) -> StreamingCharacterizer:
    """Fold a dumped event trace into a :class:`StreamingCharacterizer`.

    ``events`` is an iterable of :class:`~repro.obs.TraceEvent` objects
    or their dicts (e.g. straight from
    :func:`repro.obs.load_events_jsonl`). Each ``serve`` event carries
    the request's arrival, LBA, size and direction, so replaying them in
    trace order (by the ``index`` payload — service order can differ
    under seek-aware disciplines) reconstructs exactly the request
    stream the simulator consumed; a ``run_end`` event extends the
    observation window to the run's true span. The result matches the
    batch characterization of the replayed trace (tested to 1e-9),
    closing the loop: a simulated run is itself analyzable at every
    time-scale.

    ``start`` defaults to ``0.0`` — a simulated run's observation window
    opens at clock zero — unlike :class:`StreamingCharacterizer`'s
    default of rebasing to the first arrival; pass ``start=None`` to get
    that rebasing behaviour for sliced captures.
    """
    from repro.obs.events import TraceEvent, serve_events

    materialized = [
        e if isinstance(e, TraceEvent) else TraceEvent.from_dict(e)
        for e in events
    ]
    served = serve_events(materialized)
    if not served:
        raise AnalysisError("event stream holds no 'serve' events")
    characterizer = StreamingCharacterizer(
        label=label, count_scale=count_scale, start=start
    )
    for event in served:
        data = event.data
        characterizer.add_request(
            data["arrival"], data["lba"], data["nsectors"], data["write"]
        )
    for event in materialized:
        if event.kind == "run_end":
            characterizer.observe_span(event.time)
    return characterizer
