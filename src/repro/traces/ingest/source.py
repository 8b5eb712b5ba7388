"""A declarative, picklable pointer to an on-disk trace.

:class:`TraceSource` is how the parallel runner carries "replay this
file" through an :class:`~repro.core.runner.ExperimentJob`: a frozen
record of *where* the trace lives and *how* to read it, loaded lazily in
the worker process so the job itself stays cheap to pickle. The format
key ``"native"`` reads the library's own CSV format via
:func:`repro.traces.io.read_request_trace`; any other key goes through
the ingest registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.errors import TraceFormatError
from repro.traces.ingest.registry import available_formats, get_parser
from repro.traces.millisecond import RequestTrace


@dataclass(frozen=True)
class TraceSource:
    """Where a replayable trace lives and how to read it.

    Parameters
    ----------
    path:
        The trace file.
    format:
        ``"native"`` for the library's own CSV, otherwise a key from
        :func:`~repro.traces.ingest.registry.available_formats`.
    strict:
        Raise on the first corrupt row (``True``) or silently drop
        corrupt rows (``False``; quarantine details are not kept — use
        a parser directly when they matter).
    max_requests:
        Stop after this many accepted records (``None`` = whole file).
    """

    path: str
    format: str = "native"
    strict: bool = True
    max_requests: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "path", str(self.path))
        formats = ["native"] + sorted(available_formats())
        if self.format not in formats:
            raise TraceFormatError(
                f"unknown trace format {self.format!r}; available: {formats}"
            )

    @property
    def label(self) -> str:
        """Short name for job labels and reports: the file stem."""
        return Path(self.path).stem

    def load(self) -> RequestTrace:
        """Read the trace off disk (every call re-reads the file)."""
        if self.format == "native":
            from repro.traces.io import read_request_trace

            trace = read_request_trace(self.path, strict=self.strict)
            if self.max_requests is not None and len(trace) > self.max_requests:
                n = self.max_requests
                trace = RequestTrace(
                    times=trace.times[:n],
                    lbas=trace.lbas[:n],
                    nsectors=trace.nsectors[:n],
                    is_write=trace.is_write[:n],
                    label=trace.label,
                    capacity_sectors=trace.capacity_sectors,
                )
            return trace
        return get_parser(self.format).parse(
            self.path, strict=self.strict, max_requests=self.max_requests
        )
