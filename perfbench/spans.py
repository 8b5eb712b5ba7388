"""Spans recorded from outside the program.

The benchmark never edits ``src/``: it replaces public callables at the
module or class attribute through which the program looks them up, runs
the CLI, and puts the originals back. Each call of a wrapped callable
becomes one span (name, start, end, parent, job). Spans stay in memory
until the run writes them out at its end.

A layer's self time is its spans' durations minus the time covered by
their child spans. Runs are traced inline (one process, one thread), so
children nest strictly inside their parents.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, TextIO, Tuple

#: What the benchmark wraps: (module, attribute path, layer, job root).
#: The attribute path is read from the module, so ``"DiskSimulator.run"``
#: patches the method on the class and ``"run_fcfs_columnar"`` patches
#: the name the simulator module imported, which is the one it calls.
#: The layer names the per-layer metric the span's self time feeds
#: (``<layer>_s``). Spans of a job root start a new job id; every span
#: under it shares that id.
WRAPPED: Tuple[Tuple[str, str, str, bool], ...] = (
    ("repro.cli.main", "main", "cli.self", True),
    ("repro.synth.workload", "WorkloadProfile.synthesize", "synth.synthesize", False),
    ("repro.fleet", "sample_tenants", "fleet.sample_tenants", False),
    ("repro.fleet", "build_fleet_plan", "fleet.placement", False),
    ("repro.fleet.multiplex", "synthesize_tenant_columns", "fleet.multiplex", False),
    ("repro.fleet.multiplex", "combine_columns", "fleet.multiplex", False),
    ("repro.fleet.qos", "tenant_qos_from_result", "fleet.qos", False),
    ("repro.fleet.qos", "interference_report", "fleet.qos", False),
    ("repro.disk.simulator", "DiskSimulator.run", "disk.run_self", False),
    ("repro.disk.simulator", "run_fcfs_columnar", "disk.columnar", False),
    ("repro.disk.simulator", "run_sstf_columnar", "disk.columnar", False),
    ("repro.disk.simulator", "run_sstf_windowed_columnar", "disk.columnar", False),
    ("repro.disk.timeline", "BusyIdleTimeline.__init__", "disk.timeline", False),
    ("repro.core.timescales", "summarize_trace", "core.summary", False),
    ("repro.core.timescales", "analyze_utilization", "core.utilization", False),
    ("repro.core.timescales", "analyze_idleness", "core.idleness", False),
    ("repro.core.timescales", "analyze_busyness", "core.busyness", False),
    ("repro.core.timescales", "analyze_burstiness", "core.burstiness", False),
    ("repro.core.timescales", "analyze_traffic", "core.traffic", False),
    ("repro.core.dossier", "render_study_report", "core.dossier", False),
    ("repro.core.burstiness", "hurst_aggregate_variance", "stats.hurst", False),
    ("repro.core.burstiness", "hurst_rescaled_range", "stats.hurst", False),
    ("repro.core.runner", "ExperimentRunner.run_suite", "runner.dispatch", False),
    ("repro.core.runner", "ExperimentRunner.run_sharded", "runner.dispatch", False),
    ("repro.core.runner", "run_job", "runner.dispatch", True),
    ("repro.core.runner", "JobResult.as_dict", "runner.serialize", False),
    ("repro.core.runner", "ShardResult.as_dict", "runner.serialize", False),
    ("repro.core.journal", "SuiteJournal.record", "journal.record", False),
)


def _request_count(name: str, args: tuple, result: Any) -> Optional[Tuple[str, int]]:
    """Counts taken where the work happens, keyed by layer."""
    if name == "synth.synthesize/WorkloadProfile.synthesize":
        return "synth.requests", len(result)
    if name.startswith("disk.columnar/"):
        return "disk.columnar_requests", len(args[1])
    if name == "disk.run_self/DiskSimulator.run":
        return "disk.requests", len(args[1])
    if name == "journal.record/SuiteJournal.record":
        return "journal.records", 1
    return None


class Tracer:
    """In-memory span recorder. Spans are ``[name, start, end, parent,
    job]`` lists; ``parent`` is an index into :attr:`spans` or ``-1``."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []
        self._next_job = 0

    def wrap(self, name: str, fn: Callable, job_root: bool = False) -> Callable:
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            if job_root or parent < 0:
                job = self._next_job
                self._next_job += 1
            else:
                job = self.spans[parent][4]
            index = len(self.spans)
            span = [name, perf_counter(), 0.0, parent, job]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            counted = _request_count(name, args, result)
            if counted is not None:
                self.counts[counted[0]] += counted[1]
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def self_times(self) -> Dict[str, float]:
        """Self seconds per span name, summed over every span."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), children in zip(self.spans, child_time):
            out[name] += (end - start) - children
        return dict(out)

    def inclusive_times(self) -> Dict[str, float]:
        """Wall seconds per span name, counting children but not nested
        calls of the same name twice."""
        out: Dict[str, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                out[name] += end - start
        return dict(out)

    def layer_self_times(self) -> Dict[str, float]:
        """Self seconds per layer (the span-name prefix before ``/``)."""
        out: Dict[str, float] = defaultdict(float)
        for name, seconds in self.self_times().items():
            out[name.split("/", 1)[0]] += seconds
        return dict(out)

    def write_jsonl(self, fh: TextIO, origin: float, **tags: Any) -> None:
        """One JSON line per span; times in seconds from ``origin``."""
        for name, start, end, parent, job in self.spans:
            fh.write(json.dumps({
                **tags,
                "name": name,
                "start": start - origin,
                "end": end - origin,
                "parent": parent,
                "job": job,
            }) + "\n")


def _resolve(module_name: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def patched(owner: Any, attr: str, make: Callable[[Callable], Callable]) -> Iterator[None]:
    """Replace ``owner.attr`` with ``make(original)`` for the block.
    On a class the function is read from its ``__dict__``, so restoring
    it leaves the class exactly as it was."""
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if not callable(original):
        raise TypeError(f"{owner!r}.{attr} is not a plain callable")
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


@contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Install a span wrapper on every :data:`WRAPPED` callable for the
    duration of the block, restoring the originals on exit."""
    with ExitStack() as stack:
        for module_name, path, layer, job_root in WRAPPED:
            owner, attr = _resolve(module_name, path)
            stack.enter_context(patched(
                owner, attr,
                lambda fn, name=f"{layer}/{path}", root=job_root: tracer.wrap(name, fn, root),
            ))
        yield tracer
