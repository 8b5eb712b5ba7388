"""End-to-end and per-layer benchmark of the ``repro-workloads`` CLI.

Run from the repository root::

    python3 perfbench/run.py --workload fleet --seed 3 --seconds 20 --trace 0

``--trace 0`` times the workload and prints the end-to-end metrics;
``--trace 1`` runs it inline (one process) with spans around each layer
and prints the per-layer metrics. Every metric is printed by name with
its unit; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Timings are host
seconds, in ``--trace 0`` runs rescaled to the speed of the reference
host by a calibration kernel timed in the same run (see
:class:`HostSpeed`). Simulated statistics serve only as identity checks,
and the drive model has no real-drive reference, so no accuracy is
claimed.
The exit code is 0 when every output check passed, 1 when one failed,
and 2 when the program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for journals, JSON payloads and the span dump.
WORKDIR = ROOT / ".perfbench_run"
#: Fresh-interpreter imports per run; ``setup_s`` is the median.
SETUP_REPEATS = 5
#: Timed passes per run, however short ``--seconds`` is. The job tail
#: percentile is fixed from this floor so it has at least ten samples
#: beyond it on every run.
MIN_PASSES = 4
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import repro.cli.main; "
    "print(time.perf_counter() - t)"
)
#: Median seconds of one :class:`HostSpeed` kernel on the 2-vCPU host the
#: bounds were tuned on. Every reported timing is rescaled to that
#: host's speed; never change it, or every timing moves.
REFERENCE_KERNEL_S = 0.12
#: Kernel runs before each timed pass.
KERNEL_REPEATS = 2


class HostSpeed:
    """A fixed kernel of the program's kinds of work (a per-element
    Python loop, numpy sorts and scans, many small numpy calls) that no
    change to the program can alter. The shared host's speed drifts by up
    to a quarter over minutes and moves the program's CPU time with it;
    timing this kernel between passes and dividing it out removes most
    of that drift from the reported timings. Its inputs are built and
    freed around each measurement, so they do not raise the peak memory
    the run reports."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def measure(self) -> None:
        import numpy as np

        array = np.random.default_rng(12345).random(50_000)
        small = np.ones(16)
        start = perf_counter()
        clock = total = 0.0
        for i in range(100_000):
            clock = max(clock, i * 1e-5) + 0.001 * (i & 7)
            total += clock
        for _ in range(20):
            ordered = np.sort(array)
            np.cumsum(ordered)
            np.searchsorted(ordered, array[:10_000])
        for _ in range(2000):
            np.add(small, 1.0)
        self.samples.append(perf_counter() - start)

    def scale(self) -> float:
        """Factor that turns this run's host seconds into seconds at
        the reference host's speed."""
        return REFERENCE_KERNEL_S / statistics.median(self.samples)


def import_seconds() -> float:
    """Import time of ``repro.cli.main`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip())


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def tail_percentile(min_samples: int) -> float:
    """Highest whole percentile with at least ten of ``min_samples``
    beyond it."""
    return math.floor(100.0 * (1.0 - 10.0 / min_samples)) / 100.0


def host_facts() -> Dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def recorded_digest(workload: str, seed: int):
    digests = json.loads((Path(__file__).parent / "digests.json").read_text())
    return digests.get(workload, {}).get(str(seed))


def run_timed(workload, seed: int, seconds: float, jobs, checks: List[str], speed: HostSpeed):
    """The ``--trace 0`` run: timed passes until ``seconds`` have been
    measured, with the host-speed kernel timed before each. Every pass
    must reproduce the first pass's digest."""
    argvs = workload.argvs(seed, WORKDIR)
    passes = []
    elapsed = 0.0
    while elapsed < seconds or len(passes) < MIN_PASSES:
        for _ in range(KERNEL_REPEATS):
            speed.measure()
        result = workload.run_pass(argvs, jobs)
        elapsed += result.wall
        passes.append(result)
        checks.extend(result.errors)
        if result.digest != passes[0].digest:
            checks.append(f"pass {len(passes)} digest {result.digest} != {passes[0].digest}")
    speed.measure()
    job_walls = sorted(w for p in passes for w in p.job_walls)
    q = tail_percentile(len(jobs) * MIN_PASSES)
    # Nearest rank: the ceil(q * n)-th smallest sample.
    tail = job_walls[max(0, math.ceil(q * len(job_walls)) - 1)] if job_walls else 0.0
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    host = {
        "wall_s": statistics.median(p.wall for p in passes),
        "requests_per_s": statistics.median(p.requests / p.wall for p in passes),
        # median_low reports a measured job, not the midpoint between
        # two job sizes when a pass mixes short and long jobs.
        "job_p50_s": statistics.median_low(job_walls) if job_walls else 0.0,
        "job_tail_s": tail,
    }
    scale = speed.scale()
    metrics = {name: value * scale for name, value in host.items()}
    metrics["requests_per_s"] = host["requests_per_s"] / scale
    metrics["peak_rss_mb"] = peak_rss_mb()
    metrics["completed_job_ratio"] = (attempted - failed) / attempted if attempted else 0.0
    notes = [
        f"host-speed scale {scale:.4f}: kernel median "
        f"{statistics.median(speed.samples):.4f} s over {len(speed.samples)} samples "
        f"vs {REFERENCE_KERNEL_S} s on the reference host",
        "unscaled host timings: "
        + ", ".join(f"{name} {value:.6g}" for name, value in host.items()),
        f"passes: {len(passes)} timed, {elapsed:.2f} s measured: "
        + " ".join(f"{p.wall:.3f}" for p in passes),
        f"job_tail_s is p{round(q * 100)} of {len(job_walls)} job samples "
        f"({sum(w > tail for w in job_walls)} beyond it)",
        f"digest: {passes[0].digest}",
    ]
    return passes[0], metrics, attempted, failed, notes


def run_traced(workload, seed: int, seconds: float, jobs, checks: List[str]):
    """The ``--trace 1`` run: one pass as configured (for the parallel
    efficiency and the digest), then inline untraced and traced passes
    alternating, never mixed with the timed runs."""
    from spans import Tracer, traced

    warm = workload.run_pass(workload.argvs(seed, WORKDIR), jobs)
    checks.extend(warm.errors)
    inline = workload.argvs(seed, WORKDIR, workers=1)
    plain, tracers, traced_passes = [], [], []
    elapsed = pair = 0.0
    while not traced_passes or elapsed + pair <= seconds:
        untraced = workload.run_pass(inline, jobs)
        tracer = Tracer()
        with traced(tracer):
            result = workload.run_pass(inline, jobs)
        for p in (untraced, result):
            checks.extend(p.errors)
            if p.digest != warm.digest:
                checks.append(f"inline digest {p.digest} != {warm.digest}")
        plain.append(untraced)
        traced_passes.append(result)
        tracers.append(tracer)
        pair = untraced.wall + result.wall
        elapsed += pair

    def layer(name: str) -> float:
        return statistics.median(t.layer_self_times().get(name, 0.0) for t in tracers)

    counts = tracers[-1].counts
    report = traced_passes[-1].report
    metrics: Dict[str, float] = {
        name + "_s": layer(name)
        for name in (
            "cli.self", "synth.synthesize", "fleet.sample_tenants", "fleet.placement",
            "fleet.multiplex", "fleet.qos", "disk.columnar", "disk.run_self",
            "disk.timeline", "core.summary", "core.utilization", "core.idleness",
            "core.busyness", "core.burstiness", "core.traffic", "core.dossier",
            "stats.hurst", "runner.dispatch", "runner.serialize", "journal.record",
        )
    }
    metrics.update({
        "synth.requests": counts["synth.requests"],
        "disk.columnar_share": (
            counts["disk.columnar_requests"] / counts["disk.requests"]
            if counts["disk.requests"] else 0.0
        ),
        "runner.parallel_efficiency": (
            sum(warm.job_walls) / (warm.report.workers * warm.wall) if warm.report else 0.0
        ),
        "runner.failed_jobs": len(report.failures) if report else 0,
        "runner.retries": report.retries if report else 0,
        "journal.records": counts["journal.records"],
        "tier.hit_rate": report.tier_hit_rate if report and report.tiered_results else 0.0,
        "tier.flushed_bytes": report.tier_flushed_bytes if report else 0,
        "tier.migrated_chunks": report.tier_migrated_chunks if report else 0,
        "faults.faulted_requests": report.n_faulted if report else 0,
        "faults.penalty_s": report.fault_penalty_seconds if report else 0.0,
        "trace.overhead_ratio": (
            statistics.median(p.wall for p in traced_passes)
            / statistics.median(p.wall for p in plain)
        ),
    })
    WORKDIR.mkdir(exist_ok=True)
    span_path = WORKDIR / f"spans-{workload.name}-{seed}.jsonl"
    origin = tracers[0].spans[0][1] if tracers[0].spans else 0.0
    with open(span_path, "w") as fh:
        for k, tracer in enumerate(tracers):
            tracer.write_jsonl(fh, origin, **{"pass": k})
    inclusive: Dict[str, float] = {}
    for name, seconds_ in tracers[-1].inclusive_times().items():
        layer_name = name.split("/", 1)[0]
        inclusive[layer_name] = inclusive.get(layer_name, 0.0) + seconds_
    widest = max(
        (n for n in inclusive if not n.startswith(("cli.", "runner."))),
        key=inclusive.get, default="none",
    )
    notes = [
        f"traced passes: {len(traced_passes)} inline, each after an untraced inline pass",
        f"widest layer span (children included): {widest} "
        f"{inclusive.get(widest, 0.0):.4f} s of {traced_passes[-1].wall:.4f} s",
        f"spans written to {span_path.relative_to(ROOT)}",
        f"digest: {warm.digest}",
    ]
    attempted = warm.attempted + sum(p.attempted for p in plain + traced_passes)
    failed = warm.failed + sum(p.failed for p in plain + traced_passes)
    return warm, metrics, attempted, failed, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "cli" / "main.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"available: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    workload = WORKLOADS[args.workload]
    WORKDIR.mkdir(exist_ok=True)
    checks: List[str] = []

    # Untimed first build: lazy imports, and the study's seed selection.
    workload.build_inputs(args.seed)
    setup, imports = [], []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        start = perf_counter()
        jobs = workload.build_inputs(args.seed)
        setup.append(imported + perf_counter() - start)
        imports.append(imported)
    mismatch = workload.reference_check(jobs)
    if mismatch is not None:
        checks.append(mismatch)

    if args.trace:
        warm, metrics, attempted, failed, notes = run_traced(
            workload, args.seed, args.seconds, jobs, checks
        )
    else:
        speed = HostSpeed()
        warm, metrics, attempted, failed, notes = run_timed(
            workload, args.seed, args.seconds, jobs, checks, speed
        )
    recorded = recorded_digest(workload.name, args.seed)
    if recorded is not None and recorded != warm.digest:
        checks.append(f"digest {warm.digest} != recorded {recorded}")
    if args.trace:
        metrics["cli.import_s"] = statistics.median(imports)
    else:
        metrics["setup_s"] = statistics.median(setup) * speed.scale()
        notes.append(f"unscaled setup_s {statistics.median(setup):.6g}")
    if failed:
        checks.append(f"{failed} of {attempted} jobs failed")

    facts = host_facts()
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in facts.items()))
    print("timings are host time, rescaled to the reference host's speed in "
          "--trace 0 runs; simulated statistics are identity checks; "
          "the drive model is unvalidated")
    for name in sorted(metrics):
        print(f"  {name:<28} {metrics[name]:>16.6g} {units[name]}")
    for note in notes:
        print(note)
    for problem in checks:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in sorted(metrics.items())
        },
    }))
    return 0 if not checks else 1


if __name__ == "__main__":
    sys.exit(main())
