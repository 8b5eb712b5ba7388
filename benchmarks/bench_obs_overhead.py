"""P5 — Observability overhead: metrics must be (nearly) free.

Measures the replay cost of the same workload with observability off,
at ``metrics`` level, and at ``trace`` level, and writes the numbers to
``BENCH_obs.json`` at the repo root. Two guarantees are enforced:

* **Bit-identity** — a run with any observer attached produces exactly
  the same per-request ``start_times`` and ``service_times`` as the
  unobserved run (observability never touches the RNG stream or the
  engine selection);
* **Overhead bound** — ``metrics`` level costs at most
  ``OVERHEAD_BOUND`` (8%; 25% in quick mode, whose small traces
  amortize per-run fixed costs far less) extra wall time on cache-off
  FCFS through the columnar serve loop, and ``trace`` level at most
  ``TRACE_OVERHEAD_BOUND`` (3x): the serve loop collects seek rows in
  local lists and the columnar event ring records batches as array
  appends, rendering ``TraceEvent`` objects only on read, so full
  tracing pays no Python object per request (it used to cost ~10x).

Each overhead is the median, over many rounds, of the per-round ratio
of a level's wall time to the unobserved run's in the same round. Each
round times ``off`` and ``metrics`` back to back, in an order that
alternates from round to round, and then ``trace``, so host-load drift
hits both sides of the tight metrics ratio alike.

Run directly (``python benchmarks/bench_obs_overhead.py``) or via
pytest; both rewrite the artifact. Set ``REPRO_BENCH_QUICK=1`` (the CI
perf-smoke job does) for a shorter span and fewer repetitions — both
bounds are still asserted.
"""

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
from _common import DRIVE, SEED, save_result

from repro.core.report import Table
from repro.disk.cache import CacheConfig
from repro.disk.simulator import DiskSimulator
from repro.obs import Observer
from repro.synth.profiles import get_profile

ARTIFACT = Path(__file__).parent.parent / "BENCH_obs.json"

#: ``REPRO_BENCH_QUICK=1``: shrink the span/repetitions for CI smoke runs.
QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"

#: Heavy workload: fixed costs are amortized over many requests, so any
#: *per-request* observability cost shows up clearly.
PROFILE = "database"
RATE = 500.0
SPAN = 20.0 if QUICK else 120.0

#: Acceptance ceiling for metrics-level relative overhead. The metrics
#: fill is a handful of vectorized passes (~tens of ns per request since
#: the histogram's analytic log-bucketing replaced ``searchsorted``);
#: the bound is sized to flag any *algorithmic* regression — a
#: per-request Python path costs 10x, not 8% — while leaving headroom
#: for CPU-frequency jitter on slow shared runners, where the same
#: fixed cost measures anywhere between 2% and 6%. Quick mode replays
#: ~6x fewer requests, so per-run fixed costs (observer construction,
#: ufunc dispatch) weigh proportionally more; its bound is widened to
#: match — still an order of magnitude below the regression class the
#: bound exists to catch.
OVERHEAD_BOUND = 0.25 if QUICK else 0.08

#: Acceptance ceiling for trace-level overhead, as a slowdown factor
#: (t_trace / t_off). Columnar event recording holds measured overhead
#: near 1.7-1.9x on this workload (seek rows included); the pinned bound
#: stays loose for noisy shared boxes.
TRACE_OVERHEAD_BOUND = 3.0

#: Timing rounds; each runs every level once. Odd, so the median of the
#: per-round ratios is one observed round.
ROUNDS = 11 if QUICK else 31

#: The levels timed in every round.
LEVELS = ("off", "metrics", "trace")


def _workload():
    drive = DRIVE.with_cache(CacheConfig.disabled())
    profile = get_profile(PROFILE).with_rate(RATE)
    trace = profile.synthesize(
        span=SPAN, capacity_sectors=drive.capacity_sectors, seed=SEED
    )
    return drive, trace


def _round_times(drive, trace):
    """Wall times per observability level, one list entry per round.

    Even rounds run ``off, metrics, trace``; odd rounds run ``metrics,
    off, trace``. A fresh :class:`Observer` is built inside the timed
    region on every run — observer construction is part of the cost a
    user pays.
    """
    times = {level: [] for level in LEVELS}
    for r in range(ROUNDS):
        pair = ("off", "metrics") if r % 2 == 0 else ("metrics", "off")
        for level in pair + ("trace",):
            t0 = time.perf_counter()
            obs = None if level == "off" else Observer(level)
            DiskSimulator(drive, scheduler="fcfs", seed=SEED, obs=obs).run(trace)
            times[level].append(time.perf_counter() - t0)
    return {level: np.asarray(values) for level, values in times.items()}


def assert_bit_identical(drive, trace):
    """Observed runs must match the unobserved run array-for-array."""
    baseline = DiskSimulator(drive, scheduler="fcfs", seed=SEED).run(trace)
    for level in ("metrics", "trace"):
        observed = DiskSimulator(
            drive, scheduler="fcfs", seed=SEED, obs=Observer(level)
        ).run(trace)
        assert np.array_equal(baseline.start_times, observed.start_times), level
        assert np.array_equal(baseline.service_times, observed.service_times), level
    return baseline


def measure():
    """Time the three observability levels; returns the row dicts."""
    drive, trace = _workload()
    baseline = assert_bit_identical(drive, trace)
    times = _round_times(drive, trace)
    rows = []
    for level in LEVELS:
        best = float(times[level].min())
        ratio = float(np.median(times[level] / times["off"]))
        rows.append(
            {
                "level": level,
                "n_requests": len(trace),
                "best_seconds": round(best, 6),
                "requests_per_sec": round(len(trace) / best, 1),
                "overhead": round(ratio - 1.0, 4),
            }
        )
    return rows, len(trace), float(baseline.utilization)


def write_artifact(rows, n_requests, utilization):
    metrics = next(r for r in rows if r["level"] == "metrics")
    traced = next(r for r in rows if r["level"] == "trace")
    payload = {
        "schema": 2,
        "quick": QUICK,
        "generated_by": "benchmarks/bench_obs_overhead.py",
        "seed": SEED,
        "workload": {
            "profile": PROFILE, "rate": RATE, "span": SPAN,
            "n_requests": n_requests, "utilization": round(utilization, 4),
        },
        "rounds": ROUNDS,
        "levels": rows,
        "metrics_overhead": metrics["overhead"],
        "overhead_bound": OVERHEAD_BOUND,
        "trace_slowdown": round(traced["overhead"] + 1.0, 4),
        "trace_slowdown_bound": TRACE_OVERHEAD_BOUND,
        "bit_identical": True,  # asserted in measure(); a failure raises
    }
    ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def render_table(rows):
    table = Table(
        ["level", "requests", "best_s", "req_per_s", "overhead"],
        title="P5: observability overhead (FCFS replay, cache off)",
        precision=4,
    )
    for row in rows:
        table.add_row(
            [row["level"], row["n_requests"], row["best_seconds"],
             round(row["requests_per_sec"]), row["overhead"]]
        )
    return table.render()


def test_obs_overhead():
    rows, n_requests, utilization = measure()
    payload = write_artifact(rows, n_requests, utilization)
    save_result("obs_overhead", render_table(rows))
    assert ARTIFACT.exists()
    assert payload["metrics_overhead"] <= OVERHEAD_BOUND, payload
    assert payload["trace_slowdown"] <= TRACE_OVERHEAD_BOUND, payload


if __name__ == "__main__":
    computed_rows, total, util = measure()
    print(render_table(computed_rows))
    artifact = write_artifact(computed_rows, total, util)
    print(
        f"wrote {ARTIFACT} (metrics overhead "
        f"{artifact['metrics_overhead'] * 100:.2f}%)"
    )
