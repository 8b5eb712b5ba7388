"""T28 — SSD tier: hit rate, HDD offload, and miss-tail inflation.

Replays the same skewed (``database``) workload through the hybrid
SSD/HDD tier at the paper's three observation timescales — a seconds
burst, a one-minute window, and a sustained five-minute run — once under
write-through and once under write-back admission, and writes the tier
statistics to ``BENCH_tier.json`` at the repo root.

The reproduction targets:

* write-back hit rate meets or beats write-through at every timescale
  (write-allocation captures the write working set wt never admits);
* the SSD absorbs a measurable fraction of bytes that would otherwise
  hit the HDD (``hdd_offload``);
* tier misses inflate the p99 response relative to hits under
  write-back at every timescale (the miss path pays HDD seek + rotation
  while hits ride flash).

The workload is concentrated on a hot region (1/64 of the drive) so the
tier capacity is commensurate with the working set; over the raw 90 GB
address space a 256 MiB tier never warms up and every policy looks the
same.

Run directly (``python benchmarks/bench_tier_hitrate.py``) or via
pytest; both rewrite the artifact. Set ``REPRO_BENCH_QUICK=1`` (the CI
tier-smoke job does) for shortened spans.
"""

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _common import DRIVE, SEED, save_result

from repro.core.latency import analyze_tier_tail
from repro.core.report import Table
from repro.disk.simulator import DiskSimulator
from repro.synth.profiles import get_profile
from repro.tier import TierConfig
from repro.units import MIB

ARTIFACT = Path(__file__).parent.parent / "BENCH_tier.json"

#: ``REPRO_BENCH_QUICK=1``: the shortened ``QUICK_TIMESCALES`` for CI.
QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"

#: Skewed workload and the fraction of the drive it concentrates on.
PROFILE, RATE, REGION_FRACTION = "database", 150.0, 64

#: The three observation timescales (name, span seconds).
TIMESCALES = (("burst", 5.0), ("window", 60.0), ("sustained", 300.0))
QUICK_TIMESCALES = (("burst", 2.0), ("window", 10.0), ("sustained", 30.0))

#: Tier sizing shared by both admission modes.
TIER_CAPACITY_BYTES = 256 * MIB
TIER_CHUNK_SECTORS = 2048
TIER_POLICY = "lru"


def _tier(mode):
    return TierConfig(
        mode=mode,
        policy=TIER_POLICY,
        capacity_bytes=TIER_CAPACITY_BYTES,
        chunk_sectors=TIER_CHUNK_SECTORS,
        migrate_interval=2.0,
        migrate_chunks_per_epoch=128,
    )


def _trace(span):
    region = DRIVE.capacity_sectors // REGION_FRACTION
    profile = get_profile(PROFILE).with_rate(RATE)
    return profile.synthesize(span=span, capacity_sectors=region, seed=SEED)


def measure():
    """Replay wt and wb at each timescale; returns
    ``{scale: {mode: (summary, TierTailAnalysis)}}``."""
    rows = {}
    for name, span in (QUICK_TIMESCALES if QUICK else TIMESCALES):
        trace = _trace(span)
        per_mode = {}
        for mode in ("wt", "wb"):
            result = DiskSimulator(DRIVE, seed=SEED, tier=_tier(mode)).run(trace)
            per_mode[mode] = (result.tier_summary, analyze_tier_tail(result))
        rows[name] = {"span": span, "modes": per_mode}
    return rows


def write_artifact(rows):
    payload = {
        "schema": 1,
        "generated_by": "benchmarks/bench_tier_hitrate.py",
        "seed": SEED,
        "quick": QUICK,
        "workload": {
            "profile": PROFILE,
            "rate": RATE,
            "drive": DRIVE.name,
            "region_fraction": REGION_FRACTION,
        },
        "tier": {
            "capacity_bytes": TIER_CAPACITY_BYTES,
            "chunk_sectors": TIER_CHUNK_SECTORS,
            "policy": TIER_POLICY,
        },
        "timescales": {},
    }
    for name, row in rows.items():
        scale = {"span_seconds": row["span"], "modes": {}}
        for mode, (summary, tail) in row["modes"].items():
            scale["modes"][mode] = {
                "n_requests": tail.n_requests,
                "n_hits": tail.n_hits,
                "n_misses": tail.n_misses,
                "hit_rate": round(summary["hit_rate"], 4),
                "hdd_offload": round(summary["hdd_offload"], 4),
                "flushed_bytes": summary["flushed_bytes"],
                "dirty_evictions": summary["dirty_evictions"],
                "promoted_chunks": summary["promoted_chunks"],
                "demoted_chunks": summary["demoted_chunks"],
                "hit_p99_ms": round(tail.hit.p99_response * 1e3, 4),
                "miss_p99_ms": round(tail.miss.p99_response * 1e3, 4),
                "miss_p99_inflation": round(tail.miss_inflation["p99"], 4),
            }
        payload["timescales"][name] = scale
    ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def render_table(rows):
    table = Table(
        ["scale", "mode", "requests", "hit_rate", "hdd_offload",
         "hit_p99_ms", "miss_p99_ms", "miss_p99_infl"],
        title="T28: SSD tier hit rate and miss-tail inflation (database)",
        precision=3,
    )
    for name, row in rows.items():
        for mode, (summary, tail) in row["modes"].items():
            table.add_row(
                [
                    name, mode, tail.n_requests,
                    summary["hit_rate"], summary["hdd_offload"],
                    tail.hit.p99_response * 1e3,
                    tail.miss.p99_response * 1e3,
                    tail.miss_inflation["p99"],
                ]
            )
    return table.render()


def test_tier_hitrate():
    rows = measure()
    payload = write_artifact(rows)
    save_result("tier_hitrate", render_table(rows))
    assert ARTIFACT.exists()
    for name, scale in payload["timescales"].items():
        wt, wb = scale["modes"]["wt"], scale["modes"]["wb"]
        # Write-allocation captures the write working set wt never admits.
        assert wb["hit_rate"] >= wt["hit_rate"], name
        # The tier measurably offloads the HDD in both modes.
        for mode in (wt, wb):
            assert 0.0 < mode["hdd_offload"] < 1.0, name
        # Under wb the miss path pays the HDD premium at the p99.
        assert wb["miss_p99_inflation"] > 1.0, name
        assert wb["n_hits"] + wb["n_misses"] == wb["n_requests"]


if __name__ == "__main__":
    computed = measure()
    print(render_table(computed))
    artifact = write_artifact(computed)
    sustained = artifact["timescales"]["sustained"]["modes"]
    print(
        f"wrote {ARTIFACT} (sustained wb hit rate "
        f"{sustained['wb']['hit_rate']}, wt {sustained['wt']['hit_rate']}, "
        f"wb miss p99 inflation {sustained['wb']['miss_p99_inflation']}x)"
    )
