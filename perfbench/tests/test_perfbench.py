"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench/tests -q

The end-to-end cases start the benchmark as a subprocess and take
about a minute in total.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MANIFEST = json.loads((BENCH / "manifest.json").read_text())
DIGESTS = json.loads((BENCH / "digests.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
HELD_OUT_SEED = 424242


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["perfbench"]
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200
        assert "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and m["better"] in ("lower", "higher")
        assert UNIT.match(m["unit"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert len(json.dumps(SPEC)) <= 64 * 1024


def test_every_layer_metric_names_an_end_to_end_metric_and_workload():
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    assert set(MANIFEST["moves"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric, moves in MANIFEST["moves"].items():
        assert moves, metric
        for target, names in moves.items():
            assert target in end_to_end, (metric, target)
            assert names and set(names) <= workloads, (metric, names)


def test_manifest_and_registry_name_the_benchmark_workloads():
    names = [w["name"] for w in SPEC["workloads"]]
    assert list(MANIFEST["workloads"]) == names
    assert list(WORKLOADS) == names
    for record in MANIFEST["workloads"].values():
        assert record["reason"] and record["argv"] and record["heavy_layers"]


def test_every_wrapped_callable_exists_in_the_program():
    for module_name, path, layer, _ in spans.WRAPPED:
        owner, attr = spans._resolve(module_name, path)
        assert callable(getattr(owner, attr)), f"{module_name}.{path}"
        assert f"{layer}_s" in MANIFEST["moves"], layer


def test_self_time_subtracts_child_spans():
    tracer = spans.Tracer()
    tracer.spans = [
        ["a/x", 0.0, 10.0, -1, 0],
        ["b/y", 1.0, 4.0, 0, 0],
        ["c/z", 2.0, 3.0, 1, 0],
        ["b/y", 5.0, 6.0, 0, 0],
    ]
    assert tracer.self_times() == {"a/x": 6.0, "b/y": 3.0, "c/z": 1.0}
    assert tracer.inclusive_times() == {"a/x": 10.0, "b/y": 4.0, "c/z": 1.0}


@pytest.mark.parametrize("seed", [1, 5, HELD_OUT_SEED])
def test_every_fleet_seed_offers_the_same_load(seed):
    from workloads import FLEET_HEAVIEST, FLEET_REQUESTS, FLEET_TENANTS

    workload = WORKLOADS["fleet"]
    span, max_rate = workload.load(seed)
    jobs = workload.build_inputs(seed)
    offered = [span * t.profile.rate for job in jobs for t in job.tenants]
    assert len(offered) == FLEET_TENANTS
    assert sum(offered) == pytest.approx(FLEET_REQUESTS, rel=1e-9)
    assert max(offered) == pytest.approx(FLEET_HEAVIEST, rel=1e-9)
    assert max_rate * span == pytest.approx(FLEET_HEAVIEST, rel=1e-12)
    assert "--span" in workload.argvs(seed, ROOT)[0]


def test_tracing_changes_no_simulated_output(tmp_path):
    workload = WORKLOADS["study"]
    jobs = workload.build_inputs(HELD_OUT_SEED)
    argvs = workload.argvs(HELD_OUT_SEED, tmp_path)[:2]
    first = workload.run_pass(argvs, jobs)
    again = workload.run_pass(argvs, jobs)
    tracer = spans.Tracer()
    with spans.traced(tracer):
        traced = workload.run_pass(argvs, jobs)
    assert first.digest == again.digest == traced.digest
    assert first.failed == traced.failed == 0
    layers = tracer.layer_self_times()
    assert {"cli.self", "disk.columnar", "core.burstiness", "stats.hurst"} <= set(layers)
    assert tracer.counts["disk.columnar_requests"] == tracer.counts["disk.requests"] > 0
    assert {span[4] for span in tracer.spans} == {0, 1}
    from repro.cli.main import main

    assert not hasattr(main, "__wrapped__")


def test_recorded_digest_repeats():
    assert set(DIGESTS) == set(WORKLOADS)
    seed = min(int(s) for s in DIGESTS["tiered-writes"])
    workload = WORKLOADS["tiered-writes"]
    workdir = ROOT / ".perfbench_run"
    workdir.mkdir(exist_ok=True)
    result = workload.run_pass(workload.argvs(seed, workdir), workload.build_inputs(seed))
    assert result.digest == DIGESTS["tiered-writes"][str(seed)]


@pytest.mark.parametrize("workload,trace", [("tiered-writes", "0"), ("study", "1")])
def test_held_out_seed_runs_clean(workload, trace):
    assert str(HELD_OUT_SEED) not in DIGESTS[workload]
    done = run_bench("--workload", workload, "--seed", str(HELD_OUT_SEED),
                     "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[kind]}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["disk.columnar_share"]["value"] == 1.0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "study", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
