"""The benchmark's three workloads.

Each workload turns the benchmark seed into CLI argument vectors, runs
them through ``repro.cli.main.main`` in this process with stdout
captured, and hashes the simulated outputs of every pass. All three are
closed-loop batch runs: the next CLI call starts when the previous one
returns. None uses more than two processes.

Outside the timed passes, each workload also builds its inputs the way
the CLI will (the job list it expects) and replays one small job both
on the selected fast engine and on the reference event loop
(``fast_path=False``); the two must agree bit for bit.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from spans import patched

DRIVE = "enterprise-10k"
#: Studies per profile in one ``study`` pass (8 profiles x 4 = 32 calls).
STUDY_SEEDS = 4
STUDY_SPAN = 150.0
FLEET_DRIVES = 256
FLEET_TENANTS = 512
#: Requests a ``fleet`` pass offers in all, and on its heaviest tenant.
#: Under a fixed span and the CLI's default rate clip (2000 req/s), the
#: fleet's offered load ranged from 31000 to 47000 req/s across seeds and its
#: heaviest tenant from 1000 to 2000 req/s; placement gives that tenant a
#: drive to itself, so the heaviest drive job, and with it peak worker
#: memory and the job tail, followed it. Each seed therefore gets the
#: span and rate clip (``--span``, ``--max-rate``) that offer these two
#: loads; the seed still draws the tenants' rates below the clip, their
#: profiles and their placement.
FLEET_REQUESTS = 2_100_000
FLEET_HEAVIEST = 60_000
SUITE_SPAN = 150.0
SUITE_SEEDS = 2
#: Span of the one small job replayed against the reference loop.
REFERENCE_SPAN = 30.0


def derived_seeds(seed: int, count: int) -> List[int]:
    """``count`` well-spread program seeds from one benchmark seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


@dataclass
class PassResult:
    """What one pass over a workload's argv list did."""

    wall: float
    job_walls: List[float]
    requests: int
    attempted: int
    failed: int
    digest: str
    #: The suite's ``SuiteReport``; ``None`` for ``study``, which
    #: bypasses the runner.
    report: Optional[Any] = None
    errors: List[str] = field(default_factory=list)


def _call_cli(argv: Sequence[str]):
    """Run ``main(argv)``; returns (exit code, stdout, stderr)."""
    from repro.cli.main import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def _canonical_record(result) -> str:
    """A job result's simulated numbers (timings dropped) as JSON."""
    from repro.core.runner import SuiteReport

    record = result.as_dict()
    for key in SuiteReport.VOLATILE_RESULT_KEYS:
        record.pop(key, None)
    return json.dumps(record, sort_keys=True)


class Workload:
    """Base: subclasses define the argv list and the checks."""

    name = ""

    def argvs(self, seed: int, workdir: Path, workers: int = 2) -> List[List[str]]:
        raise NotImplementedError

    def build_inputs(self, seed: int) -> Sequence[Any]:
        """The jobs the CLI will run for this seed, built the way the CLI
        builds them; timed as part of set-up."""
        raise NotImplementedError

    def reference_check(self, jobs: Sequence[Any]) -> Optional[str]:
        """``None`` when a small job's fast replay equals the reference
        loop bit for bit, else a description of the mismatch."""
        raise NotImplementedError

    def run_pass(self, argvs: List[List[str]], jobs: Sequence[Any]) -> PassResult:
        raise NotImplementedError


class StudyWorkload(Workload):
    name = "study"

    def __init__(self) -> None:
        self._plans: Dict[int, List[Tuple[str, int]]] = {}

    def _plan(self, seed: int) -> List[Tuple[str, int]]:
        """``(profile, seed)`` per study call: the first ``STUDY_SEEDS``
        derived seeds per profile whose synthesized trace is not empty.
        The CLI refuses to study an empty trace, and the long compute
        gaps of ``hpc-scratch`` leave about one trace in sixty empty at
        this span. Memoized, so only the first call synthesizes."""
        if seed not in self._plans:
            from repro.disk.drive import cheetah_10k
            from repro.synth.profiles import available_profiles

            capacity = cheetah_10k().capacity_sectors
            candidates = derived_seeds(seed, 16 * STUDY_SEEDS)
            chosen = {
                name: list(islice(
                    (s for s in candidates
                     if len(profile.synthesize(STUDY_SPAN, capacity, seed=s))),
                    STUDY_SEEDS,
                ))
                for name, profile in sorted(available_profiles().items())
            }
            self._plans[seed] = [
                (name, seeds[k]) for k in range(STUDY_SEEDS)
                for name, seeds in chosen.items()
            ]
        return self._plans[seed]

    def argvs(self, seed, workdir, workers=2):
        return [
            ["study", "--profile", p, "--span", str(STUDY_SPAN), "--seed", str(s),
             "--drive", DRIVE, "--scheduler", "fcfs"]
            for p, s in self._plan(seed)
        ]

    def build_inputs(self, seed):
        return self._plan(seed)

    def reference_check(self, jobs):
        from repro.disk.drive import cheetah_10k
        from repro.disk.simulator import DiskSimulator
        from repro.synth.profiles import get_profile

        name, seed = jobs[0]
        drive = cheetah_10k()
        trace = get_profile(name).synthesize(
            REFERENCE_SPAN, drive.capacity_sectors, seed=seed
        )
        fast, ref = (
            DiskSimulator(drive, scheduler="fcfs", seed=seed, fast_path=f).run(trace)
            for f in (True, False)
        )
        for attr in ("start_times", "service_times"):
            if getattr(fast, attr).tobytes() != getattr(ref, attr).tobytes():
                return f"study {name} seed {seed}: {attr} differ from the reference loop"
        return None

    def run_pass(self, argvs, jobs):
        cli = importlib.import_module("repro.cli.main")
        captured: List[Any] = []

        def capture(original):
            def wrapper(*args, **kwargs):
                study = original(*args, **kwargs)
                captured.append(study)
                return study
            return wrapper

        digest = hashlib.sha256()
        job_walls, errors = [], []
        requests = failed = 0
        with patched(cli, "run_millisecond_study", capture):
            start = perf_counter()
            for argv in argvs:
                t0 = perf_counter()
                code, out, err = _call_cli(argv)
                job_walls.append(perf_counter() - t0)
                if code != 0 or not captured:
                    failed += 1
                    errors.append(f"{' '.join(argv)}: exit {code}: {err.strip()[-300:]}")
                    continue
                study = captured.pop()
                requests += len(study.trace)
                digest.update(out.encode())
                digest.update(study.simulation.start_times.tobytes())
                digest.update(study.simulation.service_times.tobytes())
            wall = perf_counter() - start
        return PassResult(
            wall=wall, job_walls=job_walls, requests=requests,
            attempted=len(argvs), failed=failed, digest=digest.hexdigest(),
            errors=errors,
        )


class _SuiteLike(Workload):
    """A workload of one CLI call that runs a suite through the runner;
    its digest is the report's ``canonical_json()``."""

    def reference_job(self, jobs):
        return jobs[0]

    def reference_check(self, jobs):
        from repro.core.runner import run_job

        job = dataclasses.replace(self.reference_job(jobs), span=REFERENCE_SPAN)
        fast = _canonical_record(run_job(job))
        ref = _canonical_record(run_job(dataclasses.replace(job, fast_path=False)))
        if fast != ref:
            return f"{self.name} job {job.label}: fast replay differs from the reference loop"
        return None

    def run_pass(self, argvs, jobs):
        from repro.core.runner import ExperimentRunner

        (argv,) = argvs
        captured: List[Any] = []
        depth = [0]

        def capture(original):
            def wrapper(*args, **kwargs):
                depth[0] += 1
                try:
                    report = original(*args, **kwargs)
                finally:
                    depth[0] -= 1
                if depth[0] == 0:
                    captured.append(report)
                return report
            return wrapper

        for flag in ("--json", "--journal"):  # a stale journal would resume
            if flag in argv:
                Path(argv[argv.index(flag) + 1]).unlink(missing_ok=True)
        with patched(ExperimentRunner, "run_suite", capture), \
                patched(ExperimentRunner, "run_sharded", capture):
            start = perf_counter()
            code, _, err = _call_cli(argv)
            wall = perf_counter() - start
        expected = len(jobs)
        errors = []
        if code != 0 or len(captured) != 1:
            errors.append(f"{' '.join(argv)}: exit {code}: {err.strip()[-300:]}")
        report = captured[-1] if captured else None
        if report is None:
            return PassResult(wall, [], 0, expected, expected, "", None, errors)
        if report.n_jobs != expected:
            errors.append(f"report has {report.n_jobs} jobs, expected {expected}")
        return PassResult(
            wall=wall,
            job_walls=[r.wall_seconds for r in report.results],
            requests=sum(r.n_requests for r in report.results),
            attempted=report.n_jobs,
            failed=len(report.failures),
            digest=hashlib.sha256(report.canonical_json().encode()).hexdigest(),
            report=report,
            errors=errors,
        )


class FleetWorkload(_SuiteLike):
    name = "fleet"

    def load(self, seed: int) -> Tuple[float, float]:
        """``(span, max_rate)`` at which this seed's tenants offer
        ``FLEET_REQUESTS`` requests, ``FLEET_HEAVIEST`` of them from each
        tenant at the rate clip."""
        from repro.fleet import sample_tenants

        raw = np.array([t.profile.rate for t in sample_tenants(
            FLEET_TENANTS, seed=derived_seeds(seed, 1)[0], max_rate=np.inf,
        )])
        low, high = 1.0, 1000.0
        for _ in range(60):
            span = (low + high) / 2
            offered = np.minimum(raw * span, FLEET_HEAVIEST).sum()
            low, high = (span, high) if offered < FLEET_REQUESTS else (low, span)
        return high, FLEET_HEAVIEST / high

    def argvs(self, seed, workdir, workers=2):
        span, max_rate = self.load(seed)
        return [[
            "fleet", "--drives", str(FLEET_DRIVES), "--tenants", str(FLEET_TENANTS),
            "--placement", "leastload", "--scheduler", "fcfs",
            "--span", repr(span), "--max-rate", repr(max_rate),
            "--seed", str(derived_seeds(seed, 1)[0]), "--drive", DRIVE,
            "--workers", str(workers), "--keep-going",
            "--json", str(workdir / "fleet.json"),
        ]]

    def build_inputs(self, seed):
        from repro.disk.drive import cheetah_10k
        from repro.fleet import FleetSpec, build_fleet_plan, sample_tenants

        fleet_seed = derived_seeds(seed, 1)[0]
        span, max_rate = self.load(seed)
        tenants = sample_tenants(FLEET_TENANTS, seed=fleet_seed, max_rate=max_rate)
        plan = build_fleet_plan(FleetSpec(
            n_drives=FLEET_DRIVES, tenants=tenants, drive=cheetah_10k(),
            placement="leastload", scheduler="fcfs", span=span, seed=fleet_seed,
        ))
        return plan.jobs

    def reference_job(self, jobs):
        # The drive with the lightest offered load: the reference loop
        # is slow on the fleet's saturated drives.
        return min(jobs, key=lambda job: sum(t.profile.rate for t in job.tenants))


class TieredWritesWorkload(_SuiteLike):
    """``run-suite`` of write-heavy profiles under moderate faults and a
    write-back SSD tier, journaled and fsync'd, on two workers."""

    name = "tiered-writes"
    profiles = ("email", "hpc-scratch", "database")

    def argvs(self, seed, workdir, workers=2):
        return [[
            "run-suite", "--profiles", *self.profiles, "--schedulers", "fcfs", "sstf",
            "--seeds", str(SUITE_SEEDS), "--base-seed", str(derived_seeds(seed, 1)[0]),
            "--span", str(SUITE_SPAN), "--drive", DRIVE,
            "--fault-profile", "moderate", "--tier", "wb",
            "--journal", str(workdir / f"{self.name}.journal"),
            "--workers", str(workers), "--keep-going",
            "--json", str(workdir / f"{self.name}.json"),
        ]]

    def build_inputs(self, seed):
        from repro.core.runner import experiment_matrix
        from repro.disk.drive import cheetah_10k
        from repro.disk.faults import get_fault_profile
        from repro.synth.profiles import get_profile
        from repro.tier import TierConfig

        return experiment_matrix(
            profiles=[get_profile(p) for p in self.profiles],
            drive=cheetah_10k(),
            schedulers=("fcfs", "sstf"),
            seeds_per_combo=SUITE_SEEDS,
            base_seed=derived_seeds(seed, 1)[0],
            span=SUITE_SPAN,
            faults=get_fault_profile("moderate"),
            tier=TierConfig(mode="wb"),
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        StudyWorkload(),
        FleetWorkload(),
        TieredWritesWorkload(),
    )
}
