"""The suite runner: characterize a whole profile set in one call.

Reproducing the paper means running the same analyses over every
workload and presenting them side by side. :func:`run_profile_studies`
does the loop; :func:`suite_table` renders the comparative overview (the
shape of the paper's summary tables) from the results.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core.report import Table
from repro.core.timescales import MillisecondStudy, run_millisecond_study
from repro.disk.drive import DriveSpec
from repro.errors import AnalysisError
from repro.synth.profiles import available_profiles


def run_profile_studies(
    drive: DriveSpec,
    profiles: Optional[Sequence[str]] = None,
    span: float = 120.0,
    seed: int = 0,
    scheduler: str = "fcfs",
) -> Dict[str, MillisecondStudy]:
    """Run the full millisecond study for each named profile.

    ``profiles`` defaults to every built-in profile. Returns studies
    keyed by profile name, in the given order.
    """
    catalog = available_profiles()
    names = list(profiles) if profiles is not None else sorted(catalog)
    if not names:
        raise AnalysisError("no profiles requested")
    unknown = [n for n in names if n not in catalog]
    if unknown:
        raise AnalysisError(
            f"unknown profiles {unknown}; available: {sorted(catalog)}"
        )
    return {
        name: run_millisecond_study(
            catalog[name], drive, span=span, seed=seed, scheduler=scheduler
        )
        for name in names
    }


def suite_table(studies: Dict[str, MillisecondStudy], precision: int = 3) -> Table:
    """The side-by-side overview of a suite run: one row per workload
    with the paper's headline statistics."""
    if not studies:
        raise AnalysisError("no studies to tabulate")
    table = Table(
        [
            "workload", "req_per_s", "utilization", "idle_frac",
            "idle_top10%_share", "hurst", "write_byte_frac", "seq_frac",
        ],
        title="workload suite overview",
        precision=precision,
    )
    for name, study in studies.items():
        idleness = study.idleness
        burst = study.burstiness
        table.add_row(
            [
                name,
                study.summary.request_rate,
                study.utilization.overall,
                idleness.idle_fraction if idleness else float("nan"),
                idleness.top_decile_time_share if idleness else float("nan"),
                burst.hurst_variance if burst else float("nan"),
                study.summary.write_byte_fraction,
                study.summary.sequentiality,
            ]
        )
    return table
