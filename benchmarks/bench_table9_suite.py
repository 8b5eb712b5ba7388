"""T9 — The full workload suite, side by side.

One call characterizes every built-in profile — including the streaming
(vod) and bursty-checkpoint (hpc-scratch) additions — and the overview
table shows the paper's findings holding across the whole spectrum:
moderate utilization everywhere except the deliberate saturator,
idleness with heavy-tailed structure, burstiness, and mixes spanning
read-streaming to write-dominated.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _common import DRIVE, SEED, save_result

from repro.core.suite import run_profile_studies, suite_table

SPAN = 120.0


def test_table9_suite(benchmark):
    studies = benchmark(run_profile_studies, DRIVE, None, SPAN, SEED)
    table = suite_table(studies)
    save_result("table9_suite", table.render())

    # Shape: the moderate majority and the saturated outlier.
    moderate = [
        name for name, s in studies.items()
        if name != "backup" and s.utilization.overall < 0.6
    ]
    assert len(moderate) == len(studies) - 1
    assert studies["backup"].utilization.overall > 0.7
    # The new profiles behave as designed.
    assert studies["vod"].summary.write_byte_fraction < 0.2
    assert studies["vod"].summary.sequentiality > 0.7
    assert studies["hpc-scratch"].summary.write_byte_fraction > 0.7
    # Idleness everywhere there is idleness to have.
    for name, study in studies.items():
        if name == "backup":
            continue
        assert study.idleness is not None, name
        assert study.idleness.idle_fraction > 0.4, name
