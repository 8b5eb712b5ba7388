"""The repro-workloads command-line interface."""

import pytest

from repro.cli.main import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_profiles_lists_all(capsys):
    code, out, _ = run(capsys, "profiles")
    assert code == 0
    for name in ("web", "email", "database", "backup"):
        assert name in out


def test_study_reports_sections(capsys):
    code, out, _ = run(capsys, "study", "--profile", "web", "--span", "20")
    assert code == 0
    for heading in ("Workload", "Utilization", "Idleness", "Read/write dynamics"):
        assert heading in out


def test_study_unknown_profile_fails_cleanly(capsys):
    code, out, err = run(capsys, "study", "--profile", "nope", "--span", "5")
    assert code == 2
    assert "error:" in err


def test_synth_and_analyze_ms_roundtrip(tmp_path, capsys):
    trace_path = tmp_path / "t.csv"
    code, out, _ = run(
        capsys, "synth-ms", "--profile", "database", "--span", "15",
        "-o", str(trace_path),
    )
    assert code == 0
    assert trace_path.exists()
    assert "wrote" in out

    code, out, _ = run(capsys, "analyze-ms", str(trace_path))
    assert code == 0
    assert "database" in out
    assert "Utilization" in out


def test_analyze_ms_with_scheduler(tmp_path, capsys):
    trace_path = tmp_path / "t.csv"
    run(capsys, "synth-ms", "--profile", "web", "--span", "10", "-o", str(trace_path))
    code, out, _ = run(capsys, "analyze-ms", str(trace_path), "--scheduler", "sstf")
    assert code == 0


def test_synth_and_analyze_hourly(tmp_path, capsys):
    path = tmp_path / "h.jsonl"
    code, out, _ = run(
        capsys, "synth-hourly", "--drives", "8", "--weeks", "1", "-o", str(path)
    )
    assert code == 0
    assert "8 drives" in out

    code, out, _ = run(capsys, "analyze-hourly", str(path))
    assert code == 0
    assert "Hour-scale analysis" in out
    assert "diurnal" in out


def test_synth_and_analyze_family(tmp_path, capsys):
    path = tmp_path / "f.csv"
    code, out, _ = run(capsys, "synth-family", "--drives", "200", "-o", str(path))
    assert code == 0

    code, out, _ = run(capsys, "analyze-family", str(path))
    assert code == 0
    assert "Family analysis" in out
    assert "Gini" in out


def test_drive_choice_respected(capsys):
    code, out, _ = run(
        capsys, "study", "--profile", "web", "--span", "10", "--drive", "enterprise-15k"
    )
    assert code == 0
    assert "enterprise-15k" in out


def test_run_suite_matrix(tmp_path, capsys):
    json_path = tmp_path / "suite.json"
    code, out, _ = run(
        capsys, "run-suite", "--profiles", "web", "database",
        "--schedulers", "fcfs", "sstf", "--span", "5", "--workers", "1",
        "--json", str(json_path),
    )
    assert code == 0
    assert "4 jobs" in out
    for token in ("web", "database", "fcfs", "sstf", "replay_req_s"):
        assert token in out

    import json

    payload = json.loads(json_path.read_text())
    assert payload["drive"] == "enterprise-10k"
    assert len(payload["jobs"]) == 4
    assert all(job["n_requests"] > 0 for job in payload["jobs"])


def test_run_suite_parallel_workers(capsys):
    code, out, _ = run(
        capsys, "run-suite", "--profiles", "web", "--span", "5",
        "--seeds", "2", "--workers", "2",
    )
    assert code == 0
    assert "2 jobs" in out


def test_run_suite_unknown_profile_fails_cleanly(capsys):
    code, _, err = run(capsys, "run-suite", "--profiles", "nope", "--workers", "1")
    assert code == 2
    assert "unknown profiles" in err


def _patch_failing_database_jobs(monkeypatch):
    from repro.core import runner as runner_module

    real = runner_module.run_job

    def flaky(job):
        if job.profile.name == "database":
            raise ValueError("injected database failure")
        return real(job)

    monkeypatch.setattr(runner_module, "run_job", flaky)


def test_run_suite_keep_going_reports_failures(tmp_path, capsys, monkeypatch):
    _patch_failing_database_jobs(monkeypatch)
    json_path = tmp_path / "suite.json"
    code, out, err = run(
        capsys, "run-suite", "--profiles", "web", "database", "--span", "5",
        "--workers", "1", "--keep-going", "--json", str(json_path),
    )
    assert code == 1
    assert "failures: 1 of 2" in out
    assert "ValueError" in out
    assert "injected database failure" in out
    assert "web" in out  # the surviving job is still tabulated

    import json

    payload = json.loads(json_path.read_text())
    assert len(payload["jobs"]) == 1
    assert len(payload["failures"]) == 1
    assert payload["failures"][0]["error_type"] == "ValueError"
    assert "Traceback" in payload["failures"][0]["traceback"]


def test_run_suite_fails_fast_by_default(capsys, monkeypatch):
    _patch_failing_database_jobs(monkeypatch)
    code, out, err = run(
        capsys, "run-suite", "--profiles", "database", "web", "--span", "5",
        "--workers", "1",
    )
    assert code == 1
    assert "error:" in err
    assert "failures: 1" in out


def test_run_suite_retry_flags_accepted(capsys):
    code, out, _ = run(
        capsys, "run-suite", "--profiles", "web", "--span", "5",
        "--workers", "1", "--max-retries", "2", "--job-timeout", "60",
    )
    assert code == 0
    assert "1 jobs" in out


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_unknown_drive():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["study", "--profile", "web", "--drive", "floppy"])


def test_suite_commands_share_suite_flags():
    import argparse

    parser = build_parser()
    (subparsers,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    shared = (
        "--workers", "--max-retries", "--keep-going", "--journal", "--resume",
        "--chaos", "--chaos-seed", "--json",
    )

    def flags(command):
        actions = {
            option: action
            for action in subparsers.choices[command]._actions
            for option in action.option_strings
        }
        return {
            flag: (
                actions[flag].dest, actions[flag].default,
                actions[flag].type, actions[flag].choices,
            )
            for flag in shared
        }

    assert flags("run-suite") == flags("fleet")
