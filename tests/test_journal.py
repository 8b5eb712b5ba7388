"""The durable suite journal (`repro.core.journal`)."""

import json

import pytest

from repro.core.journal import (
    JOURNAL_SCHEMA_VERSION,
    SuiteJournal,
    job_fingerprint,
    suite_fingerprint,
)
from repro.core.runner import ExperimentJob, run_job
from repro.errors import JournalError
from repro.synth.profiles import get_profile


def _canon(payload):
    """NaN-tolerant equality surface (nan != nan under ==)."""
    return json.dumps(payload, sort_keys=True)


def _jobs(tiny_spec, n=3):
    return [
        ExperimentJob(
            profile=get_profile("web"),
            drive=tiny_spec,
            seed=seed,
            span=2.0,
        )
        for seed in range(n)
    ]


class TestFingerprints:
    def test_deterministic_across_calls(self, tiny_spec):
        a, b = _jobs(tiny_spec, 1)[0], _jobs(tiny_spec, 1)[0]
        assert job_fingerprint(a) == job_fingerprint(b)

    def test_sensitive_to_every_spec_field(self, tiny_spec):
        base = _jobs(tiny_spec, 1)[0]
        fp = job_fingerprint(base)
        for change in (
            dict(seed=99),
            dict(span=7.0),
            dict(scheduler="sstf"),
            dict(queue_depth=4),
            dict(fast_path=False),
        ):
            from dataclasses import replace

            assert job_fingerprint(replace(base, **change)) != fp, change

    def test_stable_across_processes(self, tiny_spec, tmp_path):
        # The fingerprint must not depend on memory addresses or hash
        # randomization — a resumed process must recompute it equal.
        import subprocess
        import sys

        script = tmp_path / "fp.py"
        script.write_text(
            "from repro.core.journal import job_fingerprint\n"
            "from repro.core.runner import ExperimentJob\n"
            "from repro.synth.profiles import get_profile\n"
            "from repro.disk.drive import DriveSpec\n"
            "from repro.units import ms\n"
            "spec = DriveSpec(name='tiny', rpm=10_000, heads=2,"
            " cylinders=2_000, nzones=4, outer_spt=300, inner_spt=200,"
            " single_cylinder_seek=ms(0.5), full_stroke_seek=ms(5.0))\n"
            "job = ExperimentJob(profile=get_profile('web'), drive=spec,"
            " seed=0, span=2.0)\n"
            "print(job_fingerprint(job))\n"
        )
        out = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd="/root/repo",
        ).stdout.strip()
        assert out == job_fingerprint(_jobs(tiny_spec, 1)[0])

    def test_suite_fingerprint_orders(self):
        assert suite_fingerprint(["a", "b"]) != suite_fingerprint(["b", "a"])


class TestFreshJournal:
    def test_writes_header(self, tiny_spec, tmp_path):
        jobs = _jobs(tiny_spec)
        path = tmp_path / "suite.jsonl"
        with SuiteJournal.open(path, jobs):
            pass
        header = json.loads(path.read_text().splitlines()[0])
        assert header["kind"] == "header"
        assert header["schema_version"] == JOURNAL_SCHEMA_VERSION
        assert header["n_jobs"] == len(jobs)
        assert header["fingerprints"] == [job_fingerprint(j) for j in jobs]

    def test_refuses_existing_file(self, tiny_spec, tmp_path):
        jobs = _jobs(tiny_spec)
        path = tmp_path / "suite.jsonl"
        SuiteJournal.open(path, jobs).close()
        with pytest.raises(JournalError, match="already exists.*--resume"):
            SuiteJournal.open(path, jobs)

    def test_record_and_reload_round_trip(self, tiny_spec, tmp_path):
        jobs = _jobs(tiny_spec)
        path = tmp_path / "suite.jsonl"
        result = run_job(jobs[1]).as_dict()
        with SuiteJournal.open(path, jobs) as journal:
            journal.record(1, result)
            assert journal.n_recorded == 1
        with SuiteJournal.open(path, jobs, resume=True) as resumed:
            assert resumed.resumed
            assert not resumed.recovered_torn_line
            assert _canon(resumed.completed_results()) == _canon({1: result})

    def test_record_validates_index(self, tiny_spec, tmp_path):
        jobs = _jobs(tiny_spec)
        with SuiteJournal.open(tmp_path / "s.jsonl", jobs) as journal:
            with pytest.raises(JournalError, match="outside"):
                journal.record(len(jobs), {})

    def test_record_after_close_rejected(self, tiny_spec, tmp_path):
        jobs = _jobs(tiny_spec)
        journal = SuiteJournal.open(tmp_path / "s.jsonl", jobs)
        journal.close()
        with pytest.raises(JournalError, match="closed"):
            journal.record(0, {})


class TestResumeValidation:
    def test_resume_requires_file(self, tiny_spec, tmp_path):
        with pytest.raises(JournalError, match="does not exist"):
            SuiteJournal.open(
                tmp_path / "missing.jsonl", _jobs(tiny_spec), resume=True
            )

    def test_torn_final_line_is_dropped(self, tiny_spec, tmp_path):
        jobs = _jobs(tiny_spec)
        path = tmp_path / "suite.jsonl"
        result = run_job(jobs[0]).as_dict()
        with SuiteJournal.open(path, jobs) as journal:
            journal.record(0, result)
        # Simulate a crash mid-append: a truncated trailing record.
        with path.open("a") as fh:
            fh.write('{"kind": "result", "fingerprint": "dead')
        with SuiteJournal.open(path, jobs, resume=True) as resumed:
            assert resumed.recovered_torn_line
            assert _canon(resumed.completed_results()) == _canon({0: result})

    def test_corruption_before_the_end_raises(self, tiny_spec, tmp_path):
        jobs = _jobs(tiny_spec)
        path = tmp_path / "suite.jsonl"
        with SuiteJournal.open(path, jobs) as journal:
            journal.record(0, run_job(jobs[0]).as_dict())
        lines = path.read_text().splitlines()
        lines.insert(1, "{broken")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="corrupt at line 2"):
            SuiteJournal.open(path, jobs, resume=True)

    def test_wrong_schema_version_rejected(self, tiny_spec, tmp_path):
        jobs = _jobs(tiny_spec)
        path = tmp_path / "suite.jsonl"
        SuiteJournal.open(path, jobs).close()
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["schema_version"] = 99
        lines[0] = json.dumps(header, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="schema_version 99"):
            SuiteJournal.open(path, jobs, resume=True)

    def test_v1_journal_refused(self, tiny_spec, tmp_path):
        # Schema 1 journals recorded bare job results; schema 2 records
        # one-member-or-more shard results, so a v1 journal must fail
        # loudly on resume rather than merge payloads of the old shape.
        jobs = _jobs(tiny_spec)
        path = tmp_path / "suite.jsonl"
        SuiteJournal.open(path, jobs).close()
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["schema_version"] = 1
        lines[0] = json.dumps(header, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="schema_version 1"):
            SuiteJournal.open(path, jobs, resume=True)

    def test_different_suite_rejected(self, tiny_spec, tmp_path):
        path = tmp_path / "suite.jsonl"
        SuiteJournal.open(path, _jobs(tiny_spec, 3)).close()
        with pytest.raises(JournalError, match="different suite"):
            SuiteJournal.open(path, _jobs(tiny_spec, 2), resume=True)

    def test_unknown_fingerprint_rejected(self, tiny_spec, tmp_path):
        jobs = _jobs(tiny_spec)
        path = tmp_path / "suite.jsonl"
        SuiteJournal.open(path, jobs).close()
        with path.open("a") as fh:
            fh.write(
                json.dumps(
                    {"kind": "result", "fingerprint": "f" * 24, "index": 0,
                     "result": {}}
                )
                + "\n"
            )
        with pytest.raises(JournalError, match="not in the suite"):
            SuiteJournal.open(path, jobs, resume=True)

    def test_unknown_record_kind_rejected(self, tiny_spec, tmp_path):
        jobs = _jobs(tiny_spec)
        path = tmp_path / "suite.jsonl"
        SuiteJournal.open(path, jobs).close()
        with path.open("a") as fh:
            fh.write(json.dumps({"kind": "mystery"}) + "\n")
        with pytest.raises(JournalError, match="unknown record kind"):
            SuiteJournal.open(path, jobs, resume=True)

    def test_empty_file_rejected(self, tiny_spec, tmp_path):
        path = tmp_path / "suite.jsonl"
        path.write_text("")
        with pytest.raises(JournalError, match="empty"):
            SuiteJournal.open(path, _jobs(tiny_spec), resume=True)

    def test_duplicate_jobs_share_a_record(self, tiny_spec, tmp_path):
        job = _jobs(tiny_spec, 1)[0]
        jobs = [job, job]
        path = tmp_path / "suite.jsonl"
        result = run_job(job).as_dict()
        with SuiteJournal.open(path, jobs) as journal:
            journal.record(0, result)
        with SuiteJournal.open(path, jobs, resume=True) as resumed:
            assert _canon(resumed.completed_results()) == _canon(
                {0: result, 1: result}
            )
