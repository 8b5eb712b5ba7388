"""The trace-ingest package: registry, per-format parsers, streaming."""

from pathlib import Path

import numpy as np
import pytest

from repro.errors import TraceFormatError
from repro.traces.ingest import (
    AlibabaParser,
    BlktraceParser,
    MsrParser,
    ParseRowError,
    SpcParser,
    TraceParser,
    TraceSource,
    available_formats,
    get_parser,
    register_parser,
)
from repro.traces.io import write_request_trace

SAMPLE_DIR = Path(__file__).parent / "golden" / "data" / "ingest"

#: (format, sample file, pinned good-record count) — regenerate samples
#: with tests/golden/data/ingest/_regen_samples.py if synthesis changes.
SAMPLES = [
    ("msr", "sample_msr.csv", 1087),
    ("blktrace", "sample_blktrace.txt", 1820),
    ("alibaba", "sample_alibaba.csv", 1704),
    ("spc", "sample_spc.csv", 3239),
]

#: Every committed sample plants exactly this many corrupt rows.
N_CORRUPT = 2


class TestRegistry:
    def test_builtin_formats_registered(self):
        formats = available_formats()
        for key in ("msr", "blktrace", "alibaba", "spc"):
            assert key in formats
            assert formats[key]  # every format carries a description

    def test_unknown_format_names_alternatives(self):
        with pytest.raises(TraceFormatError, match="blktrace"):
            get_parser("not-a-format")

    def test_options_reach_the_parser(self):
        parser = get_parser("msr", disknum=3)
        assert isinstance(parser, MsrParser)
        assert parser.disknum == 3

    def test_reregistering_same_class_is_idempotent(self):
        assert register_parser(MsrParser) is MsrParser

    def test_conflicting_registration_rejected(self):
        class Impostor(TraceParser):
            format = "msr"

        with pytest.raises(TraceFormatError, match="already registered"):
            register_parser(Impostor)

    def test_registration_requires_format_key(self):
        class Nameless(TraceParser):
            pass

        with pytest.raises(TraceFormatError, match="format key"):
            register_parser(Nameless)


class TestSampleRoundTrips:
    @pytest.mark.parametrize("fmt,filename,count", SAMPLES)
    def test_permissive_parse_pins_counts(self, fmt, filename, count):
        quarantine = []
        trace = get_parser(fmt).parse(
            SAMPLE_DIR / filename, strict=False, quarantine=quarantine
        )
        assert len(trace) == count
        assert len(quarantine) == N_CORRUPT
        # First-arrival normalization: every sample's capture clock
        # starts mid-recording, yet the parsed trace starts at 0.
        assert trace.times[0] == 0.0
        assert trace.span > 0
        assert 0.0 < trace.write_fraction < 1.0

    @pytest.mark.parametrize("fmt,filename,count", SAMPLES)
    def test_strict_parse_fails_with_location(self, fmt, filename, count):
        path = SAMPLE_DIR / filename
        with pytest.raises(TraceFormatError, match=rf"{filename}:\d+"):
            get_parser(fmt).parse(path, strict=True)

    @pytest.mark.parametrize("fmt,filename,count", SAMPLES)
    def test_quarantine_carries_path_and_lineno(self, fmt, filename, count):
        quarantine = []
        get_parser(fmt).parse(
            SAMPLE_DIR / filename, strict=False, quarantine=quarantine
        )
        for row in quarantine:
            assert str(row.path).endswith(filename)
            assert row.lineno > 0
            assert row.reason

    @pytest.mark.parametrize("fmt,filename,count", SAMPLES)
    def test_native_round_trip(self, fmt, filename, count, tmp_path):
        """Foreign parse -> native write -> native read is lossless for
        the columns both sides model (times keep microsecond fidelity)."""
        from repro.traces.io import read_request_trace

        trace = get_parser(fmt).parse(SAMPLE_DIR / filename, strict=False)
        out = tmp_path / "native.csv"
        write_request_trace(trace, out)
        back = read_request_trace(out)
        assert len(back) == len(trace)
        np.testing.assert_array_equal(back.lbas, trace.lbas)
        np.testing.assert_array_equal(back.nsectors, trace.nsectors)
        np.testing.assert_array_equal(back.is_write, trace.is_write)
        np.testing.assert_allclose(back.times, trace.times, atol=1e-6)

    @pytest.mark.parametrize("fmt,filename,count", SAMPLES)
    def test_chunked_stream_matches_whole_file(self, fmt, filename, count):
        """iter_chunks over small chunks reassembles to parse()'s result."""
        parser = get_parser(fmt)
        whole = parser.parse(SAMPLE_DIR / filename, strict=False)
        chunks = list(
            parser.iter_chunks(SAMPLE_DIR / filename, chunk_rows=97, strict=False)
        )
        assert len(chunks) > 1
        assert all(len(c) <= 97 for c in chunks)
        times = np.concatenate([c.times for c in chunks])
        lbas = np.concatenate([c.lbas for c in chunks])
        np.testing.assert_allclose(times, whole.times, atol=1e-9)
        np.testing.assert_array_equal(lbas, whole.lbas)


class TestParserDetails:
    def test_msr_units(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("128166372003061629,h,0,Write,1048576,4096,10\n")
        trace = get_parser("msr").parse(path)
        assert trace.lbas[0] == 1048576 // 512
        assert trace.nsectors[0] == 8
        assert bool(trace.is_write[0]) is True

    def test_msr_disknum_filter(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "100,h,0,Read,0,4096,1\n"
            "200,h,1,Read,4096,4096,1\n"
            "300,h,0,Read,8192,4096,1\n"
        )
        trace = get_parser("msr", disknum=0).parse(path)
        assert len(trace) == 2

    def test_blktrace_keeps_only_requested_actions(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text(
            "8,0 0 1 10.0 99 Q R 64 + 8 [app]\n"
            "8,0 0 2 10.1 99 D R 64 + 8 [app]\n"
            "8,0 0 3 10.2 99 C R 64 + 8 [app]\n"
        )
        assert len(get_parser("blktrace").parse(path)) == 1
        assert len(get_parser("blktrace", actions=("Q", "C")).parse(path)) == 2

    def test_blktrace_skips_non_event_noise(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text(
            "CPU0 (8,0):\n"
            "8,0 0 1 10.0 99 D W 64 + 8 [app]\n"
            "Total (8,0): 1 event\n"
        )
        assert len(get_parser("blktrace").parse(path, strict=True)) == 1

    def test_alibaba_header_and_device_filter(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "device_id,opcode,offset,length,timestamp\n"
            "1,R,0,4096,1000000\n"
            "2,W,4096,4096,2000000\n"
        )
        assert len(get_parser("alibaba").parse(path, strict=True)) == 2
        assert len(get_parser("alibaba", device=2).parse(path)) == 1

    def test_alibaba_microsecond_clock(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,R,0,4096,1000000\n1,R,0,4096,3500000\n")
        trace = get_parser("alibaba").parse(path)
        assert trace.times[1] == pytest.approx(2.5)

    def test_spc_asu_filter_and_sector_lbas(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0,100,4096,r,0.5\n1,200,4096,w,0.6\n")
        trace = get_parser("spc", asu=1).parse(path)
        assert len(trace) == 1
        assert trace.lbas[0] == 200  # SPC LBAs are already sectors

    def test_empty_file_rejected_in_both_modes(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# only a comment\n")
        for strict in (True, False):
            with pytest.raises(TraceFormatError, match="no usable"):
                get_parser("msr").parse(path, strict=strict)

    def test_max_requests_truncates(self):
        fmt, filename, count = SAMPLES[0]
        trace = get_parser(fmt).parse(
            SAMPLE_DIR / filename, strict=False, max_requests=50
        )
        assert len(trace) == 50

    def test_physical_invariants_quarantined(self, tmp_path):
        """Rows that parse but violate physics (negative LBA via offset
        math is impossible here, so use a negative timestamp) are policed
        by the shared pipeline, not each parser."""
        path = tmp_path / "t.csv"
        path.write_text("0,100,4096,r,-5.0\n0,100,4096,r,1.0\n")
        quarantine = []
        trace = get_parser("spc").parse(path, strict=False, quarantine=quarantine)
        assert len(trace) == 1
        assert "negative timestamp" in quarantine[0].reason


class TestTraceSource:
    def test_native_and_foreign_loads(self, tmp_path):
        fmt, filename, count = SAMPLES[0]
        src = TraceSource(str(SAMPLE_DIR / filename), format=fmt, strict=False)
        trace = src.load()
        assert len(trace) == count
        assert src.label == Path(filename).stem

        native = tmp_path / "native.csv"
        write_request_trace(trace, native)
        back = TraceSource(str(native)).load()
        assert len(back) == count

    def test_max_requests_applies_to_both_formats(self, tmp_path):
        fmt, filename, _ = SAMPLES[0]
        src = TraceSource(
            str(SAMPLE_DIR / filename), format=fmt, strict=False, max_requests=10
        )
        trace = src.load()
        assert len(trace) == 10
        native = tmp_path / "native.csv"
        write_request_trace(trace, native)
        assert len(TraceSource(str(native), max_requests=4).load()) == 4

    def test_unknown_format_rejected_at_construction(self):
        with pytest.raises(TraceFormatError, match="'native'"):
            TraceSource("x.csv", format="bogus")

    def test_is_picklable(self):
        import pickle

        src = TraceSource("somewhere.csv", format="msr")
        assert pickle.loads(pickle.dumps(src)) == src


class TestRunnerIntegration:
    def test_trace_job_replays_the_file(self):
        from repro.core.runner import ExperimentJob, ExperimentRunner
        from repro.disk.drive import cheetah_10k

        fmt, filename, count = SAMPLES[0]
        job = ExperimentJob(
            None,
            cheetah_10k(),
            trace=TraceSource(str(SAMPLE_DIR / filename), format=fmt, strict=False),
        )
        report = ExperimentRunner(workers=1).run_suite([job])
        result = report.results[0]
        assert result.n_requests == count
        assert result.profile == "sample_msr"
        assert result.span == pytest.approx(28.08, abs=0.1)

    def test_job_requires_exactly_one_source(self):
        from repro.core.runner import ExperimentJob
        from repro.disk.drive import cheetah_10k
        from repro.errors import SimulationError
        from repro.synth.profiles import get_profile

        with pytest.raises(SimulationError, match="exactly one"):
            ExperimentJob(None, cheetah_10k())
        with pytest.raises(SimulationError, match="exactly one"):
            ExperimentJob(
                get_profile("web"),
                cheetah_10k(),
                trace=TraceSource("x.csv"),
            )


def test_parse_row_error_is_value_error():
    assert issubclass(ParseRowError, ValueError)


def test_parser_classes_exported():
    for cls in (MsrParser, BlktraceParser, AlibabaParser, SpcParser):
        assert issubclass(cls, TraceParser)
        assert cls.format
