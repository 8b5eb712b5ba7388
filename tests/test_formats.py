"""SPC and MSR Cambridge files read through the ingest parser registry."""

import pytest

from repro.errors import TraceFormatError
from repro.traces.ingest import get_parser


def parse_spc(path, asu=None, **kwargs):
    return get_parser("spc", asu=asu).parse(path, **kwargs)


def parse_msr(path, disknum=None, **kwargs):
    return get_parser("msr", disknum=disknum).parse(path, **kwargs)


@pytest.fixture
def spc_file(tmp_path):
    path = tmp_path / "financial.spc"
    path.write_text(
        "# header comment\n"
        "0,1000,4096,R,0.5\n"
        "1,2000,8192,W,0.6\n"
        "0,1008,4096,r,0.75\n"
        "\n"
        "0,5000,512,W,1.0\n"
    )
    return path


@pytest.fixture
def msr_file(tmp_path):
    ticks = 10_000_000  # 1 second
    path = tmp_path / "msr.csv"
    path.write_text(
        f"{ticks},host,0,Read,512000,4096,100\n"
        f"{2 * ticks},host,1,Write,1024000,8192,200\n"
        f"{3 * ticks},host,0,Write,2048000,4096,300\n"
    )
    return path


class TestSpc:
    def test_reads_all_asus(self, spc_file):
        trace = parse_spc(spc_file)
        assert len(trace) == 4
        assert trace.times[0] == 0.0  # normalized to start at 0
        assert trace.times[-1] == pytest.approx(0.5)
        assert trace.nsectors.tolist() == [8, 16, 8, 1]
        assert trace.is_write.tolist() == [False, True, False, True]

    def test_asu_filter(self, spc_file):
        trace = parse_spc(spc_file, asu=0)
        assert len(trace) == 3
        assert not trace.is_write[:2].any()

    def test_max_requests(self, spc_file):
        assert len(parse_spc(spc_file, max_requests=2)) == 2

    def test_label_defaults_to_stem(self, spc_file):
        assert parse_spc(spc_file).label == "financial"
        assert parse_spc(spc_file, label="x").label == "x"

    def test_no_match_rejected(self, spc_file):
        with pytest.raises(TraceFormatError):
            parse_spc(spc_file, asu=99)

    def test_bad_opcode_rejected(self, tmp_path):
        path = tmp_path / "bad.spc"
        path.write_text("0,0,512,X,0.0\n")
        with pytest.raises(TraceFormatError):
            parse_spc(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "bad.spc"
        path.write_text("0,0,512\n")
        with pytest.raises(TraceFormatError):
            parse_spc(path)

    def test_malformed_number_rejected(self, tmp_path):
        path = tmp_path / "bad.spc"
        path.write_text("0,zero,512,R,0.0\n")
        with pytest.raises(TraceFormatError):
            parse_spc(path)

    def test_nonphysical_rejected(self, tmp_path):
        path = tmp_path / "bad.spc"
        path.write_text("0,0,0,R,0.0\n")
        with pytest.raises(TraceFormatError):
            parse_spc(path)


class TestMsr:
    def test_reads_and_converts(self, msr_file):
        trace = parse_msr(msr_file)
        assert len(trace) == 3
        assert trace.times.tolist() == [0.0, 1.0, 2.0]  # seconds from start
        assert trace.lbas[0] == 1000  # 512000 bytes / 512
        assert trace.is_write.tolist() == [False, True, True]

    def test_disk_filter(self, msr_file):
        trace = parse_msr(msr_file, disknum=0)
        assert len(trace) == 2

    def test_max_requests(self, msr_file):
        assert len(parse_msr(msr_file, max_requests=1)) == 1

    def test_no_match_rejected(self, msr_file):
        with pytest.raises(TraceFormatError):
            parse_msr(msr_file, disknum=7)

    def test_bad_type_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,h,0,Erase,0,512,0\n")
        with pytest.raises(TraceFormatError):
            parse_msr(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,h,0,Read,0\n")
        with pytest.raises(TraceFormatError):
            parse_msr(path)


class TestEndToEnd:
    def test_imported_trace_analyzable(self, spc_file, tiny_spec):
        from repro.core.timescales import run_millisecond_study

        trace = parse_spc(spc_file)
        # The toy file spans half a second: use a sub-second window scale.
        study = run_millisecond_study(trace, tiny_spec, utilization_scales=(0.1,))
        assert study.summary.n_requests == 4
