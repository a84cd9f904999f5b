"""CLI surface of the analysis plane: analyze caching, `repro index`."""

import json
import os
import struct

import pytest

from repro.capstore import sidecar_path
from repro.cli import main
from repro.netstack.pcap import scan_pcap_offsets
from repro.obs import load_snapshot


class TestAnalyzeCaching:
    def test_second_run_hits_cache_with_identical_output(
        self, pcap_copy, tmp_path, capsys
    ):
        cold_metrics = str(tmp_path / "cold.json")
        warm_metrics = str(tmp_path / "warm.json")
        assert main(["analyze", pcap_copy, "--metrics", cold_metrics]) == 0
        cold_out = capsys.readouterr().out
        assert main(["analyze", pcap_copy, "--metrics", warm_metrics]) == 0
        warm_out = capsys.readouterr().out
        assert warm_out == cold_out

        cold = load_snapshot(cold_metrics)
        warm = load_snapshot(warm_metrics)
        assert cold["counters"]["capstore.cache"]["values"] == {"miss": 1}
        assert "index.build" in cold["timers"]
        assert warm["counters"]["capstore.cache"]["values"] == {"hit": 1}
        assert "index.load" in warm["timers"]
        assert "index.build" not in warm["timers"]

    def test_no_cache_rebuilds_identically_and_writes_no_sidecar(
        self, pcap_copy, capsys
    ):
        assert main(["analyze", pcap_copy, "--no-cache"]) == 0
        first_out = capsys.readouterr().out
        assert not os.path.exists(sidecar_path(pcap_copy))
        assert main(["analyze", pcap_copy, "--no-cache"]) == 0
        assert capsys.readouterr().out == first_out
        assert not os.path.exists(sidecar_path(pcap_copy))

    def test_cached_run_renders_same_tables_as_no_cache(self, pcap_copy, capsys):
        assert main(["analyze", pcap_copy, "--no-cache", "--tables", "rto"]) == 0
        uncached = capsys.readouterr().out
        assert main(["analyze", pcap_copy, "--tables", "rto"]) == 0
        capsys.readouterr()
        assert main(["analyze", pcap_copy, "--tables", "rto"]) == 0
        cached = capsys.readouterr().out
        assert cached == uncached


class TestTablesValidation:
    def test_unknown_table_aborts_before_pcap_read(self, tmp_path, capsys):
        missing = str(tmp_path / "never-written.pcap")
        assert main(["analyze", missing, "--tables", "5"]) == 2
        message = capsys.readouterr().err
        assert "unknown table name 5" in message
        assert "valid names: 1, 2, 3, 4, rto, lengths" in message

    def test_multiple_unknown_names_all_reported(self, tmp_path, capsys):
        missing = str(tmp_path / "never-written.pcap")
        assert main(["analyze", missing, "--tables", "rt0", "2", "bogus"]) == 2
        assert "unknown table names bogus, rt0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "live"])
    def test_the_error_names_the_command_that_ran(self, tmp_path, capsys, command):
        missing = str(tmp_path / "never-written.pcap")
        assert main([command, missing, "--tables", "rt0"]) == 2
        assert capsys.readouterr().err.startswith(
            "repro %s: unknown table name rt0 (valid names: " % command
        )

    def test_valid_selection_passes_validation(self, month_pcap, capsys):
        assert main(["analyze", month_pcap, "--no-cache", "--tables", "2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "Table 3" not in out


class TestClassifyCaching:
    def test_cached_classify_json_matches_cold(self, pcap_copy, capsys):
        assert main(["classify", pcap_copy, "--json"]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main(["classify", pcap_copy, "--json"]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["stats"] == cold["stats"]
        sanitize = "sanitize.packets"
        assert (
            warm["metrics"]["counters"][sanitize]["values"]
            == cold["metrics"]["counters"][sanitize]["values"]
        )
        assert "classify/index.load" in warm["metrics"]["timers"]


class TestIndexCommand:
    def test_build_then_validate(self, pcap_copy, capsys):
        assert main(["index", pcap_copy]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Indexed ") and out.rstrip().endswith(" records")
        assert os.path.exists(sidecar_path(pcap_copy))
        assert main(["index", pcap_copy]) == 0
        assert "Validated" in capsys.readouterr().out

    def test_info_reports_validity(self, pcap_copy, capsys):
        assert main(["index", pcap_copy, "--info"]) == 1  # no index yet
        assert "no index" in capsys.readouterr().out
        assert main(["index", pcap_copy]) == 0
        capsys.readouterr()
        assert main(["index", pcap_copy, "--info"]) == 0
        out = capsys.readouterr().out
        assert "valid for pcap" in out and "yes" in out
        assert main(["simulate", pcap_copy, "--scale", "0.05", "--seed", "7"]) == 0
        capsys.readouterr()
        assert main(["index", pcap_copy, "--info"]) == 1
        assert "STALE" in capsys.readouterr().out

    def test_force_rebuilds(self, pcap_copy, capsys):
        assert main(["index", pcap_copy]) == 0
        capsys.readouterr()
        assert main(["index", pcap_copy, "--force"]) == 0
        assert "Indexed" in capsys.readouterr().out


class TestUnindexedNote:
    """A walk that stops before EOF is said out loud, once, on stderr."""

    @pytest.fixture
    def corrupt_pcap(self, pcap_copy):
        """The month with its 101st record header claiming 2 GiB."""
        cut = scan_pcap_offsets(pcap_copy)[100]
        with open(pcap_copy, "r+b") as fileobj:
            fileobj.seek(cut + 8)  # ts_sec, ts_usec, then incl_len
            fileobj.write(struct.pack("<I", 0x7FFFFFFF))
        return pcap_copy, cut, os.path.getsize(pcap_copy)

    @pytest.mark.parametrize(
        "argv",
        [["index"], ["classify"], ["analyze", "--tables", "2"]],
        ids=lambda argv: argv[0],
    )
    def test_stop_offset_size_and_remainder_are_named(
        self, corrupt_pcap, argv, capsys
    ):
        pcap, cut, size = corrupt_pcap
        assert main([argv[0], pcap, *argv[1:]]) == 0
        captured = capsys.readouterr()
        notes = [line for line in captured.err.splitlines() if "note:" in line]
        assert len(notes) == 1
        assert notes[0].startswith("repro %s: note: %s" % (argv[0], pcap))
        for number in (cut, size, size - cut):
            assert " %d" % number in notes[0]
        assert "note:" not in captured.out
        # the warm run reports on the same prefix, so it says so again
        assert main([argv[0], pcap, *argv[1:]]) == 0
        assert capsys.readouterr().err.count("note:") == 1

    def test_index_counts_only_the_prefix(self, corrupt_pcap, capsys):
        pcap, _cut, _size = corrupt_pcap
        assert main(["index", pcap]) == 0
        assert "from 100 records" in capsys.readouterr().out

    def test_info_shows_indexed_bytes(self, corrupt_pcap, capsys):
        pcap, cut, size = corrupt_pcap
        assert main(["index", pcap]) == 0
        capsys.readouterr()
        assert main(["index", pcap, "--info"]) == 0
        rows = dict(
            line.split(None, 2)[::2]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith(("indexed bytes", "source size"))
        )
        assert rows == {"indexed": str(cut), "source": str(size)}

    def test_complete_capture_gets_no_note(self, pcap_copy, capsys):
        for argv in (["index", pcap_copy], ["analyze", pcap_copy, "--tables", "2"]):
            assert main(argv) == 0
            assert "note:" not in capsys.readouterr().err
        assert main(["index", pcap_copy, "--info"]) == 0
        size = os.path.getsize(pcap_copy)
        assert "indexed bytes   %d" % size in capsys.readouterr().out

    def test_live_stays_silent_about_a_torn_tail(self, corrupt_pcap, capsys):
        pcap, _cut, _size = corrupt_pcap
        argv = ["live", pcap, "--quiet", "--interval", "0", "--exit-idle", "1"]
        assert main(argv) == 0
        assert "note:" not in capsys.readouterr().err
