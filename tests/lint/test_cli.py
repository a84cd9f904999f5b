"""The ``repro lint`` CLI surface: exit codes, reporters, baseline flags."""

import json
import textwrap

import pytest

from repro.cli import main

VIOLATION = textwrap.dedent(
    """
    import random
    import time

    def pick():
        return random.randint(0, 7)

    def stamp():
        return time.time()

    METRIC = "version_share.clients.bogus"
    """
)

CLEAN = textwrap.dedent(
    """
    import random

    RNG = random.Random(7)

    def pick():
        return RNG.randint(0, 7)
    """
)


@pytest.fixture
def scratch(tmp_path):
    module = tmp_path / "scratch.py"
    module.write_text(VIOLATION)
    return str(module)


class TestExitCodes:
    def test_violations_fail_with_rule_ids_and_lines(self, scratch, capsys):
        assert main(["lint", scratch]) == 1  # an answer, however many findings
        out = capsys.readouterr().out
        assert "DET001" in out and ":6:" in out
        assert "DET002" in out and ":9:" in out
        assert "OBS001" in out and ":11:" in out
        assert "3 findings" in out

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        module = tmp_path / "clean.py"
        module.write_text(CLEAN)
        assert main(["lint", str(module)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_missing_path_is_a_one_line_error(self, capsys):
        assert main(["lint", "does/not/exist"]) == 2
        assert capsys.readouterr().err == "repro lint: no such path: does/not/exist\n"


class TestJsonReporter:
    def test_json_report_carries_rule_and_line(self, scratch, capsys):
        assert main(["lint", "--json", scratch]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["tool"] == "repro-lint"
        assert doc["ok"] is False
        assert doc["checked"] == 1
        by_rule = {f["rule"]: f for f in doc["findings"]}
        assert by_rule["DET001"]["line"] == 6
        assert by_rule["DET002"]["line"] == 9
        assert by_rule["OBS001"]["line"] == 11

    def test_clean_json_report(self, tmp_path, capsys):
        module = tmp_path / "clean.py"
        module.write_text(CLEAN)
        assert main(["lint", "--json", str(module)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True and doc["findings"] == []


class TestBaselineFlags:
    def test_update_baseline_then_clean_run(self, scratch, tmp_path, capsys):
        baseline = str(tmp_path / "baseline.json")
        assert main(["lint", scratch, "--baseline", baseline,
                     "--update-baseline"]) == 0
        assert "3 finding(s)" in capsys.readouterr().out
        assert main(["lint", scratch, "--baseline", baseline]) == 0
        out = capsys.readouterr().out
        assert "clean" in out and "3 baselined" in out

    def test_show_baselined_lists_grandfathered(self, scratch, tmp_path, capsys):
        baseline = str(tmp_path / "baseline.json")
        main(["lint", scratch, "--baseline", baseline, "--update-baseline"])
        capsys.readouterr()
        assert main(["lint", scratch, "--baseline", baseline,
                     "--show-baselined"]) == 0
        out = capsys.readouterr().out
        assert "[baselined]" in out and "DET001" in out

    def test_corrupt_baseline_is_a_one_line_error(self, scratch, tmp_path, capsys):
        baseline = tmp_path / "bad.json"
        baseline.write_text("{nope")
        assert main(["lint", scratch, "--baseline", str(baseline)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro lint: %s: not valid baseline JSON" % baseline)
        assert err.count("\n") == 1


class TestRulesListing:
    def test_rules_flag_prints_the_pack(self, capsys):
        assert main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DET001", "DET002", "DET003", "DET004", "DET005",
                        "OBS001", "MP001"):
            assert rule_id in out


class TestDefaults:
    def test_default_path_is_src(self, tmp_path, monkeypatch, capsys):
        src = tmp_path / "src"
        src.mkdir()
        (src / "mod.py").write_text(CLEAN)
        monkeypatch.chdir(tmp_path)
        assert main(["lint"]) == 0
        assert "1 file checked" in capsys.readouterr().out
