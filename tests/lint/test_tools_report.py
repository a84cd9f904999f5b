"""The shared ``tools/_report.py`` helper and the checkers' --json mode."""

import glob
import json
import os
import subprocess
import sys

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
TOOLS = os.path.join(REPO_ROOT, "tools")

sys.path.insert(0, TOOLS)
from _report import Report, split_json_flag  # noqa: E402


class TestReport:
    def test_located_text_findings_are_structured(self, capsys):
        report = Report("demo")
        report.checked = 2
        report.add_text("DESIGN.md:14: missing target: nope.md")
        report.add_text("a bare message")
        code = report.emit("all ok", json_mode=True)
        assert code == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["tool"] == "demo" and doc["checked"] == 2
        assert doc["findings"][0] == {
            "path": "DESIGN.md",
            "line": 14,
            "message": "missing target: nope.md",
        }
        assert doc["findings"][1] == {"message": "a bare message"}
        assert doc["ok"] is False

    def test_text_mode_prints_findings_to_stderr(self, capsys):
        report = Report("demo")
        report.add("broken", path="x.md", line=3)
        assert report.emit("all ok") == 1
        captured = capsys.readouterr()
        assert "x.md:3: broken" in captured.err
        assert "all ok" not in captured.out

    def test_clean_report_prints_ok_text(self, capsys):
        report = Report("demo")
        assert report.emit("all ok") == 0
        assert "all ok" in capsys.readouterr().out

    def test_split_json_flag(self):
        assert split_json_flag(["--json", "a"]) == (True, ["a"])
        assert split_json_flag(["a"]) == (False, ["a"])


class TestCheckersJsonMode:
    def run_checker(self, script, *args):
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        return subprocess.run(
            [sys.executable, os.path.join(TOOLS, script), "--json", *args],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            env=env,
        )

    def test_md_links_json(self):
        result = self.run_checker("check_md_links.py")
        assert result.returncode == 0, result.stderr
        doc = json.loads(result.stdout)
        assert doc["tool"] == "check-md-links"
        assert doc["ok"] is True and doc["findings"] == []

    def test_doc_commands_json(self):
        result = self.run_checker("check_doc_commands.py")
        assert result.returncode == 0, result.stderr
        doc = json.loads(result.stdout)
        assert doc["tool"] == "check-doc-commands"
        assert doc["ok"] is True and doc["checked"] > 20

    def test_speedscope_json_flags_invalid_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        result = self.run_checker("check_speedscope.py", str(bad))
        assert result.returncode == 1
        doc = json.loads(result.stdout)
        assert doc["tool"] == "check-speedscope"
        assert doc["ok"] is False
        assert any("$schema" in f["message"] for f in doc["findings"])

    def test_bench_json_all_repo_files_valid(self):
        result = self.run_checker("check_bench_json.py")
        assert result.returncode == 0, result.stderr
        doc = json.loads(result.stdout)
        assert doc["tool"] == "check-bench-json"
        committed = glob.glob(os.path.join(REPO_ROOT, "BENCH_*.json"))
        assert doc["ok"] is True and doc["checked"] == len(committed) >= 1

    def test_bench_json_flags_non_finite_numbers(self, tmp_path):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text('{"arms": {"speedup": NaN}}')
        result = self.run_checker("check_bench_json.py", str(bad))
        assert result.returncode == 1
        doc = json.loads(result.stdout)
        assert doc["ok"] is False
        assert any("non-finite" in f["message"] for f in doc["findings"])

    def test_bench_json_requires_the_environment_stamp(self, tmp_path):
        bare = tmp_path / "BENCH_bare.json"
        bare.write_text('{"seconds": 1.5}')
        partial = tmp_path / "BENCH_partial.json"
        partial.write_text('{"seconds": 1.5, "environment": {"python": "3.11.7"}}')
        result = self.run_checker("check_bench_json.py", str(bare), str(partial))
        assert result.returncode == 2
        messages = [f["message"] for f in json.loads(result.stdout)["findings"]]
        assert "no environment stamp (benchmarks/_harness.py)" in messages
        assert "environment stamp lacks 'cpus'" in messages
        assert "environment stamp lacks 'trees'" in messages
        assert "environment stamp lacks 'python'" not in messages

    def test_bench_json_rejects_a_dirty_commit_stamp(self, tmp_path):
        stamp = {
            "python": "3.11.7", "cpus": 2, "platform": "Linux", "loadavg": [0.5],
            "trees": {"src": "5f1c0e2", "benchmarks": "9a3d771"},
        }
        dirty = tmp_path / "BENCH_dirty.json"
        dirty.write_text(json.dumps(
            {"seconds": 1.5, "environment": dict(stamp, commit="366ee11+dirty")}
        ))
        clean = tmp_path / "BENCH_clean.json"
        clean.write_text(json.dumps(
            {"seconds": 1.5, "environment": dict(stamp, commit="366ee11")}
        ))
        result = self.run_checker("check_bench_json.py", str(dirty), str(clean))
        assert result.returncode == 1
        findings = json.loads(result.stdout)["findings"]
        assert [f["message"] for f in findings] == [
            "commit stamp 366ee11+dirty is dirty: re-record from a clean tree"
        ]

    def test_bench_json_rejects_empty_object(self, tmp_path):
        empty = tmp_path / "BENCH_empty.json"
        empty.write_text("{}")
        result = self.run_checker("check_bench_json.py", str(empty))
        assert result.returncode == 1
        doc = json.loads(result.stdout)
        assert any("empty" in f["message"] for f in doc["findings"])
