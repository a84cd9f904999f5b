"""Engine behaviour: pragmas, baselines, walking, broken files."""

import json
import textwrap

from repro.lint.engine import (
    Baseline,
    BaselineError,
    collect_pragmas,
    iter_python_files,
    lint_file,
    lint_paths,
)
from repro.lint.rules import default_rules

VIOLATION = textwrap.dedent(
    """
    import random

    def pick():
        return random.randint(0, 7)
    """
)


def lint_source(source, path="src/repro/simnet/fake.py"):
    return lint_file(path, default_rules(), source=textwrap.dedent(source))


class TestPragmas:
    def test_inline_pragma_suppresses_matching_rule(self):
        assert lint_source(
            """
            import random

            def pick():
                return random.randint(0, 7)  # repro: allow(DET001) -- fixture
            """
        ) == []

    def test_pragma_on_line_above_suppresses(self):
        assert lint_source(
            """
            import random

            def pick():
                # repro: allow(DET001) -- fixture noise source
                return random.randint(0, 7)
            """
        ) == []

    def test_justification_may_continue_across_comment_lines(self):
        assert lint_source(
            """
            import time

            def stamp():
                # repro: allow(DET002) -- this wall read only feeds an
                # operator-facing log line, never simulated behaviour
                return time.time()
            """
        ) == []

    def test_pragma_for_other_rule_does_not_suppress(self):
        findings = lint_source(
            """
            import random

            def pick():
                return random.randint(0, 7)  # repro: allow(DET002) -- wrong id
            """
        )
        assert [f.rule for f in findings] == ["DET001"]

    def test_pragma_without_justification_is_malformed(self):
        findings = lint_source(
            """
            import random

            def pick():
                return random.randint(0, 7)  # repro: allow(DET001)
            """
        )
        assert sorted(f.rule for f in findings) == ["DET001", "LNT001"]
        malformed = [f for f in findings if f.rule == "LNT001"][0]
        assert "justification is mandatory" in malformed.message

    def test_pragma_in_string_literal_does_not_suppress(self):
        findings = lint_source(
            """
            import random

            DOC = "# repro: allow(DET001) -- not a comment"

            def pick():
                return random.randint(0, 7)
            """
        )
        assert [f.rule for f in findings] == ["DET001"]

    def test_multiple_ids_in_one_pragma(self):
        assert lint_source(
            """
            import random
            import time

            def pick():
                # repro: allow(DET001, DET002) -- fixture mixes both
                return random.randint(0, int(time.time()))
            """
        ) == []

    def test_collect_pragmas_reports_lines(self):
        pragmas, malformed = collect_pragmas(
            "x = 1  # repro: allow(DET004) -- fixture\n", "f.py"
        )
        assert pragmas == {1: {"DET004"}}
        assert malformed == []


class TestBaseline:
    def test_round_trip(self, tmp_path):
        findings = lint_source(VIOLATION)
        assert len(findings) == 1
        path = str(tmp_path / "baseline.json")
        Baseline.write(path, findings)
        loaded = Baseline.load(path)
        assert loaded.contains(findings[0])
        doc = json.loads(open(path).read())
        assert doc["version"] == Baseline.VERSION
        assert doc["findings"][0]["rule"] == "DET001"

    def test_baseline_match_survives_line_drift(self, tmp_path):
        findings = lint_source(VIOLATION)
        path = str(tmp_path / "baseline.json")
        Baseline.write(path, findings)
        drifted = lint_source("\n\n\n" + VIOLATION)
        assert drifted[0].line != findings[0].line
        assert Baseline.load(path).contains(drifted[0])

    def test_missing_file_is_empty(self, tmp_path):
        baseline = Baseline.load(str(tmp_path / "nope.json"))
        assert baseline.keys == set()

    def test_garbage_file_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        try:
            Baseline.load(str(path))
        except BaselineError:
            pass
        else:
            raise AssertionError("expected BaselineError")

    def test_lint_paths_splits_baselined_findings(self, tmp_path):
        module = tmp_path / "mod.py"
        module.write_text(VIOLATION)
        dirty = lint_paths([str(tmp_path)])
        assert len(dirty.findings) == 1 and not dirty.ok
        baseline_path = str(tmp_path / "baseline.json")
        Baseline.write(baseline_path, dirty.findings)
        clean = lint_paths([str(tmp_path)], baseline=Baseline.load(baseline_path))
        assert clean.ok
        assert len(clean.baselined) == 1
        assert clean.baselined[0].rule == "DET001"


class TestWalking:
    def test_walk_is_sorted_and_skips_pycache(self, tmp_path):
        (tmp_path / "b").mkdir()
        (tmp_path / "a").mkdir()
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "b" / "two.py").write_text("x = 1\n")
        (tmp_path / "a" / "one.py").write_text("x = 1\n")
        (tmp_path / "__pycache__" / "junk.py").write_text("x = 1\n")
        (tmp_path / "top.py").write_text("x = 1\n")
        (tmp_path / "notes.txt").write_text("not python\n")
        files = list(iter_python_files([str(tmp_path)]))
        names = [f.replace(str(tmp_path), "").lstrip("/") for f in files]
        assert names == ["top.py", "a/one.py", "b/two.py"]

    def test_named_file_is_linted_even_without_py_suffix(self, tmp_path):
        scratch = tmp_path / "scratch"
        scratch.write_text(VIOLATION)
        assert list(iter_python_files([str(scratch)])) == [str(scratch)]

    def test_syntax_error_becomes_lnt000(self, tmp_path):
        findings = lint_file(
            "broken.py", default_rules(), source="def broken(:\n"
        )
        assert [f.rule for f in findings] == ["LNT000"]
        assert "does not parse" in findings[0].message
