"""The tier-1 self-lint gate: this repo honours its own contract.

``repro lint src tools`` must exit 0 with the committed (empty)
baseline — every deliberate wall-clock or unordered-iteration use in
the tree carries a justified pragma instead of an unexplained pass.
"""

import json
import os

from repro.lint.engine import Baseline, lint_paths

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))


def repo_path(*parts):
    return os.path.join(REPO_ROOT, *parts)


class TestSelfLint:
    def test_src_and_tools_lint_clean(self):
        baseline = Baseline.load(repo_path("lint_baseline.json"))
        result = lint_paths(
            [repo_path("src"), repo_path("tools")], baseline=baseline
        )
        assert result.files > 100
        assert result.findings == [], "\n".join(
            finding.render() for finding in result.findings
        )

    def test_committed_baseline_is_empty(self):
        with open(repo_path("lint_baseline.json")) as fileobj:
            doc = json.load(fileobj)
        assert doc == {"version": 1, "findings": []}

    def test_deliberate_violations_carry_pragmas_not_baseline(self):
        # The suppressed count is the number of justified pragmas in the
        # tree; it should be small and every one deliberate.  If this
        # number jumps unexpectedly, someone is pragma-ing their way
        # around the contract instead of fixing the violation.
        result = lint_paths([repo_path("src"), repo_path("tools")])
        assert 0 < result.suppressed <= 20
