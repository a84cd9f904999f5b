"""Session reconstruction and report rendering."""

from repro.core.report import format_cell, render_histogram, render_table
from repro.core.session import SessionStore


class TestSessionStore:
    def test_groups_by_scid_dcid_and_addresses(self, small_capture):
        store = SessionStore.from_packets(small_capture.backscatter)
        assert len(store) > 100
        for session in store.sessions()[:50]:
            assert session.datagram_count >= 1
            assert list(session.timestamps) == sorted(session.timestamps)

    def test_relative_times_start_at_zero(self, small_capture):
        store = SessionStore.from_packets(small_capture.backscatter)
        session = max(store.sessions(), key=lambda s: s.datagram_count)
        rel = session.relative_times()
        assert rel[0] == 0.0
        assert all(b >= a for a, b in zip(rel, rel[1:]))

    def test_by_origin_partitions(self, small_capture):
        store = SessionStore.from_packets(small_capture.backscatter)
        total = sum(
            len(store.by_origin(o))
            for o in ("Facebook", "Google", "Cloudflare", "Remaining")
        )
        assert total == len(store)


class TestReport:
    def test_render_table_alignment(self):
        table = render_table(
            ["name", "value"],
            [["a", 1], ["long-name", 2.5]],
            title="Demo",
        )
        lines = table.splitlines()
        assert lines[0] == "Demo"
        assert "long-name" in table
        assert "2.500" in table

    def test_format_cell(self):
        assert format_cell(True) == "yes"
        assert format_cell(False) == "no"
        assert format_cell(0.12345) == "0.123"
        assert format_cell("x") == "x"

    def test_render_histogram(self):
        out = render_histogram([("0.4", 100), ("0.8", 50)], width=10)
        lines = out.splitlines()
        assert lines[0].endswith("#" * 10)
        assert lines[1].endswith("#" * 5)

    def test_render_histogram_empty(self):
        assert "empty" in render_histogram([])

    def test_render_histogram_all_zero_counts(self):
        """All-zero series must render (no ZeroDivisionError, no bars)."""
        out = render_histogram([("a", 0), ("b", 0)], width=10)
        lines = out.splitlines()
        assert len(lines) == 2
        assert "#" not in out

    def test_render_histogram_empty_label_rows(self):
        out = render_histogram([("", 3), ("x", 1)], width=10)
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0].endswith("#" * 10)

    def test_render_table_ragged_rows_raise(self):
        import pytest

        with pytest.raises(ValueError, match="expected 2"):
            render_table(["a", "b"], [["1", "2"], ["only-one"]])

    def test_render_table_too_many_cells_raise(self):
        import pytest

        with pytest.raises(ValueError):
            render_table(["a", "b"], [["1", "2", "3"]])
