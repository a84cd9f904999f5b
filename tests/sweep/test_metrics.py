"""Metric-name grammar and registry-snapshot resolution."""

import pytest

from repro.core.selectors import validate_metric
from repro.sweep.metrics import _from_snapshot


class TestValidateMetric:
    @pytest.mark.parametrize(
        "name",
        [
            "rows.total",
            "rows.backscatter",
            "rows.scans",
            "records.total",
            "removed_share",
            "offnet.servers",
            "offnet.low_host_id",
            "version_share.clients.QUICv1",
            "version_share.servers.others",
            "packet_share.Facebook.Initial",
            "scid_unique.Cloudflare",
            "sessions.servers.total",
            "packet_mix.Google.Coalesced other",
            "scid_dominant_len.Facebook",
            "scid_structured.Remaining",
            "scid_max_chi2.Google",
            "counter:net.dropped",
            "counter:capstore.cache|hit",
            "gauge:sim.anything",
            "timer:simulate.run",
        ],
    )
    def test_accepts(self, name):
        validate_metric(name)

    @pytest.mark.parametrize(
        ("name", "match"),
        [
            ("", "non-empty"),
            (None, "non-empty"),
            ("counter:", "names no registry metric"),
            ("version_share.QUICv1", "version_share"),
            ("version_share.clients.bogus", "bucket one of"),
            ("packet_share.Akamai.Initial", "origin one of"),
            ("scid_unique.everything", "scid_unique"),
            ("rows.bogus", "unknown metric"),
            ("rows.scan", "unknown metric"),
            ("offnet.server", "offnet.servers or offnet.low_host_id"),
            ("sessions.clients", "sessions"),
            ("packet_share.Google.Coalesced other", "category one of"),
        ],
    )
    def test_rejects(self, name, match):
        with pytest.raises(ValueError, match=match):
            validate_metric(name)


class TestFromSnapshot:
    SNAPSHOT = {
        "counters": {
            "net.dropped": {
                "label_names": ["reason"],
                "values": {"loss": 3.0, "queue": 2.0},
            },
            "sim.events": {"label_names": [], "values": {"": 10.0}},
        },
        "gauges": {"depth": {"label_names": [], "values": {"": 7.0}}},
        "timers": {"simulate.run": {"seconds": 1.5, "calls": 1}},
    }

    def test_counter_sums_labels(self):
        assert _from_snapshot("counter:net.dropped", self.SNAPSHOT) == 5.0

    def test_counter_single_label_key(self):
        assert _from_snapshot("counter:net.dropped|loss", self.SNAPSHOT) == 3.0

    def test_unlabelled_counter(self):
        assert _from_snapshot("counter:sim.events", self.SNAPSHOT) == 10.0

    def test_gauge(self):
        assert _from_snapshot("gauge:depth", self.SNAPSHOT) == 7.0

    def test_timer(self):
        assert _from_snapshot("timer:simulate.run", self.SNAPSHOT) == 1.5

    def test_missing_is_zero(self):
        assert _from_snapshot("counter:never.seen", self.SNAPSHOT) == 0.0
        assert _from_snapshot("timer:never.seen", self.SNAPSHOT) == 0.0
        assert _from_snapshot("counter:never.seen", {}) == 0.0
