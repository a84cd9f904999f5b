"""Figure 6: geographic aggregation of cluster sizes."""

import pytest

from repro.core.geo import aggregate_clusters
from repro.inetdata.geodb import GeoDatabase
from repro.netstack.addr import parse_ip


def make_geodb():
    db = GeoDatabase()
    db.register("157.240.1.0/24", "IN")
    db.register("157.240.2.0/24", "SG")
    db.register("157.240.3.0/24", "DE")
    db.register("157.240.4.0/24", "US")
    return db


class TestAggregation:
    def test_by_country_and_continent(self):
        sizes = {
            parse_ip("157.240.1.1"): 450,
            parse_ip("157.240.2.1"): 460,
            parse_ip("157.240.3.1"): 340,
            parse_ip("157.240.4.1"): 290,
        }
        agg = aggregate_clusters(sizes, make_geodb())
        assert agg.by_country["IN"] == [450]
        medians = agg.continent_medians()
        assert medians["Asia"] == pytest.approx(455)
        assert medians["Europe"] == 340
        assert medians["North America"] == 290

    def test_asia_ordering_like_paper(self):
        """Figure 6's headline: Asia's median exceeds EU's exceeds NA's."""
        sizes = {
            parse_ip("157.240.1.1"): 453,
            parse_ip("157.240.3.1"): 339,
            parse_ip("157.240.4.1"): 292,
        }
        medians = aggregate_clusters(sizes, make_geodb()).continent_medians()
        assert medians["Asia"] > medians["Europe"] > medians["North America"]

    def test_unlocated_vips_skipped(self):
        sizes = {parse_ip("203.0.113.7"): 99}
        agg = aggregate_clusters(sizes, make_geodb())
        assert agg.by_country == {}
