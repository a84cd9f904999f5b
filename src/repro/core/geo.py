"""Geographic aggregation of frontend clusters (paper Figure 6).

Given per-cluster L7LB counts (from host-ID enumeration) and a geolocation
database, group the cluster sizes by country and continent and compute the
per-continent medians the paper plots — its headline: Facebook provisions markedly more L7LBs
per cluster in Asia than in Europe or North America.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass

from repro.inetdata.geodb import GeoDatabase


@dataclass
class GeoAggregation:
    """Figure 6's data: cluster sizes grouped by country and continent."""

    by_country: dict[str, list[int]]
    by_continent: dict[str, list[int]]

    def continent_medians(self) -> dict[str, float]:
        return {
            continent: statistics.median(values)
            for continent, values in self.by_continent.items()
            if values
        }


def aggregate_clusters(
    cluster_sizes: dict[int, int], geodb: GeoDatabase
) -> GeoAggregation:
    """Group ``{representative VIP -> L7LB count}`` by geolocation."""
    by_country: dict[str, list[int]] = defaultdict(list)
    by_continent: dict[str, list[int]] = defaultdict(list)
    for vip, size in cluster_sizes.items():
        country = geodb.country(vip)
        continent = geodb.continent(vip)
        if country is None or continent is None:
            continue
        by_country[country].append(size)
        by_continent[continent].append(size)
    return GeoAggregation(by_country=dict(by_country), by_continent=dict(by_continent))
