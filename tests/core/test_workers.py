"""Worker-level structure behind mvfst SCIDs."""

from collections import defaultdict

from repro.core.l7lb import host_id_of, worker_id_of
from repro.core.scid_stats import scids_by_origin


class TestWorkersPerHost:
    def test_facebook_backscatter_shows_multiple_workers(self, small_capture):
        """Active fact behind §4.3: hosts run several worker processes."""
        scids = scids_by_origin(small_capture.backscatter)["Facebook"]
        grouped = defaultdict(set)
        for scid in scids:
            host_id = host_id_of(scid)
            if host_id is not None:
                grouped[host_id].add(worker_id_of(scid))
        assert grouped
        busiest = max(grouped.values(), key=len)
        # The Facebook profile runs 4 workers per host.
        assert 2 <= len(busiest) <= 4
        assert all(len(w) <= 4 for w in grouped.values())
