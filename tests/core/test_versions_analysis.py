"""Table 2: version adoption from sessions."""

from repro.core.selectors import TABLE2_ROWS
from repro.core.versions import table2, version_shares


class TestVersionShares:
    def test_shares_sum_to_100(self, small_capture):
        shares = table2(small_capture)
        for side in ("clients", "servers"):
            total = sum(shares[side].share(b) for b in TABLE2_ROWS)
            assert abs(total - 100.0) < 1e-6

    def test_2022_client_mix_v1_dominant(self, small_capture):
        """Paper Table 2 (2022 clients): QUICv1 ~78%, mvfst2 ~21%."""
        clients = table2(small_capture)["clients"]
        assert clients.share("QUICv1") > 60
        assert 8 < clients.share("Facebook mvfst 2") < 35
        assert clients.share("draft-29") < 5

    def test_2022_server_mix(self, small_capture):
        """Paper Table 2 (2022 servers): v1 ~48%, mvfst2 ~33%."""
        servers = table2(small_capture)["servers"]
        assert servers.share("QUICv1") > 35
        assert servers.share("Facebook mvfst 2") > 20
        # Servers show more mvfst than clients do (Facebook's footprint).
        assert servers.share("Facebook mvfst 2") > table2(small_capture)[
            "clients"
        ].share("Facebook mvfst 2")

    def test_sessions_counted_once(self, small_capture):
        """Retransmissions must not inflate version counts."""
        servers = version_shares(small_capture.backscatter)
        assert servers.total < len(small_capture.backscatter) / 2

    def test_empty_population(self):
        shares = version_shares([])
        assert shares.total == 0
        assert shares.share("QUICv1") == 0.0
