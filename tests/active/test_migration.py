"""Client migration across load-balancer fabrics (paper §2.2)."""

import pytest

from repro.active.migration import migration_outcomes, migration_probe, survival_rates
from repro.active.prober import Prober
from repro.workloads.scenario import build_lb_lab
from tests.server.metered import engine_events, metered


@pytest.fixture(scope="module")
def lab():
    return build_lb_lab(
        google_hosts=10, facebook_hosts=10, quic_lb_hosts=10, seed=5, obs=metered()
    )


@pytest.fixture(scope="module")
def prober(lab):
    return Prober(lab.loop, lab.network)


class TestNewConnectionIds:
    def test_server_issues_spare_cid(self, lab, prober):
        result = prober.handshake(lab.vips("Facebook")[0])
        prober.advance(0.3)
        assert result.new_connection_ids
        assert result.new_connection_ids[0] != result.server_scid

    def test_google_rotated_cid_is_not_an_echo(self, lab, prober):
        """Echo schemes cannot mint fresh IDs: rotation must be random."""
        result = prober.handshake(lab.vips("Google")[0])
        prober.advance(0.3)
        assert result.new_connection_ids
        assert result.new_connection_ids[0] != result.server_scid

    def test_quic_lb_rotated_cid_same_server_id(self, lab, prober):
        from repro.quic.cid import quic_lb
        from repro.server.profiles import quic_lb_profile

        config = quic_lb_profile().cid_scheme.config
        result = prober.handshake(lab.vips("QuicLB")[0])
        prober.advance(0.3)
        original_sid, _ = quic_lb.decode(config, result.server_scid)
        rotated_sid, _ = quic_lb.decode(config, result.new_connection_ids[0])
        assert original_sid == rotated_sid


class TestMigrationOutcomes:
    def test_facebook_5tuple_breaks_migration(self, lab, prober):
        outcomes = [
            migration_probe(prober, lab.vips("Facebook")[i % 8])
            for i in range(6)
        ]
        # A new 5-tuple rehashes to a different L7LB almost always.
        assert sum(o.survived for o in outcomes) <= 1

    def test_google_cid_aware_survives_same_cid(self, lab, prober):
        outcomes = [
            migration_probe(prober, lab.vips("Google")[i % 8]) for i in range(4)
        ]
        assert all(o.survived for o in outcomes)

    def test_google_rotated_cid_breaks(self, lab, prober):
        """§2.2: the CID transition is hidden even from a CID-aware L4LB."""
        outcomes = [
            migration_probe(prober, lab.vips("Google")[i % 8], rotate_cid=True)
            for i in range(4)
        ]
        assert not any(o.survived for o in outcomes)

    def test_quic_lb_survives_both(self, lab, prober):
        for rotate in (False, True):
            outcomes = [
                migration_probe(
                    prober, lab.vips("QuicLB")[i % 8], rotate_cid=rotate
                )
                for i in range(4)
            ]
            assert all(o.survived for o in outcomes)

    def test_matrix_helper(self, lab, prober):
        matrix = survival_rates(
            migration_outcomes(
                {
                    "Google": (prober, lab.vips("Google")[:4]),
                    "QuicLB": (prober, lab.vips("QuicLB")[:4]),
                },
                probes_per_cell=4,
            )
        )
        assert matrix["Google"]["same_cid"] == 1.0
        assert matrix["Google"]["rotated_cid"] == 0.0
        assert matrix["QuicLB"]["rotated_cid"] == 1.0

    def test_survival_is_reaching_the_engine_that_holds_the_connection(self):
        # Its own lab: the rates above depend on the shared prober's draws.
        lab = build_lb_lab(google_hosts=12, facebook_hosts=12, quic_lb_hosts=12, seed=909)
        outcomes = migration_outcomes(
            {
                name: (
                    Prober(lab.loop, lab.network, address="198.51.100.%d" % (10 + i)),
                    lab.vips(name),
                )
                for i, name in enumerate(("Facebook", "Google", "QuicLB"))
            },
            probes_per_cell=10,
        )
        probes = [o for cells in outcomes.values() for kind in cells.values() for o in kind]
        assert len(probes) == 60
        for outcome in probes:
            assert outcome.survived == outcome.same_worker, outcome
            assert outcome.same_host or not outcome.same_worker, outcome
        # A rotated random CID reaches the right host by chance, and that
        # alone is not enough: the host's worker choice must agree too.
        google_rotated = outcomes["Google"]["rotated_cid"]
        assert sum(o.same_host for o in google_rotated) > sum(
            o.survived for o in google_rotated
        )


class TestStatelessReset:
    def test_unknown_cid_triggers_reset(self, lab):
        """1-RTT packets for unknown connections get a stateless reset."""
        prober = Prober(lab.loop, lab.network)
        result = prober.handshake(lab.vips("Facebook")[1])
        connection = prober.last_connection
        # Forge a probe to a CID nobody issued.
        datagram = connection.migration_datagram(
            prober.take_port(), dcid=b"\xde\xad" * 4
        )
        prober.host.send_raw(datagram)
        prober.advance(1.0)
        profile = lab.clusters["Facebook"][0].profile.name
        stats = engine_events(lab.obs, profile)
        assert stats["stateless_resets_sent"] >= 1

    def test_migration_counted_by_engine(self, lab):
        prober = Prober(lab.loop, lab.network)
        outcome = migration_probe(prober, lab.vips("Google")[3])
        assert outcome.survived
        profile = lab.clusters["Google"][0].profile.name
        assert engine_events(lab.obs, profile)["migrations_accepted"] >= 1
