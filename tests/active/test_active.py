"""Active prober and the Appendix-D load-balancer inference."""

import pytest

from repro.active.lb_inference import (
    classify_lb,
    follow_up_delay,
    same_instance_probe,
)
from repro.active.prober import Prober
from repro.core.l7lb import convergence_curve, host_id_of
from repro.workloads.scenario import build_facebook_lab, build_lb_lab


@pytest.fixture(scope="module")
def lab():
    return build_lb_lab(google_hosts=10, facebook_hosts=10)


@pytest.fixture(scope="module")
def prober(lab):
    return Prober(lab.loop, lab.network)


class TestHandshakes:
    def test_facebook_handshake_completes(self, lab, prober):
        result = prober.handshake(lab.vips("Facebook")[0])
        assert result.completed
        assert len(result.server_scid) == 8
        assert result.rtt > 0

    def test_transport_parameters_extracted(self, lab, prober):
        params = prober.transport_parameters(lab.vips("Facebook")[0])
        assert params is not None
        named = params.named()
        assert named["max_idle_timeout"] == 60000
        assert named["initial_source_connection_id"]

    def test_certificate_extracted(self, lab, prober):
        cert = prober.certificate(lab.vips("Facebook")[0])
        assert cert is not None
        assert cert.matches_any_suffix(("facebook.com",))

    def test_unreachable_vip_times_out(self, lab, prober):
        from repro.netstack.addr import parse_ip

        result = prober.handshake(parse_ip("203.0.113.1"), timeout=0.5)
        assert not result.completed

    def test_probe_log_grows(self, lab, prober):
        result = prober.handshake(lab.vips("Facebook")[0])
        assert result.completed
        assert host_id_of(result.server_scid) is not None


class TestEchoDetection:
    """Paper §4.2: Google echoes the first 8 bytes of the client DCID."""

    def test_google_detected_as_echo(self, lab, prober):
        assert prober.detect_echo_behaviour(lab.vips("Google")[0])

    def test_facebook_not_echo(self, lab, prober):
        assert not prober.detect_echo_behaviour(lab.vips("Facebook")[0])


class TestEnumeration:
    def test_all_hosts_discovered(self, lab, prober):
        ids = prober.enumerate_host_ids(lab.vips("Facebook")[0], 400)
        unique = {h for h in ids if h is not None}
        assert len(unique) == 10

    def test_convergence_shape(self):
        """§4.3: discovery converges; most hosts appear early."""
        lab = build_facebook_lab([(4, 40, "US")], seed=3)
        prober = Prober(lab.loop, lab.network)
        ids = prober.enumerate_host_ids(lab.vips("Facebook")[0], 600)
        curve = convergence_curve([h for h in ids if h is not None])
        assert curve.total == 40
        # Half the handshake budget already finds the large majority.
        assert curve.coverage_at(300) > 0.9

    def test_scan_vips_shared_sets(self):
        """VIPs of one cluster expose the same host-ID set."""
        lab = build_facebook_lab([(3, 12, "US")], seed=5)
        prober = Prober(lab.loop, lab.network)
        per_vip = prober.scan_vips(lab.vips("Facebook"), handshakes_per_vip=150)
        sets = list(per_vip.values())
        assert sets[0] == sets[1] == sets[2]
        assert len(sets[0]) == 12


class TestAppendixD:
    def test_facebook_followup_immediate(self, lab, prober):
        outcome = follow_up_delay(prober, lab.vips("Facebook")[0], max_wait=30.0)
        assert outcome.delay is not None
        assert outcome.delay < 10.0
        assert classify_lb(outcome) == "5-tuple"

    def test_facebook_followup_new_host_or_worker(self, lab, prober):
        result = same_instance_probe(prober, lab.vips("Facebook")[0])
        assert result.reached_new_instance

    def test_google_followup_blocked_for_idle_timeout(self):
        lab = build_lb_lab(google_hosts=6, facebook_hosts=6, seed=21)
        prober = Prober(lab.loop, lab.network)
        outcome = follow_up_delay(prober, lab.vips("Google")[0], max_wait=400.0)
        assert outcome.delay is not None
        # Paper: ~240 s (the connection-state idle timeout).
        assert 200.0 < outcome.delay < 280.0
        assert classify_lb(outcome) == "cid-aware"

    def test_follow_up_requires_reachable_vip(self, lab, prober):
        from repro.netstack.addr import parse_ip

        with pytest.raises(RuntimeError):
            follow_up_delay(prober, parse_ip("203.0.113.2"), max_wait=2.0)
