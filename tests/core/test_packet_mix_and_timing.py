"""Table 3 / Figure 7 (packet mix) and Figures 3 / 4 (timing)."""

import pytest

from repro.core.packet_mix import (
    packet_mix,
    top_length_signatures,
)
from repro.core.timing import estimate_rto, timing_profiles


class TestPacketMix:
    def test_shares_sum_to_100_per_origin(self, small_capture):
        mix = packet_mix(small_capture.backscatter)
        for origin in mix.origins():
            total = sum(
                mix.share(origin, cat)
                for cat in (
                    "Initial",
                    "Handshake",
                    "0-RTT",
                    "Retry",
                    "Coalesced Initial & Handshake",
                    "Coalesced other",
                )
            )
            assert total == pytest.approx(100.0, abs=0.01)

    def test_google_coalesces_facebook_does_not(self, small_capture):
        """Table 3's headline: only Google predominantly coalesces."""
        mix = packet_mix(small_capture.backscatter)
        assert mix.coalescence_share("Google") > 30
        assert mix.coalescence_share("Facebook") == 0.0
        assert 0 <= mix.coalescence_share("Cloudflare") < 15
        assert mix.uses_coalescence("Google")
        assert not mix.uses_coalescence("Facebook")

    def test_facebook_initial_handshake_split(self, small_capture):
        """Without coalescence, Initials and Handshakes are ~50/50."""
        mix = packet_mix(small_capture.backscatter)
        assert 40 < mix.share("Facebook", "Initial") < 60
        assert 40 < mix.share("Facebook", "Handshake") < 60

    def test_zero_rtt_only_from_google_and_remaining(self, small_capture):
        """Table 3: 0-RTT appears for Google and Remaining only (cloud bots)."""
        mix = packet_mix(small_capture.scans + small_capture.backscatter)
        assert mix.share("Google", "0-RTT") > 0
        assert mix.share("Facebook", "0-RTT") == 0.0
        assert mix.share("Cloudflare", "0-RTT") == 0.0

    def test_unknown_origin_share_zero(self, small_capture):
        mix = packet_mix(small_capture.backscatter)
        assert mix.share("Nonexistent", "Initial") == 0.0


class TestLengthSignatures:
    def test_facebook_signature_lengths(self, small_capture):
        """Figure 7: per-provider characteristic packet lengths."""
        tops = top_length_signatures(small_capture.backscatter)
        fb = dict(tops["Facebook"])
        # Facebook flights: 1200-byte Initial datagrams, 1232-byte Handshake.
        assert any(sig == "1200" for sig in fb)
        assert any(sig == "1232" for sig in fb)
        assert all("," not in sig for sig in fb)  # never coalesced

    def test_google_has_coalesced_signature(self, small_capture):
        tops = top_length_signatures(small_capture.backscatter)
        google = [sig for sig, _n in tops["Google"]]
        assert any("," in sig for sig in google)

    def test_top_n_limit(self, small_capture):
        tops = top_length_signatures(small_capture.backscatter, top=3)
        assert all(len(entries) <= 3 for entries in tops.values())


class TestTiming:
    def test_initial_rtos_match_profiles(self, small_capture):
        """Figure 3: Cloudflare 1 s, Facebook 0.4 s, Google 0.3 s."""
        profiles = timing_profiles(small_capture.backscatter)
        assert profiles["Facebook"].initial_rto == pytest.approx(0.4, abs=0.05)
        assert profiles["Google"].initial_rto == pytest.approx(0.3, abs=0.05)
        assert profiles["Cloudflare"].initial_rto == pytest.approx(1.0, abs=0.07)

    def test_rto_ordering(self, small_capture):
        profiles = timing_profiles(small_capture.backscatter)
        assert (
            profiles["Google"].initial_rto
            < profiles["Facebook"].initial_rto
            < profiles["Cloudflare"].initial_rto
        )

    def test_exponential_backoff_detected(self, small_capture):
        profiles = timing_profiles(small_capture.backscatter)
        for origin in ("Facebook", "Google", "Cloudflare"):
            assert profiles[origin].backoff_factor == pytest.approx(2.0, abs=0.2)

    def test_resend_ranges(self, small_capture):
        """Figure 4: Facebook 7-9 resends, Google/Cloudflare 3-6."""
        profiles = timing_profiles(small_capture.backscatter)
        fb_low, fb_high = profiles["Facebook"].resend_range
        assert 7 <= fb_low <= fb_high <= 9
        gg_low, gg_high = profiles["Google"].resend_range
        assert 3 <= gg_low <= gg_high <= 6
        cf_low, cf_high = profiles["Cloudflare"].resend_range
        assert 3 <= cf_low <= cf_high <= 6

    def test_facebook_attempts_more_reconnects(self, small_capture):
        """Figure 4's conclusion: Facebook is the most persistent."""
        profiles = timing_profiles(small_capture.backscatter)
        assert profiles["Facebook"].resend_range[1] > profiles["Google"].resend_range[1]

    def test_estimate_rto_empty(self):
        assert estimate_rto([]) is None

    def test_estimate_rto_mode(self):
        gaps = [0.41, 0.39, 0.4, 0.42, 1.0]
        assert estimate_rto(gaps) == pytest.approx(0.4, abs=0.03)
