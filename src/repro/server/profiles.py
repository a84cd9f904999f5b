"""Deployment profiles encoding each hypergiant's observable QUIC behaviour.

Values follow the paper's measurements (Tables 1, 3, 4 and Figures 3, 4, 7):

===================  ==========  ==========  ==========
Feature              Cloudflare  Facebook    Google
===================  ==========  ==========  ==========
Coalescence          rare (~6%)  never       usual (~69% of flights)
Server-chosen IDs    yes         yes         no (echoes client DCID)
Structured SCIDs     yes (20 B)  yes (mvfst) no
Initial RTO          1.0 s       0.4 s       0.3 s
Max retransmissions  3-6         7-9         3-6
LB routing           5-tuple     5-tuple     CID-aware
===================  ==========  ==========  ==========

Packet/datagram sizes are synthetic but fixed per profile so that Figure 7's
"distinct length patterns per hypergiant" reproduces; the exact byte values
are documented here and in DESIGN.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.quic.cid.base import CidScheme, RandomScheme
from repro.quic.cid.cloudflare import CloudflareScheme
from repro.quic.cid.google import GoogleEchoScheme
from repro.quic.cid.mvfst import MvfstScheme
from repro.quic.version import DRAFT_29, GQUIC_Q050, MVFST_1, MVFST_2, QUIC_V1

#: LB routing modes.  5-tuple and CID-aware are observed in the wild
#: (paper §4.3); QUIC-LB is the IETF draft the paper's outlook discusses —
#: routable CIDs that encode the backend explicitly.
ROUTE_5TUPLE = "5-tuple"
ROUTE_CID = "cid-aware"
ROUTE_QUIC_LB = "quic-lb"


@dataclass
class ServerProfile:
    """Everything a simulated QUIC deployment needs to behave like a stack."""

    name: str
    cid_scheme: CidScheme
    #: Versions the server accepts (first entry is what it prefers).
    supported_versions: tuple[int, ...] = (QUIC_V1.value,)
    #: Probability that a response flight coalesces Initial+Handshake into
    #: one datagram (0.0 = never, like mvfst; ~0.69 reproduces Google's
    #: packet shares in Table 3).
    coalesce_probability: float = 0.0
    #: Retransmission timer: first timeout, exponential base, and the
    #: inclusive range from which each server instance draws its maximum
    #: number of retransmissions.
    initial_rto: float = 0.5
    rto_backoff: float = 2.0
    max_retransmits: tuple[int, int] = (3, 6)
    #: Idle lifetime of established connection state — the paper observes
    #: ~240 s at Google via follow-up-handshake failures.
    idle_timeout: float = 60.0
    #: UDP payload targets (QUIC bytes per datagram) for the server flight.
    initial_datagram_size: int = 1200
    handshake_datagram_size: int = 1200
    coalesced_datagram_size: int = 1252
    #: How the fabric routes packets to L7LBs.
    routing: str = ROUTE_5TUPLE
    #: Small-probability behaviours rounding out Table 3.
    zero_rtt_probability: float = 0.0
    retry_probability: float = 0.0
    #: Packet protection suite name ("fast" for bulk simulation).
    protection_suite: str = "fast"
    #: Workers (processes) per L7LB host; mvfst encodes the worker ID.
    workers_per_host: int = 2

    def draw_max_retransmits(self, rng: random.Random) -> int:
        low, high = self.max_retransmits
        return rng.randint(low, high)

    def rto_schedule(self, max_retransmits: int) -> list[float]:
        """Offsets (seconds since first flight) of every retransmission."""
        offsets = []
        elapsed = 0.0
        timeout = self.initial_rto
        for _ in range(max_retransmits):
            elapsed += timeout
            offsets.append(elapsed)
            timeout *= self.rto_backoff
        return offsets


def cloudflare_profile(colo_id: int = 1) -> ServerProfile:
    """Cloudflare: 20-byte structured SCIDs, 1 s RTO, rare coalescence."""
    return ServerProfile(
        name="Cloudflare",
        cid_scheme=CloudflareScheme(colo_id=colo_id),
        supported_versions=(QUIC_V1.value, DRAFT_29.value),
        coalesce_probability=0.064,
        initial_rto=1.0,
        max_retransmits=(3, 6),
        idle_timeout=180.0,
        initial_datagram_size=1200,
        handshake_datagram_size=1242,
        coalesced_datagram_size=1242,
        routing=ROUTE_5TUPLE,
    )


def facebook_profile(cid_version: int = 1) -> ServerProfile:
    """Facebook mvfst: structured 8-byte SCIDs, 0.4 s RTO, no coalescence."""
    return ServerProfile(
        name="Facebook",
        cid_scheme=MvfstScheme(cid_version=cid_version),
        supported_versions=(QUIC_V1.value, MVFST_2.value, MVFST_1.value),
        coalesce_probability=0.0,
        initial_rto=0.4,
        max_retransmits=(7, 9),
        idle_timeout=60.0,
        initial_datagram_size=1200,
        handshake_datagram_size=1232,
        routing=ROUTE_5TUPLE,
        workers_per_host=4,
    )


def google_profile() -> ServerProfile:
    """Google: echoed client DCIDs, 0.3 s RTO, heavy coalescence, CID-aware LB."""
    return ServerProfile(
        name="Google",
        cid_scheme=GoogleEchoScheme(),
        # Q050: Google still served legacy gQUIC alongside v1 in 2022 —
        # the main contributor to Table 2's server-side "others" bucket.
        supported_versions=(QUIC_V1.value, DRAFT_29.value, GQUIC_Q050.value),
        coalesce_probability=0.69,
        initial_rto=0.3,
        max_retransmits=(3, 6),
        idle_timeout=240.0,
        initial_datagram_size=1200,
        handshake_datagram_size=1052,
        coalesced_datagram_size=1252,
        routing=ROUTE_CID,
        zero_rtt_probability=0.005,
    )


def quic_lb_profile() -> ServerProfile:
    """A hypothetical deployment of the IETF QUIC-LB draft (§5 outlook).

    Routable CIDs carry an explicit server ID, so the fabric can route
    *any* CID the deployment minted — including rotated ones — back to the
    right L7LB.  Used by the migration ablation bench.
    """
    from repro.quic.cid.quic_lb import QuicLbConfig, QuicLbScheme

    return ServerProfile(
        name="QuicLB",
        cid_scheme=QuicLbScheme(
            config=QuicLbConfig(config_rotation=1, server_id_length=2, nonce_length=5)
        ),
        supported_versions=(QUIC_V1.value,),
        coalesce_probability=0.5,
        initial_rto=0.3,
        max_retransmits=(3, 5),
        idle_timeout=120.0,
        routing=ROUTE_QUIC_LB,
        # QUIC-LB CIDs identify the *host*; intra-host dispatch would use a
        # shared CID table, modelled here as a single worker per host.
        workers_per_host=1,
    )


#: Canonical instances used throughout tests and scenarios.
CLOUDFLARE_PROFILE = cloudflare_profile()
FACEBOOK_PROFILE = facebook_profile()
GOOGLE_PROFILE = google_profile()


def _generic_cid_scheme(rng: random.Random, cid_length: int):
    """CID scheme mix for non-hypergiant stacks.

    Besides purely random IDs, real small stacks use fixed lead bytes
    (build tags, config epochs) or small counters.  Both can *collide* with
    mvfst's bit layout, which is precisely what gives the paper's SCID-only
    off-net classifier its false positives (Table 6).
    """
    from repro.quic.cid.base import FixedPrefixScheme

    roll = rng.random()
    if cid_length != 8 or roll < 0.57:
        return RandomScheme(length=cid_length)
    if roll < 0.97:
        # Fixed 3-byte lead: 1/4 of these land in mvfst's version-1 space.
        prefix = rng.getrandbits(24).to_bytes(3, "big")
        return FixedPrefixScheme(length=cid_length, prefix=prefix)
    # Counter-style low lead bytes: parse as mvfst v1 with a low host ID.
    prefix = bytes([0x40 | rng.randrange(4), 0x00, rng.randrange(0x20)])
    return FixedPrefixScheme(length=cid_length, prefix=prefix)


def generic_profile(
    name: str,
    rng: random.Random,
    cid_length: int | None = None,
) -> ServerProfile:
    """A randomized profile for "Remaining" (non-hypergiant) servers.

    Draws an RTO, retransmission budget, CID length, and sizes from ranges
    that cover the diversity of smaller stacks in telescope data (Table 4
    notes occasional 4/12/14/20-byte SCIDs among mostly 8-byte ones).
    """
    if cid_length is None:
        cid_length = rng.choices([8, 4, 12, 14, 20], weights=[180, 1, 1, 1, 1])[0]
    return ServerProfile(
        name=name,
        cid_scheme=_generic_cid_scheme(rng, cid_length),
        supported_versions=(
            (QUIC_V1.value, DRAFT_29.value)
            if rng.random() < 0.85
            else (DRAFT_29.value,)
        ),
        coalesce_probability=rng.choice([0.0, 0.0, 0.1, 0.5]),
        initial_rto=rng.choice([0.2, 0.25, 0.4, 0.5, 0.5, 1.0]),
        max_retransmits=(low := rng.randint(2, 6), min(low + rng.randint(0, 3), 9)),
        idle_timeout=rng.choice([30.0, 60.0, 120.0]),
        initial_datagram_size=1200,
        handshake_datagram_size=rng.choice([900, 1100, 1200, 1350]),
        coalesced_datagram_size=rng.choice([1252, 1357]),
        routing=ROUTE_5TUPLE,
        retry_probability=0.0005,
    )
