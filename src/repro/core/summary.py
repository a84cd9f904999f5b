"""The Table 1 summary: deployment configuration matrix per hypergiant.

Pulls together every other analysis — coalescence from the packet mix,
SCID structure from the nybble matrix, RTO/retransmissions from timing,
server-chosen IDs and L7LB quantifiability from SCID semantics — into the
paper's headline table.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from repro.core.packet_mix import PacketMix, packet_mix
from repro.core.scid_entropy import is_structured
from repro.core.scid_stats import ScidStats, table4
from repro.core.selectors import HYPERGIANT_COLUMNS
from repro.core.timing import TimingProfile, timing_profiles
from repro.telescope.classify import CapturedPacket

#: Providers the paper's active probes found echoing the client's DCID.
ECHO_DETECTED_ORIGINS = frozenset({"Google"})


class DeploymentSummary(NamedTuple):
    """One column of Table 1."""

    origin: str
    coalescence: bool
    server_chosen_ids: bool
    structured_scids: bool
    l7_load_balancers: bool  # quantifiable via encoded host IDs
    initial_rto: float | None
    resend_range: tuple[int, int] | None

    def rto_label(self) -> str:
        return rto_label(self.initial_rto)

    def resend_label(self) -> str:
        return resend_label(*(self.resend_range or (0, 0)))


def rto_label(initial_rto: float | None) -> str:
    """Table 1's RTO cell; a first gap is never 0 (flights are > 50 ms apart)."""
    return "%.1f s" % initial_rto if initial_rto else "n/a"


def resend_label(low: int, high: int) -> str:
    """Table 1's re-transmissions cell; ``(0, 0)`` when no session resent."""
    if not high:
        return "n/a"
    return "%d-%d" % (low, high) if low != high else str(low)


def summarize(
    backscatter: Sequence[CapturedPacket],
    echo_detected_origins: frozenset[str] = ECHO_DETECTED_ORIGINS,
) -> dict[str, DeploymentSummary]:
    """Build Table 1 from classified backscatter.

    ``echo_detected_origins`` carries the one fact passive data cannot
    supply: which providers *echo* the client's DCID instead of choosing
    their own SCIDs.  The paper establishes this with active probes
    (:func:`repro.active.prober.detect_echo_behaviour`); pass the result in.
    """
    scids = table4(backscatter)
    return summarize_from(
        packet_mix(backscatter),
        timing_profiles(backscatter),
        scids,
        {origin: is_structured(stats.matrix()) for origin, stats in scids.items()},
        echo_detected_origins,
    )


def summarize_from(
    mix: PacketMix,
    timings: dict[str, TimingProfile],
    scids: dict[str, ScidStats],
    structured_by_origin: dict[str, bool],
    echo_detected_origins: frozenset[str] = ECHO_DETECTED_ORIGINS,
) -> dict[str, DeploymentSummary]:
    """Table 1 from the backscatter analyses Tables 3, 4 and Fig. 3/4 print.

    ``mix`` must count backscatter only: a scanner inside a hypergiant's
    AS says nothing about how its servers coalesce.
    ``structured_by_origin`` is Fig. 5's verdict on ``scids`` (absent: no
    SCIDs), which the caller has computed already.
    """
    out: dict[str, DeploymentSummary] = {}
    for origin in HYPERGIANT_COLUMNS:
        stats = scids.get(origin)
        origin_scids = stats.unique_scids if stats else set()
        structured = structured_by_origin.get(origin, False)
        timing: TimingProfile | None = timings.get(origin)
        out[origin] = DeploymentSummary(
            origin=origin,
            coalescence=mix.uses_coalescence(origin),
            server_chosen_ids=origin not in echo_detected_origins,
            structured_scids=structured,
            # Host IDs quantify L7LBs when the provider chooses structured
            # SCIDs *and* the decoded host-ID field visibly repeats across
            # connections (random values would almost never collide).
            l7_load_balancers=structured
            and origin not in echo_detected_origins
            and _host_ids_repeat(origin_scids),
            initial_rto=timing.initial_rto if timing else None,
            resend_range=timing.resend_range if timing else None,
        )
    return out


def _host_ids_repeat(scids: set, domain: int = 1 << 16) -> bool:
    """True if far fewer distinct host IDs decode from ``scids`` than
    random IDs would give.

    With ``n`` samples drawn uniformly from a 16-bit space, the expected
    number of distinct values is ``domain * (1 - (1 - 1/domain)**n)`` — for
    telescope-scale ``n`` this is ~n.  Genuine host IDs (a few hundred
    machines serving thousands of connections) fall far below that.

    The CID decoders load here, for a structured origin only.
    """
    from repro.core.l7lb import host_ids_from_scids

    host_ids = host_ids_from_scids(scids)
    decodable = sum(1 for s in scids if len(s) == 8)
    if decodable < 16 or len(host_ids) < 2:
        return False
    expected = domain * (1 - (1 - 1 / domain) ** decodable)
    return len(host_ids) < 0.8 * expected
