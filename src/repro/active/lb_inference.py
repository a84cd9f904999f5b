"""Appendix-D experiments: same-instance detection and LB-type inference.

Procedure (paper Appendix D):

1. complete a QUIC handshake towards a VIP and keep the connection idle;
2. every second, attempt a *follow-up* handshake to the same VIP with a
   different 5-tuple (new client port), a new client CID — but the same
   server CID S1 as the DCID;
3. a server instance holding state for S1 must silently discard the
   inconsistent Initial (RFC 9000 §5.2) → the follow-up times out; a
   *different* instance completes it.

Consequences: behind a 5-tuple load balancer (Facebook) follow-ups succeed
immediately (new 5-tuple → new L7LB); behind a CID-aware balancer (Google)
they keep reaching the same instance and fail until its connection state
expires (~240 s in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.active.prober import Prober
from repro.core.l7lb import host_id_of, worker_id_of
from repro.quic.version import QUIC_V1

#: Follow-up delays beyond this many seconds indicate CID-aware routing.
CID_AWARE_THRESHOLD = 30.0


@dataclass
class FollowUpOutcome:
    """Result of one Appendix-D measurement against one VIP."""

    vip: int
    initial_scid: bytes
    #: Seconds from the first follow-up attempt until one succeeded
    #: (None: never succeeded within the observation window).
    delay: float | None
    followup_scid: bytes
    attempts: int

    @property
    def followup_host_id(self) -> int | None:
        return host_id_of(self.followup_scid)


def follow_up_delay(
    prober: Prober,
    vip: int,
    version: int = QUIC_V1.value,
    max_wait: float = 300.0,
    interval: float = 1.0,
) -> FollowUpOutcome:
    """Run the Appendix-D procedure against ``vip``."""
    first = prober.handshake(vip, version=version)
    if not first.completed:
        raise RuntimeError("initial handshake to VIP did not complete")
    s1 = first.server_scid
    start = prober.loop.now
    attempts = 0
    while prober.loop.now - start < max_wait:
        attempts += 1
        result = prober.handshake(
            vip,
            version=version,
            dcid=s1,
            timeout=interval * 0.9,
        )
        if result.completed:
            return FollowUpOutcome(
                vip=vip,
                initial_scid=s1,
                delay=prober.loop.now - start,
                followup_scid=result.server_scid,
                attempts=attempts,
            )
        # Wait out the rest of the second before the next attempt.
        prober.advance(max(0.0, interval - (prober.loop.now - start) % interval))
    return FollowUpOutcome(
        vip=vip, initial_scid=s1, delay=None, followup_scid=b"", attempts=attempts
    )


def classify_lb(outcome: FollowUpOutcome, threshold: float = CID_AWARE_THRESHOLD) -> str:
    """Map a follow-up delay to the paper's two load-balancer types."""
    if outcome.delay is None or outcome.delay > threshold:
        return "cid-aware"
    return "5-tuple"


@dataclass
class SameInstanceResult:
    """§4.3 validation: do distinct host IDs mean distinct L7LBs?"""

    vip: int
    first_host_id: int | None
    first_worker_id: int | None
    followup_host_id: int | None
    followup_worker_id: int | None
    followup_delayed: bool

    @property
    def reached_new_instance(self) -> bool:
        return (
            not self.followup_delayed
            and self.followup_host_id is not None
            and (
                self.followup_host_id != self.first_host_id
                or self.followup_worker_id != self.first_worker_id
            )
        )


def same_instance_probe(
    prober: Prober, vip: int, version: int = QUIC_V1.value
) -> SameInstanceResult:
    """One follow-up round, reading host/worker IDs from both SCIDs."""
    outcome = follow_up_delay(prober, vip, version=version, max_wait=10.0)
    return SameInstanceResult(
        vip=vip,
        first_host_id=host_id_of(outcome.initial_scid),
        first_worker_id=worker_id_of(outcome.initial_scid),
        followup_host_id=host_id_of(outcome.followup_scid)
        if outcome.followup_scid
        else None,
        followup_worker_id=worker_id_of(outcome.followup_scid)
        if outcome.followup_scid
        else None,
        followup_delayed=outcome.delay is None or outcome.delay > 5.0,
    )
