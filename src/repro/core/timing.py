"""Retransmission timing analysis (paper Figures 3 and 4).

Backscatter sessions contain a server's full retransmission ladder: the
spoofed "client" never answers, so the server resends its Initial/Handshake
flight until it gives up.  From the per-session arrival times we estimate

* the *initial retransmission timeout* (first resend gap: the paper finds
  1 s at Cloudflare, 0.4 s at Facebook, 0.3 s at Google),
* the backoff factor (all deployments use exponential backoff), and
* the distribution of resend counts (Figure 4), whose support reveals each
  deployment's maximum-retransmission configuration.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from typing import Sequence
from dataclasses import dataclass, field

from repro.core.session import Session, SessionStore
from repro.telescope.classify import CapturedPacket


@dataclass
class TimingProfile:
    """Estimated retransmission configuration of one origin network."""

    origin: str
    sessions: int
    initial_rto: float | None
    backoff_factor: float | None
    resend_counts: Counter = field(default_factory=Counter)

    @property
    def resend_range(self) -> tuple[int, int] | None:
        """Observed (min, max) resends among sessions that resent at all."""
        observed = [
            n for n, count in self.resend_counts.items() if n > 0 and count > 0
        ]
        if not observed:
            return None
        return (min(observed), max(observed))


def flight_times(session: Session) -> list[float]:
    """Relative arrival time of each flight (datagrams closer than 50 ms to
    the previous flight are the same flight — e.g. Initial + Handshake)."""
    times: list[float] = []
    for t in session.relative_times():
        if not times or t - times[-1] > 0.05:
            times.append(t)
    return times


def _gaps(times: list[float]) -> list[float]:
    return [b - a for a, b in zip(times, times[1:])]


def session_gaps(session: Session) -> list[float]:
    """Gaps between consecutive flights of one session."""
    return _gaps(flight_times(session))


def estimate_rto(first_gaps: list[float]) -> float | None:
    """Estimate the initial RTO as the mode of binned first-resend gaps.

    Network jitter spreads the observed gaps; 50 ms bins reproduce the
    peaks visible in the paper's Figure 3.
    """
    if not first_gaps:
        return None
    bins = Counter(round(gap / 0.05) for gap in first_gaps)
    top_bin, _count = bins.most_common(1)[0]
    in_bin = [g for g in first_gaps if round(g / 0.05) == top_bin]
    return statistics.median(in_bin)


def _backoff(gaps: list[float]) -> float | None:
    if len(gaps) < 2:
        return None
    ratios = [b / a for a, b in zip(gaps, gaps[1:]) if a > 0]
    return statistics.median(ratios) if ratios else None


def profiles_of(store: SessionStore) -> dict[str, TimingProfile]:
    """Per-origin timing profiles of already grouped backscatter sessions."""
    by_origin: dict[str, list[Session]] = defaultdict(list)
    for session in store.sessions():
        by_origin[session.origin].append(session)

    profiles: dict[str, TimingProfile] = {}
    for origin, sessions in by_origin.items():
        first_gaps: list[float] = []
        backoffs: list[float] = []
        resend_counts: Counter = Counter()
        for session in sessions:
            times = flight_times(session)
            gaps = _gaps(times)
            if gaps:
                first_gaps.append(gaps[0])
            backoff = _backoff(gaps)
            if backoff is not None:
                backoffs.append(backoff)
            resend_counts[len(times) - 1] += 1
        profiles[origin] = TimingProfile(
            origin=origin,
            sessions=len(sessions),
            initial_rto=estimate_rto(first_gaps),
            backoff_factor=statistics.median(backoffs) if backoffs else None,
            resend_counts=resend_counts,
        )
    return profiles


def timing_profiles(packets: Sequence[CapturedPacket]) -> dict[str, TimingProfile]:
    """Per-origin timing profiles from classified backscatter."""
    return profiles_of(SessionStore.from_packets(packets))
