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

from collections import Counter
from itertools import repeat
from operator import sub
from typing import Sequence

from repro.core.session import Session, SessionStore
from repro.telescope.classify import CapturedPacket

#: Datagrams closer than this to the start of the current flight belong
#: to it (e.g. an Initial and its Handshake).
FLIGHT_WINDOW = 0.05


class TimingProfile:
    """Estimated retransmission configuration of one origin network."""

    __slots__ = ("origin", "sessions", "initial_rto", "backoff_factor", "resend_counts")

    def __init__(
        self,
        origin: str,
        sessions: int,
        initial_rto: float | None,
        backoff_factor: float | None,
        resend_counts: Counter | None = None,
    ) -> None:
        self.origin = origin
        self.sessions = sessions
        self.initial_rto = initial_rto
        self.backoff_factor = backoff_factor
        self.resend_counts = Counter() if resend_counts is None else resend_counts

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return "TimingProfile(%s)" % ", ".join(
            "%s=%r" % item for item in zip(self.__slots__, self._fields())
        )

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
        if not times or t - times[-1] > FLIGHT_WINDOW:
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
    return _median(in_bin)


def _median(values: list[float]) -> float:
    """``statistics.median`` of a non-empty list, by the same arithmetic:
    the middle value, or the mean of the two middle values."""
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def profiles_of(store: SessionStore) -> dict[str, TimingProfile]:
    """Per-origin timing profiles of already grouped backscatter sessions.

    One pass over each session's arrival times finds its flights (as
    :func:`flight_times` does), the gap before its first resend and the
    ratio of each gap to the one before; a session's backoff is the
    median of its ratios, an origin's the median of its sessions'.
    """
    found: dict[str, tuple] = {}
    for session in store.sessions():
        origin = session.origin
        if origin not in found:
            found[origin] = ([], [], Counter())
        first_gaps, backoffs, resend_counts = found[origin]
        stamps = session.timestamps
        flight = 0.0  # when the current flight started, relative to the first
        gap = None
        ratios = []
        for t in map(sub, stamps, repeat(stamps[0])):
            if t - flight > FLIGHT_WINDOW:
                if gap is None:
                    first_gaps.append(t - flight)
                else:
                    ratios.append((t - flight) / gap)
                gap, flight = t - flight, t
        if ratios:
            backoffs.append(_median(ratios))
        resend_counts[0 if gap is None else len(ratios) + 1] += 1
    return {
        origin: TimingProfile(
            origin=origin,
            sessions=sum(resend_counts.values()),  # one count per session
            initial_rto=estimate_rto(first_gaps),
            backoff_factor=_median(backoffs) if backoffs else None,
            resend_counts=resend_counts,
        )
        for origin, (first_gaps, backoffs, resend_counts) in found.items()
    }


def timing_profiles(packets: Sequence[CapturedPacket]) -> dict[str, TimingProfile]:
    """Per-origin timing profiles from classified backscatter."""
    return profiles_of(SessionStore.from_packets(packets))
