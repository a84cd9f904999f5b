"""Text rendering of the paper's tables for one classified capture.

``repro analyze`` and the final ``repro live`` print exactly
:func:`render_analysis`; it lives beside the analyses it calls so
benches and tests need not import the CLI to get at it.
"""

from __future__ import annotations

from collections import Counter

from repro.core.packet_mix import LengthSignatures, PacketMix
from repro.core.report import render_histogram, render_table
from repro.core.scid_entropy import structure_of
from repro.core.scid_stats import ScidStats, ScidTable
from repro.core.selectors import (
    HYPERGIANT_COLUMNS,
    ORIGINS,
    PACKET_CATEGORIES,
    SIDES,
    SUMMARY_FEATURES,
    TABLE2_ROWS,
    TABLE3_ROWS,
)
from repro.core.session import SessionStore
from repro.core.summary import resend_label, rto_label, summarize_from
from repro.core.timing import profiles_of
from repro.core.versions import VersionMix, session_shares


class CaptureFold:
    """The accumulators a set of table selectors reads; ``None`` if unread.

    Table 1 is assembled from what Tables 3, 4 and ``rto`` print, so a
    render groups sessions once and counts every table once, however
    many selectors share an accumulator.  :meth:`feed` may be called
    again as a capture grows: the state after any prefix, in any
    batching, is the state of one pass over that prefix.

    :meth:`values` names every number the accumulators hold.
    :func:`render_analysis` formats them,
    :class:`~repro.stream.reducers.StreamAnalyses` snapshots them while a
    capture grows and :func:`~repro.sweep.metrics.evaluate_metrics` picks
    single names; the latter two also ask for ``"offnet"``, and the
    latter for ``"entropy"`` and ``"events"``: selectors no table prints.
    """

    def __init__(self, wanted: set) -> None:
        self.wanted = frozenset(wanted)
        self.sessions = SessionStore() if wanted & {"1", "rto"} else None
        self.clients = self.servers = None
        if "2" in wanted:
            self.clients = VersionMix()
            # The servers' sessions are the store's when it is kept anyway.
            self.servers = VersionMix() if self.sessions is None else None
        #: Backscatter only: Table 1's coalescence mark reads this one alone.
        self.mix = PacketMix() if wanted & {"1", "3"} else None
        self.scan_mix = PacketMix() if "3" in wanted else None
        self.scids = ScidTable() if wanted & {"1", "4", "entropy"} else None
        self.signatures = LengthSignatures() if "lengths" in wanted else None
        self.events = None
        if "events" in wanted:
            # On demand, like ``offnet``: no ``--tables`` selector reads it.
            from repro.core.ibr_activity import FloodEvents

            self.events = FloodEvents()
        #: Table 6's per-datagram features, backscatter outside the hypergiants.
        self.offnet = None
        if "offnet" in wanted:
            # On demand: the module scores against certificates and loads
            # ``repro.tls`` for them, which no ``--tables`` selector needs.
            from repro.core.offnet import OffnetServers

            self.offnet = OffnetServers()

    def feed(self, datagrams) -> None:
        """Hand each datagram (a ``DATAGRAM_FIELDS`` tuple) to each
        accumulator that counts it, once."""
        clients, servers = self.clients, self.servers
        mix, scan_mix = self.mix, self.scan_mix
        scid_table, sessions, signatures = self.scids, self.sessions, self.signatures
        offnet, events = self.offnet, self.events
        keyed = clients is not None or sessions is not None
        key = None
        for (
            timestamp,
            src_ip,
            dst_ip,
            klass,
            origin,
            payload_length,
            types,
            versions,
            dcids,
            scids,
            lengths,
        ) in datagrams:
            if keyed:
                key = (src_ip, dst_ip, scids[0], dcids[0])  # session_key
            if klass:  # a scan: the client side of Table 2, and Table 3
                if clients is not None:
                    clients.add_values(key, versions[0])
                if scan_mix is not None:
                    scan_mix.add_values(origin, types)
                continue
            if servers is not None:
                servers.add_values(key, versions[0])
            if mix is not None:
                mix.add_values(origin, types)
            if scid_table is not None:
                scid_table.add_values(origin, types, scids)
            if sessions is not None:
                sessions.add_values(key, origin, versions[0], timestamp)
            if signatures is not None:
                signatures.add_values(origin, types, lengths)
            if offnet is not None:
                offnet.add_values(origin, src_ip, types, scids, payload_length)
            if events is not None:
                events.add_values(src_ip, dst_ip, origin, timestamp)

    def values(self) -> dict:
        """``{name: number}`` for every name of :mod:`repro.core.selectors`'
        grammar the wanted selectors name, zeros included: the
        accumulators hold the counts, Fig. 5's matrix is built once per
        origin and the sessions are profiled once, for Table 1 too."""
        wanted, out = self.wanted, {}
        if self.clients is not None:
            servers = (
                self.servers.shares()
                if self.servers is not None
                else session_shares(self.sessions)
            )
            for side, shares in zip(SIDES, (self.clients.shares(), servers)):
                for bucket in TABLE2_ROWS:
                    key = "%s.%s" % (side, bucket)
                    out["version_share." + key] = shares.share(bucket)
                    out["sessions." + key] = shares.counts.get(bucket, 0)
                out["sessions.%s.total" % side] = shares.total
        if self.scan_mix is not None:
            mix = self.mix + self.scan_mix  # Table 3 counts backscatter + scans
            for origin in ORIGINS:
                counts = mix.counts.get(origin, {})
                for cat in TABLE3_ROWS:
                    out["packet_share.%s.%s" % (origin, cat)] = mix.share(origin, cat)
                for cat in PACKET_CATEGORIES:
                    out["packet_mix.%s.%s" % (origin, cat)] = counts.get(cat, 0)
        structured = {}
        for origin in ORIGINS if self.scids is not None else ():
            stats = self.scids.stats.get(origin) or ScidStats(origin)
            matrix = stats.matrix()
            structured[origin], chi2 = structure_of(matrix)
            if "4" in wanted:
                out["scid_unique." + origin] = stats.unique_count
                out["scid_dominant_len." + origin] = stats.dominant_length or 0
                out["scid_structured." + origin] = int(structured[origin])
                out["scid_max_chi2." + origin] = chi2
            if "entropy" in wanted:
                entropy = matrix.entropy_per_position() or [0.0]
                out["scid_entropy.first." + origin] = entropy[0]
                out["scid_entropy.min." + origin] = min(entropy)
                out["scid_entropy.last." + origin] = entropy[-1]
        profiles = profiles_of(self.sessions) if self.sessions is not None else {}
        for origin in ORIGINS if "rto" in wanted else ():
            profile = profiles.get(origin)
            low, high = profile and profile.resend_range or (0, 0)
            out["rto.sessions." + origin] = profile.sessions if profile else 0
            out["rto.initial." + origin] = profile and profile.initial_rto or 0
            out["rto.backoff." + origin] = profile and profile.backoff_factor or 0
            out["resends.min." + origin], out["resends.max." + origin] = low, high
        for origin in ORIGINS if self.signatures is not None else ():
            top = self.signatures.counts.get(origin, Counter()).most_common(1)
            out["length_top_packets." + origin] = len(top[0][0]) if top else 0
        if "1" in wanted:
            summary = summarize_from(self.mix, profiles, self.scids.stats, structured)
            for hypergiant, column in summary.items():
                for feature in SUMMARY_FEATURES:
                    name = "summary.%s.%s" % (hypergiant, feature)
                    out[name] = int(getattr(column, feature))
        if self.offnet is not None:
            out["offnet.servers"], out["offnet.low_host_id"] = self.offnet.counts()
        if self.events is not None:
            events = self.events.events()
            per_origin = Counter(event.origin for event in events)
            for origin in ORIGINS:
                out["flood_events." + origin] = per_origin[origin]
            out["flood_victims"] = len({event.victim for event in events})
        return out


def render_analysis(capture, wanted: set) -> str:
    """Render the selected paper tables for a classified capture.

    ``capture`` is anything whose ``datagrams()`` yields the plain-value
    rows of :data:`repro.telescope.classify.DATAGRAM_FIELDS`, as the
    :class:`~repro.capstore.ClassifiedView` that ``analyze``, ``live`` and
    :func:`~repro.telescope.classify.classify_capture` hand in does: cut
    straight from the columns, no object per row.  The capture is read in
    one pass.
    """
    wanted = set(wanted)
    # Table 1's RTO rows are the rto table's names.
    found = CaptureFold(wanted | {"rto"} if "1" in wanted else wanted)
    found.feed(capture.datagrams())
    values = found.values()
    parts: list[str] = []

    def resends(origin):  # (0, 0): no session of ``origin`` resent
        return values["resends.min." + origin], values["resends.max." + origin]

    if "1" in wanted:
        columns = HYPERGIANT_COLUMNS
        labels = ("Coalescence", "Server-chosen IDs", "Structured SCIDs")
        rows = [
            [label] + [bool(values["summary.%s.%s" % (h, name)]) for h in columns]
            for label, name in zip(labels, SUMMARY_FEATURES)
        ]
        rows += [
            ["Initial RTO"] + [rto_label(values["rto.initial." + h]) for h in columns],
            ["# re-transmissions"] + [resend_label(*resends(h)) for h in columns],
        ]
        parts.append(
            render_table(
                ["Feature"] + list(columns),
                rows,
                title="Table 1 — deployment configurations",
            )
        )
        parts.append("")
    if "2" in wanted:
        share = "version_share.%s.%s"
        parts.append(
            render_table(
                ["QUIC version", "Clients [%]", "Servers [%]"],
                [
                    [bucket] + ["%.1f" % values[share % (s, bucket)] for s in SIDES]
                    for bucket in TABLE2_ROWS
                ],
                title="Table 2 — version adoption",
            )
        )
        parts.append("")
    if "3" in wanted:
        share = "packet_share.%s.%s"
        parts.append(
            render_table(
                ["Packet type"] + list(ORIGINS),
                [
                    [cat] + ["%.2f" % values[share % (o, cat)] for o in ORIGINS]
                    for cat in TABLE3_ROWS
                ],
                title="Table 3 — packet types per source network [%]",
            )
        )
        parts.append("")
    if "4" in wanted:
        stats = found.scids.stats
        parts.append(
            render_table(
                ["Origin AS", "SCID length", "Unique SCIDs"],
                [
                    [o, stats[o].length_summary(), stats[o].unique_count]
                    for o in ORIGINS
                    if o in stats
                ],
                title="Table 4 — SCID statistics",
            )
        )
        parts.append("")
    if "rto" in wanted:
        parts.append(
            render_table(
                ["Origin", "sessions", "initial RTO [s]", "resends"],
                [
                    [
                        o,
                        values["rto.sessions." + o],
                        "%.2f" % values["rto.initial." + o],
                        str(resends(o)) if resends(o)[1] else "None",
                    ]
                    for o in ORIGINS
                    if values["rto.sessions." + o]  # an origin with a profile
                ],
                title="Figure 3/4 — retransmission behaviour",
            )
        )
        parts.append("")
    if "lengths" in wanted:
        for origin, entries in found.signatures.top().items():
            parts.append(render_histogram(entries, width=30, title=origin))
            parts.append("")
    return "\n".join(parts)
