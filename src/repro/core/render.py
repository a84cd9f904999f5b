"""Text rendering of the paper's tables for one classified capture.

``repro analyze`` and the final ``repro live`` print exactly
:func:`render_analysis`; it lives beside the analyses it calls so
benches and tests need not import the CLI to get at it.
"""

from __future__ import annotations

from repro.core.packet_mix import TABLE3_ROWS, LengthSignatures, PacketMix
from repro.core.report import render_histogram, render_table
from repro.core.scid_stats import ScidTable
from repro.core.session import SessionStore
from repro.core.summary import HYPERGIANT_COLUMNS, summarize_from
from repro.core.timing import profiles_of
from repro.core.versions import TABLE2_ROWS, VersionMix

#: The paper's source-network columns (Tables 3/4 and the timing figures).
ORIGINS = ("Cloudflare", "Facebook", "Google", "Remaining")


class CaptureFold:
    """The accumulators a set of table selectors reads; ``None`` if unread.

    Table 1 is assembled from what Tables 3, 4 and ``rto`` print, so a
    render groups sessions once and counts every table once, however
    many selectors share an accumulator.  :meth:`feed` may be called
    again as a capture grows: the state after any prefix, in any
    batching, is the state of one pass over that prefix.

    :func:`render_analysis` formats the accumulators,
    :class:`~repro.stream.reducers.StreamAnalyses` snapshots them while a
    capture grows and :func:`~repro.sweep.metrics.evaluate_metrics` reads
    single numbers off them; the latter two also ask for ``"offnet"``, a
    selector that is not a ``--tables`` name because no table prints it.
    """

    def __init__(self, wanted: set) -> None:
        self.clients = self.servers = None
        if "2" in wanted:
            self.clients, self.servers = VersionMix(), VersionMix()
        #: Backscatter only: Table 1's coalescence mark reads this one alone.
        self.mix = PacketMix() if wanted & {"1", "3"} else None
        self.scan_mix = PacketMix() if "3" in wanted else None
        self.scids = ScidTable() if wanted & {"1", "4"} else None
        self.sessions = SessionStore() if wanted & {"1", "rto"} else None
        self.signatures = LengthSignatures() if "lengths" in wanted else None
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
        offnet = self.offnet
        keyed = servers is not None or sessions is not None
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
                key = (src_ip, dst_ip, scids[0], dcids[0])  # SessionStore.key_of
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
                sessions.add_values(
                    key, origin, versions[0], timestamp, types, payload_length
                )
            if signatures is not None:
                signatures.add_values(origin, types, lengths)
            if offnet is not None:
                offnet.add_values(origin, src_ip, types, scids, payload_length)


def render_analysis(capture, wanted: set) -> str:
    """Render the selected paper tables for a classified capture.

    ``capture`` is anything whose ``datagrams()`` yields the plain-value
    rows of :data:`repro.capstore.table.DATAGRAM_FIELDS`: the columnar
    :class:`~repro.capstore.ClassifiedView` that ``analyze`` and ``live``
    hand in (cut straight from the columns, no object per row), or a
    :class:`~repro.telescope.classify.ClassifiedCapture` of materialized
    packets — both render byte-identically, which the equivalence tests
    and ``bench_analyze`` assert.  The capture is read in one pass.
    """
    wanted = set(wanted)
    found = CaptureFold(wanted)
    found.feed(capture.datagrams())
    profiles = profiles_of(found.sessions) if found.sessions is not None else None
    parts: list[str] = []

    if "1" in wanted:
        summary = summarize_from(found.mix, profiles, found.scids.stats)
        parts.append(
            render_table(
                ["Feature"] + list(HYPERGIANT_COLUMNS),
                [
                    ["Coalescence"]
                    + [summary[h].coalescence for h in HYPERGIANT_COLUMNS],
                    ["Server-chosen IDs"]
                    + [summary[h].server_chosen_ids for h in HYPERGIANT_COLUMNS],
                    ["Structured SCIDs"]
                    + [summary[h].structured_scids for h in HYPERGIANT_COLUMNS],
                    ["Initial RTO"]
                    + [summary[h].rto_label() for h in HYPERGIANT_COLUMNS],
                    ["# re-transmissions"]
                    + [summary[h].resend_label() for h in HYPERGIANT_COLUMNS],
                ],
                title="Table 1 — deployment configurations",
            )
        )
        parts.append("")
    if "2" in wanted:
        clients, servers = found.clients.shares(), found.servers.shares()
        parts.append(
            render_table(
                ["QUIC version", "Clients [%]", "Servers [%]"],
                [
                    [
                        bucket,
                        "%.1f" % clients.share(bucket),
                        "%.1f" % servers.share(bucket),
                    ]
                    for bucket in TABLE2_ROWS
                ],
                title="Table 2 — version adoption",
            )
        )
        parts.append("")
    if "3" in wanted:
        mix = found.mix + found.scan_mix
        parts.append(
            render_table(
                ["Packet type"] + list(ORIGINS),
                [
                    [cat] + ["%.2f" % mix.share(o, cat) for o in ORIGINS]
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
                        profiles[o].sessions,
                        "%.2f" % (profiles[o].initial_rto or 0),
                        str(profiles[o].resend_range),
                    ]
                    for o in ORIGINS
                    if o in profiles
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
