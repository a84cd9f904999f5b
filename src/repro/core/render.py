"""The fold of a capture table's columns, and the paper's tables as text.

:class:`CaptureFold` is the one way rows reach the ``repro.core``
accumulators: :meth:`CaptureFold.feed` takes a table and a row range and
reads it :data:`FOLD_WINDOW` rows at a time as slices of the columns, so
Python-level work runs once per distinct key — a session, a packet-type
combination, a pair — not once per row.  ``repro analyze`` and the final
``repro live`` print exactly :func:`render_analysis`; it lives beside
the analyses it calls so benches and tests need not import the CLI to
get at it.
"""

from __future__ import annotations

from array import array
from collections import Counter
from functools import cached_property
from itertools import chain, compress, islice, repeat
from operator import and_, itemgetter, mul, sub

from repro.core.packet_mix import LengthSignatures, PacketMix
from repro.core.report import render_histogram, render_table
from repro.core.scid_entropy import structure_of
from repro.core.scid_stats import SERVER_CID_MASK, ScidStats, ScidTable
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
from repro.telescope.classify import KLASS_CODES, PacketClass


#: Rows :meth:`CaptureFold.feed` slices from the columns at a time.  A
#: fixed constant, not a knob: large enough that the per-window cost is
#: lost in the rows' own, small enough that one window's slices are
#: small next to the columns.
FOLD_WINDOW = 4096

#: ``klass`` codes (0 backscatter, 1 scan) -> 1 for backscatter, by ``translate``.
_IS_BACKSCATTER = bytes(
    code == KLASS_CODES[PacketClass.BACKSCATTER] for code in range(256)
)


class _Window:
    """Rows ``[start, end)`` of a capture table as column slices.

    Each derived column is cut on first use and shared by every
    accumulator that reads it.  Slices, ``map``, ``zip`` and ``compress``
    over the columns build them; no Python code runs per row.
    """

    def __init__(self, table, start: int, end: int, by_bytes: bool) -> None:
        self.table, self.start, self.end = table, start, end
        #: Whether :attr:`keys` spell a pair as its ``(dcid, scid)``, not its id.
        self.by_bytes = by_bytes
        #: The scan mask (scans are klass 1) and the backscatter mask.
        self.scan = table.klass[start:end].tobytes()
        self.backscatter = self.scan.translate(_IS_BACKSCATTER)
        self.scans = end - start - self.backscatter.count(1)
        #: The window's packets are ``[first, last)`` of the packet columns.
        self.first, self.last = table.pkt_start[start], table.pkt_start[end]

    def column(self, name: str):
        """The window's slice of a row column."""
        return getattr(self.table, name)[self.start : self.end]

    def server(self, values):
        """The backscatter rows' entries of a row-parallel ``values``."""
        return list(compress(values, self.backscatter)) if self.scans else values

    def client(self, values):
        """The scan rows' entries of a row-parallel ``values``."""
        return list(compress(values, self.scan))

    @cached_property
    def origins(self) -> list:
        return list(map(self.table.origins.__getitem__, self.column("origin_id")))

    @cached_property
    def heads(self):
        """Each row's first packet, as an index into the packet columns."""
        return self.table.pkt_start[self.start : self.end]

    @cached_property
    def keys(self) -> list:
        """Each row's session: source, destination, first packet's pair."""
        pairs = map(self.table.cid.__getitem__, self.heads)
        if self.by_bytes:
            pairs = list(pairs)
            distinct = list(dict.fromkeys(pairs))
            cids = dict(zip(distinct, self.table.pair_cids(distinct)))
            pairs = map(cids.__getitem__, pairs)
        return list(zip(self.column("src_ip"), self.column("dst_ip"), pairs))

    @cached_property
    def versions(self) -> list:
        """Each row's first packet's version."""
        return list(map(self.table.pkt_version.__getitem__, self.heads))

    @cached_property
    def offsets(self) -> list:
        """Where each row's packets start in the window's packet columns,
        and where the last row's end."""
        bounds = self.table.pkt_start[self.start : self.end + 1]
        return list(map(sub, bounds, repeat(self.first)))

    @cached_property
    def shapes(self) -> list:
        """Each row's packets as one ``bytes``, three per packet: its type
        code and the two bytes of its length.  Table 3 and Fig. 7 count
        rows by it (:func:`_split_shapes`)."""
        table, first, last = self.table, self.first, self.last
        blob = bytearray(3 * (last - first))
        blob[0::3] = table.pkt_type[first:last].tobytes()
        lengths = table.pkt_length[first:last].tobytes()
        blob[1::3], blob[2::3] = lengths[0::2], lengths[1::2]
        blob = bytes(blob)
        at = list(map(mul, self.offsets, repeat(3)))
        return list(map(blob.__getitem__, map(slice, at, islice(at, 1, None))))

    def per_packet(self, values):
        """A row-parallel ``values``, each entry repeated for each packet
        of its row."""
        if self.last - self.first == self.end - self.start:
            return values
        sizes = map(sub, islice(self.offsets, 1, None), self.offsets)
        return chain.from_iterable(map(repeat, values, sizes))

    def server_chosen_pairs(self) -> dict:
        """The distinct ``(origin, pair id)`` of backscatter packets whose
        SCID the server chose (:data:`~repro.core.scid_stats.SERVER_CID_MASK`),
        in first-seen packet order."""
        table, first, last = self.table, self.first, self.last
        chosen = table.pkt_type[first:last].tobytes().translate(SERVER_CID_MASK)
        if self.scans:
            chosen = map(and_, chosen, self.per_packet(self.backscatter))
        pairs = zip(self.per_packet(self.origins), table.cid[first:last])
        return dict.fromkeys(compress(pairs, chosen))


def _split_shapes(counts: Counter) -> dict:
    """``{(origin, types, lengths): count}`` of a count of ``(origin,
    shape)`` keys (:attr:`_Window.shapes`), in the same order."""
    out = {}
    for (origin, shape), count in counts.items():
        lengths = bytearray(len(shape) // 3 * 2)
        lengths[0::2], lengths[1::2] = shape[1::3], shape[2::3]
        out[origin, shape[0::3], tuple(array("H", lengths))] = count
    return out


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
        #: The table last fed, and whether session keys spell pairs in bytes.
        self._table = None
        self._by_bytes = False
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

    def feed(self, table, start: int, end: int) -> None:
        """Fold rows ``[start, end)`` of ``table`` (a
        :class:`~repro.capstore.CaptureTable`) into each accumulator that
        counts them, once, :data:`FOLD_WINDOW` rows at a time.

        A session key names its pair by ``table``'s pair id.  Pair ids
        are a table's own, so a fold handed a second table re-keys the
        sessions it holds by their pairs' bytes, which every table spells
        alike, and keys by bytes from then on.
        """
        if table is not self._table:
            if self._table is not None and not self._by_bytes:
                self._by_bytes = True
                for keyed in (self.clients, self.servers, self.sessions):
                    if keyed is not None:
                        keyed.rekey(self._table.pair_cids)
            self._table = table
        for at in range(start, end, FOLD_WINDOW):
            self._fold(_Window(table, at, min(at + FOLD_WINDOW, end), self._by_bytes))

    def _fold(self, rows: _Window) -> None:
        """One window: each accumulator's counts, over its side's rows."""
        if rows.scans:  # the client side of Table 2, and Table 3
            client = rows.client
            if self.clients is not None:
                self.clients.add_sessions(client(rows.keys), client(rows.versions))
            if self.scan_mix is not None:
                shapes = Counter(client(zip(rows.origins, rows.shapes)))
                self.scan_mix.add_counts(_split_shapes(shapes))
        if rows.scans == rows.end - rows.start:
            return
        table, server = rows.table, rows.server
        if self.servers is not None:
            self.servers.add_sessions(server(rows.keys), server(rows.versions))
        if self.mix is not None or self.signatures is not None:
            # One count serves both: Table 3 reads a key's origin and types.
            counts = _split_shapes(Counter(server(zip(rows.origins, rows.shapes))))
            if self.mix is not None:
                self.mix.add_counts(counts)
            if self.signatures is not None:
                self.signatures.add_counts(counts)
        if self.scids is not None:
            chosen = rows.server_chosen_pairs()
            cids = table.pair_cids([pair for _, pair in chosen])
            self.scids.add_scids(
                (origin, scid) for (origin, _), (_, scid) in zip(chosen, cids)
            )
        if self.sessions is not None:
            self.sessions.add_datagrams(
                server(rows.keys),
                server(rows.origins),
                server(rows.versions),
                server(rows.column("ts")),
                None if rows.by_bytes else table.pair_cids,
            )
        if self.offnet is not None:
            # Not on ``analyze``'s path: one call per datagram, its
            # SCIDs cut once per distinct pair of the window.
            pairs, at = table.cid[rows.first : rows.last], rows.offsets
            distinct = list(dict.fromkeys(pairs))
            cids = dict(zip(distinct, table.pair_cids(distinct)))
            scids = tuple(cids[pair][1] for pair in pairs)
            row_scids = map(scids.__getitem__, map(slice, at, islice(at, 1, None)))
            row_types = map(itemgetter(slice(None, None, 3)), rows.shapes)
            src_ips, lengths = rows.column("src_ip"), rows.column("payload_len")
            for datagram in server(
                zip(rows.origins, src_ips, row_types, row_scids, lengths)
            ):
                self.offnet.add_values(*datagram)
        if self.events is not None:
            add = self.events.add_values
            for src_ip, dst_ip, origin, timestamp in server(
                zip(
                    rows.column("src_ip"),
                    rows.column("dst_ip"),
                    rows.origins,
                    rows.column("ts"),
                )
            ):
                add(src_ip, dst_ip, origin, timestamp)

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

    ``capture`` is the :class:`~repro.capstore.ClassifiedView` that
    ``analyze``, ``live`` and
    :func:`~repro.telescope.classify.classify_capture` hand in; its
    table's columns are folded in one pass, no object per row.
    """
    wanted = set(wanted)
    # Table 1's RTO rows are the rto table's names.
    found = CaptureFold(wanted | {"rto"} if "1" in wanted else wanted)
    found.feed(capture.table, 0, capture.table.num_rows)
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
