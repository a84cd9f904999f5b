"""Record bytes → column appends: the sanitisation verdict (paper §3.2).

The paper's pipeline — UDP/443, then the QUIC dissector, then removal of
acknowledged scanners — decided here for one capture record at a time,
straight from the bytes of the pcap chunk the record sits in:

1. IPv4+UDP headers (:func:`~repro.netstack.udp.scan_udp`); everything
   else is non-QUIC noise;
2. source port 443 → candidate *backscatter* (server responses to
   spoofed traffic), destination port 443 → candidate *scan* (client
   requests);
3. false-positive removal with the QUIC dissector
   (:func:`~repro.core.dissector.dissect_at`, Wireshark-equivalent);
4. removal of acknowledged research scanners (requests only — their
   documented behaviour would bias version statistics);
5. origin of the remote side (hypergiant name or "Remaining").

The paper's order holds for everything Wireshark's dissector decides:
the structural dissection runs first for every record, so a non-QUIC
payload from an acknowledged prefix is still ``failed_dissection``.  The
AEAD open of a scan's client Initial (its keys derive from the DCID) is
this repository's addition to step 3 — Wireshark labels a packet QUIC
whether or not it decrypts — and authenticates only what survives: the
scanner lookup of step 4 is made before the dissection, and a scan that
step removes anyway is not opened.  Kept rows are the same either way.

A kept record becomes one row of a :class:`CaptureTable`, its long
headers that row's packet entries, copied field by field from the
offsets the scanners returned; a packet's (DCID, SCID) pair is interned
(:meth:`CaptureTable.pair_index`), so a pair seen before adds only its
id.  No record, datagram, header or packet object exists in between;
callers that want one ask the table (:meth:`CaptureTable.materialize`).
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from typing import Callable, Optional

from repro.capstore.table import CaptureTable
from repro.core.dissector import DissectError, dissect_at
from repro.inetdata.asdb import AsDatabase
from repro.netstack.udp import QUIC_PORT, scan_udp
from repro.quic.packet import DCID_AT, PacketType
from repro.telescope.acknowledged import AcknowledgedScanners
from repro.telescope.classify import KLASS_CODES, PacketClass

_BACKSCATTER = KLASS_CODES[PacketClass.BACKSCATTER]
_SCAN = KLASS_CODES[PacketClass.SCAN]
_RETRY = PacketType.RETRY.value
_VERSION_NEGOTIATION = PacketType.VERSION_NEGOTIATION.value

#: ``verdict(timestamp, buf, start, end)`` → ``None`` (kept, row appended)
#: or the :data:`~repro.core.selectors.DROP_REASONS` name.
Verdict = Callable[[float, bytes, int, int], Optional[str]]


def record_verdict(
    table: CaptureTable,
    asdb: Optional[AsDatabase] = None,
    acknowledged: Optional[AcknowledgedScanners] = None,
    validate_crypto_scans: bool = True,
) -> Verdict:
    """The keep/drop decision for one record, appending kept rows to ``table``.

    Returns ``verdict(timestamp, buf, start, end)`` for the record whose
    bytes are ``buf[start:end]``: it either appends one complete row
    (row and packet columns alike only once the whole datagram passed)
    and returns ``None``, or appends nothing and returns the drop reason.
    The decision is stateless per record, which is what makes extending
    a grown capture's index exactly equivalent to rebuilding it.

    Origin and acknowledged-scanner lookups go through the two tries
    flattened once, here: build a new verdict after registering prefixes.
    ``validate_crypto_scans`` additionally AEAD-validates client Initials
    in the scan traffic step 4 keeps; the rest is validated structurally,
    as in Wireshark.
    """
    origin_starts, origin_labels = (
        asdb.origin_intervals() if asdb is not None else ([0], ["Remaining"])
    )
    #: Interval → id in ``table.origins``, filled in as origins are seen so
    #: the origin table keeps its first-seen order.
    origin_ids: list = [None] * len(origin_labels)
    scanner_starts, scanner_flags = (
        acknowledged.intervals() if acknowledged is not None else ([0], [False])
    )

    # First: on a loaded table this also makes the blobs growable.
    pair_ids = table.pair_index()
    add_ts = table.ts.append
    add_src_ip = table.src_ip.append
    add_dst_ip = table.dst_ip.append
    add_peer_port = table.peer_port.append
    add_payload_len = table.payload_len.append
    add_klass = table.klass.append
    add_origin_id = table.origin_id.append
    add_pkt_start = table.pkt_start.append
    pkt_type = table.pkt_type
    add_pkt_type = pkt_type.append
    add_pkt_version = table.pkt_version.append
    add_pkt_pn_offset = table.pkt_pn_offset.append
    add_pkt_length = table.pkt_length.append
    add_cid = table.cid.append
    add_token_len = table.token_len.append
    add_dcid_len = table.dcid_len.append
    add_scid_len = table.scid_len.append
    add_cid_start = table.cid_start.append
    add_sv_count = table.sv_count.append
    sv_values = table.sv_values
    cid_blob = table.cid_blob
    add_cid_bytes = cid_blob.extend
    add_token_bytes = table.token_blob.extend

    def verdict(timestamp: float, buf: bytes, start: int, end: int) -> Optional[str]:
        try:
            src_ip, dst_ip, src_port, dst_port, _ttl, payload_start, payload_end = (
                scan_udp(buf, start, end)
            )
        except ValueError:  # IpParseError or UdpParseError
            return "non_udp"
        if src_port == QUIC_PORT:
            klass, peer_port = _BACKSCATTER, dst_port
        elif dst_port == QUIC_PORT:
            klass, peer_port = _SCAN, src_port
        else:
            return "non_port_443"
        acknowledged_scan = (
            klass == _SCAN
            and scanner_flags[bisect_right(scanner_starts, src_ip) - 1]
        )
        try:
            packets = dissect_at(
                buf,
                payload_start,
                payload_end,
                validate_crypto_scans and klass == _SCAN and not acknowledged_scan,
            )
        except DissectError:
            return "failed_dissection"
        if acknowledged_scan:
            return "acknowledged_scanner"
        interval = bisect_right(origin_starts, src_ip) - 1
        origin_id = origin_ids[interval]
        if origin_id is None:
            origin_id = origin_ids[interval] = table.origin_index(
                origin_labels[interval]
            )

        add_ts(timestamp)
        add_src_ip(src_ip)
        add_dst_ip(dst_ip)
        add_peer_port(peer_port)
        add_payload_len(payload_end - payload_start)
        add_klass(klass)
        add_origin_id(origin_id)
        for (
            at,
            kind,
            version,
            dcid_len,
            scid_len,
            token_at,
            token_len,
            pn_offset,
            packet_length,
            _payload_length,
        ) in packets:
            add_pkt_type(kind)
            add_pkt_version(version)
            add_pkt_pn_offset(pn_offset)
            add_pkt_length(packet_length)
            # The pair as the header spells it, both length bytes included,
            # is one slice: a repeated pair costs one dict lookup.
            dcid_at = at + DCID_AT
            scid_end = dcid_at + dcid_len + 1 + scid_len
            pair = buf[dcid_at - 1 : scid_end]
            cid = pair_ids.get(pair)
            if cid is None:
                cid = pair_ids[pair] = len(pair_ids)
                add_dcid_len(dcid_len)
                add_scid_len(scid_len)
                add_cid_bytes(buf[dcid_at : dcid_at + dcid_len])
                add_cid_bytes(buf[scid_end - scid_len : scid_end])
                add_cid_start(len(cid_blob))
            add_cid(cid)
            if kind == _RETRY:
                token_len = at + packet_length - 16 - token_at
            elif kind == _VERSION_NEGOTIATION:
                count = (at + packet_length - token_at) // 4
                sv_values.extend(struct.unpack_from("!%dI" % count, buf, token_at))
                add_sv_count(count)
            add_token_len(token_len)
            if token_len:
                add_token_bytes(buf[token_at : token_at + token_len])
        add_pkt_start(len(pkt_type))
        return None

    return verdict
