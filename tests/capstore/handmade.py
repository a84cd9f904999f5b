"""Capture tables written straight from ``CapturedPacket`` objects.

The analyses fold a :class:`~repro.capstore.CaptureTable`'s columns.  A
test that hand-makes its datagrams — an empty SCID, a pair first seen in
a scan, a Version Negotiation first — appends them here, column by
column, in the layout :func:`~repro.capstore.record_verdict` writes from
record bytes: pairs interned in first-seen order, a Retry's token in the
token blob, versions only for VN packets.  ``table.materialize(row)``
hands each packet back.
"""

from repro.capstore import CaptureTable, ClassifiedView
from repro.quic.packet import PacketType
from repro.telescope.classify import KLASS_CODES, PacketClass, SanitizationStats


def table_of(packets) -> CaptureTable:
    table = CaptureTable()
    pairs = table.pair_index()
    for packet in packets:
        backscatter = packet.klass is PacketClass.BACKSCATTER
        table.ts.append(packet.timestamp)
        table.src_ip.append(packet.src_ip)
        table.dst_ip.append(packet.dst_ip)
        table.peer_port.append(packet.dst_port if backscatter else packet.src_port)
        table.payload_len.append(packet.udp_payload_length)
        table.klass.append(KLASS_CODES[packet.klass])
        table.origin_id.append(table.origin_index(packet.origin))
        for header in packet.packets:
            table.pkt_type.append(header.packet_type.value)
            table.pkt_version.append(header.version)
            table.pkt_pn_offset.append(header.pn_offset)
            table.pkt_length.append(header.packet_length)
            dcid, scid = header.dcid, header.scid
            key = bytes((len(dcid),)) + dcid + bytes((len(scid),)) + scid
            if key not in pairs:
                pairs[key] = len(pairs)
                table.dcid_len.append(len(dcid))
                table.scid_len.append(len(scid))
                table.cid_blob += dcid + scid
                table.cid_start.append(len(table.cid_blob))
            table.cid.append(pairs[key])
            retry = header.packet_type is PacketType.RETRY
            token = header.retry_token if retry else header.token
            table.token_len.append(len(token))
            table.token_blob += token
            if header.packet_type is PacketType.VERSION_NEGOTIATION:
                table.sv_count.append(len(header.supported_versions))
                table.sv_values.extend(header.supported_versions)
        table.pkt_start.append(len(table.pkt_type))
    return table


def view_of(packets) -> ClassifiedView:
    """``packets`` as the classified capture ``render_analysis`` reads."""
    return ClassifiedView(table_of(packets), SanitizationStats())
