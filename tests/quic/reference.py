"""Field-by-field packet encoders: the references the template path is held to.

``repro.quic.packet`` encodes through cached header skeletons
(``PacketTemplate.render``) and computes padding analytically.  The
``Writer``-based encoders it replaced survive here, and only here: they
write every header field in wire order, find the padding deficit by
encoding and measuring, and seal through whatever ``protection.protect``
the caller passes.
"""

from repro.buffer import Writer
from repro.quic.crypto.suites import TAG_LENGTH
from repro.quic.packet import (
    FIXED_BIT,
    FORM_BIT,
    LongHeaderPacket,
    PacketType,
)
from repro.quic.varint import encode_varint, varint_length


def _truncated_pn(packet_number, pn_length):
    return (packet_number & ((1 << (8 * pn_length)) - 1)).to_bytes(pn_length, "big")


def long_header(packet):
    """The unprotected header of ``packet``, packet number included."""
    writer = Writer()
    writer.write_u8(
        FORM_BIT | FIXED_BIT | (packet.packet_type.value << 4) | (packet.pn_length - 1)
    )
    writer.write_u32(packet.version)
    for cid in (packet.dcid, packet.scid):
        writer.write_u8(len(cid))
        writer.write(cid)
    if packet.packet_type is PacketType.INITIAL:
        writer.write(encode_varint(len(packet.token)))
        writer.write(packet.token)
    length = packet.pn_length + len(packet.payload) + TAG_LENGTH
    # Never a 1-byte Length varint: headers keep a stable size.
    writer.write(encode_varint(length, width=max(2, varint_length(length))))
    writer.write(_truncated_pn(packet.packet_number, packet.pn_length))
    return writer.getvalue()


def encode_packet(packet, protection, is_server):
    return protection.protect(
        is_server, long_header(packet), packet.packet_number, packet.payload
    )


def encode_datagram(packets, protection, is_server, pad_to=0):
    """Encode, measure, and re-encode the tail packet padded to ``pad_to``."""
    encoded = [encode_packet(packet, protection, is_server) for packet in packets]
    total = sum(len(part) for part in encoded)
    if pad_to and total < pad_to:
        last = packets[-1]
        padded = LongHeaderPacket(
            packet_type=last.packet_type,
            version=last.version,
            dcid=last.dcid,
            scid=last.scid,
            packet_number=last.packet_number,
            payload=last.payload + b"\x00" * (pad_to - total),
            token=last.token,
            pn_length=last.pn_length,
        )
        encoded[-1] = encode_packet(padded, protection, is_server)
    return b"".join(encoded)


def encode_short_packet(packet, protection, is_server):
    writer = Writer()
    writer.write_u8(
        FIXED_BIT | (0x20 if packet.spin_bit else 0) | (packet.pn_length - 1)
    )
    writer.write(packet.dcid)
    writer.write(_truncated_pn(packet.packet_number, packet.pn_length))
    return protection.protect(
        is_server, writer.getvalue(), packet.packet_number, packet.payload
    )
