"""TLS 1.3 ClientHello / ServerHello encoding (RFC 8446 §4.1), trimmed.

The wire format is faithful (handshake header, legacy version, random,
cipher suites, extension framing) so packet sizes are realistic, but only
the extensions the measurement pipeline reads are implemented: server_name,
ALPN, supported_versions, and quic_transport_parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.buffer import BufferError_, Reader, Writer

CLIENT_HELLO = 1
SERVER_HELLO = 2

TLS13 = 0x0304
LEGACY_VERSION = 0x0303

EXT_SERVER_NAME = 0
EXT_ALPN = 16
EXT_SUPPORTED_VERSIONS = 43
EXT_QUIC_TRANSPORT_PARAMETERS = 57

TLS_AES_128_GCM_SHA256 = 0x1301
TLS_AES_256_GCM_SHA384 = 0x1302
TLS_CHACHA20_POLY1305_SHA256 = 0x1303


class TlsParseError(ValueError):
    """Raised when bytes cannot be parsed as a TLS handshake message."""


@dataclass
class ClientHello:
    random: bytes = b"\x00" * 32
    server_name: str = ""
    alpn: tuple[str, ...] = ("h3",)
    cipher_suites: tuple[int, ...] = (TLS_AES_128_GCM_SHA256,)
    quic_transport_parameters: bytes = b""

    def __post_init__(self) -> None:
        if len(self.random) != 32:
            raise TlsParseError("ClientHello random must be 32 bytes")


@dataclass
class ServerHello:
    random: bytes = b"\x00" * 32
    cipher_suite: int = TLS_AES_128_GCM_SHA256
    quic_transport_parameters: bytes = b""

    def __post_init__(self) -> None:
        if len(self.random) != 32:
            raise TlsParseError("ServerHello random must be 32 bytes")


def encode_handshake(message) -> bytes:
    """Serialize a ClientHello or ServerHello with the 4-byte TLS header."""
    if isinstance(message, ClientHello):
        body = _encode_client_hello(message)
        msg_type = CLIENT_HELLO
    elif isinstance(message, ServerHello):
        body = _encode_server_hello(message)
        msg_type = SERVER_HELLO
    else:
        raise TlsParseError("cannot encode %r" % type(message))
    writer = Writer()
    writer.write_u8(msg_type)
    writer.write_uint(len(body), 3)
    writer.write(body)
    return writer.getvalue()


def _encode_extensions(extensions: list[tuple[int, bytes]]) -> bytes:
    inner = Writer()
    for ext_type, data in extensions:
        inner.write_u16(ext_type)
        inner.write_u16(len(data))
        inner.write(data)
    out = Writer()
    out.write_u16(len(inner))
    out.write(inner.getvalue())
    return out.getvalue()


def _sni_extension(server_name: str) -> bytes:
    name = server_name.encode("idna") if server_name else b""
    entry = Writer()
    entry.write_u8(0)  # name_type host_name
    entry.write_u16(len(name))
    entry.write(name)
    out = Writer()
    out.write_u16(len(entry))
    out.write(entry.getvalue())
    return out.getvalue()


def _alpn_extension(protocols: tuple[str, ...]) -> bytes:
    entries = Writer()
    for proto in protocols:
        raw = proto.encode("ascii")
        entries.write_u8(len(raw))
        entries.write(raw)
    out = Writer()
    out.write_u16(len(entries))
    out.write(entries.getvalue())
    return out.getvalue()


def _encode_client_hello(hello: ClientHello) -> bytes:
    writer = Writer()
    writer.write_u16(LEGACY_VERSION)
    writer.write(hello.random)
    writer.write_u8(0)  # empty legacy session id
    writer.write_u16(2 * len(hello.cipher_suites))
    for suite in hello.cipher_suites:
        writer.write_u16(suite)
    writer.write_u8(1)  # legacy compression methods
    writer.write_u8(0)
    extensions: list[tuple[int, bytes]] = [
        (EXT_SUPPORTED_VERSIONS, bytes([2]) + TLS13.to_bytes(2, "big")),
    ]
    if hello.server_name:
        extensions.append((EXT_SERVER_NAME, _sni_extension(hello.server_name)))
    if hello.alpn:
        extensions.append((EXT_ALPN, _alpn_extension(hello.alpn)))
    if hello.quic_transport_parameters:
        extensions.append(
            (EXT_QUIC_TRANSPORT_PARAMETERS, hello.quic_transport_parameters)
        )
    writer.write(_encode_extensions(extensions))
    return writer.getvalue()


def _encode_server_hello(hello: ServerHello) -> bytes:
    writer = Writer()
    writer.write_u16(LEGACY_VERSION)
    writer.write(hello.random)
    writer.write_u8(0)  # echo of empty session id
    writer.write_u16(hello.cipher_suite)
    writer.write_u8(0)  # compression null
    extensions: list[tuple[int, bytes]] = [
        (EXT_SUPPORTED_VERSIONS, TLS13.to_bytes(2, "big")),
    ]
    if hello.quic_transport_parameters:
        extensions.append(
            (EXT_QUIC_TRANSPORT_PARAMETERS, hello.quic_transport_parameters)
        )
    writer.write(_encode_extensions(extensions))
    return writer.getvalue()


def decode_handshake(data: bytes):
    """Parse one handshake message; returns ClientHello or ServerHello."""
    reader = Reader(data)
    try:
        msg_type = reader.read_u8()
        length = reader.read_uint(3)
        body = Reader(reader.read(length))
        if msg_type == CLIENT_HELLO:
            return _decode_client_hello(body)
        if msg_type == SERVER_HELLO:
            return _decode_server_hello(body)
    except BufferError_ as exc:
        raise TlsParseError(str(exc)) from exc
    raise TlsParseError("unsupported handshake type %d" % msg_type)


def _decode_extensions(reader: Reader) -> dict[int, bytes]:
    out: dict[int, bytes] = {}
    if reader.at_end():
        return out
    total = reader.read_u16()
    block = Reader(reader.read(total))
    while not block.at_end():
        ext_type = block.read_u16()
        length = block.read_u16()
        out[ext_type] = block.read(length)
    return out


def _decode_client_hello(reader: Reader) -> ClientHello:
    version = reader.read_u16()
    if version != LEGACY_VERSION:
        raise TlsParseError("unexpected legacy version 0x%04x" % version)
    random = reader.read(32)
    session_len = reader.read_u8()
    reader.skip(session_len)
    suites_len = reader.read_u16()
    if suites_len % 2:
        raise TlsParseError("odd cipher-suite block length")
    suites = tuple(
        int.from_bytes(reader.read(2), "big") for _ in range(suites_len // 2)
    )
    compression_len = reader.read_u8()
    reader.skip(compression_len)
    extensions = _decode_extensions(reader)
    server_name = ""
    if EXT_SERVER_NAME in extensions:
        sni = Reader(extensions[EXT_SERVER_NAME])
        sni.read_u16()  # list length
        sni.read_u8()  # name type
        name_len = sni.read_u16()
        server_name = sni.read(name_len).decode("ascii")
    alpn: tuple[str, ...] = ()
    if EXT_ALPN in extensions:
        alpn_reader = Reader(extensions[EXT_ALPN])
        alpn_reader.read_u16()
        protocols = []
        while not alpn_reader.at_end():
            plen = alpn_reader.read_u8()
            protocols.append(alpn_reader.read(plen).decode("ascii"))
        alpn = tuple(protocols)
    return ClientHello(
        random=random,
        server_name=server_name,
        alpn=alpn,
        cipher_suites=suites,
        quic_transport_parameters=extensions.get(EXT_QUIC_TRANSPORT_PARAMETERS, b""),
    )


def _decode_server_hello(reader: Reader) -> ServerHello:
    version = reader.read_u16()
    if version != LEGACY_VERSION:
        raise TlsParseError("unexpected legacy version 0x%04x" % version)
    random = reader.read(32)
    session_len = reader.read_u8()
    reader.skip(session_len)
    suite = reader.read_u16()
    reader.read_u8()  # compression
    extensions = _decode_extensions(reader)
    return ServerHello(
        random=random,
        cipher_suite=suite,
        quic_transport_parameters=extensions.get(EXT_QUIC_TRANSPORT_PARAMETERS, b""),
    )
