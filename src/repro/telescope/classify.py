"""Classification and sanitization of raw telescope captures (paper §3.2).

The vocabulary of the sanitised capture — :class:`CapturedPacket`,
:class:`PacketClass`, :class:`SanitizationStats` (its drop reasons are
:data:`repro.core.selectors.DROP_REASONS`) — and the row the analyses'
batch functions read: :data:`DATAGRAM_FIELDS`, which
:func:`datagram_values`, the one mapping from a ``CapturedPacket``,
builds from an object.  A command's analyses read no rows: they fold a
:class:`~repro.capstore.CaptureTable`'s columns
(:meth:`repro.core.render.CaptureFold.feed`).  The pipeline itself
(UDP/443 → QUIC dissector → acknowledged-scanner removal → origin; the
AEAD open this repository adds to the dissector runs for the scans the
removal keeps) is decided in one place,
:func:`repro.capstore.dissect.record_verdict`, which turns record bytes
into rows of such a table; :func:`classify_capture` hands back the
:class:`~repro.capstore.ClassifiedView` over the table it builds, and
:func:`classify_record` one row's materialised packet.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Iterable, NamedTuple

if TYPE_CHECKING:
    from repro.capstore.table import ClassifiedView
    from repro.inetdata.asdb import AsDatabase
    from repro.netstack.pcap import PcapRecord
    from repro.obs import Observability
    from repro.quic.packet import ParsedLongHeader
    from repro.telescope.acknowledged import AcknowledgedScanners


class PacketClass(enum.Enum):
    BACKSCATTER = "backscatter"
    SCAN = "scan"


class CapturedPacket(NamedTuple):
    """One sanitized QUIC datagram seen by the telescope."""

    timestamp: float
    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    udp_payload_length: int
    packets: list[ParsedLongHeader]
    klass: PacketClass
    #: Paper-style origin label of the *remote* side: hypergiant name or
    #: "Remaining" (the spoofed telescope side carries no information).
    origin: str = "Remaining"


#: The ``klass`` column's codes (``KLASS_VALUES`` is the way back).
KLASS_CODES = {PacketClass.BACKSCATTER: 0, PacketClass.SCAN: 1}
KLASS_VALUES = (PacketClass.BACKSCATTER, PacketClass.SCAN)

#: One sanitized datagram as the batch functions read it: a tuple of
#: plain values, the last five parallel over its coalesced packets.
#: Only :func:`datagram_values` builds it, from a ``CapturedPacket``; the
#: fold of a capture table reads the same facts as column slices.
DATAGRAM_FIELDS = (
    "timestamp",
    "src_ip",
    "dst_ip",
    "klass",  # KLASS_CODES: 0 backscatter, 1 scan
    "origin",
    "udp_payload_length",
    "types",  # bytes: one PacketType value per packet
    "versions",
    "dcids",
    "scids",
    "packet_lengths",
)


def datagram_values(packet: CapturedPacket) -> tuple:
    """``packet`` as a :data:`DATAGRAM_FIELDS` row.

    The one place a ``CapturedPacket`` becomes the row the analyses
    count: their batch forms map their packets through it.
    """
    packets = packet.packets
    return (
        packet.timestamp,
        packet.src_ip,
        packet.dst_ip,
        KLASS_CODES[packet.klass],
        packet.origin,
        packet.udp_payload_length,
        bytes(p.packet_type.value for p in packets),
        tuple(p.version for p in packets),
        tuple(p.dcid for p in packets),
        tuple(p.scid for p in packets),
        tuple(p.packet_length for p in packets),
    )


class SanitizationStats:
    """The counts of one sanitisation pass: records seen, dropped per
    reason, kept per class."""

    __slots__ = (
        "total_records",
        "non_udp",
        "non_port_443",
        "failed_dissection",
        "acknowledged_scanner",
        "backscatter",
        "scans",
    )

    def __init__(
        self,
        total_records: int = 0,
        non_udp: int = 0,
        non_port_443: int = 0,
        failed_dissection: int = 0,
        acknowledged_scanner: int = 0,
        backscatter: int = 0,
        scans: int = 0,
    ) -> None:
        self.total_records = total_records
        self.non_udp = non_udp
        self.non_port_443 = non_port_443
        self.failed_dissection = failed_dissection
        self.acknowledged_scanner = acknowledged_scanner
        self.backscatter = backscatter
        self.scans = scans

    def _counts(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._counts() == other._counts()

    def __repr__(self) -> str:
        return "SanitizationStats(%s)" % ", ".join(
            "%s=%r" % item for item in zip(self.__slots__, self._counts())
        )

    @property
    def removed(self) -> int:
        return (
            self.non_udp
            + self.non_port_443
            + self.failed_dissection
            + self.acknowledged_scanner
        )

    @property
    def removed_share(self) -> float:
        return self.removed / self.total_records if self.total_records else 0.0

    def add(self, other: "SanitizationStats") -> None:
        """Fold another pass's counts into these (every field is a count)."""
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + getattr(other, name))


def classify_record(
    record: PcapRecord,
    asdb: AsDatabase | None = None,
    acknowledged: AcknowledgedScanners | None = None,
    validate_crypto_scans: bool = True,
) -> tuple[CapturedPacket | None, str | None]:
    """Classify a single capture record.

    Returns ``(captured, None)`` for kept records and ``(None, reason)``
    for dropped ones, with ``reason`` one of
    :data:`~repro.core.selectors.DROP_REASONS`.  A
    one-row table is built for the call; anything classifying more than
    a handful of records wants :func:`classify_capture`.
    """
    # capstore sits above this module (its table stores these classes).
    from repro.capstore.dissect import record_verdict
    from repro.capstore.table import CaptureTable

    table = CaptureTable()
    verdict = record_verdict(table, asdb, acknowledged, validate_crypto_scans)
    reason = verdict(record.timestamp, record.data, 0, len(record.data))
    if reason is not None:
        return None, reason
    return table.materialize(0), None


def classify_capture(
    records: Iterable[PcapRecord],
    asdb: AsDatabase | None = None,
    acknowledged: AcknowledgedScanners | None = None,
    validate_crypto_scans: bool = True,
    obs: Observability | None = None,
) -> ClassifiedView:
    """Run the full sanitization pipeline over raw capture records.

    ``records`` may be any iterable, including the streaming
    :func:`repro.netstack.pcap.iter_pcap` generator.  The result is the
    view over the table they dissect into, as ``analyze`` reads a
    sidecar: its ``backscatter`` / ``scans`` packets are materialised
    when first asked for.

    ``validate_crypto_scans`` additionally AEAD-validates client Initials in
    scan traffic that is not from an acknowledged scanner (possible
    passively because Initial keys derive from the DCID); everything else
    is validated structurally, as in Wireshark.

    With ``obs`` attached, every removed record emits a ``sanitize:drop``
    trace event, and the ``sanitize.packets`` counter receives each
    drop-stage total and the kept rows under ``kept_backscatter`` /
    ``kept_scan``.
    """
    # capstore sits above this module (its table stores these classes).
    from repro.capstore.build import build_from_records
    from repro.capstore.table import ClassifiedView

    table, stats = build_from_records(
        records,
        asdb=asdb,
        acknowledged=acknowledged,
        validate_crypto_scans=validate_crypto_scans,
        obs=obs,
    )
    return ClassifiedView(table, stats)
