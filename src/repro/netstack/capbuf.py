"""Columnar capture buffer — the write-side sibling of the capstore.

The telescope used to hold one :class:`~repro.netstack.pcap.PcapRecord`
(a frozen dataclass owning its own ``bytes``) per captured packet; a
month of backscatter is hundreds of thousands of small heap objects.
:class:`CaptureBuffer` stores the same information as parallel ``array``
columns — timestamp / offset / length — over one contiguous
``bytearray``, so appending a packet is two array appends plus a
``bytearray`` extend (which the IPv4/UDP encoder writes into directly,
see :func:`repro.netstack.udp.encode_udp_into`), and writing the pcap
streams ``memoryview`` slices without materializing records.

:attr:`CaptureBuffer.records` is a read-only sequence view that yields
``PcapRecord`` objects on demand, so every existing consumer (the
classifier, shard heartbeats, tests) keeps its interface.
"""

from __future__ import annotations

from array import array
from typing import Iterator, List, Union

from repro.netstack.pcap import (
    PcapRecord,
    PcapWriter,
    record_sort_key,
    split_timestamp,
)


class CaptureRecords:
    """Read-only sequence view over a :class:`CaptureBuffer`.

    Materializes one :class:`PcapRecord` per access; ``append`` is
    provided for the few call sites (tests, synthetic captures) that
    still push prebuilt records.
    """

    __slots__ = ("_buffer",)

    def __init__(self, buffer: "CaptureBuffer") -> None:
        self._buffer = buffer

    def __len__(self) -> int:
        return len(self._buffer)

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[PcapRecord, List[PcapRecord]]:
        if isinstance(index, slice):
            return [self._buffer.record(i) for i in range(*index.indices(len(self)))]
        return self._buffer.record(index)

    def __iter__(self) -> Iterator[PcapRecord]:
        return iter(self._buffer)

    def append(self, record: PcapRecord) -> None:
        self._buffer.append(record.timestamp, record.data)


class CaptureBuffer:
    """Parallel ts/offset/length columns over one contiguous byte buffer."""

    __slots__ = ("times", "offsets", "lengths", "data", "records")

    def __init__(self) -> None:
        self.times = array("d")
        self.offsets = array("Q")
        self.lengths = array("Q")
        self.data = bytearray()
        self.records = CaptureRecords(self)

    def __len__(self) -> int:
        return len(self.times)

    def append(self, timestamp: float, data: bytes) -> None:
        """Append one already-encoded packet."""
        start = len(self.data)
        self.data += data
        self.commit(timestamp, start)

    def commit(self, timestamp: float, start: int) -> None:
        """Record a packet whose bytes were just written to ``data``.

        Callers that encode in place (``encode_udp_into``) extend ``data``
        themselves and commit the region ``[start:len(data))``.  The
        columns stay in timestamp order, equal timestamps in commit order:
        a packet committed ahead of an earlier-stamped one (the telescope
        is handed arrivals at transmit time) is inserted from the tail, a
        few places back at most; ``data`` itself is in commit order.
        """
        times = self.times
        at = len(times)
        while at and times[at - 1] > timestamp:
            at -= 1
        times.insert(at, timestamp)
        self.offsets.insert(at, start)
        self.lengths.insert(at, len(self.data) - start)

    def record(self, index: int) -> PcapRecord:
        """Materialize one packet as a :class:`PcapRecord`."""
        if index < 0:
            index += len(self.times)
        if not 0 <= index < len(self.times):
            raise IndexError("capture record index out of range")
        offset = self.offsets[index]
        return PcapRecord(
            timestamp=self.times[index],
            data=bytes(self.data[offset : offset + self.lengths[index]]),
        )

    def __iter__(self) -> Iterator[PcapRecord]:
        for index in range(len(self.times)):
            yield self.record(index)

    def sorted_records(self) -> List[PcapRecord]:
        """All packets in canonical pcap merge order."""
        return sorted(self, key=record_sort_key)

    def write_to(self, writer: PcapWriter) -> None:
        """Stream every packet to ``writer`` as memoryview slices."""
        view = memoryview(self.data)
        for index in range(len(self.times)):
            offset = self.offsets[index]
            writer.write_raw(
                *split_timestamp(self.times[index]),
                view[offset : offset + self.lengths[index]],
            )
