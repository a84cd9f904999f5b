"""Classic libpcap file format reader/writer (raw-IP link type).

Telescope captures are stored as standard pcap so they can be inspected
with external tooling, and so the analysis pipeline can equally consume
real-world raw-IP captures.  :func:`merge_pcap_files` k-way-merges
time-sorted per-worker captures (``repro simulate --workers N``) into one
time-ordered file while holding only one record per input in memory.
"""

from __future__ import annotations

import heapq
import struct
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Iterator, Sequence, Union

MAGIC = 0xA1B2C3D4
MAGIC_SWAPPED = 0xD4C3B2A1
VERSION_MAJOR = 2
VERSION_MINOR = 4
LINKTYPE_RAW = 101  # packets start with the IPv4/IPv6 header

_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")

#: Size of the pcap global header — the first record boundary.  Streaming
#: readers treat a file shorter than this as "not started yet".
GLOBAL_HEADER_SIZE = _GLOBAL_HEADER.size


class PcapError(ValueError):
    """Raised on malformed pcap files."""


def split_timestamp(timestamp: float) -> tuple[int, int]:
    """``timestamp`` as a record header's ``(ts_sec, ts_usec)`` pair.

    Rounding the fraction to microseconds can reach a whole second
    (``1.9999996``); it carries, because ``ts_usec = 1000000`` is a
    malformed record to every other pcap reader.
    """
    ts_sec = int(timestamp)
    ts_usec = int(round((timestamp - ts_sec) * 1_000_000))
    if ts_usec == 1_000_000:
        return ts_sec + 1, 0
    return ts_sec, ts_usec


@dataclass(frozen=True)
class PcapRecord:
    """One captured packet: timestamp (float seconds) and raw bytes."""

    timestamp: float
    data: bytes

    @property
    def ts_sec(self) -> int:
        return split_timestamp(self.timestamp)[0]

    @property
    def ts_usec(self) -> int:
        return split_timestamp(self.timestamp)[1]


class PcapWriter:
    """Writes classic pcap; use as a context manager."""

    def __init__(self, fileobj: BinaryIO, linktype: int = LINKTYPE_RAW, snaplen: int = 65535) -> None:
        self._file = fileobj
        self._file.write(
            _GLOBAL_HEADER.pack(
                MAGIC, VERSION_MAJOR, VERSION_MINOR, 0, 0, snaplen, linktype
            )
        )
        self._snaplen = snaplen

    def write(self, record: PcapRecord) -> None:
        self.write_raw(*split_timestamp(record.timestamp), record.data)

    def write_all(self, records: Iterable[PcapRecord]) -> None:
        for record in records:
            self.write(record)

    def write_raw(self, ts_sec: int, ts_usec: int, data) -> None:
        """Write one record from pre-split timestamp parts and a buffer.

        ``data`` may be any bytes-like object (the columnar capture
        buffer passes ``memoryview`` slices, avoiding per-record copies).
        """
        length = len(data)
        included = data[: self._snaplen] if length > self._snaplen else data
        self._file.write(
            _RECORD_HEADER.pack(ts_sec, ts_usec, len(included), length)
        )
        self._file.write(included)

    def __enter__(self) -> "PcapWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self._file.flush()


class PcapReader:
    """Iterates :class:`PcapRecord` objects from a classic pcap file."""

    def __init__(self, fileobj: BinaryIO) -> None:
        self._file = fileobj
        header = fileobj.read(_GLOBAL_HEADER.size)
        if len(header) < _GLOBAL_HEADER.size:
            raise PcapError("truncated pcap global header")
        magic = struct.unpack("<I", header[:4])[0]
        if magic == MAGIC:
            self._endian = "<"
        elif magic == MAGIC_SWAPPED:
            self._endian = ">"
        else:
            raise PcapError("bad pcap magic 0x%08x" % magic)
        fields = struct.unpack(self._endian + "IHHiIII", header)
        self.linktype = fields[6]
        self.snaplen = fields[5]
        self._record_struct = struct.Struct(self._endian + "IIII")

    def __iter__(self) -> Iterator[PcapRecord]:
        while True:
            header = self._file.read(self._record_struct.size)
            if not header:
                return
            if len(header) < self._record_struct.size:
                raise PcapError("truncated pcap record header")
            ts_sec, ts_usec, incl_len, _orig_len = self._record_struct.unpack(header)
            data = self._file.read(incl_len)
            if len(data) < incl_len:
                raise PcapError("truncated pcap record body")
            yield PcapRecord(timestamp=ts_sec + ts_usec / 1_000_000, data=data)


def write_pcap(path: str, records: Iterable[PcapRecord]) -> None:
    """Convenience: write ``records`` to ``path``."""
    with open(path, "wb") as fileobj:
        PcapWriter(fileobj).write_all(records)


def iter_pcap(path: str) -> Iterator[PcapRecord]:
    """Stream records from ``path`` without materializing the file.

    This is the hot-path reader: the analysis pipeline dissects records
    as they stream by (``repro.capstore``), so a multi-GB capture never
    has to fit in memory as a Python list.
    """
    with open(path, "rb") as fileobj:
        yield from PcapReader(fileobj)


def iter_pcap_range(path: str, offset: int, count: int) -> Iterator[PcapRecord]:
    """Stream ``count`` records starting at byte ``offset``.

    ``offset`` must point at a record header (use
    :func:`scan_pcap_offsets`); this is how parallel index builders hand
    each worker its own contiguous row group of one pcap.
    """
    with open(path, "rb") as fileobj:
        reader = PcapReader(fileobj)  # validates magic, fixes endianness
        fileobj.seek(offset)
        records = iter(reader)
        for _ in range(count):
            try:
                yield next(records)
            except StopIteration:
                raise PcapError(
                    "row group at offset %d ends before %d records" % (offset, count)
                ) from None


def read_pcap(path: str) -> list[PcapRecord]:
    """Convenience: read all records from ``path``.

    Prefer :func:`iter_pcap` in hot paths — this helper exists for small
    captures and tests where a list is genuinely wanted.
    """
    return list(iter_pcap(path))


def scan_pcap_offsets(path: str) -> list[int]:
    """Byte offset of every record header in ``path``.

    Seeks over the payloads, so the scan costs one header read per record
    — cheap enough to plan row-group splits before a parallel dissection
    pass.  Raises :class:`PcapError` on truncated files.
    """
    offsets: list[int] = []
    with open(path, "rb") as fileobj:
        head = fileobj.read(_GLOBAL_HEADER.size)
        if len(head) < _GLOBAL_HEADER.size:
            raise PcapError("truncated pcap global header")
        magic = struct.unpack("<I", head[:4])[0]
        if magic == MAGIC:
            endian = "<"
        elif magic == MAGIC_SWAPPED:
            endian = ">"
        else:
            raise PcapError("bad pcap magic 0x%08x" % magic)
        record_struct = struct.Struct(endian + "IIII")
        fileobj.seek(0, 2)
        end = fileobj.tell()
        pos = _GLOBAL_HEADER.size
        while pos < end:
            fileobj.seek(pos)
            header = fileobj.read(record_struct.size)
            if len(header) < record_struct.size:
                raise PcapError("truncated pcap record header")
            _sec, _usec, incl_len, _orig = record_struct.unpack(header)
            if pos + record_struct.size + incl_len > end:
                raise PcapError("truncated pcap record body")
            offsets.append(pos)
            pos += record_struct.size + incl_len
    return offsets


def scan_pcap_tail(path: str, start: int = _GLOBAL_HEADER.size) -> tuple[list[int], int]:
    """Offsets of the *complete* records from byte ``start`` to EOF.

    The streaming twin of :func:`scan_pcap_offsets`: instead of raising on
    a truncated record it stops in front of it, returning ``(offsets,
    end)`` where ``end`` is the byte offset one past the last complete
    record.  A live capture being appended to by another process always
    has a well-defined complete prefix — a reader that only consumes up to
    ``end`` can never observe a torn packet record, and the next poll
    resumes at ``end`` once the writer has finished the record.

    ``start`` must point at a record boundary (typically the ``end`` of a
    previous scan, or the position after the global header).
    """
    offsets: list[int] = []
    with open(path, "rb") as fileobj:
        head = fileobj.read(_GLOBAL_HEADER.size)
        if len(head) < _GLOBAL_HEADER.size:
            return [], start  # global header itself still being written
        magic = struct.unpack("<I", head[:4])[0]
        if magic == MAGIC:
            endian = "<"
        elif magic == MAGIC_SWAPPED:
            endian = ">"
        else:
            raise PcapError("bad pcap magic 0x%08x" % magic)
        record_struct = struct.Struct(endian + "IIII")
        fileobj.seek(0, 2)
        file_end = fileobj.tell()
        pos = max(start, _GLOBAL_HEADER.size)
        while pos < file_end:
            fileobj.seek(pos)
            header = fileobj.read(record_struct.size)
            if len(header) < record_struct.size:
                break  # torn record header: the writer is mid-append
            _sec, _usec, incl_len, _orig = record_struct.unpack(header)
            if pos + record_struct.size + incl_len > file_end:
                break  # torn record body
            offsets.append(pos)
            pos += record_struct.size + incl_len
    return offsets, pos


def record_sort_key(record: PcapRecord) -> tuple:
    """The canonical capture order: quantized timestamp, then raw bytes.

    Comparing the *quantized* (second, microsecond) pair rather than the
    float timestamp guarantees that the order of records is preserved by
    a write/read round-trip, and the ``data`` tie-break makes the order a
    property of the record multiset alone — independent of how records
    were partitioned across shard files.
    """
    return (*split_timestamp(record.timestamp), record.data)


def merge_pcap_files(
    paths: Sequence[str], output: Union[str, BinaryIO]
) -> int:
    """K-way merge time-sorted pcap files into one time-ordered pcap.

    Each input must already be sorted by :func:`record_sort_key` (shard
    workers sort before writing); the merge then streams with one pending
    record per input.  Returns the number of records written.
    """
    files = [open(path, "rb") for path in paths]
    count = 0
    try:
        merged = heapq.merge(
            *(iter(PcapReader(fileobj)) for fileobj in files), key=record_sort_key
        )
        if isinstance(output, str):
            with open(output, "wb") as fileobj:
                writer = PcapWriter(fileobj)
                for record in merged:
                    writer.write(record)
                    count += 1
        else:
            writer = PcapWriter(output)
            for record in merged:
                writer.write(record)
                count += 1
    finally:
        for fileobj in files:
            fileobj.close()
    return count
