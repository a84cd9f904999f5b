"""Columnar capture store: dissect once, analyze many times (paper §3.2).

The analysis plane of the toolchain, one pipeline with one way in.
``dissect`` decides keep or drop for one record's bytes and appends the
kept row's columns, ``build`` runs it over a record source into a
:class:`~repro.capstore.table.CaptureTable` — one pcap in one pass, in
process — ``format`` persists the table as a versioned ``.capidx``
sidecar, and ``cache`` makes the whole thing transparent to ``repro
classify``/``analyze``/``live``: :func:`load_or_build` builds on miss,
extends a grown capture, validates by source fingerprint and loads
columns straight from disk on hit.
"""

from repro.capstore.build import (
    build_capture_table,
    build_from_records,
    default_acknowledged,
    default_asdb,
    dissect_pcap,
    emit_stats_counters,
)
from repro.capstore.cache import (
    fingerprint_matches,
    load_or_build,
    pcap_fingerprint,
    prefix_fingerprint,
    prefix_matches,
    sidecar_path,
)
from repro.capstore.dissect import record_verdict
from repro.capstore.format import (
    MAGIC,
    SCHEMA_VERSION,
    CapIndexError,
    IndexPayload,
    SidecarCorrupt,
    dump_index,
    dumps_index,
    load_index,
    read_header,
)
from repro.capstore.table import CaptureTable, ClassifiedView

__all__ = [
    "CaptureTable",
    "ClassifiedView",
    "build_capture_table",
    "build_from_records",
    "dissect_pcap",
    "record_verdict",
    "default_asdb",
    "default_acknowledged",
    "emit_stats_counters",
    "load_or_build",
    "sidecar_path",
    "pcap_fingerprint",
    "prefix_fingerprint",
    "prefix_matches",
    "fingerprint_matches",
    "MAGIC",
    "SCHEMA_VERSION",
    "CapIndexError",
    "IndexPayload",
    "SidecarCorrupt",
    "dump_index",
    "dumps_index",
    "load_index",
    "read_header",
]
