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

The names below are re-exported lazily: each loads its submodule on
first use, so a warm read, which needs only ``cache``, ``format`` and
``table``, never imports the dissector (and through it the AEAD, the AS
database and the UDP/IP codecs) that ``build`` and ``dissect`` run.
"""

import importlib

#: Each re-exported name, by the submodule that defines it.
_EXPORTS = {
    "table": ("CaptureTable", "ClassifiedView"),
    "build": (
        "build_capture_table",
        "build_from_records",
        "dissect_pcap",
        "default_asdb",
        "default_acknowledged",
    ),
    "dissect": ("record_verdict",),
    "cache": (
        "emit_stats_counters",
        "load_or_build",
        "sidecar_path",
        "prefix_fingerprint",
        "check_sidecar",
    ),
    "format": (
        "MAGIC",
        "SCHEMA_VERSION",
        "CapIndexError",
        "IndexPayload",
        "SidecarCorrupt",
        "dump_index",
        "dumps_index",
        "load_index",
        "read_header",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    """A re-exported name, imported from its submodule when first asked for."""
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(importlib.import_module("%s.%s" % (__name__, _HOME[name])), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
