"""Connection-ID generation schemes used by hypergiant QUIC stacks.

The paper fingerprints deployments by the structure of server-chosen
connection IDs (SCIDs):

* Facebook's mvfst encodes host/worker/process IDs (:mod:`.mvfst`).
* Cloudflare uses 20-byte IDs with a fixed 0x01 first byte (:mod:`.cloudflare`).
* Google echoes the first 8 bytes of the client's DCID (:mod:`.google`).
* The IETF QUIC-LB draft defines routable CIDs (:mod:`.quic_lb`).

The names below load their scheme's module on first use: the analyses
decode mvfst IDs only, and import :mod:`.mvfst` alone.
"""

import importlib

#: Each re-exported name, by the submodule that defines it.
_EXPORTS = {
    "base": ("CidContext", "CidScheme", "RandomScheme"),
    "mvfst": ("MvfstCid", "MvfstScheme"),
    "cloudflare": ("CloudflareScheme", "looks_like_cloudflare"),
    "google": ("GoogleEchoScheme",),
    "quic_lb": ("QuicLbConfig", "QuicLbScheme"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    """A re-exported name, imported from its scheme's module when first asked for."""
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(importlib.import_module("%s.%s" % (__name__, _HOME[name])), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
