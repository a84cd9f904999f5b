"""QUIC wire-format substrate: varints, versions, headers, frames, CIDs, crypto.

This package implements enough of RFC 8999/9000/9001 to build, protect,
dissect, and unprotect the long-header packets that appear in Internet
background radiation: Initial, Handshake, 0-RTT, Retry, and Version
Negotiation, plus packet coalescence and the frames those packets carry.
"""
