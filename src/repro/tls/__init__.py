"""Minimal TLS 1.3 handshake codec and synthetic certificates.

QUIC Initial packets carry TLS ClientHello/ServerHello messages inside
CRYPTO frames.  The library encodes just enough TLS to (i) give Initial
flights realistic sizes and contents, (ii) let active probes read SNI/ALPN
and certificate subjectAltNames, and (iii) transport QUIC transport
parameters.
"""
