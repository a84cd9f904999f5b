"""IPv4/UDP packet codecs and pcap files.

The simulator moves structured :class:`UdpDatagram` objects; the load
balancers route them and hand the host the very object they received.
Only the telescope serializes them, to real IPv4+UDP bytes (checksums
included) when writing captures, and the analysis pipeline parses those
bytes back — so the passive toolchain works equally on simulated
captures and on real raw-IP pcaps.
"""
