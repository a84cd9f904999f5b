"""Internet metadata: IP-to-AS mapping, geolocation, hypergiant registry,
and the synthetic certificate/PTR store used for off-net verification.

These stand in for CAIDA prefix-to-AS data, MaxMind GeoLite, and live
TLS/DNS lookups (see DESIGN.md substitution table).
"""
