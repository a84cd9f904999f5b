"""Active measurements: handshake probing and load-balancer inference.

These complement the passive pipeline exactly as in the paper — verifying
SCID semantics (echo vs. chosen), enumerating L7LB host IDs per VIP, and
running the Appendix-D follow-up-handshake experiment that distinguishes
5-tuple from CID-aware load balancing.
"""
