"""The paper's primary contribution: the passive analysis toolchain.

Everything in this package consumes classified telescope captures (or
active-probe logs) and produces the statistics behind the paper's tables
and figures: version adoption, packet-type mixes, retransmission timing,
SCID structure, off-net classification, and L7LB enumeration.
"""
