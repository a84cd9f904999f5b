"""Hypergiant QUIC server fabric: stacks, profiles, and load balancers.

The observable behaviours the paper measures — SCID structure, packet
coalescence, padding, retransmission schedules, 5-tuple vs CID-aware
routing — are configured per deployment through
:class:`~repro.server.profiles.ServerProfile` and executed by
:class:`~repro.server.engine.QuicServerEngine` instances running behind the
load-balancer fabric in :mod:`repro.server.lb`.
"""
