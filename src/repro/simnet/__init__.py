"""Discrete-event Internet simulator.

A :class:`~repro.simnet.eventloop.EventLoop` drives simulated time; a
:class:`~repro.simnet.network.Network` routes :class:`UdpDatagram` objects
between :class:`~repro.simnet.network.Device` subclasses by longest-prefix
match, with per-device latency and optional loss.  Spoofed traffic is
first-class: replies to spoofed sources are routed to whichever device owns
the spoofed prefix — which is how backscatter reaches the telescope.
"""
