"""Load-balancer fabric: ECMP, L4 Maglev routing, direct-server-return L7 hosts."""

from repro.server.lb.maglev import MaglevTable
from repro.server.lb.l7lb import L7LbHost
from repro.server.lb.l4lb import L4LoadBalancer
from repro.server.lb.cluster import FrontendCluster

__all__ = ["MaglevTable", "L7LbHost", "L4LoadBalancer", "FrontendCluster"]
