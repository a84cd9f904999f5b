"""Client-migration experiments (paper §2.2's motivating problem).

QUIC lets an established client change its 5-tuple (NAT rebinding, Wi-Fi
to cellular) and even rotate to a fresh connection ID.  Whether the
connection survives depends entirely on the load-balancer fabric:

* **5-tuple routing** (Facebook): any path change rehashes to a different
  L7LB, which holds no state → the probe gets a stateless reset.
* **CID-aware routing** (Google): migration with the *same* CID reaches
  the same L7LB and survives; but a *rotated* CID (random, no encoded
  information) hashes elsewhere → broken again.
* **QUIC-LB routable CIDs** (IETF draft): every CID the deployment mints
  encodes the backend, so both migrations survive.

``migration_probe`` measures exactly this, completing the paper's §2.2
argument for why information encoding in CIDs is unavoidable.  Each
outcome also records where the fabric sends the migrated packet: it
survives exactly when that is the engine holding the connection, which a
rotated random CID hits only by chance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.active.prober import Prober


@dataclass
class MigrationOutcome:
    """Result of one migration probe."""

    vip: int
    rotated_cid: bool
    survived: bool
    new_cid_available: bool
    #: The L4LB's ``select_host`` picks the host holding the connection.
    same_host: bool = False
    #: ... and that host's ``select_worker_id`` the engine holding it.
    same_worker: bool = False


def _reaches_holder(cluster, datagram, scid: bytes) -> tuple[bool, bool]:
    """``(same_host, same_worker)`` for a client datagram to ``cluster``.

    Every L4LB of a cluster shares one Maglev view, so the first one
    answers for whichever the router's ECMP would pick.  ``select_host``
    only looks: the lookup counts and traces nothing.
    """
    l4lb = cluster.l4lbs[0]
    dcid = l4lb.extract_dcid(datagram)
    host = l4lb.select_host(datagram, dcid)
    engine = host.workers.get(host.select_worker_id(datagram, dcid))
    same_host = any(worker.holds(scid) for worker in host.workers.values())
    return same_host, engine is not None and engine.holds(scid)


def migration_probe(
    prober: Prober,
    vip: int,
    rotate_cid: bool = False,
    wait: float = 2.0,
) -> MigrationOutcome:
    """Handshake, then ping from a new 5-tuple (optionally on a new CID)."""
    result = prober.handshake(vip)
    if not result.completed:
        raise RuntimeError("handshake to VIP did not complete")
    connection = prober.last_connection
    assert connection is not None
    # Give the server's NEW_CONNECTION_ID time to arrive.
    prober.advance(0.3)

    dcid = None
    if rotate_cid:
        if not connection.result.new_connection_ids:
            return MigrationOutcome(
                vip=vip, rotated_cid=True, survived=False, new_cid_available=False
            )
        dcid = connection.result.new_connection_ids[0]

    new_port = prober.take_port()
    prober.host.register_alias(new_port, connection)
    pongs_before = connection.result.pongs
    datagram = connection.migration_datagram(new_port, dcid=dcid)
    same_host, same_worker = _reaches_holder(
        prober.network.route(vip), datagram, bytes(connection.result.server_scid)
    )
    prober.host.send_raw(datagram)
    prober.advance(wait)
    return MigrationOutcome(
        vip=vip,
        rotated_cid=rotate_cid,
        survived=connection.result.pongs > pongs_before,
        new_cid_available=bool(connection.result.new_connection_ids),
        same_host=same_host,
        same_worker=same_worker,
    )


def migration_outcomes(
    prober_by_deployment: dict[str, tuple[Prober, list[int]]],
    probes_per_cell: int = 8,
) -> dict[str, dict[str, list[MigrationOutcome]]]:
    """Every probe of every (deployment, migration kind) combination.

    Returns ``{deployment: {"same_cid": outcomes, "rotated_cid": outcomes}}``.
    """
    return {
        deployment: {
            label: [
                migration_probe(prober, vips[i % len(vips)], rotate_cid=rotate)
                for i in range(probes_per_cell)
            ]
            for label, rotate in (("same_cid", False), ("rotated_cid", True))
        }
        for deployment, (prober, vips) in prober_by_deployment.items()
    }


def survival_rates(
    outcomes: dict[str, dict[str, list[MigrationOutcome]]],
) -> dict[str, dict[str, float]]:
    """``{deployment: {kind: share of probes that survived}}``."""
    return {
        deployment: {
            label: sum(o.survived for o in probes) / len(probes)
            for label, probes in cells.items()
        }
        for deployment, cells in outcomes.items()
    }
