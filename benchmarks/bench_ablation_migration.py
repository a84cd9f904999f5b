"""Ablation — client-migration survival across LB designs (paper §2.2, §5).

The paper's problem statement: efficient load balancing under client
migration *requires* information encoding in connection IDs.  This bench
measures migration survival for the three fabrics the paper discusses:

* Facebook-style 5-tuple hashing        → any path change breaks;
* Google-style CID-aware hashing        → survives until the CID rotates;
* IETF QUIC-LB routable CIDs (draft)    → survives both.

A rotated Google CID is random, so now and then it hashes to the engine
that holds the connection anyway and the migration survives.  Rather than
a rate, each probe is held to the invariant behind all three rows: it
survives exactly when the fabric (the L4LB's ``select_host``, then the
host's ``select_worker_id``) sends the migrated packet to that engine.
"""

from _harness import report

from repro.active.migration import migration_outcomes, survival_rates
from repro.active.prober import Prober
from repro.core.report import render_table
from repro.workloads.scenario import build_lb_lab


def test_ablation_migration(benchmark):
    lab = build_lb_lab(
        google_hosts=12, facebook_hosts=12, quic_lb_hosts=12, seed=909
    )
    deployments = {
        "Facebook (5-tuple)": (Prober(lab.loop, lab.network), lab.vips("Facebook")),
        "Google (CID-aware)": (
            Prober(lab.loop, lab.network, address="198.51.100.11"),
            lab.vips("Google"),
        ),
        "QUIC-LB (routable CIDs)": (
            Prober(lab.loop, lab.network, address="198.51.100.12"),
            lab.vips("QuicLB"),
        ),
    }
    outcomes = benchmark.pedantic(
        migration_outcomes,
        args=(deployments,),
        kwargs={"probes_per_cell": 10},
        rounds=1,
        iterations=1,
    )
    matrix = survival_rates(outcomes)
    rows = [
        [
            deployment,
            "%.0f%%" % (100 * cells["same_cid"]),
            "%.0f%%" % (100 * cells["rotated_cid"]),
        ]
        for deployment, cells in matrix.items()
    ]
    report(
        "ablation_migration",
        render_table(
            ["Deployment", "migrate (same CID)", "migrate (rotated CID)"],
            rows,
            title="Ablation: migration survival (§2.2 — CID encoding is"
            " required for migration-safe load balancing)",
        ),
    )

    for deployment, cells in outcomes.items():
        for kind, probes in cells.items():
            for outcome in probes:
                assert outcome.survived == outcome.same_worker, (deployment, kind)
                assert outcome.same_host or not outcome.same_worker
    assert matrix["Facebook (5-tuple)"]["same_cid"] <= 0.25
    assert matrix["Google (CID-aware)"]["same_cid"] == 1.0
    assert matrix["QUIC-LB (routable CIDs)"]["same_cid"] == 1.0
    assert matrix["QUIC-LB (routable CIDs)"]["rotated_cid"] == 1.0
