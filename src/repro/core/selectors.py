"""The names the read side answers to, readable without loading the analyses.

Every number the read side names — a sweep metric, a ``repro live`` gauge,
a cell of Tables 1–3 or of the rto table, a paper target — belongs to a
family of :data:`FAMILIES`; :meth:`~repro.core.render.CaptureFold.values`
is the one evaluator.
"""

from itertools import product

#: Table selectors understood by ``repro analyze --tables``.
VALID_TABLES = ("1", "2", "3", "4", "rto", "lengths")

#: The paper's source-network columns (Tables 3/4 and the timing figures).
ORIGINS = ("Cloudflare", "Facebook", "Google", "Remaining")
HYPERGIANT_COLUMNS = ORIGINS[:3]  # Table 1
SIDES = ("clients", "servers")  # Table 2: scans show clients, backscatter servers
TABLE2_ROWS = ("QUICv1", "Facebook mvfst 2", "draft-29", "others")
SESSION_BUCKETS = TABLE2_ROWS + ("total",)  # and the sessions they divide
TABLE3_ROWS = (
    "Initial", "Handshake", "0-RTT", "Retry", "Coalesced Initial & Handshake"
)
#: Every category a packet mix counts, the coalesced ones Table 3 omits too.
PACKET_CATEGORIES = TABLE3_ROWS + ("Coalesced other",)
#: Table 1's yes/no rows (``DeploymentSummary`` fields); its RTO rows are ``rto``'s.
SUMMARY_FEATURES = (
    "coalescence", "server_chosen_ids", "structured_scids", "l7_load_balancers"
)
#: Drop reasons in pipeline order.  Each name doubles as the matching
#: ``SanitizationStats`` field and the ``sanitize.packets`` counter stage
#: label, which is what lets the columnar cache rebuild the counter values
#: from stored stats without replaying the pipeline.
DROP_REASONS = (
    "non_udp", "non_port_443", "failed_dissection", "acknowledged_scanner"
)

#: family -> (the ``CaptureFold`` selector counting it, its ``(placeholder,
#: domain)`` pairs).  A name is the family and one value per domain, "."-joined.
#: ``offnet``, ``entropy`` and ``events`` are fold selectors no table prints,
#: so they are not ``--tables`` names.
FAMILIES = {
    "version_share": ("2", (("side", SIDES), ("bucket", TABLE2_ROWS))),
    "sessions": ("2", (("side", SIDES), ("bucket", SESSION_BUCKETS))),
    "packet_share": ("3", (("origin", ORIGINS), ("category", TABLE3_ROWS))),
    "packet_mix": ("3", (("origin", ORIGINS), ("category", PACKET_CATEGORIES))),
    "scid_unique": ("4", (("origin", ORIGINS),)),
    "scid_dominant_len": ("4", (("origin", ORIGINS),)),
    "scid_structured": ("4", (("origin", ORIGINS),)),
    "scid_max_chi2": ("4", (("origin", ORIGINS),)),
    "scid_entropy": (
        "entropy", (("position", ("first", "min", "last")), ("origin", ORIGINS))
    ),
    "summary": (
        "1", (("hypergiant", HYPERGIANT_COLUMNS), ("feature", SUMMARY_FEATURES))
    ),
    "rto": (
        "rto", (("stat", ("sessions", "initial", "backoff")), ("origin", ORIGINS))
    ),
    "resends": ("rto", (("bound", ("min", "max")), ("origin", ORIGINS))),
    "length_top_packets": ("lengths", (("origin", ORIGINS),)),
    "offnet.servers": ("offnet", ()),
    "offnet.low_host_id": ("offnet", ()),
    "flood_events": ("events", (("origin", ORIGINS),)),
    "flood_victims": ("events", ()),
}

#: Every analysis name -> ``(selector, family, its placeholder values)``.
ANALYSIS_NAMES = {
    ".".join((family,) + values): (selector, family, values)
    for family, (selector, placeholders) in FAMILIES.items()
    for values in product(*(domain for _placeholder, domain in placeholders))
}

#: Names read off the classified capture itself, not off a fold.
CAPTURE_NAMES = (
    "rows.total", "rows.backscatter", "rows.scans", "records.total", "removed_share"
) + tuple("dropped." + reason for reason in DROP_REASONS)
#: Registry-snapshot prefixes: the name after the colon is free-form.
#: Stage timers are wall seconds, so no prefix reads them: results are
#: deterministic, and a sweep's wall time is in its manifest.
REGISTRY_PREFIXES = ("counter:", "gauge:")


def validate_metric(name: str) -> None:
    """Raise ``ValueError`` for a metric name no evaluator serves."""
    if not isinstance(name, str) or not name:
        raise ValueError("metric names must be non-empty strings (got %r)" % (name,))
    if name in ANALYSIS_NAMES or name in CAPTURE_NAMES:
        return
    if name.startswith(REGISTRY_PREFIXES):
        if not name.partition(":")[2]:
            raise ValueError("metric %r names no registry metric" % name)
        return
    shapes = [
        ".".join([family] + ["<%s>" % p for p, _ in placeholders])
        + "".join("; %s one of %s" % (p, ", ".join(d)) for p, d in placeholders)
        for family, (_selector, placeholders) in FAMILIES.items()
        if family.partition(".")[0] == name.partition(".")[0]
    ]
    if shapes:
        raise ValueError("metric %r: expected %s" % (name, " or ".join(shapes)))
    raise ValueError(
        "unknown metric %r (see repro.core.selectors for the grammar)" % name
    )
