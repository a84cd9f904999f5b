"""Registry of the hypergiants the paper studies.

AS numbers and domain suffixes are the real ones; prefixes are
representative published prefixes of each network (used to lay out the
simulated deployments and the IP-to-AS database).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Hypergiant:
    """One content hypergiant: AS, prefixes, and verification domains."""

    name: str
    asn: int
    prefixes: tuple[str, ...]
    #: Domain suffixes accepted as proof of operation (paper Appendix C).
    cert_suffixes: tuple[str, ...]

    def __str__(self) -> str:
        return self.name


FACEBOOK = Hypergiant(
    name="Facebook",
    asn=32934,
    prefixes=("157.240.0.0/16", "31.13.24.0/21", "179.60.192.0/22"),
    cert_suffixes=("facebook.com", "instagram.com", "fbcdn.net", "whatsapp.com"),
)

GOOGLE = Hypergiant(
    name="Google",
    asn=15169,
    prefixes=("142.250.0.0/15", "172.217.0.0/16", "216.58.192.0/19"),
    cert_suffixes=("google.com", "youtube.com", "gstatic.com", "1e100.net"),
)

CLOUDFLARE = Hypergiant(
    name="Cloudflare",
    asn=13335,
    prefixes=("104.16.0.0/13", "172.64.0.0/14", "188.114.96.0/20"),
    cert_suffixes=("cloudflare.com", "cloudflare.net", "cloudflaressl.com"),
)

HYPERGIANTS: dict[str, Hypergiant] = {
    hg.name: hg for hg in (FACEBOOK, GOOGLE, CLOUDFLARE)
}

#: Display order used by the paper's tables.
TABLE_ORDER = ("Cloudflare", "Facebook", "Google")
REMAINING = "Remaining"
