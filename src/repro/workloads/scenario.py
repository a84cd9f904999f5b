"""Scenario builders: assemble deployments, traffic, and the telescope.

``build_scenario`` constructs a full "measurement month" — hypergiant
on-net clusters, off-net caches, assorted other QUIC servers, spoofing
attackers, scanners, and noise — and runs it against a /9 telescope.
Defaults model January 2022 at roughly 1/20 of the paper's traffic volume
(DESIGN.md §5); ``ScenarioConfig.year=2021`` re-parameterizes versions and
volumes to model April 2021.

Traffic is assembled from independent :class:`TrafficUnit`\\ s — one per
attack target-group × spoofed-source block, per scanner, per bot, plus
noise — each driven by its own :func:`derive_seed`-derived rng.  Units
never share random state, so any subset of them can run in any process
(``repro.simnet.shard``) and the union of the resulting captures is
identical to a serial run.

Smaller, purpose-built labs for the active-measurement experiments
(Figures 6, §4.3) are provided by :func:`build_facebook_lab` and
:func:`build_lb_lab`.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, replace

from repro.inetdata.asdb import ISP_NETWORKS, AsDatabase, AsEntry
from repro.inetdata.certs import CertificateStore
from repro.inetdata.geodb import GeoDatabase
from repro.inetdata.hypergiants import CLOUDFLARE, FACEBOOK, GOOGLE
from repro.netstack.addr import Prefix, parse_ip
from repro.obs import NULL_OBS, Observability
from repro.obs.trace import CAT_WORKLOAD
from repro.quic.version import (
    DRAFT_28,
    DRAFT_29,
    GQUIC_Q050,
    MVFST_1,
    MVFST_2,
    MVFST_EXP,
    QUIC_V1,
)
from repro.server.lb.cluster import FrontendCluster
from repro.server.profiles import (
    ServerProfile,
    cloudflare_profile,
    facebook_profile,
    generic_profile,
    google_profile,
)
from repro.server.simple import SimpleQuicServer
from repro.simnet.eventloop import EventLoop
from repro.simnet.network import Network, PathModel
from repro.telescope.acknowledged import RESEARCH_NETWORKS, AcknowledgedScanners
from repro.telescope.classify import ClassifiedCapture, classify_capture
from repro.telescope.darknet import Telescope
from repro.tls.certs import Certificate
from repro.workloads.attackers import AttackPlan, SpoofingAttacker
from repro.workloads.scanners import NoiseSource, ResearchScanner, UnknownScanner

_COUNTRY_CYCLE = ("US", "DE", "IN", "GB", "SG", "CA", "JP", "FR", "BR", "KR")

#: Attack traffic groups (one flood per group; see :func:`plan_traffic_units`).
ATTACK_GROUPS = ("Facebook", "Google", "Cloudflare", "Offnet", "Remaining")

#: Unknown-scanner bots homed in the first N ISP networks.
UNKNOWN_BOTS = 6


def derive_seed(root_seed: int, *parts) -> int:
    """A stable 64-bit sub-seed for one unit of work.

    The derivation hashes the root seed together with the unit's
    *identity* (kind, group, index…) and nothing else — in particular no
    traffic volumes — so :meth:`ScenarioConfig.scaled` commutes with seed
    derivation: scaling a config then deriving a unit seed gives the same
    seed as deriving first.  This is what makes shard assignment a pure
    partitioning decision with no effect on the traffic itself.
    """
    text = "|".join([str(root_seed)] + [str(part) for part in parts])
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class TrafficUnit:
    """One independently seeded slice of scenario traffic.

    Units are the unit of shard assignment: each owns a private rng
    (seeded by :func:`derive_seed`), so running any subset of units in
    any process produces exactly the packets that subset would have
    produced in a serial run.
    """

    name: str  # unique id, e.g. "attack:google:2" or "scan:scanner-umich"
    kind: str  # attack | research | bot | zero_rtt_gcp | zero_rtt_isp | noise
    seed: int  # derived, volume-independent
    count: int  # packets (scans/noise) or spoofed connections (attacks)
    weight: int  # relative simulation cost, for LPT shard balancing
    group: str = ""  # attack target group / scanner name
    index: int = 0  # block or instance index within the kind


@dataclass
class ScenarioConfig:
    """Knobs for a telescope measurement month."""

    seed: int = 20220101
    year: int = 2022
    telescope_prefix: str = "44.0.0.0/9"
    suite: str = "fast"
    window: float = 900.0  # seconds of simulated capture
    #: ``sim.queue_depth`` is sampled every 2**shift events; raise this as
    #: event rates grow past ~10^7/run to keep the histogram cheap.
    queue_depth_sample_shift: int = 10
    # --- path conditions ----------------------------------------------------
    #: Uniform datagram loss applied by the simulated Internet.  Loss is a
    #: keyed per-packet hash (see :class:`~repro.simnet.network.PathModel`),
    #: so a packet's fate is independent of shard assignment; sweep axes
    #: over ``loss_rate`` stay deterministic per cell.
    loss_rate: float = 0.0
    #: One-way delay jitter amplitude in seconds (default matches
    #: :class:`~repro.simnet.network.PathModel`).
    jitter: float = 0.001
    # --- deployment sizes -------------------------------------------------
    facebook_clusters: int = 6
    facebook_vips_per_cluster: int = 22
    facebook_hosts_per_cluster: int = 24
    google_clusters: int = 6
    google_vips_per_cluster: int = 48
    google_hosts_per_cluster: int = 20
    cloudflare_clusters: int = 3
    cloudflare_vips_per_cluster: int = 12
    cloudflare_hosts_per_cluster: int = 12
    facebook_offnets: int = 24
    cloudflare_offnets: int = 3
    remaining_servers: int = 110
    # --- attack volumes (spoofed connections) ------------------------------
    #: Spoofed-source blocks per attack group; each block is its own
    #: :class:`TrafficUnit` (the per-attacker-/16 shard key).
    attacker_blocks: int = 4
    attacks_facebook: int = 1600
    attacks_google: int = 2800
    attacks_cloudflare: int = 120
    attacks_offnet: int = 700
    attacks_remaining: int = 700
    telescope_bias: float = 0.55
    bogus_version_probability: float = 0.0008
    # --- scan/noise volumes -------------------------------------------------
    research_scan_packets: int = 30000
    unknown_scan_packets: int = 6000
    zero_rtt_scan_packets: int = 60
    noise_packets: int = 2500

    def scaled(self, factor: float) -> "ScenarioConfig":
        """Uniformly scale all traffic volumes (deployments unchanged)."""
        return replace(
            self,
            attacks_facebook=int(self.attacks_facebook * factor),
            attacks_google=int(self.attacks_google * factor),
            attacks_cloudflare=max(1, int(self.attacks_cloudflare * factor)),
            attacks_offnet=int(self.attacks_offnet * factor),
            attacks_remaining=int(self.attacks_remaining * factor),
            research_scan_packets=int(self.research_scan_packets * factor),
            unknown_scan_packets=int(self.unknown_scan_packets * factor),
            zero_rtt_scan_packets=int(self.zero_rtt_scan_packets * factor),
            noise_packets=int(self.noise_packets * factor),
        )


def april_2021_config(seed: int = 20210401) -> ScenarioConfig:
    """The comparison month: pre-v1 versions, 1/4.4 backscatter, 1/8 scans."""
    cfg = ScenarioConfig(seed=seed, year=2021)
    cfg = cfg.scaled(1 / 4.4)
    return replace(
        cfg,
        unknown_scan_packets=int(6000 / 8.1),
        zero_rtt_scan_packets=6,
    )


def plan_traffic_units(config: ScenarioConfig) -> tuple[TrafficUnit, ...]:
    """Decompose a config's traffic into independently seeded units.

    The decomposition is structural: the set of unit names and seeds
    depends only on ``config.seed``, ``attacker_blocks``, and which
    volumes are non-zero-able — not on the volumes themselves — so
    :meth:`ScenarioConfig.scaled` preserves it.  Counts split attack
    volumes across blocks with the remainder spread over the first
    blocks; weights approximate relative simulation cost (attack
    connections trigger multi-datagram reply flights plus
    retransmissions, scans are roughly one packet each).
    """
    units: list[TrafficUnit] = []
    blocks = max(1, config.attacker_blocks)
    volumes = (
        ("Facebook", config.attacks_facebook),
        ("Google", config.attacks_google),
        ("Cloudflare", config.attacks_cloudflare),
        ("Offnet", config.attacks_offnet),
        ("Remaining", config.attacks_remaining),
    )
    for group, total in volumes:
        for block in range(blocks):
            count = total // blocks + (1 if block < total % blocks else 0)
            units.append(
                TrafficUnit(
                    name="attack:%s:%d" % (group.lower(), block),
                    kind="attack",
                    seed=derive_seed(config.seed, "attack", group, block),
                    count=count,
                    weight=count * 6,
                    group=group,
                    index=block,
                )
            )
    per_scanner = max(1, config.research_scan_packets // len(RESEARCH_NETWORKS))
    for index, (_prefix, name) in enumerate(RESEARCH_NETWORKS):
        units.append(
            TrafficUnit(
                name="scan:%s" % name,
                kind="research",
                seed=derive_seed(config.seed, "scan", name),
                count=per_scanner,
                weight=per_scanner,
                group=name,
                index=index,
            )
        )
    per_bot = max(1, config.unknown_scan_packets // UNKNOWN_BOTS)
    for index in range(UNKNOWN_BOTS):
        units.append(
            TrafficUnit(
                name="bot:%d" % index,
                kind="bot",
                seed=derive_seed(config.seed, "bot", index),
                count=per_bot,
                weight=per_bot,
                index=index,
            )
        )
    if config.zero_rtt_scan_packets:
        units.append(
            TrafficUnit(
                name="bot:gcp",
                kind="zero_rtt_gcp",
                seed=derive_seed(config.seed, "bot", "gcp"),
                count=config.zero_rtt_scan_packets,
                weight=config.zero_rtt_scan_packets,
            )
        )
        units.append(
            TrafficUnit(
                name="bot:0rtt",
                kind="zero_rtt_isp",
                seed=derive_seed(config.seed, "bot", "0rtt"),
                count=config.zero_rtt_scan_packets,
                weight=config.zero_rtt_scan_packets,
            )
        )
    units.append(
        TrafficUnit(
            name="noise",
            kind="noise",
            seed=derive_seed(config.seed, "noise"),
            count=config.noise_packets,
            weight=config.noise_packets,
        )
    )
    return tuple(units)


@dataclass
class Scenario:
    """A fully wired simulation, ready to run."""

    config: ScenarioConfig
    loop: EventLoop
    network: Network
    rng: random.Random
    telescope: Telescope
    asdb: AsDatabase
    geodb: GeoDatabase
    certstore: CertificateStore
    acknowledged: AcknowledgedScanners
    clusters: dict[str, list[FrontendCluster]] = field(default_factory=dict)
    offnet_servers: list[SimpleQuicServer] = field(default_factory=list)
    remaining_servers: list[SimpleQuicServer] = field(default_factory=list)
    attackers: list[SpoofingAttacker] = field(default_factory=list)
    obs: Observability = field(default_factory=lambda: NULL_OBS)

    @property
    def attacker(self) -> SpoofingAttacker | None:
        """The first attack unit's attacker (compatibility accessor)."""
        return self.attackers[0] if self.attackers else None

    def run(self) -> None:
        """Run the event loop to completion (all traffic + retransmissions)."""
        self.loop.run()

    def classify(self) -> ClassifiedCapture:
        return classify_capture(
            self.telescope.records,
            asdb=self.asdb,
            acknowledged=self.acknowledged,
            obs=self.obs,
        )

    def vips(self, hypergiant: str) -> list[int]:
        """On-net VIP census for one hypergiant (the active-scan view)."""
        return [
            vip for cluster in self.clusters.get(hypergiant, []) for vip in cluster.vips
        ]

    def all_onnet_host_ids(self, hypergiant: str) -> set[int]:
        return {
            host_id
            for cluster in self.clusters.get(hypergiant, [])
            for host_id in cluster.host_ids
        }


# ---------------------------------------------------------------------------
# Version mixes
# ---------------------------------------------------------------------------


def _attack_versions(year: int, target: str) -> tuple[tuple[int, float], ...]:
    """Version distribution attack tools use against each provider.

    Attack tools reuse client libraries matched to their victim: mvfst
    versions against Facebook, a gQUIC share against Google (the source of
    the paper's server-side "others" bucket), plain v1/draft elsewhere.
    """
    if year >= 2022:
        if target == "Facebook":
            return (
                (MVFST_2.value, 0.85),
                (QUIC_V1.value, 0.12),
                (MVFST_1.value, 0.02),
                (MVFST_EXP.value, 0.01),
            )
        if target == "Google":
            return (
                (QUIC_V1.value, 0.80),
                (DRAFT_29.value, 0.02),
                (GQUIC_Q050.value, 0.18),
            )
        return ((QUIC_V1.value, 0.95), (DRAFT_29.value, 0.05))
    # 2021: pre-v1 world.
    if target == "Facebook":
        return ((MVFST_2.value, 0.75), (MVFST_1.value, 0.15), (DRAFT_29.value, 0.10))
    if target == "Google":
        return (
            (DRAFT_29.value, 0.62),
            (DRAFT_28.value, 0.10),
            (GQUIC_Q050.value, 0.28),
        )
    return ((DRAFT_29.value, 0.85), (DRAFT_28.value, 0.15))


def _scanner_versions(year: int) -> tuple[tuple[int, float], ...]:
    if year >= 2022:
        return (
            (QUIC_V1.value, 0.778),
            (MVFST_2.value, 0.212),
            (DRAFT_29.value, 0.006),
            (MVFST_1.value, 0.004),
        )
    return (
        (DRAFT_29.value, 0.595),
        (MVFST_2.value, 0.340),
        (DRAFT_28.value, 0.060),
        (QUIC_V1.value, 0.005),
    )


def _year_versions(profile: ServerProfile, year: int) -> ServerProfile:
    """Adjust a profile's supported versions for the scenario year."""
    if year >= 2022:
        return profile
    if profile.name == "Facebook":
        versions = (MVFST_2.value, MVFST_1.value, DRAFT_29.value)
    elif profile.name == "Google":
        versions = (DRAFT_29.value, DRAFT_28.value, GQUIC_Q050.value)
    else:
        versions = (DRAFT_29.value, DRAFT_28.value)
    return replace(profile, supported_versions=versions)


# ---------------------------------------------------------------------------
# Main builder
# ---------------------------------------------------------------------------


def build_scenario(
    config: ScenarioConfig | None = None,
    obs: Observability | None = None,
    units: "tuple[TrafficUnit, ...] | None" = None,
) -> Scenario:
    """Wire up a full telescope measurement month.

    ``units`` restricts traffic generation to a subset of
    :func:`plan_traffic_units` (shard workers pass their slice); the
    deployment — clusters, off-nets, remaining servers — is always built
    in full, so every worker draws the identical construction-time
    random sequence and hosts behave identically across processes.
    """
    config = config or ScenarioConfig()
    obs = obs or NULL_OBS
    rng = random.Random(config.seed)
    # Scale hint for histogram-bucket derivation.  Always computed from
    # the FULL config (unit weights approximate event cost), never from a
    # shard's ``units`` slice: shard workers must register identical
    # bucket bounds or the parent's snapshot merge would reject them.
    expected_events = sum(unit.weight for unit in plan_traffic_units(config))
    loop = EventLoop(
        obs,
        queue_depth_sample_shift=config.queue_depth_sample_shift,
        expected_events=expected_events,
    )
    network = Network(
        loop,
        random.Random(config.seed ^ 0xBEEF),
        PathModel(jitter=config.jitter, loss_rate=config.loss_rate),
        obs=obs,
    )
    telescope = Telescope(prefix=config.telescope_prefix, obs=obs)
    network.add_device(telescope)

    asdb = AsDatabase.with_hypergiants()
    geodb = GeoDatabase()
    certstore = CertificateStore()
    acknowledged = AcknowledgedScanners()
    asdb.register(
        telescope.prefix, AsEntry(asn=7377, name="Telescope", category="telescope")
    )
    isp_prefixes: list[Prefix] = []
    for asn, name, prefix_text in ISP_NETWORKS:
        prefix = Prefix.parse(prefix_text)
        isp_prefixes.append(prefix)
        asdb.register(prefix, AsEntry(asn=asn, name=name, category="isp"))
    for prefix_text, name in RESEARCH_NETWORKS:
        acknowledged.register(prefix_text, name)
        asdb.register(
            prefix_text, AsEntry(asn=394000, name=name, category="research")
        )

    scenario = Scenario(
        config=config,
        loop=loop,
        network=network,
        rng=rng,
        telescope=telescope,
        asdb=asdb,
        geodb=geodb,
        certstore=certstore,
        acknowledged=acknowledged,
        obs=obs,
    )
    _build_onnet(scenario)
    _build_offnet(scenario, isp_prefixes)
    _build_remaining(scenario, isp_prefixes)
    _build_traffic(scenario, isp_prefixes, units)
    return scenario


def _cluster_cert(hypergiant) -> Certificate:
    suffix = hypergiant.cert_suffixes[0]
    return Certificate(
        subject="*.%s" % suffix,
        subject_alt_names=tuple("*.%s" % s for s in hypergiant.cert_suffixes),
    )


def _build_onnet(scenario: Scenario) -> None:
    cfg = scenario.config
    specs = (
        (
            FACEBOOK,
            "157.240.%d.0/24",
            cfg.facebook_clusters,
            cfg.facebook_vips_per_cluster,
            cfg.facebook_hosts_per_cluster,
            facebook_profile(),
        ),
        (
            GOOGLE,
            "142.250.%d.0/24",
            cfg.google_clusters,
            cfg.google_vips_per_cluster,
            cfg.google_hosts_per_cluster,
            google_profile(),
        ),
        (
            CLOUDFLARE,
            "104.16.%d.0/24",
            cfg.cloudflare_clusters,
            cfg.cloudflare_vips_per_cluster,
            cfg.cloudflare_hosts_per_cluster,
            cloudflare_profile(),
        ),
    )
    for hypergiant, template, count, vips, hosts, profile in specs:
        profile = replace(
            _year_versions(profile, cfg.year), protection_suite=cfg.suite
        )
        cert = _cluster_cert(hypergiant)
        clusters = []
        # Host IDs are unique per cluster; keep cluster ranges disjoint so
        # the Jaccard analysis sees "all host IDs shared or none".
        next_host_id = 2000
        for i in range(count):
            country = _COUNTRY_CYCLE[i % len(_COUNTRY_CYCLE)]
            prefix = template % i
            cluster_profile = profile
            if hypergiant is CLOUDFLARE:
                # Each colo encodes its own ID into the 20-byte SCIDs.
                from repro.quic.cid.cloudflare import CloudflareScheme

                cluster_profile = replace(
                    profile, cid_scheme=CloudflareScheme(colo_id=i + 1)
                )
            cluster = FrontendCluster(
                name="%s-pop-%d" % (hypergiant.name.lower(), i),
                prefix=prefix,
                profile=cluster_profile,
                loop=scenario.loop,
                rng=scenario.rng,
                vip_count=vips,
                l7_host_count=hosts,
                host_id_base=next_host_id,
                certificate=cert,
                country=country,
                obs=scenario.obs,
            )
            next_host_id += hosts + scenario.rng.randrange(1, 50)
            scenario.network.add_device(cluster)
            scenario.geodb.register(prefix, country)
            for vip in cluster.vips:
                scenario.certstore.register(
                    vip, cert, ptr="edge-%d.%s" % (vip & 0xFF, hypergiant.cert_suffixes[0])
                )
            clusters.append(cluster)
        scenario.clusters[hypergiant.name] = clusters


def _build_offnet(scenario: Scenario, isp_prefixes: list[Prefix]) -> None:
    cfg = scenario.config
    rng = scenario.rng
    # Facebook off-net caches: mvfst stack, low host IDs (reused across
    # sites — the paper's improved classifier exploits exactly this).
    fb_profile = replace(
        _year_versions(facebook_profile(), cfg.year), protection_suite=cfg.suite
    )
    fb_cert = Certificate(
        subject="*.fbcdn.net", subject_alt_names=("*.fbcdn.net", "*.facebook.com")
    )
    for i in range(cfg.facebook_offnets):
        prefix = isp_prefixes[i % len(isp_prefixes)]
        address = prefix.host(1000 + 7 * i)
        server = SimpleQuicServer(
            name="fb-offnet-%d" % i,
            address=address,
            profile=fb_profile,
            loop=scenario.loop,
            rng=rng,
            host_id=1 + (i % 24),  # low, reused host IDs
            certificate=fb_cert,
            obs=scenario.obs,
        )
        scenario.network.add_device(server)
        scenario.certstore.register(address, fb_cert, ptr="cache-%d.fbcdn.net" % i)
        scenario.offnet_servers.append(server)
    # Cloudflare off-nets (the paper found 3 candidates, unverifiable).
    cf_profile = replace(
        _year_versions(cloudflare_profile(), cfg.year), protection_suite=cfg.suite
    )
    for i in range(cfg.cloudflare_offnets):
        prefix = isp_prefixes[(i + 5) % len(isp_prefixes)]
        address = prefix.host(2000 + 11 * i)
        server = SimpleQuicServer(
            name="cf-offnet-%d" % i,
            address=address,
            profile=cf_profile,
            loop=scenario.loop,
            rng=rng,
            host_id=i,
            obs=scenario.obs,
        )
        # No certificate registered: like the paper's Cloudflare candidates,
        # these do not admit verification.
        scenario.network.add_device(server)
        scenario.offnet_servers.append(server)


def _build_remaining(scenario: Scenario, isp_prefixes: list[Prefix]) -> None:
    cfg = scenario.config
    rng = scenario.rng
    for i in range(cfg.remaining_servers):
        prefix = isp_prefixes[i % len(isp_prefixes)]
        address = prefix.host(4000 + 13 * i + rng.randrange(5))
        profile = replace(
            _year_versions(generic_profile("other-%d" % i, rng), cfg.year),
            protection_suite=cfg.suite,
        )
        has_cert = rng.random() < 0.8
        cert = (
            Certificate(
                subject="srv%d.example-%d.net" % (i, i % 37),
                subject_alt_names=("srv%d.example-%d.net" % (i, i % 37),),
            )
            if has_cert
            else None
        )
        server = SimpleQuicServer(
            name="other-%d" % i,
            address=address,
            profile=profile,
            loop=scenario.loop,
            rng=rng,
            host_id=rng.randrange(1 << 16),
            certificate=cert,
            obs=scenario.obs,
        )
        scenario.network.add_device(server)
        if cert is not None:
            scenario.certstore.register(address, cert)
        scenario.remaining_servers.append(server)


def _build_traffic(
    scenario: Scenario,
    isp_prefixes: list[Prefix],
    units: tuple[TrafficUnit, ...] | None = None,
) -> None:
    """Install traffic units; ``None`` means all of :func:`plan_traffic_units`."""
    if units is None:
        units = plan_traffic_units(scenario.config)
    installers = {
        "attack": _install_attack,
        "research": _install_research,
        "bot": _install_bot,
        "zero_rtt_gcp": _install_zero_rtt,
        "zero_rtt_isp": _install_zero_rtt,
        "noise": _install_noise,
    }
    obs = scenario.obs
    for unit in units:
        installer = installers.get(unit.kind)
        if installer is None:
            raise ValueError("unknown traffic unit kind %r" % unit.kind)
        with obs.span(
            "simulate.unit",
            unit=unit.name,
            kind=unit.kind,
            count=unit.count,
            packets=unit.weight,
        ):
            installer(scenario, isp_prefixes, unit, random.Random(unit.seed))


def _attack_spec(scenario: Scenario, group: str):
    """(targets, versions, bogus_probability) for one attack group."""
    cfg = scenario.config
    if group in ("Facebook", "Google", "Cloudflare"):
        bogus = cfg.bogus_version_probability if group == "Google" else 0.0
        return scenario.vips(group), _attack_versions(cfg.year, group), bogus
    if group == "Offnet":
        offnet_targets = [s.address for s in scenario.offnet_servers]
        fb_offnet_targets = [
            s.address for s in scenario.offnet_servers if s.profile.name == "Facebook"
        ]
        return (
            fb_offnet_targets or offnet_targets,
            _attack_versions(cfg.year, "Facebook"),
            0.0,
        )
    return (
        [s.address for s in scenario.remaining_servers],
        _attack_versions(cfg.year, "Remaining"),
        0.0,
    )


def _install_attack(
    scenario: Scenario, isp_prefixes: list[Prefix], unit: TrafficUnit, rng: random.Random
) -> None:
    cfg = scenario.config
    targets, versions, bogus = _attack_spec(scenario, unit.group)
    if not targets or unit.count <= 0:
        return
    # Each block spoofs from its own round-robin slice of the ISP /16
    # pool, so the aggregate spoofed-source distribution matches the
    # un-sharded one while blocks stay fully independent.
    blocks = max(1, cfg.attacker_blocks)
    spoof_pool = [
        prefix for i, prefix in enumerate(isp_prefixes) if i % blocks == unit.index
    ] or list(isp_prefixes)
    attacker = SpoofingAttacker(
        name="botnet-%s-%d" % (unit.group.lower(), unit.index),
        loop=scenario.loop,
        rng=rng,
        telescope_prefix=scenario.telescope.prefix,
        spoof_pool=spoof_pool,
        telescope_bias=cfg.telescope_bias,
        suite=cfg.suite,
    )
    scenario.network.add_device(attacker)
    scenario.attackers.append(attacker)
    tracer = scenario.obs.tracer
    if tracer.enabled:
        tracer.emit(
            CAT_WORKLOAD,
            "attack_launched",
            time=scenario.loop.now,
            unit=unit.name,
            targets=len(targets),
            packets=unit.count,
            duration=cfg.window,
        )
    attacker.launch(
        AttackPlan(
            targets=tuple(targets),
            packet_count=unit.count,
            start_time=0.0,
            duration=cfg.window,
            versions=versions,
            bogus_version_probability=bogus,
        )
    )


def _install_research(
    scenario: Scenario, isp_prefixes: list[Prefix], unit: TrafficUnit, rng: random.Random
) -> None:
    cfg = scenario.config
    prefix_text, name = RESEARCH_NETWORKS[unit.index]
    scanner = ResearchScanner(
        name=name,
        address=Prefix.parse(prefix_text).host(7),
        loop=scenario.loop,
        rng=rng,
        target_prefix=scenario.telescope.prefix,
        suite=cfg.suite,
    )
    scenario.network.add_device(scanner)
    tracer = scenario.obs.tracer
    if tracer.enabled:
        tracer.emit(
            CAT_WORKLOAD,
            "scan_sweep",
            time=scenario.loop.now,
            scanner=name,
            packets=unit.count,
            duration=cfg.window,
        )
    scanner.sweep(unit.count, start_time=0.0, duration=cfg.window)


def _install_bot(
    scenario: Scenario, isp_prefixes: list[Prefix], unit: TrafficUnit, rng: random.Random
) -> None:
    cfg = scenario.config
    bot = UnknownScanner(
        name="bot-%d" % unit.index,
        address=isp_prefixes[unit.index].host(9000 + unit.index),
        loop=scenario.loop,
        rng=rng,
        target_prefix=scenario.telescope.prefix,
        versions=_scanner_versions(cfg.year),
        suite=cfg.suite,
    )
    scenario.network.add_device(bot)
    bot.sweep(unit.count, start_time=0.0, duration=cfg.window)


def _install_zero_rtt(
    scenario: Scenario, isp_prefixes: list[Prefix], unit: TrafficUnit, rng: random.Random
) -> None:
    cfg = scenario.config
    if unit.kind == "zero_rtt_gcp":
        # A bot inside Google's cloud replaying 0-RTT at dark space — the
        # source of Table 3's 0-RTT share "from" the Google network.
        name, address, probability = "bot-gcp", parse_ip("142.250.199.77"), 0.8
    else:
        name, address, probability = "bot-0rtt", isp_prefixes[7].host(9999), 0.5
    bot = UnknownScanner(
        name=name,
        address=address,
        loop=scenario.loop,
        rng=rng,
        target_prefix=scenario.telescope.prefix,
        versions=_scanner_versions(cfg.year),
        zero_rtt_probability=probability,
        suite=cfg.suite,
    )
    scenario.network.add_device(bot)
    bot.sweep(unit.count, start_time=0.0, duration=cfg.window)


def _install_noise(
    scenario: Scenario, isp_prefixes: list[Prefix], unit: TrafficUnit, rng: random.Random
) -> None:
    cfg = scenario.config
    noise = NoiseSource(
        name="noise",
        address=isp_prefixes[3].host(12345),
        loop=scenario.loop,
        rng=rng,
        target_prefix=scenario.telescope.prefix,
    )
    scenario.network.add_device(noise)
    tracer = scenario.obs.tracer
    if tracer.enabled:
        tracer.emit(
            CAT_WORKLOAD,
            "noise_started",
            time=scenario.loop.now,
            packets=unit.count,
            duration=cfg.window,
        )
    noise.sweep(unit.count, start_time=0.0, duration=cfg.window)


# ---------------------------------------------------------------------------
# Active-measurement labs
# ---------------------------------------------------------------------------


@dataclass
class Lab:
    """A small deployment for active experiments (no telescope traffic)."""

    loop: EventLoop
    network: Network
    rng: random.Random
    clusters: dict[str, list[FrontendCluster]]
    geodb: GeoDatabase
    obs: Observability = field(default_factory=lambda: NULL_OBS)

    def vips(self, hypergiant: str) -> list[int]:
        return [
            vip for cluster in self.clusters.get(hypergiant, []) for vip in cluster.vips
        ]


def build_facebook_lab(
    cluster_specs: list[tuple[int, int, str]],
    seed: int = 7,
    suite: str = "null",
    workers_per_host: int = 4,
    maglev_table_size: int = 1021,
    obs: Observability | None = None,
) -> Lab:
    """Facebook on-net deployment for L7LB experiments.

    ``cluster_specs`` is a list of ``(vip_count, l7_host_count, country)``.
    The default ``null`` protection suite makes bulk probing cheap; the
    wire format is unchanged.
    """
    obs = obs or NULL_OBS
    rng = random.Random(seed)
    loop = EventLoop(obs)
    network = Network(loop, random.Random(seed ^ 1), PathModel(jitter=0.0), obs=obs)
    geodb = GeoDatabase()
    profile = replace(
        facebook_profile(), protection_suite=suite, workers_per_host=workers_per_host
    )
    cert = _cluster_cert(FACEBOOK)
    clusters = []
    next_host_id = 1000  # disjoint per-cluster host-ID ranges (see above)
    for i, (vip_count, host_count, country) in enumerate(cluster_specs):
        prefix = "157.240.%d.0/24" % (i % 250) if i < 250 else "31.13.%d.0/24" % (i - 250)
        cluster = FrontendCluster(
            name="fb-pop-%d" % i,
            prefix=prefix,
            profile=profile,
            loop=loop,
            rng=rng,
            vip_count=vip_count,
            l7_host_count=host_count,
            host_id_base=next_host_id,
            certificate=cert,
            country=country,
            maglev_table_size=maglev_table_size,
            obs=obs,
        )
        next_host_id += host_count + rng.randrange(1, 20)
        network.add_device(cluster)
        geodb.register(prefix, country)
        clusters.append(cluster)
    return Lab(
        loop=loop,
        network=network,
        rng=rng,
        clusters={"Facebook": clusters},
        geodb=geodb,
        obs=obs,
    )


def build_lb_lab(
    google_hosts: int = 12,
    facebook_hosts: int = 12,
    seed: int = 11,
    suite: str = "null",
    quic_lb_hosts: int = 0,
    obs: Observability | None = None,
) -> Lab:
    """One Google + one Facebook cluster, for the Appendix-D experiments.

    ``quic_lb_hosts`` > 0 additionally deploys a hypothetical QUIC-LB
    (IETF routable-CID) cluster under the "QuicLB" key — used by the
    migration ablation.
    """
    from repro.server.profiles import quic_lb_profile

    obs = obs or NULL_OBS
    rng = random.Random(seed)
    loop = EventLoop(obs)
    network = Network(loop, random.Random(seed ^ 1), PathModel(jitter=0.0), obs=obs)
    geodb = GeoDatabase()
    clusters: dict[str, list[FrontendCluster]] = {}
    specs = [
        (GOOGLE.name, google_profile(), "142.250.0.0/24", google_hosts, GOOGLE),
        (FACEBOOK.name, facebook_profile(), "157.240.0.0/24", facebook_hosts, FACEBOOK),
    ]
    if quic_lb_hosts:
        specs.append(
            ("QuicLB", quic_lb_profile(), "198.18.0.0/24", quic_lb_hosts, None)
        )
    for name, profile, prefix, hosts, hypergiant in specs:
        cluster = FrontendCluster(
            name="%s-lab" % name.lower(),
            prefix=prefix,
            profile=replace(profile, protection_suite=suite),
            loop=loop,
            rng=rng,
            vip_count=8,
            l7_host_count=hosts,
            host_id_base=100,
            certificate=_cluster_cert(hypergiant) if hypergiant else None,
            country="US",
            obs=obs,
        )
        network.add_device(cluster)
        geodb.register(prefix, "US")
        clusters[name] = [cluster]
    return Lab(
        loop=loop, network=network, rng=rng, clusters=clusters, geodb=geodb, obs=obs
    )
