"""The three traffic mixes of the end-to-end benchmark.

Each workload is an explicit ``ScenarioConfig``; the simulate child is
handed only the resolved config (as JSON), never the workload name.
All three capture about 38.5k records, so records/s is comparable across
them; a pipeline pass takes 9-13 s on the 2-CPU reference box.
``volume`` scales every traffic knob uniformly (1.0 is the benchmark's
size, ``--quick`` uses 0.1).
"""

from __future__ import annotations

from dataclasses import asdict, replace

from repro.workloads.scenario import ScenarioConfig

DEFAULT_SEED = 20220101
#: A seed whose scenario the program cannot finish (stages.RUNAWAY_EXIT)
#: is replaced by the next of ``seed + k * SEED_STRIDE``: the inputs stay
#: a function of the seed alone.
SEED_STRIDE = 1_000_003
SEED_CANDIDATES = 6

#: name -> why it exists (one line each; BENCHMARK.json carries the same).
WORKLOADS = {
    "month_2022": (
        "paper mix at scale 0.5, the (seed, scale) ROADMAP quotes (half "
        "backscatter, 39% acknowledged scanners, 8% scans, 3% undissectable): "
        "every layer does a moderate share, so a gain shows at its true size"
    ),
    "backscatter_flood": (
        "attack traffic only (>=99% backscatter): server.lb, server.engine "
        "flights and RTO ladders, crypto seal and the session/timing "
        "analyses; almost no key derivation and no AEAD open in index"
    ),
    "scan_sweep": (
        "scan and noise traffic only (0 backscatter): bypasses server.*; "
        "fresh-DCID derive+seal on the write side, derive+open in index; "
        "analyze is nearly idle"
    ),
}

_ATTACK_KNOBS = (
    "attacks_facebook",
    "attacks_google",
    "attacks_cloudflare",
    "attacks_offnet",
    "attacks_remaining",
)
_SCAN_KNOBS = (
    "research_scan_packets",
    "unknown_scan_packets",
    "zero_rtt_scan_packets",
    "noise_packets",
)


def _scale(config: ScenarioConfig, knobs, factor: float) -> ScenarioConfig:
    return replace(
        config, **{knob: int(getattr(config, knob) * factor) for knob in knobs}
    )


def build_config(name: str, seed: int = DEFAULT_SEED, volume: float = 1.0):
    """The ``ScenarioConfig`` of workload ``name`` at ``seed``."""
    base = ScenarioConfig(seed=seed)
    if name == "month_2022":
        # ScenarioConfig.scaled is what `repro simulate --scale` applies.
        return base.scaled(0.5 * volume)
    if name == "backscatter_flood":
        return _scale(_scale(base, _ATTACK_KNOBS, volume), _SCAN_KNOBS, 0.0)
    if name == "scan_sweep":
        return _scale(_scale(base, _SCAN_KNOBS, volume), _ATTACK_KNOBS, 0.0)
    raise KeyError("unknown workload %r (have: %s)" % (name, ", ".join(WORKLOADS)))


def candidate_seeds(seed: int):
    return [seed + k * SEED_STRIDE for k in range(SEED_CANDIDATES)]


def config_to_json(config: ScenarioConfig) -> dict:
    return asdict(config)


def config_from_json(fields: dict) -> ScenarioConfig:
    return ScenarioConfig(**fields)
