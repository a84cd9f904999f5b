"""Write-side template/memo plane — flight emission and crypto memo speedups.

Three arms over the packet-build hot path, recorded in
``BENCH_hotpath.json`` at the repo root:

* **flight_emission** — a cloudflare-profile engine (certificate
  attached) emits repeated handshake flights to established connections
  through both arms of ``_send_flight_inner``: the shape-keyed flight
  layout (header splice + fused seal) vs. the frame-by-frame rebuild
  that reproduces the pre-template code path.  Every sent datagram's
  payload is read inside the timed loop, since the layout arm seals on
  that read.  Reported as packets/sec.
* **initial_keys_memo** / **schedule_memo** — Initial secrets per
  ``(version, DCID)`` and AES/GHASH schedules per key, cached vs. cold,
  at a reuse factor of 20 uses per key (BENCH_prof.json measured ~26
  AEAD invocations per distinct key in a simulated month).
* **parity** — the same scenario simulated with the fast paths on and
  off must write byte-identical pcaps.

The flight-emission floor is 2.5x, not 5x: the fast arm is ~78% native
AEAD work (two seals per flight, ~38us on the reference box), which
bounds the achievable ratio near 5.5x even if header assembly were
free; the measured 3-4x is the honest number and the floor leaves
headroom for machine noise.  The memo arms, where the cached work
really does vanish, carry the 5x floor.  Floors are asserted at bench
scale >= 0.5; parity is asserted on any machine.

Run under pytest (``pytest benchmarks/bench_hotpath.py``) or as a
script — ``python benchmarks/bench_hotpath.py --check`` re-measures and
exits non-zero on violations.  ``--scale`` overrides the default bench
scale (0.5; the REPRO_BENCH_SCALE env var is honoured too).
"""

import argparse
import filecmp
import json
import os
import random
import sys
import tempfile
import time

from repro import hotpath
from repro.cli import main as cli_main
from repro.netstack.addr import parse_ip
from repro.quic.crypto.gcm import AesGcm
from repro.quic.crypto.initial import derive_initial_keys
from repro.quic.crypto.memo import (
    cached_gcm,
    cached_initial_keys,
    clear_crypto_memos,
)
from repro.server.engine import QuicServerEngine
from repro.server.profiles import cloudflare_profile
from repro.simnet.eventloop import EventLoop
from repro.tls.certs import Certificate
from repro.workloads.clients import ClientConnection

BENCH_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_hotpath.json")
DEFAULT_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))
SEED = 20220101
#: AEAD invocations per distinct key in a simulated month is ~26
#: (BENCH_prof.json: ~15k seals over ~579 keys); 20 is a conservative
#: stand-in for how often each memoized schedule is reused.
REUSE_ROUNDS = 20
MIN_FLIGHT_SPEEDUP = 2.5
MIN_MEMO_SPEEDUP = 5.0
#: Speedup floors are only asserted at or above this scale.
MIN_SCALE_FOR_SPEEDUP = 0.5
#: Arms are measured this many times; the best run is recorded (the
#: reference box shows +-25% scheduler noise between runs).
REPEATS = 3

VIP = parse_ip("157.240.1.10")
CLIENT = parse_ip("44.1.2.3")
CERT = Certificate(
    subject="*.cloudflare.com",
    subject_alt_names=("*.cloudflare.com", "*.cloudflaressl.com"),
)


def _established_engine(connections):
    """An engine holding ``connections`` handshaken clients, plus the
    request datagram used to address re-flights."""
    sent = []
    engine = QuicServerEngine(
        profile=cloudflare_profile(colo_id=1),
        loop=EventLoop(),
        rng=random.Random(SEED),
        send=sent.append,
        host_id=7,
        worker_id=3,
        certificate=CERT,
    )
    client_rng = random.Random(77)
    request = None
    for port in range(10000, 10000 + connections):
        client = ClientConnection(
            rng=client_rng,
            src_ip=CLIENT,
            src_port=port,
            dst_ip=VIP,
            version=engine.profile.supported_versions[0],
        )
        datagram = client.initial_datagram()
        request = request or datagram
        engine.on_datagram(datagram, 0.0)
    sent.clear()
    return engine, request, sent


def _measure_emission(enabled, connections, rounds):
    """Seconds for ``rounds`` full re-flight sweeps; returns (pps, packets)."""
    hotpath.set_enabled(enabled)
    clear_crypto_memos()
    engine, request, sent = _established_engine(connections)
    conns = list(engine._by_origin.values())
    # Warm pass: binds layouts (fast arm) and touches every conn once.
    for conn in conns:
        engine._send_flight_inner(conn, request)
    sent.clear()
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(rounds):
            for conn in conns:
                engine._send_flight_inner(conn, request)
            # A flight is sealed when its payload is first read (for a
            # delivered datagram, in Network.transmit): read every one,
            # or the template arm would time a flight that seals nothing.
            for datagram in sent:
                datagram.payload
            sent.clear()
        best = min(best, time.perf_counter() - start)
    packets = 2 * rounds * len(conns)  # every flight is Initial + Handshake
    return packets / best, packets


def _measure_initial_keys(cached, dcids):
    """Key derivations/sec at REUSE_ROUNDS uses per DCID.

    Both arms read both directions: ``InitialKeys`` expands a direction
    on first access, so a discarded result would time HKDF-Extract only.
    """
    hotpath.set_enabled(cached)  # cached_* fall through when disabled
    clear_crypto_memos()
    best = float("inf")
    for _ in range(REPEATS):
        clear_crypto_memos()
        start = time.perf_counter()
        for _ in range(REUSE_ROUNDS):
            for dcid in dcids:
                if cached:
                    keys = cached_initial_keys(1, dcid)
                else:
                    keys = derive_initial_keys(1, dcid)
                keys.client, keys.server
        best = min(best, time.perf_counter() - start)
    return REUSE_ROUNDS * len(dcids) / best


def _measure_schedules(cached, keys):
    """Small-payload seals/sec at REUSE_ROUNDS uses per AES/GHASH key."""
    nonce = b"\x24" * 12
    payload = b"\x5a" * 64
    hotpath.set_enabled(cached)  # cached_* fall through when disabled
    clear_crypto_memos()
    best = float("inf")
    for _ in range(REPEATS):
        clear_crypto_memos()
        start = time.perf_counter()
        for _ in range(REUSE_ROUNDS):
            for key in keys:
                gcm = cached_gcm(key) if cached else AesGcm(key)
                gcm.seal(nonce, payload, b"")
        best = min(best, time.perf_counter() - start)
    return REUSE_ROUNDS * len(keys) / best


def run_bench(scale=DEFAULT_SCALE):
    """Measure every hot-path arm, persist ``BENCH_hotpath.json``."""
    connections = max(25, int(400 * scale))
    rounds = 10
    rng = random.Random(SEED)
    dcids = [rng.getrandbits(64).to_bytes(8, "big") for _ in range(64)]
    keys = [rng.getrandbits(128).to_bytes(16, "big") for _ in range(32)]

    results = {
        "scale": scale,
        "seed": SEED,
        "connections": connections,
        "reuse_rounds": REUSE_ROUNDS,
        "arms": {},
        "parity": {},
    }

    template_pps, packets = _measure_emission(True, connections, rounds)
    rebuild_pps, _ = _measure_emission(False, connections, rounds)
    results["packets_per_sweep"] = packets
    results["arms"]["flight_emission"] = {
        "template_pps": round(template_pps, 1),
        "rebuild_pps": round(rebuild_pps, 1),
        "speedup": round(template_pps / max(rebuild_pps, 1e-9), 3),
    }

    cached_kps = _measure_initial_keys(True, dcids)
    cold_kps = _measure_initial_keys(False, dcids)
    results["arms"]["initial_keys_memo"] = {
        "cached_keys_per_sec": round(cached_kps, 1),
        "cold_keys_per_sec": round(cold_kps, 1),
        "speedup": round(cached_kps / max(cold_kps, 1e-9), 3),
    }

    cached_ops = _measure_schedules(True, keys)
    cold_ops = _measure_schedules(False, keys)
    results["arms"]["schedule_memo"] = {
        "cached_seals_per_sec": round(cached_ops, 1),
        "cold_seals_per_sec": round(cold_ops, 1),
        "speedup": round(cached_ops / max(cold_ops, 1e-9), 3),
    }

    parity_scale = min(scale, 0.02)
    results["parity_scale"] = parity_scale
    with tempfile.TemporaryDirectory() as tmp:
        fast = os.path.join(tmp, "fast.pcap")
        slow = os.path.join(tmp, "slow.pcap")
        hotpath.set_enabled(True)
        clear_crypto_memos()
        code = cli_main(
            ["simulate", fast, "--scale", str(parity_scale), "--seed", str(SEED)]
        )
        assert code == 0, "simulate (hotpath on) failed"
        hotpath.set_enabled(False)
        clear_crypto_memos()
        code = cli_main(
            ["simulate", slow, "--scale", str(parity_scale), "--seed", str(SEED)]
        )
        assert code == 0, "simulate (hotpath off) failed"
        hotpath.set_enabled(True)
        results["parity"]["pcap_identical"] = filecmp.cmp(
            fast, slow, shallow=False
        )

    with open(BENCH_PATH, "w") as fileobj:
        json.dump(results, fileobj, indent=2, sort_keys=True)
        fileobj.write("\n")
    return results


def _render(results):
    arms = results["arms"]
    lines = [
        "Hot-path plane (scale %.2f, %d conns, reuse %d):"
        % (results["scale"], results["connections"], results["reuse_rounds"]),
        "  %-24s %10.0f pps  vs %10.0f pps  (%.2fx)"
        % (
            "flight emission",
            arms["flight_emission"]["template_pps"],
            arms["flight_emission"]["rebuild_pps"],
            arms["flight_emission"]["speedup"],
        ),
        "  %-24s %10.0f k/s  vs %10.0f k/s  (%.1fx)"
        % (
            "initial keys memo",
            arms["initial_keys_memo"]["cached_keys_per_sec"],
            arms["initial_keys_memo"]["cold_keys_per_sec"],
            arms["initial_keys_memo"]["speedup"],
        ),
        "  %-24s %10.0f s/s  vs %10.0f s/s  (%.1fx)"
        % (
            "AES/GHASH schedule memo",
            arms["schedule_memo"]["cached_seals_per_sec"],
            arms["schedule_memo"]["cold_seals_per_sec"],
            arms["schedule_memo"]["speedup"],
        ),
        "  %-24s %s"
        % (
            "pcap parity (on vs off)",
            "identical" if results["parity"]["pcap_identical"] else "DIFFERS",
        ),
    ]
    if results["scale"] < MIN_SCALE_FOR_SPEEDUP:
        lines.append(
            "  (scale < %.1f: speedup floors not asserted, parity only)"
            % MIN_SCALE_FOR_SPEEDUP
        )
    return "\n".join(lines)


def _check(results):
    """Violations as human-readable strings (empty = pass)."""
    failures = []
    if not results["parity"]["pcap_identical"]:
        failures.append("parity violated: hotpath on/off pcaps differ")
    if results["scale"] < MIN_SCALE_FOR_SPEEDUP:
        return failures
    arms = results["arms"]
    flight = arms["flight_emission"]["speedup"]
    if flight < MIN_FLIGHT_SPEEDUP:
        failures.append(
            "flight emission reached %.2fx (< %.1fx) over the rebuild arm"
            % (flight, MIN_FLIGHT_SPEEDUP)
        )
    for arm in ("initial_keys_memo", "schedule_memo"):
        speedup = arms[arm]["speedup"]
        if speedup < MIN_MEMO_SPEEDUP:
            failures.append(
                "%s reached %.2fx (< %.1fx) over the cold arm"
                % (arm, speedup, MIN_MEMO_SPEEDUP)
            )
    return failures


def test_hotpath_speedups_and_parity(benchmark):
    from conftest import report

    results = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    report("hotpath", _render(results))
    failures = _check(results)
    assert not failures, "; ".join(failures)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero on parity/speedup violations (CI gate)",
    )
    parser.add_argument(
        "--scale", type=float, default=DEFAULT_SCALE, help="scenario scale"
    )
    args = parser.parse_args(argv)
    results = run_bench(scale=args.scale)
    print(_render(results))
    failures = _check(results)
    for failure in failures:
        print("FAIL: %s" % failure, file=sys.stderr)
    if args.check and failures:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
