"""Stage children of the end-to-end benchmark (one process per stage).

    stages.py [--trace OUT.json] simulate CONFIG.json OUT.pcap
    stages.py [--trace OUT.json] index PCAP
    stages.py [--trace OUT.json] analyze PCAP
    stages.py parity SEED DIR

``simulate`` is the benchmark's driver for custom mixes: the README API
(`build_scenario` -> `run` -> `telescope.write_pcap`), mirroring the
serial path of ``repro simulate``; ``parity`` proves the two write the
same bytes.  Untraced ``index``/``analyze`` children are plain
``python -m repro ...``; with ``--trace`` this file installs the layer
wrappers (``layers.py``) and then calls the same ``repro.cli.main``
entry, so a traced and an untraced child differ only by the wrappers.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402  (the clock above must start first)
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(os.path.dirname(_HERE)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

ANALYZE_TABLES = ("1", "2", "3", "4", "rto", "lengths")
PARITY_VOLUME = 0.1  # month_2022 at volume 0.1 == `repro simulate --scale 0.05`
PARITY_SCALE = "0.05"

#: Exit status of a simulate child whose scenario does not terminate.  At
#: about 3% of seeds a spoofed source address coincides with a server's,
#: and the two servers then answer each other's stateless resets for ever
#: (RFC 9000 section 10.3.3 asks for a guard the program does not have).
#: Such a seed is not an input the benchmark can use: the parent moves on
#: to the next candidate seed instead of counting a failed op.
RUNAWAY_EXIT = 3
#: A finished run processes 2-2.5 events per unit of planned weight.
RUNAWAY_EVENT_FACTOR = 8


def file_digest(path: str) -> str:
    digest = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as fileobj:
        for chunk in iter(lambda: fileobj.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Runaway(Exception):
    """The scenario's event loop did not drain within its event budget."""


def drive_simulate(config, out_path: str) -> dict:
    """Build the scenario, run the loop, write the pcap; return counters."""
    from repro.workloads.scenario import build_scenario

    scenario = build_scenario(config)
    # scenario.run() is loop.run(); the budget is the loop's own guard
    # against runaway simulations, sized from the scenario's planned weight.
    planned = getattr(scenario.loop, "expected_events", None) or 250_000
    try:
        scenario.loop.run(max_events=RUNAWAY_EVENT_FACTOR * planned)
    except RuntimeError as exc:
        raise Runaway(str(exc)) from exc
    with open(out_path, "wb") as fileobj:
        scenario.telescope.write_pcap(fileobj)
    return {
        "records": len(scenario.telescope.records),
        "events": scenario.loop.events_processed,
    }


def _stage_simulate(args) -> int:
    from workloads import config_from_json

    with open(args.config) as fileobj:
        config = config_from_json(json.load(fileobj))
    try:
        counters = drive_simulate(config, args.pcap)
    except Runaway as exc:
        print("runaway scenario: %s" % exc, file=sys.stderr)
        return RUNAWAY_EXIT
    with open(args.pcap + ".result.json", "w") as fileobj:
        json.dump(counters, fileobj)
    return 0


def _stage_index(args) -> int:
    from repro.cli import main

    return main(["index", args.pcap])


def _stage_analyze(args) -> int:
    from repro.cli import main

    return main(["analyze", args.pcap, "--tables", *ANALYZE_TABLES])


def _stage_parity(args) -> int:
    """Driver == documented command: byte-identical pcaps at scale 0.05."""
    from repro.cli import main
    from workloads import build_config, candidate_seeds

    driver_pcap = os.path.join(args.dir, "parity_driver.pcap")
    cli_pcap = os.path.join(args.dir, "parity_cli.pcap")
    for seed in candidate_seeds(args.seed):
        try:
            # The driver goes first: it has the runaway guard the CLI lacks.
            drive_simulate(build_config("month_2022", seed, PARITY_VOLUME), driver_pcap)
        except Runaway:
            continue
        status = main(
            ["simulate", cli_pcap, "--scale", PARITY_SCALE, "--seed", str(seed)]
        )
        if status != 0:
            return status
        driver, cli = file_digest(driver_pcap), file_digest(cli_pcap)
        print("parity seed=%d driver=%s cli=%s" % (seed, driver, cli))
        return 0 if driver == cli else 1
    return RUNAWAY_EXIT


_STAGES = {
    "simulate": ("sim", _stage_simulate),
    "index": ("idx", _stage_index),
    "analyze": ("ana", _stage_analyze),
}


def _memo_hit_ratio():
    try:
        from repro.quic.crypto.memo import memo_stats

        stats = memo_stats()["initial_keys"]
        total = stats["hits"] + stats["misses"]
        return stats["hits"] / total if total else None
    except (ImportError, AttributeError, KeyError, TypeError):
        return None


def _run_traced(stage: str, entry, args) -> int:
    import layers

    # Import what the entry imports before wrapping: module-level wrap
    # points are swapped in the globals of modules already loaded.
    if stage == "sim":
        import repro.workloads.scenario  # noqa: F401
    else:
        import repro.cli  # noqa: F401
    tracer = layers.install(stage)
    startup_s = time.perf_counter() - _T0
    tracer.start()
    try:
        status = entry(args)
    finally:
        tracer.finish()
        report = tracer.report()
        report.update(
            stage=stage,
            startup_s=startup_s,
            memo_hit_ratio=_memo_hit_ratio(),
        )
        with open(args.trace, "w") as fileobj:
            json.dump(report, fileobj)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace", metavar="OUT.json")
    sub = parser.add_subparsers(dest="stage", required=True)
    simulate = sub.add_parser("simulate")
    simulate.add_argument("config")
    simulate.add_argument("pcap")
    for name in ("index", "analyze"):
        sub.add_parser(name).add_argument("pcap")
    parity = sub.add_parser("parity")
    parity.add_argument("seed", type=int)
    parity.add_argument("dir")
    args = parser.parse_args(argv)
    if args.stage == "parity":
        return _stage_parity(args)
    stage, entry = _STAGES[args.stage]
    if args.trace:
        return _run_traced(stage, entry, args)
    return entry(args)


if __name__ == "__main__":
    sys.exit(main())
