"""End-to-end pipeline benchmark: simulate -> index (cold) -> analyze (warm).

One pipeline pass = a fresh directory, then one child process per stage,
one at a time, exactly as a user runs them:

    python benchmarks/e2e/stages.py simulate CONFIG.json m.pcap
    python -m repro index m.pcap                       (no sidecar: cold)
    python -m repro analyze m.pcap --tables 1 2 3 4 rto lengths   (x3, warm)

Closed loop, one process at a time on one CPU, local disk only.  Every
timing is reported at the reference box's speed: the wall clock divided
by how much slower than that a fixed kernel of pure-Python work ran
between the children of the same run (the raw wall clock is printed
beside it).  Two ways to run:

    python benchmarks/e2e/run.py                  the suite: 3 workloads x 7
                                                  passes + 1 traced pass each
    python benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
                                                  one driver run (BENCHMARK.json)

``--aa`` runs the untraced suite twice and fails if the two disagree by
more than the metrics' own bounds; ``--quick`` is a small smoke run.
See README.md in this directory for the metrics and how to read a trace.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402  (the set-up clock above must start first)
import compileall  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import struct  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import check  # noqa: E402
import layers  # noqa: E402
import spec  # noqa: E402
import stages  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, WORKLOADS, build_config, candidate_seeds, config_to_json)

CPUS = len(os.sched_getaffinity(0))  # before main() narrows it to one
STAGE_TIMEOUT_S = 60.0
SUITE_REPS = 7
ANALYZE_RUNS = 3
QUICK_VOLUME = 0.1

# ---------------------------------------------------------------------------
# Box speed: the sandbox runs 1x-2x slower from one minute to the next
# with its neighbours (README.md, "Steadiness"), so a run measures how
# fast the box is while it measures the program.
# ---------------------------------------------------------------------------

#: Wall of :func:`speed_kernel` on the reference box with no neighbour
#: busy (the least of 150 probes): timings are reported at this speed.
KERNEL_REFERENCE_S = 0.22
KERNEL_ROUNDS = 300_000


def speed_kernel(rounds, table):
    """Fixed work of the program's kind (ints, bytes, struct, dict lookups
    over a working set larger than the L2 cache, small lists, hashing) that
    uses none of the program's code: a change under ``src/`` cannot move it."""
    acc = 0
    buf = bytearray(1024)
    pack_into = struct.Struct("!HHIIBB").pack_into
    for i in range(rounds):
        key = (i * 2654435761) & 0xFFFF
        row = table[key]
        row[0] += 1
        pack_into(buf, (i & 63) * 16, i & 0xFFFF, key, i, acc & 0xFFFFFFFF, 7, 9)
        if not i & 15:
            row[1] = hashlib.sha256(bytes(buf[:64])).digest()[:8]
        acc += int.from_bytes(buf[4:8], "big") ^ len(row[1])
    return acc


def speed_probe(volume=1.0):
    """Seconds the kernel takes now (``--quick`` runs a tenth of it)."""
    table = {key: [0, b"", key] for key in range(0x10000)}
    start = time.perf_counter()
    speed_kernel(int(KERNEL_ROUNDS * volume), table)
    return (time.perf_counter() - start) / volume


def slowdown(probes):
    """How many times slower than the reference box the probes ran."""
    return statistics.mean(probes) / KERNEL_REFERENCE_S


def at_reference_speed(unit, value, slow):
    """``value`` as the reference box would have measured it."""
    if unit == "s":
        return value / slow
    if unit == "records/s":
        return value * slow
    return value  # bytes, MiB: the box's speed does not move them


class Ops:
    """An op is one stage child or one correctness check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append("%s: %s" % (name, detail))
            print("FAILED op %s: %s" % (name, detail), flush=True)


class PassFailed(Exception):
    """A stage child failed: the pass contributes no timing sample."""


class SeedRejected(Exception):
    """The simulate child reported a scenario the program cannot finish."""


CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
)


def run_child(ops, name, argv, stdout_path, may_reject=False):
    """Run one stage child to completion; returns its wall/rusage or raises."""
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable] + argv, stdout=out, stderr=err, env=CHILD_ENV, cwd=ROOT
        )
        killer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            # wait4 rather than Popen.wait: it returns the child's rusage.
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    if may_reject and proc.returncode == stages.RUNAWAY_EXIT:
        raise SeedRejected(name)  # an unusable input, not an op
    if proc.returncode != 0:
        with open(stdout_path + ".err", "rb") as err:
            tail = err.read()[-400:].decode("utf-8", "replace")
        ops.record(name, False, "exit %d after %.1f s: %s" % (proc.returncode, wall, tail))
        raise PassFailed(name)
    ops.record(name, True)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mib": usage.ru_maxrss / 1024.0,  # Linux reports KiB
    }


def stage_argv(stage, traced_to, *args):
    """The untraced child is the documented command; the traced one wraps it."""
    if traced_to:
        return [os.path.join(HERE, "stages.py"), "--trace", traced_to, stage, *args]
    if stage == "simulate":
        return [os.path.join(HERE, "stages.py"), stage, *args]
    extra = ["--tables", *stages.ANALYZE_TABLES] if stage == "analyze" else []
    return ["-m", "repro", stage, *args, *extra]


def load_json(path):
    with open(path) as fileobj:
        return json.load(fileobj)


def run_pass(ops, workload, config_path, pass_dir, traced, first, probe):
    """One pipeline pass; returns its samples, digests and (traced) reports.

    The ``first`` pass of a run also vets the seed (the simulate child may
    reject it) and runs ``classify --json`` with the shape checks.
    ``probe()`` clocks the box before each stage.
    """
    os.makedirs(pass_dir)
    pcap = os.path.join(pass_dir, "m.pcap")
    sidecar = pcap + ".capidx"

    def child(stage, tag, *args):
        to = os.path.join(pass_dir, tag + ".trace.json") if traced else None
        result = run_child(ops, "%s.%s" % (workload, tag),
                           stage_argv(stage, to, *args),
                           os.path.join(pass_dir, tag + ".out"),
                           may_reject=first and stage == "simulate")
        if to:
            result["trace"] = load_json(to)
        return result

    probe()
    sim = child("simulate", "simulate", config_path, pcap)
    counters = load_json(pcap + ".result.json")
    probe()
    idx = child("index", "index", pcap)
    probe()
    analyses = [child("analyze", "analyze%d" % i, pcap) for i in range(ANALYZE_RUNS)]
    renders = [os.path.join(pass_dir, "analyze%d.out" % i) for i in range(ANALYZE_RUNS)]
    render_digests = [stages.file_digest(path) for path in renders]
    out = {
        "traced": traced,
        "stages": {"sim": [sim], "idx": [idx], "ana": analyses},
        "simulate_s": sim["wall_s"],
        "index_cold_s": idx["wall_s"],
        "analyze_warm_s": statistics.median(a["wall_s"] for a in analyses),
        "peak_rss_mb": max(c["rss_mib"] for c in [sim, idx] + analyses),
        "records": counters["records"],
        "events": counters["events"],
        "pcap_bytes": os.path.getsize(pcap),
        "sidecar_bytes": os.path.getsize(sidecar),
        "pcap_digest": stages.file_digest(pcap),
        "render_digest": render_digests[0],
    }
    out["capidx_bytes_per_record"] = out["sidecar_bytes"] / out["records"]
    out["pipeline_records_per_s"] = out["records"] / (
        out["simulate_s"] + out["index_cold_s"] + out["analyze_warm_s"]
    )
    ops.record(*check.check_same(workload + ".render.same", render_digests))
    if first:
        run_child(ops, workload + ".classify", ["-m", "repro", "classify", pcap, "--json"],
                  os.path.join(pass_dir, "classify.out"))
        stats = load_json(os.path.join(pass_dir, "classify.out"))["stats"]
        out["classify"] = stats
        ops.record(*check.check_counts(stats, out["records"]))
        ops.record(*check.check_shape(workload, stats))
        with open(renders[0], encoding="utf-8") as fileobj:
            ops.record(*check.check_render(fileobj.read(), stats["backscatter"]))
    return out


def pass_plan(reps, trace):
    """Whether each successive pass is traced.

    Fixed repetitions: ``reps`` untraced passes, then one traced.  Time
    budget (``reps`` None): endless — untraced only, or alternating so the
    overhead ratio has its untraced base in the same run.
    """
    if reps is None:
        return (trace and number % 2 == 1 for number in itertools.count())
    return iter([False] * reps + [True] * trace)


def write_config(workdir, workload, seed, volume):
    path = os.path.join(workdir, "%s.%d.config.json" % (workload, seed))
    with open(path, "w") as fileobj:
        json.dump(config_to_json(build_config(workload, seed, volume)), fileobj)
    return path


def measure(ops, workload, seed, volume, workdir, reps=None, seconds=None, trace=False):
    """Closed loop of pipeline passes for one workload.

    Returns ``(effective seed, passes, slowdown)``: the first candidate
    seed whose scenario the program finishes, the completed passes, and
    how slow the box was meanwhile (:func:`slowdown` of the probes taken
    before every stage and after the last).
    """
    passes = []
    probes = []

    def probe():
        probes.append(speed_probe(volume))

    seeds = candidate_seeds(seed)
    config_path = write_config(workdir, workload, seeds[0], volume)
    plan = pass_plan(reps, trace)
    traced = next(plan, None)
    started = time.perf_counter()
    attempts = 0
    while traced is not None:
        if reps is None and len(passes) >= (2 if trace else 1):
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / attempts > seconds:
                break
        pass_dir = os.path.join(workdir, "%s.pass%d" % (workload, attempts))
        attempts += 1
        try:
            passes.append(run_pass(ops, workload, config_path, pass_dir, traced,
                                   first=not passes, probe=probe))
        except SeedRejected:
            print("seed %d: the program cannot finish this scenario (stateless-"
                  "reset ping-pong); trying the next candidate" % seeds.pop(0), flush=True)
            if not seeds:
                ops.record(workload + ".seed", False, "every candidate seed runs away")
                return seed, passes, slowdown(probes)
            config_path = write_config(workdir, workload, seeds[0], volume)
            started, attempts = time.perf_counter(), 0
            probes.clear()
            continue  # the same slot of the plan, with the next seed
        except PassFailed:
            if attempts >= 3 and not passes:
                break  # a stage that fails every time: stop, report the failures
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)
        traced = next(plan, None)
    probe()
    for later in passes[1:]:
        ops.record(*check.check_same(
            workload + ".pcap.same", [passes[0]["pcap_digest"], later["pcap_digest"]]))
        ops.record(*check.check_same(
            workload + ".render.same_across_passes",
            [passes[0]["render_digest"], later["render_digest"]]))
    return seeds[0], passes, slowdown(probes)


# ---------------------------------------------------------------------------
# Set-up: environment stamp, workload configs, build, driver == CLI parity
# ---------------------------------------------------------------------------


def environment_stamp():
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "cpus": CPUS,
        "commit": commit,
        "platform": platform.platform(),
        "loadavg": list(os.getloadavg()),
    }


def set_up(ops, seed, volume, workdir):
    """One full set-up; returns the environment stamp."""
    stamp = environment_stamp()
    for name in WORKLOADS:
        write_config(workdir, name, seed, volume)
    # The program is pure Python: byte-compiling src/ is its whole build.
    compileall.compile_dir(SRC, quiet=2)
    try:
        run_child(ops, "setup.parity",
                  [os.path.join(HERE, "stages.py"), "parity", str(seed), workdir],
                  os.path.join(workdir, "parity.out"))
    except PassFailed:
        pass
    return stamp


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def summarize(samples):
    """median/min/max/quartiles/n of one metric's samples."""
    samples = sorted(samples)
    if len(samples) >= 2:
        q1, _q2, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    else:
        q1 = q3 = samples[0]
    return {
        "median": statistics.median(samples),
        "min": samples[0], "q1": q1, "q3": q3, "max": samples[-1],
        "n": len(samples),
    }


def end_to_end(passes, setup_s, slow):
    """{metric: summary} over the untraced passes (tracing off), at the
    reference box's speed; ``raw_median`` is the median as clocked."""
    untraced = [p for p in passes if not p["traced"]]
    out = {}
    for name, unit, _better, _bound in spec.END_TO_END:
        samples = [setup_s] if name == "setup_s" else [p[name] for p in untraced]
        if samples:
            out[name] = summarize([at_reference_speed(unit, s, slow) for s in samples])
            out[name]["raw_median"] = statistics.median(samples)
    return out


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def layer_metrics(passes):
    """{metric: value or None} from the traced passes; the untraced passes
    of the same run are the base of ``trace.overhead_ratio``."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    out = {}
    missing = []
    for stage in spec.STAGES:
        children = [c for p in traced for c in p["stages"][stage]]
        reports = [c["trace"] for c in children]
        for layer in [*layers.STAGE_LAYERS[stage], layers.ROOT]:
            rows = [r["layers"].get(layer) for r in reports]
            for field in ("self_s", "calls"):
                if layer == layers.ROOT and field == "calls":
                    continue
                out["%s.%s.%s" % (stage, layer, field)] = _median(
                    row[field] if row else None for row in rows)
        out[stage + ".startup.self_s"] = _median(r["startup_s"] for r in reports)
        out[stage + ".process.self_s"] = _median(
            c["wall_s"] - r["startup_s"] - r["root_s"] for c, r in zip(children, reports))
        out[stage + ".cpu_s"] = _median(c["cpu_s"] for c in children)
        # What a named layer owns: not the root's self time, not the
        # imports and wrapper install, not interpreter start and exit.
        out[stage + ".trace.attributed_share"] = _median(
            sum(row["self_s"] for layer, row in r["layers"].items()
                if row and layer != layers.ROOT) / c["wall_s"]
            for c, r in zip(children, reports))
        base = _median(c["wall_s"] for p in untraced for c in p["stages"][stage])
        wall = _median(c["wall_s"] for c in children)
        out[stage + ".trace.overhead_ratio"] = (
            wall / base - 1.0 if base and wall is not None else None)
        if stage != "ana":
            out[stage + ".quic.crypto.memo.hit_ratio"] = _median(
                r["memo_hit_ratio"] for r in reports)
        if reports:
            missing.extend(dict(entry, stage=stage) for entry in reports[0]["layers_missing"])
    out["sim.simnet.eventloop.events"] = _median(p["events"] for p in traced)
    out["sim.telescope.records"] = _median(p["records"] for p in traced)
    out["sim.netstack.pcap_bytes"] = _median(p["pcap_bytes"] for p in traced)
    out["idx.capstore.sidecar_bytes"] = _median(p["sidecar_bytes"] for p in traced)
    stats = next((p["classify"] for p in passes if "classify" in p), None)
    out["idx.telescope.classify.kept_ratio"] = (
        (stats["backscatter"] + stats["scans"]) / stats["total_records"]
        if stats and stats["total_records"] else None)
    return out, missing


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def print_end_to_end(workload, passes, metrics, slow):
    untraced = [p for p in passes if not p["traced"]]
    records = untraced[0]["records"] if untraced else 0
    print("\n== %s: %d untraced passes, %d captured records per pass; the box ran "
          "%.3fx slower than the reference ==" % (workload, len(untraced), records, slow))
    print("%-26s %-10s %12s %12s %12s %12s %12s %3s %12s"
          % ("metric", "unit", "median", "min", "q1", "q3", "max", "n", "as clocked"))
    for name, unit, _better, _bound in spec.END_TO_END:
        if name in metrics:
            m = metrics[name]
            print("%-26s %-10s %12.4f %12.4f %12.4f %12.4f %12.4f %3d %12.4f"
                  % (name, unit, m["median"], m["min"], m["q1"], m["q3"], m["max"], m["n"],
                     m["raw_median"]))
    print("(n = %d supports no percentile above the median)" % len(untraced))


def print_trace(workload, metrics, missing):
    """The self-time tree: stage -> module group -> layer."""
    print("\n== %s: per-layer trace (self time; the leaves of a stage sum to "
          "its traced wall) ==" % workload)
    for stage in spec.STAGES:
        prefix, suffix = stage + ".", ".self_s"
        rows = [(name[len(prefix):-len(suffix)], value)
                for name, value in metrics.items()
                if name.startswith(prefix) and name.endswith(suffix)]
        wall = sum(value for _layer, value in rows if value is not None)

        def line(indent, label, seconds, calls=None):
            print("%s%-*s %9.4f s %5.1f%%%s" % (
                indent, 32 - len(indent), label, seconds,
                100 * seconds / wall if wall else 0.0,
                "" if calls is None else "  %9d calls" % calls))

        share = metrics[stage + ".trace.attributed_share"]
        overhead = metrics[stage + ".trace.overhead_ratio"]
        print("%s  traced wall %.3f s  cpu %.3f s  attributed %s  overhead %s" % (
            stage, wall, metrics[stage + ".cpu_s"] or 0.0,
            "n/a" if share is None else "%.1f%%" % (100 * share),
            "n/a" if overhead is None else "%+.1f%%" % (100 * overhead)))
        groups = {}
        for layer, value in rows:
            groups.setdefault(layer.split(".")[0], []).append((layer, value))
        for group, members in groups.items():
            if [layer for layer, _value in members] != [group]:
                line("  ", group, sum(v for _l, v in members if v is not None))
            for layer, value in members:
                indent = "  " if layer == group else "    "
                if value is None:
                    print("%s%s: null (no wrap point resolves)" % (indent, layer))
                else:
                    line(indent, layer, value,
                         metrics.get("%s.%s.calls" % (stage, layer)))
    print("counters:")
    for name, unit, _better in spec.COUNTERS:
        value = metrics.get(name)
        print("  %-40s %12s %s" % (name, "null" if value is None else "%.6g" % value, unit))
    for entry in missing:
        print("layers_missing: %(stage)s.%(layer)s %(point)s (%(error)s)" % entry)


def contract_metrics(values, names_units):
    """The driver's shape: every metric a number (a layer whose wrap
    points are gone reports 0 here and is named in layers_missing above)."""
    return {name: {"value": float(values.get(name) or 0.0), "unit": unit}
            for name, unit in names_units}


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def run_suite(workloads, seed, volume, reps, trace, seconds=None, started=None):
    """Set up, then measure each workload; returns the full result."""
    ops = Ops()
    # Scratch space lives inside the checkout (and in .gitignore).
    workdir = tempfile.mkdtemp(prefix=".bench_work.", dir=ROOT)
    try:
        stamp = set_up(ops, seed, volume, workdir)
        setup_s = time.perf_counter() - (_T0 if started is None else started)
        print("environment: %s" % json.dumps(stamp, sort_keys=True))
        print("set-up: %.3f s (driver == `repro simulate` parity at scale %s included)"
              % (setup_s, stages.PARITY_SCALE))
        result = {"environment": stamp, "seed": seed, "volume": volume, "workloads": {}}
        for workload in workloads:
            effective_seed, passes, slow = measure(
                ops, workload, seed, volume, workdir,
                reps=reps, seconds=seconds, trace=trace)
            entry = {"effective_seed": effective_seed,
                     "slowdown": slow,
                     "end_to_end": end_to_end(passes, setup_s, slow),
                     "records": passes[0]["records"] if passes else 0,
                     "pcap_digest": passes[0]["pcap_digest"] if passes else None}
            print_end_to_end(workload, passes, entry["end_to_end"], slow)
            if trace and any(p["traced"] for p in passes):
                entry["per_layer"], entry["layers_missing"] = layer_metrics(passes)
                print_trace(workload, entry["per_layer"], entry["layers_missing"])
            result["workloads"][workload] = entry
        result["ops_attempted"] = ops.attempted
        result["ops_failed"] = ops.failed
        result["failures"] = ops.failures
        print("\nops_attempted %d  ops_failed %d" % (ops.attempted, ops.failed))
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def compare_aa(first, second):
    """Rows (workload, metric, a, b, diff, bound, ok) of an A/A comparison.

    Timings must agree within their bound; what the program computes
    (record count, sidecar bytes per record) must be bit-identical.
    """
    rows = []
    for workload, entry in first["workloads"].items():
        other = second["workloads"][workload]
        rows.append((workload, "records", entry["records"], other["records"],
                     0.0, 0.0, entry["records"] == other["records"]))
        for name, _unit, _better, bound in spec.END_TO_END:
            a = entry["end_to_end"][name]["median"]
            b = other["end_to_end"][name]["median"]
            diff = abs(b - a) / a if a else 0.0
            if name == "capidx_bytes_per_record":
                ok = a == b
            else:
                ok = diff <= bound or (
                    name == "analyze_warm_s" and abs(b - a) <= spec.ANALYZE_ABS_BOUND_S)
            rows.append((workload, name, a, b, diff, bound, ok))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run only this workload (default: all three)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measure for this long instead of a fixed number of passes")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="with --seconds: 0 = end-to-end metrics, 1 = per-layer "
                        "metrics (default without --seconds: one traced pass per workload)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: volumes / 10, one pass, traced pass included")
    parser.add_argument("--aa", action="store_true",
                        help="run the untraced suite twice; fail if the two differ "
                        "by more than a metric's bound")
    parser.add_argument("--json", metavar="OUT", help="also write the full result here")
    args = parser.parse_args(argv)

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    volume = QUICK_VOLUME if args.quick else 1.0
    budget = args.seconds is not None
    reps = None if budget else (1 if args.quick else SUITE_REPS)
    trace = bool(args.trace) if args.trace is not None else not (budget or args.aa)

    # This process and every child on one CPU, so that a speed probe clocks
    # the core the children run on: each vCPU has neighbours of its own.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    suite = dict(reps=reps, trace=trace, seconds=args.seconds)
    result = run_suite(workloads, args.seed, volume, **suite)
    failed = result["ops_failed"]
    if args.aa:
        second = run_suite(workloads, args.seed, volume, started=time.perf_counter(),
                           **suite)
        failed += second["ops_failed"]
        result = {"first": result, "second": second}
        print("\n== A/A: two untraced suites of the same commit ==")
        for workload, name, a, b, diff, bound, ok in compare_aa(result["first"], second):
            print("%-18s %-26s %12.4f %12.4f  %5.1f%% (bound %4.1f%%) %s"
                  % (workload, name, a, b, 100 * diff, 100 * bound, "ok" if ok else "DIFFERS"))
            failed += not ok
    if args.json:
        with open(args.json, "w") as fileobj:
            json.dump(result, fileobj, indent=1, sort_keys=True)
    if len(workloads) == 1 and not args.aa:
        entry = result["workloads"][workloads[0]]
        if trace:
            names_units = [(n, u) for n, u, _b in spec.per_layer()]
            values = entry.get("per_layer", {})
        else:
            names_units = [(n, u) for n, u, _b, _bound in spec.END_TO_END]
            values = {n: m["median"] for n, m in entry["end_to_end"].items()}
        # An unresolvable layer may be null in a trace; end-to-end may not.
        complete = bool(values) and (
            trace or all(values.get(n) is not None for n, _u in names_units))
        print(json.dumps({
            "correct": failed == 0 and complete,
            "attempted": max(1, result["ops_attempted"]),
            "failed": result["ops_failed"],
            "metrics": contract_metrics(values, names_units),
        }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
