#!/usr/bin/env python3
"""The repo benchmark: scenario in, export and paper analyses out.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload churn_hour_88k --seed 1 --seconds 60 --trace 0

It builds perfbench_probe (perfbench/CMakeLists.txt) into .bench_build/,
generates the workload's scenario config from a checked-in scenario and the
seed, and runs repetitions of it -- each in a fresh probe process, one
after another on one client -- for --seconds.  Every repetition's outputs
are checked against the pins recorded for that workload and seed
(perfbench/pins.json), or, for a seed without pins, against the first
repetition byte for byte.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the metrics are the
end-to-end ones with --trace 0 and the per-layer ones with --trace 1.
See perfbench/README.md.
"""

import argparse
import hashlib
import itertools
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = "perfbench"
BUILD_DIR = os.path.join(".bench_build", "cmake")
WORK_DIR = os.path.join(".bench_build", "work")
RESULTS_DIR = os.path.join(".bench_build", "results")
PROBE = os.path.join(BUILD_DIR, "perfbench_probe")
PINS = os.path.join(BENCH_DIR, "pins.json")

# Each workload is a checked-in scenario plus `ipfs_sim run`-style overrides
# (population scale, measured duration).  Scales are chosen so that one
# repetition takes 2-4 s on a 4-core host, letting a run report the median
# of 15-25 repetitions; README.md gives the layer each one targets.
WORKLOADS = {
    "churn_hour_88k": {"scenario": "scenarios/churn_baseline.json", "scale": 2.0,
                       "duration_s": 3600},
    "flash_crowd_5k": {"scenario": "scenarios/flash_crowd.json", "scale": 0.1},
}

MIN_REPS = 3
TRACED_REPS = 3
# A single set-up is short (7-150 ms) and swings by tens of percent between
# cold processes, so an untraced run also times set-up alone in this many
# fresh processes after each repetition; setup_s is the median of them all.
SETUPS_PER_REP = 3
PROBE_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "events_per_s": "1/s", "peak_rss_mb": "MB",
    "bytes_per_peer": "B", "export_bytes": "B",
}


def tool_env():
    """The environment for the compiler and the probe: temporary files
    (the compiler's, the export spools) stay inside the checkout."""
    tmp = os.path.abspath(WORK_DIR)
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp, PERFBENCH_TMPDIR=tmp)


def log(message):
    print(message, file=sys.stderr, flush=True)


def fatal(message):
    log("perfbench: " + message)
    sys.exit(2)


# ---- build --------------------------------------------------------------------

def build():
    for needed in ("CMakeLists.txt", "src", "scenarios",
                   os.path.join(BENCH_DIR, "CMakeLists.txt")):
        if not os.path.exists(needed):
            fatal(f"{needed} not found: run from the root of a full source checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "perfbench_probe"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, env=tool_env())
        if done.returncode != 0:
            log(done.stdout[-4000:])
            fatal("build failed: " + " ".join(step))


# ---- host ---------------------------------------------------------------------

def git_commit():
    """HEAD's commit read from .git, or None outside a git checkout."""
    try:
        with open(os.path.join(".git", "HEAD")) as head:
            ref = head.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = os.path.join(".git", ref)
        if os.path.exists(loose):
            with open(loose) as commit:
                return commit.read().strip()
        with open(os.path.join(".git", "packed-refs")) as packed:
            for line in packed:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over the library and benchmark sources (identifies the code
    when the checkout is not a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", BENCH_DIR, "CMakeLists.txt"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(top) for f in files)
        for path in paths:
            digest.update(path.encode())
            with open(path, "rb") as source:
                digest.update(source.read())
    return digest.hexdigest()[:16]


def host_info(build_info):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "compiler": build_info.get("compiler", "unknown"),
            "build_type": build_info.get("build_type", "unknown"),
            "git_commit": git_commit() or "unavailable (not a git checkout)",
            "source_digest": source_digest()}


# ---- inputs -------------------------------------------------------------------

def write_config(name, workload, seed, scale_factor):
    """The generated scenario: the checked-in file with this workload's
    overrides and the campaign seed.  The probe receives only this file."""
    with open(workload["scenario"]) as source:
        spec = json.load(source)
    spec["population"]["scale"] = workload["scale"] * scale_factor
    if "duration_s" in workload:
        spec["period"]["duration_ms"] = int(workload["duration_s"] * 1000)
    spec["campaign"]["seed"] = seed
    spec["campaign"]["trials"] = 1
    path = os.path.join(WORK_DIR, f"{name}-seed{seed}.scenario.json")
    with open(path, "w") as out:
        json.dump(spec, out, indent=2)
    return path


# ---- one repetition -----------------------------------------------------------

def run_probe(args):
    try:
        done = subprocess.run([PROBE] + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, env=tool_env(), timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: probe killed after {PROBE_TIMEOUT_S} s")
        return None
    if done.returncode != 0:
        log(f"perfbench: probe exited {done.returncode}: {done.stderr.strip()}")
        return None
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log("perfbench: probe printed no result")
        return None


def pin_record(rep):
    """The deterministic outputs a repetition is checked on."""
    return {
        "digest": rep["digest"],
        "export_bytes": rep["export_bytes"],
        "events": rep["events"],
        "population": rep["population"],
        "datasets": [[d["role"], d["peers"], d["connections"]] for d in rep["datasets"]],
        "content": rep["content"],
    }


def check(rep, reference):
    """Why `rep` fails its output checks, or None."""
    if rep is None:
        return "probe failed"
    record = pin_record(rep)
    for key, expected in reference.items():
        if record.get(key) != expected:
            return f"{key} is {record.get(key)!r}, pinned {expected!r}"
    if "replay" in rep:
        replay = rep["replay"]
        if replay["opened_total"] != replay["dataset_connections"]:
            return "p2p replay opened a different number of connections than recorded"
        if replay["peerstore_peers"] != replay["dataset_peers"]:
            return "p2p replay peerstore size differs from the dataset's peer count"
    return None


# ---- statistics ---------------------------------------------------------------

def summary(values):
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
                 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(reps, setups):
    samples = {
        "wall_s": [r["wall_s"] for r in reps],
        "setup_s": [r["setup_s"] for r in reps] + setups,
        "events_per_s": [r["events"] / r["run_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_kb"] / 1024 for r in reps],
        "bytes_per_peer": [r["peak_rss_kb"] * 1024 / r["population"] for r in reps],
        "export_bytes": [r["export_bytes"] for r in reps],
    }
    return {name: summary(values) for name, values in samples.items()}


def self_times(spans):
    """Span id -> (name, duration, self time): a span's self time is its
    duration minus its children's durations."""
    duration = {s["id"]: s["end_s"] - s["start_s"] for s in spans}
    children = {}
    for s in spans:
        children[s["parent"]] = children.get(s["parent"], 0.0) + duration[s["id"]]
    return {s["id"]: (s["name"], duration[s["id"]], duration[s["id"]] - children.get(s["id"], 0.0))
            for s in spans}


def per_layer(rep, spans):
    """Per-layer values of one traced repetition, with their units."""
    table = self_times(spans).values()

    def total(names, self_only=False):
        return sum(own if self_only else whole for name, whole, own in table if name in names)

    def layer_self(prefix):
        return sum(own for name, _, own in table if name.startswith(prefix + "."))

    streams = ["on_crawl", "on_population", "on_provide", "on_fetch", "on_content"]
    replay = rep["replay"]
    traced_wall = total({"bench.wall"})
    content = rep["content"]
    loop_s = total({"campaign.run"}, self_only=True)
    metrics = {
        "scenario.load_s": (total({"scenario.load"}), "s"),
        "scenario.create_s": (total({"scenario.create"}), "s"),
        "scenario.population": (rep["population"], "count"),
        "campaign.loop_s": (loop_s, "s"),
        "campaign.events": (rep["events"], "count"),
        "campaign.ns_per_event": (loop_s * 1e9 / rep["events"], "ns"),
        "p2p.open_ns": (replay["open_s"] * 1e9 / max(1, replay["opens"]), "ns"),
        "p2p.close_ns": (replay["close_s"] * 1e9 / max(1, replay["closes"]), "ns"),
        "p2p.identify_ns": (replay["identify_s"] * 1e9 / max(1, replay["identify_calls"]), "ns"),
        "p2p.trim_tick_ns": (replay["trim_s"] * 1e9 / max(1, replay["trim_ticks"]), "ns"),
        "p2p.trim_ticks": (replay["trim_ticks"], "count"),
        "p2p.trim_noop_frac": (replay["noop_ticks"] / max(1, replay["trim_ticks"]), "fraction"),
        "p2p.peerstore_peers": (replay["peerstore_peers"], "count"),
        "measure.dataset_export_s": (total({"measure.export.on_dataset"}), "s"),
        "measure.stream_export_s": (total({"measure.export." + s for s in streams}), "s"),
        "measure.splice_s": (total({"measure.export.on_run_end"}), "s"),
        "measure.fanout_copy_s": (total({"measure.fanout.on_dataset"}, self_only=True), "s"),
        "measure.stream_records": (rep["stream_records"], "count"),
        "measure.datasets": (len(rep["datasets"]), "count"),
        "measure.dataset_peers": (sum(d["peers"] for d in rep["datasets"]), "count"),
        "measure.dataset_connections": (sum(d["connections"] for d in rep["datasets"]), "count"),
        "analysis.sessions_s": (total({"analysis.sessions"}), "s"),
        "analysis.size_s": (total({"analysis.size"}), "s"),
        "analysis.content_s": (total({"analysis.content"}), "s"),
        "analysis.sessions": (rep["sessions"], "count"),
        "content.provides": (content["provides"], "count"),
        "content.fetches": (content["fetches"], "count"),
        "content.found_frac": (content["found"] / max(1, content["fetches"]), "fraction"),
        "content.served_frac": (content["served"] / max(1, content["fetches"]), "fraction"),
        "trace.wall_s": (traced_wall, "s"),
        # The part of the traced wall time no layer span covers: the
        # scenario, campaign, measure and analysis self times sum to
        # trace.wall_s minus this.
        "trace.unaccounted_s": (traced_wall - sum(layer_self(layer) for layer in
                                                  ("scenario", "campaign", "measure", "analysis")),
                                "s"),
    }
    return metrics


# ---- main ---------------------------------------------------------------------

def load_pins():
    if not os.path.exists(PINS):
        return {}
    with open(PINS) as pins:
        return json.load(pins)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # For perfbench/selftest.py and for recording pins; see README.md.
    parser.add_argument("--scale-factor", type=float, default=1.0,
                        help="multiply the workload's population scale (pins apply only at 1)")
    parser.add_argument("--pin-digest", help="check against this export digest instead")
    parser.add_argument("--record-pins", action="store_true",
                        help="store this seed's outputs in pins.json when every repetition agrees")
    args = parser.parse_args()
    if args.seed < 0:
        fatal("--seed must be >= 0")
    if args.seconds <= 0:
        fatal("--seconds must be > 0")

    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    name = args.workload
    config = write_config(name, WORKLOADS[name], args.seed, args.scale_factor)
    export = os.path.join(WORK_DIR, f"{name}-seed{args.seed}.export.json")

    reference = {}
    if args.scale_factor == 1.0 and not args.record_pins:
        reference = dict(load_pins().get(name, {}).get(str(args.seed), {}))
    if args.pin_digest:
        reference["digest"] = args.pin_digest

    # A traced run spends half its time on untraced repetitions (the
    # baseline of trace.overhead_s), then makes TRACED_REPS traced ones and
    # one sharded comparison.
    untraced_seconds = args.seconds / 2 if args.trace == 1 else args.seconds
    reps, setups, failures = [], [], []
    attempted = 0
    start = time.monotonic()
    # The first repetition warms the page cache (probe, library, config) and
    # is checked like the others but left out of every timing.
    for iteration in itertools.count(0):
        rep_start = time.monotonic()
        rep = run_probe(["run", config, export])
        attempted += 1
        if not reference and rep is not None:
            reference = pin_record(rep)  # no pins: later repetitions must agree byte for byte
        why = check(rep, reference)
        if why:
            failures.append(why if iteration else "warm-up: " + why)
        elif iteration:
            reps.append(rep)
        for _ in range(SETUPS_PER_REP if args.trace == 0 else 0):
            sample = run_probe(["setup", config])
            attempted += 1
            if sample is None:
                failures.append("set-up failed")
            else:
                setups.append(sample["setup_s"])
        now = time.monotonic()
        if iteration >= MIN_REPS and now - start + (now - rep_start) > untraced_seconds:
            break

    traced, shard = [], None
    if args.trace == 1:
        for index in range(TRACED_REPS):
            spans_path = os.path.join(WORK_DIR, f"{name}-seed{args.seed}-{index}.spans.json")
            rep = run_probe(["run", config, export, "--trace", spans_path])
            attempted += 1
            why = check(rep, reference)
            if why:
                failures.append("traced: " + why)
                continue
            try:
                with open(spans_path) as source:
                    traced.append(per_layer(rep, json.load(source)))
            except (OSError, ValueError):
                failures.append("traced: no readable span log")
        shard = run_probe(["shard", config, export, export + ".sharded"])
        attempted += 1
        if shard is None or not shard["identical"]:
            failures.append("sharded export differs from the plain engine's")
            shard = None

    failed = len(failures)
    host = host_info(reps[0]["build"] if reps else {})
    print("host: " + json.dumps(host))
    for why in failures:
        print("FAILED: " + why)
    e2e = end_to_end(reps, setups) if reps else {}
    for metric, stats in e2e.items():
        print(f"{metric}: {stats['median']:.6g} {END_TO_END_UNITS[metric]} "
              f"(q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, n={stats['n']})")
    print(f"failed_frac: {failed / attempted:.6g} ({failed} of {attempted} runs failed)")

    if args.trace == 1:
        layers = {}
        if traced and shard and reps:
            layers = {m: (summary([t[m][0] for t in traced]), unit)
                      for m, (_, unit) in traced[0].items()}
            layers["trace.overhead_s"] = (
                summary([t["trace.wall_s"][0] - e2e["wall_s"]["median"] for t in traced]), "s")
            layers["runtime.shard4_speedup"] = (
                summary([shard["plain_run_s"] / shard["sharded_run_s"]]), "x")
        for metric, (stats, unit) in layers.items():
            print(f"{metric}: {stats['median']:.6g} {unit} "
                  f"(q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, n={stats['n']})")
        metrics = {m: {"value": stats["median"], "unit": unit}
                   for m, (stats, unit) in layers.items()}
    else:
        metrics = {m: {"value": s["median"], "unit": END_TO_END_UNITS[m]} for m, s in e2e.items()}

    if args.record_pins and not failures and reps:
        pins = load_pins()
        pins.setdefault(name, {})[str(args.seed)] = reference
        with open(PINS, "w") as out:
            json.dump(pins, out, indent=1, sort_keys=True)
            out.write("\n")

    with open(os.path.join(RESULTS_DIR, f"{name}-seed{args.seed}-trace{args.trace}.json"),
              "w") as out:
        json.dump({"workload": name, "seed": args.seed, "host": host,
                   "attempted": attempted, "failures": failures,
                   "end_to_end": e2e, "metrics": metrics,
                   "repetitions": reps, "setups": setups, "traced": traced, "shard": shard},
                  out, indent=1)

    for leftover in (export, export + ".sharded"):  # exports are large; keep the checkout small
        if os.path.exists(leftover):
            os.remove(leftover)

    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
