#!/usr/bin/env python3
"""Benchmark of the passive-measurement pipeline (README.md in this directory).

Builds the harness against the repository's ipfs_core library, then runs
one workload for about --seconds: each campaign is a fresh harness process
(load + create, run into the JSON export, analysis suite), repeated, and
the medians are reported.  Every campaign's export digest and analysis
fingerprint is checked; a mismatch or a crash is a failed operation whose
timings are dropped.

  python3 perfbench/run.py --workload p4_passive --seed 20211203 --seconds 40 --trace 0
  python3 perfbench/run.py --workload large_churn_hour --seed 7 --seconds 40 --trace 1
  python3 perfbench/run.py --smoke      # seconds: all workloads at tiny scale, traced
  python3 perfbench/run.py --pin        # rewrite expected.json for the default seed

--trace 0 prints the end-to-end metrics; --trace 1 adds one traced campaign
(spans written to .bench_build/perfbench-out/traces/), the layer probes and,
on large_churn_hour, a sharded run, and prints the per-layer metrics.  The
last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import collections
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_build" / "perfbench-out"
HARNESS = BUILD_DIR / "perfbench_harness"
EXPECTED = BENCH_DIR / "expected.json"
DEFAULT_SEED = 20211203

# A run must end within 180 s: stop starting campaigns after this.
HARD_LIMIT_S = 150.0


@dataclass(frozen=True)
class Workload:
    scenario: str  # builtin name, or a scenario file relative to the root
    scale: float | None = None
    duration_s: float | None = None
    sharded: bool = False  # the traced run also times ShardedCampaignRunner

    def harness_args(self, seed):
        args = ["--scenario", self.scenario, "--seed", str(seed)]
        if self.scale is not None:
            args += ["--scale", repr(self.scale)]
        if self.duration_s is not None:
            args += ["--duration", repr(self.duration_s)]
        return args


STORM = "perfbench/scenarios/storm_conditioned.json"
WORKLOADS = {
    "p4_passive": Workload("p4", duration_s=21600.0),
    "storm_conditioned": Workload(STORM, scale=0.15),
    "large_churn_hour": Workload("churn-baseline", scale=2.0, duration_s=3600.0,
                                 sharded=True),
}
SMOKE_WORKLOADS = {
    "p4_passive": Workload("p4", scale=0.02, duration_s=21600.0),
    "storm_conditioned": Workload(STORM, scale=0.01),
    "large_churn_hour": Workload("churn-baseline", scale=0.05, duration_s=3600.0,
                                 sharded=True),
}

END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("analyze_s", "s"),
              ("peak_rss_mb", "MB")]
PER_LAYER = [
    ("scenario.parse_s", "s"), ("scenario.create_s", "s"),
    ("scenario.population", "count"), ("scenario.rss_after_create_mb", "MB"),
    ("engine.run_self_s", "s"), ("engine.events", "count"),
    ("engine.ns_per_event", "ns"),
    ("measure.sink_dataset_s", "s"), ("measure.dataset_peers", "count"),
    ("measure.dataset_connections", "count"), ("measure.export_bytes", "bytes"),
    ("measure.sink_samples_s", "s"), ("measure.sink_run_end_s", "s"),
    ("measure.sink_calls", "count"), ("measure.samples_population", "count"),
    ("measure.samples_provide", "count"), ("measure.samples_fetch", "count"),
    ("measure.samples_content", "count"), ("measure.crawls", "count"),
    ("analysis.connection_stats_s", "s"), ("analysis.classify_s", "s"),
    ("analysis.metadata_s", "s"), ("analysis.timeseries_s", "s"),
    ("analysis.size_estimate_s", "s"), ("analysis.sessions_s", "s"),
    ("analysis.content_s", "s"),
    ("sim.hold_ns_per_event", "ns"), ("p2p.trim_ns_per_plan", "ns"),
    ("net.dial_gate_ns", "ns"), ("scenario.churn_draw_ns", "ns"),
    ("scenario.content_draw_ns", "ns"), ("scenario.rates_at_ns", "ns"),
    ("runtime.shard_speedup", "x"), ("trace.overhead", "ratio"),
]
# Reported for a probe whose section the workload lacks: a negative value
# cannot be a measurement, so it never reads as "free".
NOT_APPLICABLE = -1


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then (re)build the harness; cmake output goes to a log."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"{ROOT} is not a source checkout (no CMakeLists.txt and src/)")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR.parent / "perfbench-build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "perfbench_harness", "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT).returncode:
                die(f"build failed, see {log_path}", 1)


def run_harness(args, timeout):
    """One harness process; returns its JSON record, or None when it failed."""
    try:
        proc = subprocess.run([str(HARNESS)] + args, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"perfbench: harness timed out: {' '.join(args)}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"perfbench: harness exited {proc.returncode}: {proc.stderr.strip()}",
              file=sys.stderr)
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        print("perfbench: harness printed no result", file=sys.stderr)
        return None


def output_key(record):
    return (record["export_digest"], record["export_bytes"],
            json.dumps(record["fingerprint"], sort_keys=True))


def load_pins(mode):
    if not EXPECTED.is_file():
        return {}
    return json.loads(EXPECTED.read_text()).get(mode, {})


class Run:
    """The campaigns of one workload at one seed, and their output check."""

    def __init__(self, name, workload, seed, pin):
        self.name = name
        self.workload = workload
        self.seed = seed
        self.pin = pin  # expected outputs, or None when the seed is not pinned
        self.start = time.monotonic()
        self.untraced = []  # records of the plain campaigns
        self.traced = None
        self.sharded = None
        self.attempted = 0
        self.crashed = 0

    def elapsed(self):
        return time.monotonic() - self.start

    def _spawn(self, extra=()):
        self.attempted += 1
        record = run_harness(self.workload.harness_args(self.seed) + list(extra),
                             HARD_LIMIT_S + 20 - self.elapsed())
        if record is None:
            self.crashed += 1
        return record

    def campaigns(self, seconds, minimum):
        """Plain campaigns until `seconds` would be overrun (at least `minimum`)."""
        walls = []
        while True:
            done = len(walls)
            if done >= minimum:
                estimate = statistics.median(walls)
                if self.elapsed() + estimate > seconds or self.elapsed() > HARD_LIMIT_S:
                    break
            started = time.monotonic()
            record = self._spawn()
            walls.append(time.monotonic() - started)
            if record is not None:
                self.untraced.append(record)

    def traced_campaign(self):
        traces = OUT_DIR / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        sidecar = traces / f"{self.name}-seed{self.seed}.json"
        self.traced = self._spawn(["--trace", str(sidecar)])

    def sharded_campaign(self):
        workers = max(1, min(2, os.cpu_count() or 1))
        self.sharded = self._spawn(["--shards", "2", "--shard-workers", str(workers)])

    def check(self):
        """Mark every record ok or not; returns the number of failed operations."""
        records = self.untraced + ([self.traced] if self.traced else [])
        if self.pin is not None:
            reference = (self.pin["export_digest"], self.pin["export_bytes"],
                         json.dumps(self.pin["fingerprint"], sort_keys=True))
        else:
            # No pinned values for this seed: every campaign of the run,
            # traced or not, must produce the same bytes as the majority.
            counts = collections.Counter(output_key(r) for r in records)
            reference, votes = counts.most_common(1)[0] if counts else (None, 0)
            if len(records) > 1 and 2 * votes <= len(records):
                reference = None
        failed = self.crashed
        for record in records:
            record["ok"] = reference is not None and output_key(record) == reference
            failed += 0 if record["ok"] else 1
        if self.sharded is not None:
            self.sharded["ok"] = reference is not None and (
                self.sharded["export_digest"], self.sharded["export_bytes"]) == reference[:2]
            failed += 0 if self.sharded["ok"] else 1
        return failed

    def good(self):
        return [r for r in self.untraced if r.get("ok")]


def summarize(values):
    """Median and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    summary = {"n": len(ordered), "median": statistics.median(ordered)}
    for pct in (99.9, 99, 95, 90, 75):
        if len(ordered) * (100 - pct) / 100 >= 10:
            index = math.ceil(len(ordered) * pct / 100) - 1
            summary["percentile"] = (pct, ordered[index])
            break
    return summary


def end_to_end(run):
    good = run.good()
    if not good:
        return {}
    return {name: summarize([r[name] for r in good]) for name, _ in END_TO_END}


def per_layer(run):
    layers = dict(run.traced["layers"]) if run.traced and run.traced.get("ok") else {}
    good = run.good()
    if layers and good:
        total = lambda r: r["setup_s"] + r["run_s"] + r["analyze_s"]
        layers["trace.overhead"] = total(run.traced) / statistics.median(
            total(r) for r in good) - 1.0
    if run.workload.sharded:
        if run.sharded and run.sharded.get("ok") and good:
            layers["runtime.shard_speedup"] = statistics.median(
                r["setup_s"] + r["run_s"] for r in good) / run.sharded["sharded_s"]
    else:
        layers["runtime.shard_speedup"] = None
    return {name: ({"n": 1, "median": value} if value is not None else None)
            for name, value in layers.items()}


def print_table(title, rows, units):
    print(title)
    print(f"  {'metric':32} {'unit':6} {'n':>3} {'median':>14}  highest percentile "
          "with >=10 samples beyond")
    for name, unit in units:
        if name not in rows:
            continue
        row = rows[name]
        if row is None:
            print(f"  {name:32} {unit:6} {'-':>3} {'n/a':>14}  (section absent)")
            continue
        pct = row.get("percentile")
        tail = f"p{pct[0]:g} = {pct[1]:.6g}" if pct else \
            f"none ({row['n']} samples; needs > 10)"
        print(f"  {name:32} {unit:6} {row['n']:>3} {row['median']:>14.6g}  {tail}")


def metric_values(rows, units):
    values = {}
    for name, unit in units:
        row = rows.get(name)
        if name in rows:
            values[name] = {"value": row["median"] if row else NOT_APPLICABLE,
                            "unit": unit}
    return values


def bench(name, workload, seed, seconds, traced, pins):
    run = Run(name, workload, seed, pins.get(name) if seed == DEFAULT_SEED else None)
    if traced:
        run.traced_campaign()
        if workload.sharded:
            run.sharded_campaign()
    run.campaigns(seconds, minimum=3)
    failed = run.check()
    print(f"workload {name}  seed {seed}  trace {int(traced)}: "
          f"{run.attempted} campaigns attempted, {failed} failed"
          f"{'' if run.pin else ' (seed not pinned: checked run-to-run)'}")
    e2e = end_to_end(run)
    print_table("end-to-end (untraced campaigns)", e2e, END_TO_END)
    layers = per_layer(run) if traced else {}
    if traced:
        print_table("per-layer (one traced campaign)", layers, PER_LAYER)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(json.dumps(
        {"untraced": run.untraced, "traced": run.traced, "sharded": run.sharded},
        indent=1))
    metrics = metric_values(layers, PER_LAYER) if traced else metric_values(e2e, END_TO_END)
    complete = len(metrics) == (len(PER_LAYER) if traced else len(END_TO_END))
    return run.attempted, failed, metrics, complete


def pin():
    """Rewrite expected.json from one campaign per workload at the default seed."""
    pins = {}
    for mode, table in (("full", WORKLOADS), ("smoke", SMOKE_WORKLOADS)):
        pins[mode] = {}
        for name, workload in table.items():
            record = run_harness(workload.harness_args(DEFAULT_SEED), 600)
            if record is None:
                die(f"{mode}/{name}: campaign failed", 1)
            pins[mode][name] = {key: record[key] for key in
                                ("export_digest", "export_bytes", "fingerprint")}
    EXPECTED.write_text(json.dumps(pins, indent=2) + "\n")
    print(f"wrote {EXPECTED.relative_to(ROOT)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads at tiny scale, traced, in seconds")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite expected.json for the default seed")
    args = parser.parse_args()
    if not (args.workload or args.smoke or args.pin):
        parser.error("one of --workload, --smoke or --pin is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    build()
    if args.pin:
        pin()
        return 0

    if args.smoke:
        pins = load_pins("smoke")
        attempted = failed = 0
        metrics = {}
        complete = True
        for name, workload in SMOKE_WORKLOADS.items():
            a, f, m, c = bench(name, workload, args.seed, 1.0, True, pins)
            attempted, failed, complete = attempted + a, failed + f, complete and c
            metrics.update({f"{name}/{key}": value for key, value in m.items()})
    else:
        attempted, failed, metrics, complete = bench(
            args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
            bool(args.trace), load_pins("full"))
    print(json.dumps({"correct": failed == 0 and complete, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
