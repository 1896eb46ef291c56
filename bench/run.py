#!/usr/bin/env python3
"""Benchmark of the rainbowhc lab: verdict throughput on four workloads.

    python3 bench/run.py --workload sweep_loose12 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

A run imports rainbowhc from the checkout's `src/`, warms up, makes one
counting pass over the workload's pool of rounds (spans on, untimed), then
repeats whole timed passes until `--seconds` have elapsed.  Every round's
verdicts are checked against `reference.json`.  Times are scaled to a
reference machine speed by the kernel in `calibrate.py`.

With `--trace 0` the last stdout line carries the end-to-end metrics.  With
`--trace 1` untraced and traced passes alternate, and the last line carries
the per-layer metrics, each per pass.  Earlier lines, prefixed `#`, give the
environment, the exact counters of one pass, the unscaled throughput and
(traced) the layer table.  The run record, and the spans of a traced run,
go to `.bench_out/`.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate
import spans as spans_mod
import workloads as wl_mod

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 5
KERNEL_RUNS = 3  # calibration kernel runs after each round


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _setup_seconds(workload: str, probes: int) -> list[tuple[float, float]]:
    """(set-up seconds, calibration kernel seconds) of `probes` fresh
    processes, each timed by itself."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    times = []
    for _ in range(probes):
        done = subprocess.run([sys.executable, str(probe), workload], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        setup, kernel = done.stdout.split()
        times.append((float(setup), float(kernel)))
    return times


class Tally:
    """Instances attempted, censored and failed, plus verdict mismatches."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference["rounds"]
        self.attempted = self.unknown = self.failed = 0
        self.mismatches: list[str] = []

    def add(self, index: int, result: wl_mod.Round) -> None:
        self.attempted += result.instances
        self.unknown += result.unknown
        self.failed += result.failed
        if result.summary is not None:
            problem = self.workload.check(result.summary, self.reference[index])
            if problem:
                self.mismatches.append(f"round {index}: {problem}")

    def add_pass(self, summaries: list) -> None:
        if None not in summaries:
            problem = self.workload.check_pass(summaries)
            if problem:
                self.mismatches.append(problem)


def _run_pass(workload, program, order, tally, spans=None):
    """One pass over the pool, with spans installed if given.  Returns
    {round index: seconds} and the median time of the calibration kernel,
    which runs untimed after every round."""
    run_round = workload.run_round
    if spans is not None:
        spans.install(program)
        if workload.root_span is not None:
            run_round = spans.wrap(workload.root_span, run_round, per_instance=False)
    times, kernel, summaries = {}, [], []
    try:
        for index in order:
            start = time.perf_counter()
            try:
                result = run_round(program, index)
            except Exception:  # a program fault fails the round, the run goes on
                traceback.print_exc()
                result = wl_mod.Round(None, workload.instances_per_round,
                                      failed=workload.instances_per_round)
            times[index] = time.perf_counter() - start
            kernel.extend(calibrate.seconds() for _ in range(KERNEL_RUNS))
            tally.add(index, result)
            summaries.append(result.summary)
    finally:
        if spans is not None:
            spans.uninstall()
    tally.add_pass(summaries)
    return times, statistics.median(kernel)


def _timed_passes(workload, program, order, tally, seconds, variants):
    """Whole passes until `seconds` elapse, one pass per variant in turn
    (a variant is None for untraced or a Spans).

    Returns, per variant, the pass time at the reference machine speed and
    the wall pass time -- each the sum over rounds of the round's median
    across passes -- and the number of passes per variant.
    """
    per_round = [{i: [] for i in order} for _ in variants]
    start = time.perf_counter()
    passes = 0
    while True:
        for samples, spans in zip(per_round, variants):
            times, kernel = _run_pass(workload, program, order, tally, spans)
            for index, seconds_taken in times.items():
                samples[index].append((seconds_taken, kernel))
        passes += 1
        if time.perf_counter() - start >= seconds:
            break
    scaled = [
        sum(statistics.median(t / k for t, k in s) for s in samples.values())
        * calibrate.REFERENCE_S
        for samples in per_round
    ]
    wall = [sum(statistics.median(t for t, _ in s) for s in samples.values())
            for samples in per_round]
    return scaled, wall, passes


def _pool_efficiency(program, smoke: bool) -> tuple[float, bool]:
    """T(workers=1) / (2 T(workers=2)) on one sweep; and whether the two
    CSVs are byte-identical."""
    argv = list(wl_mod.SMOKE_POOL_ARGV if smoke else wl_mod.POOL_ARGV)
    seconds, outputs = {}, {}
    for workers in (1, 2):
        start = time.perf_counter()
        code, outputs[workers] = wl_mod.call_cli(program, argv + ["--workers", str(workers)])
        seconds[workers] = time.perf_counter() - start
        if code != 0:
            return 0.0, False
    return seconds[1] / (2 * seconds[2]), outputs[1] == outputs[2]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(args) -> int:
    load_start = os.getloadavg()
    try:
        program = wl_mod.load_program(ROOT)
        reference = wl_mod.load_reference()[args.workload]
    except (RuntimeError, OSError, KeyError, ValueError) as exc:
        print(f"bench: cannot set up: {exc}", file=sys.stderr)
        return 2
    import numpy

    workload = wl_mod.WORKLOADS[args.workload]
    env = {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print("# env " + json.dumps(env))

    rounds = 1 if args.smoke else workload.rounds
    instances_per_pass = workload.instances_per_round * rounds
    order = random.Random(args.seed).sample(range(workload.rounds), rounds)
    setup = [] if args.trace else _setup_seconds(args.workload, 1 if args.smoke else SETUP_PROBES)
    workload.warm_up(program)
    tally = Tally(workload, reference)

    # counting pass: spans on, untimed; also fills the program's caches
    spans = spans_mod.Spans()
    _run_pass(workload, program, order, tally, spans)
    counters = spans_mod.summarize(spans.records, 1)
    exact = {name: counters[name] for name in spans_mod.EXACT_COUNTERS}
    print("# counters " + json.dumps(exact))
    spans.reset()

    record = {"env": env, "counters": exact, "setup_s": setup}
    if args.trace:
        # untraced and traced passes alternate, so drift hits both alike
        (untraced_s, traced_s), wall, passes = _timed_passes(
            workload, program, order, tally, args.seconds, (None, spans))
        layer = spans_mod.summarize(spans.records, passes)
        if any(layer[name] != exact[name] for name in spans_mod.EXACT_COUNTERS):
            tally.mismatches.append("exact counters differ between passes")
        efficiency = 0.0
        if args.workload == wl_mod.POOL_WORKLOAD:
            efficiency, identical = _pool_efficiency(program, args.smoke)
            if not identical:
                tally.mismatches.append("workers=2 sweep CSV differs from workers=1")
        layer["lab.pool_efficiency_2w"] = efficiency
        layer["trace.overhead_frac"] = traced_s / untraced_s - 1.0
        units = {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}
        metrics = {name: _metric(layer[name], units[name]) for name in units}
        _print_layer_table(layer)
        OUT_DIR.mkdir(exist_ok=True)
        spans.write_jsonl(OUT_DIR / f"{args.workload}_seed{args.seed}_spans.jsonl")
    else:
        (untraced_s,), wall, passes = _timed_passes(workload, program, order, tally,
                                                    args.seconds, (None,))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        resolved = (tally.attempted - tally.unknown - tally.failed) / tally.attempted
        metrics = {
            "instances_per_s": _metric(instances_per_pass / untraced_s, "1/s"),
            "setup_s": _metric(statistics.median(
                s * calibrate.REFERENCE_S / k for s, k in setup), "s"),
            "peak_rss_mb": _metric(rss_mb, "MB"),
            "resolved_frac": _metric(resolved, "ratio"),
        }
    record.update(passes=passes, wall_instances_per_s=[instances_per_pass / w for w in wall])
    print("# wall " + json.dumps(record["wall_instances_per_s"]))

    env["loadavg_end"] = os.getloadavg()
    for problem in tally.mismatches:
        print(f"bench: verdict mismatch: {problem}", file=sys.stderr)
    result = {
        "correct": not tally.mismatches and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record.update(result=result, mismatches=tally.mismatches)
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{args.workload}_seed{args.seed}_trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    print("# env_end " + json.dumps({"loadavg_end": env["loadavg_end"]}))
    print(json.dumps(result))
    return 0


def _print_layer_table(layer: dict) -> None:
    print("# layer   busy_s/pass  self_s/pass")
    for name in spans_mod.LAYERS:
        print(f"# {name:<7} {layer[name + '.busy_s']:11.4f}  {layer[name + '.self_s']:11.4f}")
    print(f"# trace.overhead_frac {layer['trace.overhead_frac']:.4f}")


def _benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_all(args) -> int:
    """Every workload in its own process; one table and one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl_mod.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if done.returncode != 0 or not done.stdout.strip():
            sys.stderr.write(done.stderr)
            return done.returncode or 2
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            print(f"# {name:<17} {metric:<26} {entry['value']:>14.6g} {entry['unit']}")
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*wl_mod.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0, help="orders the rounds of each pass")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one round per pass and one set-up probe (for the smoke test)")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
