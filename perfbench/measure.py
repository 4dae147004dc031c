#!/usr/bin/env python3
"""Runs the benchmark over a range of seeds and summarises each metric.

Usage, from the repository root:

    python3 perfbench/measure.py [--seeds 1-10] [--seconds 40] [--trace 0]
                                 [--record-digests] [workload ...]

Each run is `cargo run --release` of perfbench with one seed. For every
workload and metric the script prints the median, the first and third
quartiles (Python's statistics.quantiles, n=4) and the spread
(q3 - q1) / median, then one JSON object with the same figures plus the
host's core count, the rustc version and the git revision.

With --append-trajectory it appends that object, dated, to the entries
of perfbench/TRAJECTORY.json.

With --record-digests it also stores in perfbench/digests.txt the result
digest each run printed, replacing any entry for the same workload and
seed. Use it to add seeds, or after a change that is meant to alter
results.
"""

import argparse
import datetime
import json
import os
import re
import statistics
import subprocess
import sys

WORKLOADS = ["paper_suite", "trial_heavy", "lru_faults"]
HERE = os.path.dirname(os.path.abspath(__file__))
COMMAND = ["cargo", "run", "--quiet", "--release", "--offline",
           "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--"]


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def output_of(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_one(workload, seed, seconds, trace):
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(COMMAND + args, capture_output=True, text=True)
    digest = next((line.split()[3] for line in proc.stderr.splitlines()
                   if line.startswith("digest ")), None)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1]), digest


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0, "n": len(values),
            "values": values}


def compact_json(obj):
    """Indented JSON with each metric's figures on one line."""
    text = json.dumps(obj, indent=1)
    return re.sub(r'\{\s*("median"[^{}]*?)\s*\}',
                  lambda m: "{" + " ".join(m.group(1).split()) + "}", text)


def record(digests):
    path = os.path.join(HERE, "digests.txt")
    entries = {}
    with open(path) as f:
        for line in f:
            if not line.startswith("#") and line.split():
                w, seed, d = line.split()
                entries[(w, int(seed))] = d
    for line in digests:
        w, seed, d = line.split()
        entries[(w, int(seed))] = d
    with open(path, "w") as f:
        f.write("# workload seed fnv1a-digest; see README.md\n")
        for (w, seed) in sorted(entries, key=lambda k: (WORKLOADS.index(k[0]), k[1])):
            f.write(f"{w} {seed} {entries[(w, seed)]}\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workloads", nargs="*", default=WORKLOADS)
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", action="store_true")
    p.add_argument("--append-trajectory", action="store_true")
    a = p.parse_args()

    summary = {
        "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%d"),
        "nproc": os.cpu_count(),
        "rustc": output_of(["rustc", "--version"]),
        "git_rev": output_of(["git", "-C", HERE, "rev-parse", "HEAD"]),
        "seeds": f"{a.seeds[0]}-{a.seeds[-1]}",
        "seconds": a.seconds,
        "trace": a.trace,
        "workloads": {},
    }
    digests = []
    for w in a.workloads:
        per_metric = {}
        for seed in a.seeds:
            result, digest = run_one(w, seed, a.seconds, a.trace)
            if digest:
                digests.append(f"{w} {seed} {digest}")
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                file=sys.stderr, flush=True)
        stats = {k: summarise(v) for k, v in per_metric.items()}
        summary["workloads"][w] = stats
        for k, s in stats.items():
            print(f"{w:<12} {k:<44} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"spread {s['spread']:.3f}", file=sys.stderr)
    if a.record_digests:
        record(digests)
    if a.append_trajectory:
        path = os.path.join(HERE, "TRAJECTORY.json")
        with open(path) as f:
            trajectory = json.load(f)
        trajectory["entries"].append(summary)
        with open(path, "w") as f:
            f.write(compact_json(trajectory) + "\n")
    print(json.dumps(summary, indent=1))


if __name__ == "__main__":
    main()
