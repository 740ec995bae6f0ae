#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root:

    python3 perfbench/steadiness.py --seeds 1-10 --out perfbench/runs/steady.jsonl

Every run's result line is appended to --out with its workload, seed,
environment and wall time. The summary gives, per workload and metric, the
median and the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, next to a third of
the metric's bound in BENCHMARK.json. With --baseline, it also gives each
median's change against an earlier set, signed so that positive is worse.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seed_list(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.time() - start
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), None)
    return json.loads(lines[-1]), env, wall


def summarize(rows, bounds):
    by = {}
    for r in rows:
        for name, m in r["result"]["metrics"].items():
            by.setdefault((r["workload"], name), []).append(m["value"])
    for (workload, name), values in sorted(by.items()):
        med = statistics.median(values)
        spread = float("nan")
        if len(values) >= 2 and med:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
        limit = bounds.get(name)
        flag = ""
        if limit is not None and name != "setup_s" and not spread <= limit / 3:
            flag = "  ABOVE bound/3"
        lim = f"{limit / 3:.4f}" if limit is not None else "-"
        print(f"{workload:14s} {name:34s} n={len(values):2d} median={med:12.4f} "
              f"spread={spread:.4f} bound/3={lim}{flag}")


def compare(base_rows, rows, metrics):
    """Print each metric's median change against a baseline set, as a
    share of the baseline median, signed so that positive is worse."""
    def medians(rs):
        by = {}
        for r in rs:
            for name, m in r["result"]["metrics"].items():
                by.setdefault((r["workload"], name), []).append(m["value"])
        return {k: statistics.median(v) for k, v in by.items()}
    base, cur = medians(base_rows), medians(rows)
    for key in sorted(base.keys() & cur.keys()):
        spec = metrics.get(key[1])
        if spec is None or not base[key]:
            continue
        change = (cur[key] - base[key]) / base[key]
        if spec["better"] == "higher":
            change = -change
        flag = "  WORSE than bound" if change > spec["bound"] else ""
        print(f"{key[0]:14s} {key[1]:34s} baseline={base[key]:12.4f} median={cur[key]:12.4f} "
              f"worse_by={change:+.4f} bound={spec['bound']}{flag}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="", help="comma list (default: all in BENCHMARK.json)")
    ap.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=0, help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", required=True, help="JSON-lines file the runs are appended to")
    ap.add_argument("--summary-only", action="store_true", help="summarize --out without running")
    ap.add_argument("--baseline", help="JSON-lines file of an earlier set to compare medians with")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]

    if not args.summary_only:
        with open(args.out, "a") as out:
            for workload in workloads:
                for seed in seed_list(args.seeds):
                    result, env, wall = run_once(workload, seed, seconds, args.trace)
                    row = {"workload": workload, "seed": seed, "seconds": seconds,
                           "trace": args.trace, "wall_s": round(wall, 2), "env": env,
                           "result": result}
                    out.write(json.dumps(row) + "\n")
                    out.flush()
                    print(f"{workload} seed {seed}: wall {wall:.1f}s correct={result['correct']} "
                          f"failed={result['failed']}/{result['attempted']}", flush=True)

    with open(args.out) as f:
        rows = [json.loads(line) for line in f if line.strip()]
    rows = [r for r in rows if r["workload"] in workloads and r["trace"] == args.trace]
    summarize(rows, bounds)
    if args.baseline:
        with open(args.baseline) as f:
            base_rows = [json.loads(line) for line in f if line.strip()]
        base_rows = [r for r in base_rows if r["workload"] in workloads and r["trace"] == args.trace]
        compare(base_rows, rows, {m["name"]: m for m in bench["end_to_end"]})


if __name__ == "__main__":
    main()
