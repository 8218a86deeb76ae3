#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/steady.py --workloads fig3-mix,sssp-sparse --seeds 10 \
        [--first-seed 1] [--seconds 30] [--baseline perfbench/baseline.json]

For every workload it runs `perfbench/run.py --trace 0` once per seed and
prints, for each end-to-end metric (the JSON line) and each headline
`metric` line, the median, the quartiles (statistics.quantiles, n=4) and
the spread (Q3 - Q1) / median, next to the bound BENCHMARK.json fixes.
With --baseline it also writes those summaries as JSON.
Run it from the root of a checkout.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time

LINE = re.compile(r"^metric (\S+) = (\S+) (\S+) \(n=(\d+)\)$")


def run_once(workload, seed, seconds):
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    wall = time.monotonic() - t0
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    headline = {}
    for line in lines[:-1]:
        m = LINE.match(line)
        if m:
            headline[m.group(1)] = (float(m.group(2)), m.group(3))
    return result, headline, wall


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"),
            "runs": len(values)}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--baseline")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        e2e, head, walls, correct = {}, {}, [], True
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, headline, wall = run_once(workload, seed, seconds)
            correct = correct and result["correct"] and result["failed"] == 0
            walls.append(wall)
            for name, m in result["metrics"].items():
                e2e.setdefault(name, ([], m["unit"]))[0].append(m["value"])
            for name, (v, unit) in headline.items():
                head.setdefault(name, ([], unit))[0].append(v)
        print(f"== {workload}: {len(walls)} runs, all correct: {correct}, "
              f"wall {min(walls):.1f}-{max(walls):.1f} s")
        entry = {"end_to_end": {}, "headline": {}}
        for family, table in (("end_to_end", e2e), ("headline", head)):
            for name, (values, unit) in table.items():
                s = summary(values)
                s["unit"] = unit
                entry[family][name] = s
                bound = bounds.get(name) if family == "end_to_end" else None
                flag = ""
                if bound is not None:
                    flag = (f"  bound {bound}  {'ok' if s['spread'] < bound / 3 else 'WIDE'}"
                            if name != "setup_s" else f"  bound {bound}")
                print(f"  {family[:4]} {name:24s} median {s['median']:.6g} {unit}"
                      f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                      f"  spread {s['spread']:.4f}{flag}")
        report[workload] = entry
    if args.baseline:
        with open(args.baseline, "w") as f:
            json.dump({"seconds": seconds, "first_seed": args.first_seed,
                       "workloads": report}, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
