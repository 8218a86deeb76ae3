#!/usr/bin/env python3
"""Smoke test of the benchmark: a tiny-size pass over every workload.

    python3 perfbench/smoke.py

Run from the root of a checkout.  Checks that
- BENCHMARK.json lists exactly the program's metric catalogue (names,
  units, directions, in order);
- for every workload, an untraced and a traced run each end in a JSON line
  with exactly the keys correct/attempted/failed/metrics, report correct
  and failure-free, and carry every end-to-end (untraced) or per-layer
  (traced) metric with its unit;
- every headline metric is printed by name and unit, with a sample count,
  for each workload it applies to, together with the correctness check;
- the fig3-mix run reports that the planted-drop teeth case tripped;
- a traced run prints its self-time table, writes its spans, and shows the
  per-layer numbers next to the end-to-end number they explain.
Exits 1 on the first failed expectation.
"""

import json
import os
import re
import subprocess
import sys

EXPLAINS = {
    "fig3-mix": ["ops_per_s", "gc.minor_words_per_op"],
    "sssp-sparse": ["sssp_s", "queue.busy_share"],
    "sched-fibers": ["tasks_per_s", "sched.empty_pop_per_task"],
    "contention-sim8": ["sim_ops_per_s", "sim.miss_per_op"],
}


def fail(msg):
    print(f"smoke: FAIL: {msg}")
    sys.exit(1)


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if out.returncode != 0:
        fail(f"{workload} trace {trace}: exit {out.returncode}\n{out.stderr}")
    return out.stdout.strip().splitlines()


def main():
    bench = json.load(open("BENCHMARK.json"))
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    lines = run(bench["workloads"][0]["name"], 0)  # builds the binary
    exe = os.path.join(build_dir, "dune", "default", "perfbench", "src", "main.exe")
    catalog = [json.loads(l) for l in subprocess.run(
        [exe, "--list-metrics"], stdout=subprocess.PIPE, text=True,
        check=True).stdout.splitlines()]
    for family in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"], m["better"]) for m in bench[family]]
        have = [(m["name"], m["unit"], m["better"]) for m in catalog
                if m["family"] == family]
        if want != have:
            fail(f"BENCHMARK.json {family} differs from the program's catalogue")
    headline = [m for m in catalog if m["family"] == "headline"]

    for w in bench["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            lines = run(name, trace)
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{name}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1):
                fail(f"{name} trace {trace}: {lines[-1][:200]}")
            family = bench["per_layer" if trace else "end_to_end"]
            want = {m["name"]: m["unit"] for m in family}
            have = {k: v["unit"] for k, v in result["metrics"].items()}
            if want != have:
                fail(f"{name} trace {trace}: metrics differ from BENCHMARK.json")
            text = "\n".join(lines[:-1])
            for m in headline:
                if name in m["workloads"]:
                    pat = rf"^metric {re.escape(m['name'])} = \S+ {re.escape(m['unit'])} \(n=\d+\)$"
                    if not re.search(pat, text, re.M):
                        fail(f"{name}: no line for {m['name']} [{m['unit']}]")
            if not re.search(r"^check: ", text, re.M):
                fail(f"{name}: no check line")
            if name == "fig3-mix" and "teeth case tripped (ok)" not in text:
                fail("fig3-mix: planted-drop teeth case did not trip")
            if trace:
                if not re.search(r"^span queue\.", text, re.M):
                    fail(f"{name}: no queue self-time line")
                if not re.search(r"^spans: \d+ written", text, re.M):
                    fail(f"{name}: spans not written")
                explains = [l for l in lines if l.startswith("explains: ")]
                if not explains or not all(f"{n}=" in explains[0] for n in EXPLAINS[name]):
                    fail(f"{name}: explains line lacks {EXPLAINS[name]}")
        print(f"smoke: {name} ok")
    print("smoke: all workloads ok")


if __name__ == "__main__":
    main()
