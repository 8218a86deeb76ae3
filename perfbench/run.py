#!/usr/bin/env python3
"""Build and run the k-LSM benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/src/main.exe with dune into the benchmark's own build
directory ($CARGO_TARGET_DIR, default .bench_build), with dune's shared
cache off so that nothing is written outside the checkout, then runs it
with the same arguments.  A traced run (--trace 1) writes its spans to
<build dir>/spans/<workload>-seed<N>.tsv.  The last line of standard output
is the result JSON; the exit code is the benchmark's.  Extra arguments
(--size tiny) pass through unchanged.
"""

import argparse
import os
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(allow_abbrev=False)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args, extra = ap.parse_known_args()

    for needed in ("dune-project", "lib", os.path.join("perfbench", "src", "dune")):
        if not os.path.exists(needed):
            print(f"run.py: {needed} not found; run from the root of a checkout "
                  "of the repository", file=sys.stderr)
            return 2

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    dune_dir = os.path.abspath(os.path.join(build_dir, "dune"))
    os.makedirs(build_dir, exist_ok=True)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", dune_dir,
         "--profile", "release", "--cache=disabled",
         "./perfbench/src/main.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 1

    cmd = [os.path.join(dune_dir, "default", "perfbench", "src", "main.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        spans = os.path.join(build_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans",
                os.path.join(spans, f"{args.workload}-seed{args.seed}.tsv")]
    sys.stdout.flush()
    return subprocess.run(cmd + extra).returncode


if __name__ == "__main__":
    sys.exit(main())
