#!/usr/bin/env python3
"""Build and run the campaign benchmark.

Run from the root of a source tree:

    python3 perfbench/run.py --workload susy-solve --seed 1 --seconds 20 --trace 0

Builds perfbench/bench.exe with dune, runs one workload and passes its
output through; the last line is the JSON result. Exits non-zero,
without a result, when the tree cannot be built or the benchmark's
output does not match BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", HERE, "bench.exe")
OUT = ".perfbench_out"
RUN_LIMIT_S = 175.0
BUILD_LIMIT_S = 880.0


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_definition():
    try:
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
        with open(os.path.join(HERE, "predictions.json")) as f:
            predictions = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read the benchmark definition: %s" % e)
    # every per-layer metric is predicted to move some end-to-end metric
    predicted = [m for row in predictions["layers"] for m in row["metrics"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    if sorted(predicted) != sorted(per_layer):
        fail("predictions.json and BENCHMARK.json name different per-layer metrics: %s"
             % sorted(set(predicted) ^ set(per_layer)))
    return bench


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    bench = load_definition()
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail("unknown workload %s" % args.workload)
    for needed in ("dune-project", "lib", os.path.join(HERE, "dune")):
        if not os.path.exists(needed):
            fail("%s is missing: run from the root of the source tree" % needed)

    started = time.monotonic()
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--profile", "release", "./%s/bench.exe" % HERE],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_LIMIT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if build.returncode != 0:
        fail("build failed with code %d" % build.returncode)
    build_s = time.monotonic() - started

    out = os.path.join(OUT, "%s-trace%d" % (args.workload, args.trace))
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    cmd = [EXE, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--refs", os.path.join(HERE, "references"), "--out", out]
    # a first run may spend most of its time building
    limit = max(30.0, (RUN_LIMIT_S if build_s < 60 else BUILD_LIMIT_S + 10) - build_s)
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=limit)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %.0f s" % limit)
    lines = run.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if run.returncode != 0:
        fail("benchmark exited with code %d" % run.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not a JSON result: %r" % lines[-1][:200])
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    names = {m["name"]: m["unit"] for m in wanted}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != names:
        fail("metrics differ from BENCHMARK.json: %s"
             % sorted(set(got.items()) ^ set(names.items())))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
