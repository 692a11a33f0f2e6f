#!/usr/bin/env python3
"""Build and run the cqlopt benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe and bin/cqlserved.exe with dune, runs the workload
and prints the result as the last line of standard output: one JSON object
with the keys correct, attempted, failed and metrics.  With --trace 0 the
benchmark's set-up is timed three times, each in a fresh process, and
setup_s (and a cold latency measured in set-up) is their median.  With
--trace 1 the per-layer metrics are printed
and the spans are written to perfbench/out/.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
SETUP_RUNS = 3
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run(args):
    # its own process group, so a timed-out run is stopped together with the
    # daemon it spawned
    p = subprocess.Popen(args, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail("benchmark run timed out")
    lines = out.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail("benchmark run failed with exit code %d" % p.returncode)
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        fail("run from the root of a cqlopt checkout (dune-project, lib/ and bin/ not found)", 2)
    # the shared dune cache lives outside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe", "./bin/cqlserved.exe"],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        fail("build failed", build.returncode)

    args = [EXE, "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    setups = [run(args + ["--setup-only"]) for _ in range(SETUP_RUNS - 1)] if a.trace == 0 else []
    result = run(args)
    # a metric the set-up runs report too (setup_s; the in-process workloads'
    # cold_latency_p50_ms, measured in set-up) is the median over all runs
    for name, metric in result["metrics"].items():
        values = [r["metrics"][name]["value"] for r in setups if name in r["metrics"]]
        if values:
            metric["value"] = statistics.median(values + [metric["value"]])
    for r in setups:
        result["correct"] = result["correct"] and r["correct"]
        result["attempted"] += r["attempted"]
        result["failed"] += r["failed"]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
