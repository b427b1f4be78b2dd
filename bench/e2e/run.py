#!/usr/bin/env python3
"""Build ddosbench from source and run the end-to-end benchmark.

One workload, as the benchmark contract runs it (the last stdout line is
the JSON result: end-to-end metrics, or per-layer metrics with --trace 1):

    python3 bench/e2e/run.py --workload generate --seed 1 --seconds 18 --trace 0

A full pass over all five workloads (each in its own process), printing
every metric as "workload metric value unit (n=...)"; exits non-zero if
any output check fails:

    python3 bench/e2e/run.py --seed 1 [--trace] [--save pass.json]

Run from the root of a checkout. The build goes to .bench_build/e2e and
each run writes its result.json, trace.json and scratch stores under
.bench_build/runs/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
RUNS = os.path.join(ROOT, ".bench_build", "runs")
BINARY = os.path.join(BUILD, "ddosbench")
WORKLOADS = ["generate", "shard-merge", "analyze", "serve-point",
             "serve-refill"]
# A run that takes longer than this has hung; the contract allows 180 s.
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ next to bench/: run from a checkout of the repository")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "ddosbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr so stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_workload(workload, seed, seconds, trace):
    """Run one workload in its own process; returns its result dict."""
    out_dir = os.path.join(
        RUNS, "%s-seed%d%s" % (workload, seed, "-trace" if trace else ""))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--out-dir", out_dir]
    if trace:
        cmd.append("--trace")
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    result_path = os.path.join(out_dir, "result.json")
    if not os.path.isfile(result_path):
        fail("%s exited %d without a result" % (workload, proc.returncode))
    with open(result_path) as f:
        result = json.load(f)
    # The stores are large and only the run itself reads them.
    for name in os.listdir(out_dir):
        if name.endswith(".drs"):
            os.remove(os.path.join(out_dir, name))
    return result


def contract_line(result, spec, trace):
    """The benchmark contract's result object for one run."""
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = result["metrics"].get(m["name"])
        if got is None or got["value"] is None:
            fail("%s: no value for %s" % (result["workload"], m["name"]))
        if got["unit"] != m["unit"] or got["better"] != m["better"] or (
                "bound" in m and got.get("bound") != m["bound"]):
            fail("%s: %s disagrees with BENCHMARK.json" %
                 (result["workload"], m["name"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="length of each measured phase (default: "
                        "BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", nargs="?", const="1", default="0",
                        choices=["0", "1"],
                        help="add the traced phase and per-layer metrics")
    parser.add_argument("--save", help="full pass: write all results here")
    args = parser.parse_args()
    trace = args.trace == "1"

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    build()

    if args.workload:
        result = run_workload(args.workload, args.seed, seconds, trace)
        print(json.dumps(contract_line(result, spec, trace)), flush=True)
        sys.exit(0 if result["correct"] else 1)

    results = [run_workload(w, args.seed, seconds, trace)
               for w in WORKLOADS]
    failed = [r["workload"] for r in results if not r["correct"]]
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"seed": args.seed, "machine": results[0]["machine"],
                       "results": results}, f, indent=1)
            f.write("\n")
    print("all checks passed" if not failed else
          "output checks FAILED: " + ", ".join(failed))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
