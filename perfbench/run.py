#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source and runs it.

Run from the root of a checkout:

  python3 perfbench/run.py --workload <cold-batch|edit-stream|warm-serve> \
      --seed <n> --seconds <s> --trace <0|1>
      One run. Prints notes, then one JSON line (the last line of stdout):
      {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
      metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
      per_layer list. Spans of a traced run are written to
      .bench_build/perfbench/spans-<workload>.jsonl.

  python3 perfbench/run.py --steadiness <workload> [--runs 10]
      [--seconds <s>] [--first-seed <n>]
      Repeats one workload with seeds first-seed, first-seed+1, ... and
      prints each end-to-end metric's median, quartiles and spread
      ((q3 - q1) / median) next to its bound in BENCHMARK.json.

  python3 perfbench/run.py --selftest
      Builds and runs the benchmark's own tests.

Everything is built and written below .bench_build/ in the checkout.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("cold-batch", "edit-stream", "warm-serve")


def build():
    """Configures (once) and builds the benchmark; exits 1 on failure."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.close()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                # A failed configure must not leave a cache that skips it.
                shutil.rmtree(os.path.join(BUILD, "CMakeFiles"),
                              ignore_errors=True)
                try:
                    os.remove(os.path.join(BUILD, "CMakeCache.txt"))
                except OSError:
                    pass
                sys.exit(1)


def run_once(workload, seed, seconds, trace, capture=False):
    """One run; returns the parsed JSON line (and echoes the notes that
    explain a bad run) when capture is set, else streams the output."""
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0",
           "--work-dir", os.path.join(".bench_build", "perfbench", "work")]
    if trace:
        cmd += ["--trace-out", os.path.join(
            ".bench_build", "perfbench", "spans-%s.jsonl" % workload)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=175)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        sys.stderr.write("perfbench: run failed with code %d\n"
                         % proc.returncode)
        sys.exit(1)
    if capture:
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            if line.startswith(("# REJECTED", "# machine")):
                print("  seed %s %s" % (seed, line[2:]))
        return json.loads(lines[-1])
    sys.stdout.write(proc.stdout)
    return None


def steadiness(workload, runs, seconds, first_seed):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    values = {}
    for i in range(runs):
        result = run_once(workload, first_seed + i, seconds, False,
                          capture=True)
        if not result["correct"] or result["failed"]:
            print("seed %d: incorrect run: %s" % (first_seed + i, result))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (first_seed + i, " ".join(
            "%s=%.4g" % (k, v["value"]) for k, v in
            result["metrics"].items())), flush=True)
    print("%-18s %12s %12s %12s %8s %8s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = "" if bound is None or spread <= bound / 3 \
            else "  <-- above bound/3"
        print("%-18s %12.5g %12.5g %12.5g %8.3f %8s%s" %
              (name, med, q1, q3, spread, bound, flag))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", choices=WORKLOADS)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if not (a.selftest or a.steadiness or
            (a.workload and a.seed is not None)):
        p.error("give --workload and --seed, --steadiness, or --selftest")
    if a.seconds <= 0 or (a.seed is not None and a.seed < 0):
        p.error("--seconds must be positive and --seed non-negative")

    build()
    if a.selftest:
        sys.exit(subprocess.run(
            [os.path.join(BUILD, "perfbench_selftest")], cwd=ROOT).returncode)
    if a.steadiness:
        steadiness(a.steadiness, a.runs, a.seconds, a.first_seed)
        return
    run_once(a.workload, a.seed, a.seconds, a.trace == 1)


if __name__ == "__main__":
    main()
