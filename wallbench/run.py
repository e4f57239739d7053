#!/usr/bin/env python3
"""Serving-path benchmark: one measurement of one workload and seed.

    python3 wallbench/run.py --workload serve-8k --seed 1 --seconds 40 --trace 0

Run from the repository root. Builds the measuring program from source
(wallbench/CMakeLists.txt, Release) into .bench_build/, generates the
seed's instance and event trace outside the timed region (kept per seed
under .bench_build/inputs/), then runs the measurement. The last line of
stdout is the result object {"correct", "attempted", "failed",
"metrics"}; the line before it records the build's provenance. The exit
code is nonzero when a check failed or the program could not be built.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "wallbench")
INPUTS = os.path.join(WORK, "inputs")
SPANS = os.path.join(WORK, "spans")

DEFAULT_SEED = 1  # the held-out seed is in README.md
# The measurement may run this long past --seconds (it finishes the round
# under way; one compete-enum round takes about 16 s).
RUN_SLACK_S = 120
# Tiny shapes of the same workloads (see main.cpp); kept apart.
SMOKE = "VDIST_BENCH_SMOKE" in os.environ


def log(*parts):
    print("wallbench:", *parts, file=sys.stderr, flush=True)


def workload_names():
    """The workloads BENCHMARK.json declares (the self-test checks that
    they are the harness's)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def build():
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "vdist_wallbench",
                    "-j", "4"], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "vdist_wallbench")


def inputs(binary, workload, seed):
    """The seed's input directory, generated on first use."""
    os.makedirs(INPUTS, exist_ok=True)
    final = os.path.join(INPUTS, "%s-%d%s" % (workload, seed,
                                              "-smoke" if SMOKE else ""))
    if not os.path.isdir(final):  # complete once renamed into place
        tmp = final + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        log("generating inputs for", workload, "seed", seed)
        subprocess.run([binary, "gen", "--workload", workload, "--seed",
                        str(seed), "--out", tmp], check=True)
        os.replace(tmp, final)
    return final


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workload_names())
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    data = inputs(binary, args.workload, args.seed)
    os.makedirs(SPANS, exist_ok=True)
    stat = os.stat(binary)
    cmd = [binary, "run", "--workload", args.workload, "--dir", data,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expect", os.path.join(data, "expect.txt"),
           "--expect-tag", "%d-%d" % (stat.st_mtime_ns, stat.st_size)]
    if args.trace:
        cmd += ["--spans", os.path.join(SPANS, args.workload + ".jsonl")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=args.seconds + RUN_SLACK_S)
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.SubprocessError, OSError) as err:
        log("error:", err)
        sys.exit(2)
