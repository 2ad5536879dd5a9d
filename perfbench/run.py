#!/usr/bin/env python3
"""Build and run the served-request benchmark of the TRUST/FLock code.

    python3 perfbench/run.py --workload browse --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The first run configures and
builds perfbench/ (a CMake project over ../src) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench; later runs
rebuild incrementally. The benchmark binary plays the workload, checks
its outputs and prints its metrics; this script checks that the metric
names are exactly those BENCHMARK.json lists for the run's --trace
mode and forwards the output. The last line of standard output is the
result JSON. The exit code is non-zero when the build, a correctness
check or the metric-name check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(targets):
    """Configure (once) and build @targets; returns the build directory."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                return None
    return out


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for --trace @trace, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in spec[key]]


def check_result(line, expected):
    """Problems with the result line @line against @expected names."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["the last output line is not JSON"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    if expected is not None and set(result["metrics"]) != set(expected):
        missing = sorted(set(expected) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(expected))
        problems.append("metrics differ from BENCHMARK.json: missing %s, "
                        "extra %s" % (missing, extra))
    if result["attempted"] < 1:
        problems.append("nothing was attempted")
    return problems


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out = build(["trust_perfbench"])
    if out is None:
        return 1
    command = [os.path.join(out, "trust_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans-out", os.path.join(
            out, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    problems = check_result(lines[-1], expected_metrics(args.trace))
    if run.returncode != 0:
        problems.append("benchmark exited with code %d" % run.returncode)
    if problems:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        for problem in problems:
            sys.stderr.write("perfbench: %s\n" % problem)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
