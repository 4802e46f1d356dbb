#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

    python3 perfbench/run.py --workload serve_warm --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. The harness package (perfbench/) is
configured into $CARGO_TARGET_DIR, or .bench_build when that is unset, and
built there; the first run compiles the library and takes a few minutes.
Every rate, region config, deadline and latency limit comes from
perfbench/config.json. Metric names and units come from BENCHMARK.json:
--trace 0 reports its end_to_end metrics, --trace 1 its per_layer metrics
(and writes the merged span trace next to the build).

Human-readable lines (host facts, validity labels, every metric with its
unit and sample counts) go first; the last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Exit code 0 when every correctness check passed and the run is valid, 1
when a check failed or the run was labelled invalid ("correct" is false
then, and each reason is printed), 2 when the benchmark could not run
(nothing is printed on stdout then).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SOURCE_ROOT = os.path.dirname(BENCH_DIR)
HARNESS_TIMEOUT_S = 170


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(SOURCE_ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(SOURCE_ROOT, "src")):
        die(f"no geopriv source tree around {BENCH_DIR}")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", build_dir, "--target",
                       "perfbench_harness", "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        die("build failed")
    return os.path.join(build_dir, "perfbench_harness")


def flatten(config, workload):
    """The workload's parameters as key=value strings. A workload that names
    another under "serving" serves with that workload's settings."""
    block = config["workloads"][workload]
    params = dict(config["common"])
    if "serving" in block:
        params.update(config["workloads"][block["serving"]])
    params.update({k: v for k, v in block.items() if k != "serving"})
    return [f"{key}={value}" for key, value in params.items()]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    try:
        with open(os.path.join(BENCH_DIR, "config.json")) as f:
            config = json.load(f)
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            declared = json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read the benchmark's configuration: {e}")
    if args.workload not in config["workloads"]:
        die(f"unknown workload {args.workload}")
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.abspath(
        os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    harness = build(build_dir)
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)

    command = [harness, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    if args.trace:
        command += ["--trace-out",
                    os.path.join(build_dir, f"trace_{args.workload}.json")]
    for param in flatten(config, args.workload):
        command += ["--param", param]
    started = time.monotonic()
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"harness exceeded {HARNESS_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if run.returncode not in (0, 1) or not lines:
        die(f"harness exited with code {run.returncode}")
    result = json.loads(lines[-1])

    metrics = {}
    for spec in wanted:
        got = result["metrics"].get(spec["name"])
        if got is None or got["unit"] != spec["unit"]:
            die(f"harness did not report {spec['name']} in {spec['unit']}")
        metrics[spec["name"]] = {"value": got["value"], "unit": got["unit"]}

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} wall {time.monotonic() - started:.1f}s")
    for key, value in result["facts"].items():
        print(f"  {key}: {value}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    # An invalid run never passes: its labels count as failed checks.
    errors = result["errors"] + [f"invalid run: {reason}"
                                 for reason in result["invalid"]]
    for error in errors:
        print(f"  CHECK FAILED: {error}")
    correct = bool(result["correct"]) and run.returncode == 0 and not errors
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
