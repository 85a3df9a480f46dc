#!/usr/bin/env python3
"""Build and run the end-to-end serving benchmark.

Run from the repository root:

  python3 bench/e2e/run.py --workload hot-route --seed 1 --seconds 25 --trace 0
  python3 bench/e2e/run.py --smoke

A run builds the libraries, useful_served, useful_frontend, and the
useful_bench load program from this checkout into $CARGO_TARGET_DIR
(default .bench_build), builds the testbed files once, then runs
useful_bench. Its standard output passes through; the last line is the
result object.
Build output goes to <build dir>/build.log and messages to standard error.

--smoke runs every workload of BENCHMARK.json for 2 s at both trace levels
and checks zero failures, every metric with its unit, a parseable span
file, and the generator self-test.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# Configuring, building, and preparing the testbed together.
BUILD_TIMEOUT_S = 840
# A run measures for --seconds; on top come the request pool's
# precomputation, the cold starts, and the drains.
RUN_OVERHEAD_S = 60


def log(message):
    print(message, file=sys.stderr, flush=True)


def stop_group(pgid):
    """Kills whatever is left of process group `pgid` (servers of a
    useful_bench that died) and waits, up to 10 s, until none of it is left."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group, servers included, and leaves no
    process of that group behind. Exits on timeout. Returns the
    CompletedProcess."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        log(f"timed out after {timeout}s: {' '.join(cmd)}")
        sys.exit(1)
    stop_group(proc.pid)
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def build(build_dir):
    """Configures (once) and builds useful_bench and the server binaries.
    Returns the useful_bench command prefix."""
    cmake_dir = os.path.join(build_dir, "cmake")
    os.makedirs(build_dir, exist_ok=True)
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(os.path.join(build_dir, "build.log"), "w") as out:
        steps = []
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", cmake_dir, "-j", "4", "--target",
                      "useful_bench", "useful_served", "useful_frontend"])
        for step in steps:
            if run_group(step, deadline - time.monotonic(), stdout=out,
                         stderr=subprocess.STDOUT).returncode != 0:
                out.flush()
                with open(out.name) as f:
                    log(f.read()[-4000:])
                log("build failed")
                sys.exit(1)
    bench = os.path.join(cmake_dir, "useful_bench")
    testbed = os.path.join(build_dir, "testbed")
    if run_group([bench, "--prepare", testbed],
                 deadline - time.monotonic()).returncode:
        log("testbed preparation failed")
        sys.exit(1)
    return [bench, "--bin", os.path.join(cmake_dir, "useful", "tools"),
            "--testbed", testbed]


def smoke(bench):
    """About one second per workload at each trace level, plus the
    generator self-test. Returns the list of problems found."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    out_dir = os.path.join("bench-out", "smoke")
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]),
                              (1, spec["per_layer"])):
            cmd = bench + ["--workload", workload, "--seed", "1",
                            "--seconds", "2", "--trace", str(trace),
                            "--out", out_dir]
            res = run_group(cmd, 2 + RUN_OVERHEAD_S, stdout=subprocess.PIPE,
                            text=True)
            where = f"{workload} trace {trace}"
            lines = res.stdout.strip().splitlines()
            if res.returncode != 0 or not lines:
                problems.append(f"{where}: exit {res.returncode}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{where}: {result['failed']} failed of "
                                f"{result['attempted']}")
            # "name workload value unit [n=samples]"
            printed = {(f[0], f[1], f[3]) for f in
                       (line.split() for line in lines[:-1]) if len(f) >= 4}
            for metric in wanted:
                name, unit = metric["name"], metric["unit"]
                got = result["metrics"].get(name)
                if got is None or got["unit"] != unit:
                    problems.append(f"{where}: {name} missing or not in {unit}")
                elif (name, workload, unit) not in printed:
                    problems.append(f"{where}: no printed line for {name}")
            if trace == 1:
                path = os.path.join(out_dir, workload + ".trace.json")
                try:
                    with open(path) as f:
                        if not json.load(f)["spans"]:
                            problems.append(f"{where}: {path} has no spans")
                except (OSError, ValueError, KeyError) as e:
                    problems.append(f"{where}: {path}: {e}")
    res = run_group(bench + ["--selftest", "--out", out_dir], RUN_OVERHEAD_S,
                    stdout=subprocess.PIPE, text=True)
    sys.stdout.write(res.stdout)
    if res.returncode != 0:
        problems.append("generator self-test failed")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default="bench-out")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")

    bench = build(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if args.smoke:
        problems = smoke(bench)
        for p in problems:
            log("smoke: " + p)
        print("smoke " + ("FAILED" if problems else "ok"))
        sys.exit(1 if problems else 0)
    res = run_group(bench + ["--workload", args.workload,
                              "--seed", str(args.seed),
                              "--seconds", str(args.seconds),
                              "--trace", str(args.trace),
                              "--out", args.out],
                    args.seconds + RUN_OVERHEAD_S)
    sys.exit(res.returncode)


if __name__ == "__main__":
    main()
