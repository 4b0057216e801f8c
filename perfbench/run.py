#!/usr/bin/env python3
"""Repo benchmark: build perfbench from source, run one workload, report.

Run from the repository root:

    python3 perfbench/run.py --workload grid|serve --seed N \
        --seconds S --trace 0|1

The library and the benchmark program are built (Release) into
.bench_build/perfbench on first use. The program runs in a scratch
directory under .bench_build with the library's tuning variables unset,
so it measures the defaults. Its detail line goes to stdout unchanged;
the last stdout line is the result {"correct", "attempted", "failed",
"metrics"}, holding every BENCHMARK.json end_to_end metric (--trace 0)
or per_layer metric (--trace 1): each workload emits all of them. A
traced run also leaves its spans in .bench_build/traces/. Exit status: 0 when every output check passed,
non-zero otherwise (no result line when the build or the run fails).
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# Variables that change what the library does: never inherited.
PINNED_ENV = ("DDR_FAULT_PLAN", "DDR_SCHED", "DDR_DECODE_PATH",
              "DDR_IO_BACKEND", "DDR_CACHE_MB")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def clean_env():
    env = dict(os.environ)
    for name in PINNED_ENV:
        env.pop(name, None)
    return env


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=clean_env(), timeout=timeout).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as error:
        log("build step failed: %s" % error)
        return False


def build():
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not run_quiet(configure, BUILD_TIMEOUT_S):
        # A stale cache (another source tree or generator): start afresh.
        shutil.rmtree(BUILD_DIR, ignore_errors=True)
        if not run_quiet(configure, max(1, deadline - time.monotonic())):
            return False
    jobs = str(min(os.cpu_count() or 1, 4))
    return run_quiet(["cmake", "--build", BUILD_DIR, "-j", jobs],
                     max(1, deadline - time.monotonic()))


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_program(args, work_dir, spans_path):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", spans_path]
    proc = subprocess.Popen(cmd, cwd=work_dir, stdout=subprocess.PIPE,
                            stderr=sys.stderr, env=clean_env(),
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("benchmark timed out after %d s" % RUN_TIMEOUT_S)
        return None, None
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["grid", "serve"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        log("build failed")
        return 2

    work_dir = os.path.join(ROOT, ".bench_build",
                            "run-%s-%d" % (args.workload, os.getpid()))
    spans_dir = os.path.join(ROOT, ".bench_build", "traces")
    spans_path = os.path.join(spans_dir, "%s-seed%d.jsonl" %
                              (args.workload, args.seed))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    os.makedirs(spans_dir, exist_ok=True)
    try:
        code, out = run_program(args, work_dir, spans_path)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if code is None:
        return 2

    lines = out.rstrip("\n").split("\n") if out.strip() else []
    try:
        result = json.loads(lines[-1])
        metrics = result["metrics"]
    except (IndexError, ValueError, KeyError, TypeError):
        log("benchmark exited %d without a result line" % code)
        sys.stderr.write(out)
        return code or 2
    wanted = declared_metrics(args.trace)
    kept = {name: value for name, value in metrics.items() if name in wanted}
    bad = sorted(name for name in wanted
                 if name not in kept
                 or not isinstance(kept[name].get("value"), (int, float))
                 or not math.isfinite(kept[name]["value"]))
    if bad:
        log("missing or non-finite metrics: %s" % bad)
        sys.stderr.write(out)
        return code or 2

    for line in lines[:-1]:
        print(line)
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": kept}))
    sys.stdout.flush()
    if code != 0 or not result["correct"]:
        log("output checks failed (exit %d)" % code)
        return code or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
