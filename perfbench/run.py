#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (the slapo libraries from src/ plus the benchmark
driver) into .bench_build/ at the repository root, runs the workload in
a scratch directory under .bench_build/work/, checks that the metrics it
printed are exactly the ones BENCHMARK.json lists, and prints:

  * a `stamp` JSON line: nproc and thread settings, compiler and build
    type, git SHA and dirty flag, load average before and after the run,
    and `flags` naming anything that makes the numbers suspect
    (non-optimised build, dirty tree, no git metadata);
  * as the last line, the result object with the keys `correct`,
    `attempted`, `failed` and `metrics`.

Traced runs (--trace 1) keep the benchmark's spans as a Chrome trace in
.bench_build/traces/<workload>-seed<n>.json.

Exits non-zero without printing a result when the build, the run or the
metric check fails.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
BINARY = os.path.join(BUILD, "slapo_perfbench")
BUILD_TYPE = "RelWithDebInfo"
OPTIMISED_BUILD_TYPES = {"Release", "RelWithDebInfo", "MinSizeRel"}
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configure once, then let the build tool decide what is stale."""
    os.makedirs(BUILD, exist_ok=True)
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(OUT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "Makefile")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", BUILD,
                 f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                check=True, stdout=sys.stderr, env=env)
        subprocess.run(
            ["cmake", "--build", BUILD, "--target", "slapo_perfbench",
             "-j", jobs],
            check=True, stdout=sys.stderr, env=env)


def git_state():
    """(sha, dirty) of the checkout; (None, None) without git metadata."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None, None  # never report an enclosing repository's state
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
            capture_output=True, text=True).stdout.strip()
        status = subprocess.run(
            ["git", "-C", ROOT, "status", "--porcelain"], check=True,
            capture_output=True, text=True).stdout
        return sha, bool(status.strip())
    except (OSError, subprocess.CalledProcessError):
        return None, None


def check_metrics(result, spec, trace):
    """The metric set and units must be exactly BENCHMARK.json's."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    problems = []
    if set(metrics) != {m["name"] for m in wanted}:
        problems.append(
            f"metric names differ: missing "
            f"{sorted({m['name'] for m in wanted} - set(metrics))}, extra "
            f"{sorted(set(metrics) - {m['name'] for m in wanted})}")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}, "
                            f"expected {m['unit']!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']}: value {value!r} is not finite")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload!r}")
        return 2

    load_before = os.getloadavg()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    work_root = os.path.join(OUT, "work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        try:
            proc = subprocess.run(
                [BINARY, "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", repr(args.seconds), "--trace", str(args.trace),
                 "--workdir", workdir],
                stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log(f"run exceeded {RUN_TIMEOUT_S} s")
            return 1
        if proc.returncode != 0:
            log(f"slapo_perfbench exited with {proc.returncode}")
            return 1
        spans = os.path.join(workdir, "spans.json")
        if os.path.exists(spans):
            traces = os.path.join(OUT, "traces")
            os.makedirs(traces, exist_ok=True)
            shutil.move(spans, os.path.join(
                traces, f"{args.workload}-seed{args.seed}.json"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = proc.stdout.strip().splitlines()
    context = {}
    for line in lines[:-1]:
        if line.startswith("context "):
            context = json.loads(line[len("context "):])
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log("no result line")
        return 1
    problems = check_metrics(result, spec, args.trace == 1)
    if problems:
        for p in problems:
            log(p)
        return 1

    sha, dirty = git_state()
    flags = []
    if context.get("build_type") not in OPTIMISED_BUILD_TYPES:
        flags.append("unoptimised_build")
    if dirty:
        flags.append("dirty_tree")
    if sha is None:
        flags.append("no_git_metadata")
    try:
        cpus_usable = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus_usable = os.cpu_count()
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": cpus_usable,
        "cpu_count": os.cpu_count(),
        "slapo_num_threads_env": os.environ.get("SLAPO_NUM_THREADS"),
        "git_sha": sha,
        "git_dirty": dirty,
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "flags": flags,
        **context,
    }
    for flag in flags:
        log(f"flagged run: {flag}")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
