#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds the flb library and the perfbench program from this checkout's
sources (CMake, Release) into $CARGO_TARGET_DIR or .bench_build/, runs one
workload and passes its output through: an environment-stamp line, then the
result as the last line. --trace 1 also writes the span trace to
<build dir>/traces/<workload>.trace.json (Chrome trace-event JSON; open it
at https://ui.perfetto.dev). --self-test builds and runs the test of the
benchmark's own arithmetic.

Exits non-zero without printing a result when the sources are missing, the
build fails, the program fails, or the printed metric names do not match
BENCHMARK.json.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sched_fig2", "serve_mix")
RUN_TIMEOUT_S = 175


def fail(msg, code=1):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(targets):
    """Configure once, then build `targets`; serialised by a file lock."""
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", bdir, "-j", jobs, "--target"]
                       + targets, stdout=sys.stderr, check=True)
    return bdir


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the library sources: identifies the code in a checkout
    that is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def check_names(result, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != wanted:
        fail("metrics do not match BENCHMARK.json: missing %s, extra %s, "
             "unit mismatch %s" % (
                 sorted(set(wanted) - set(got)), sorted(set(got) - set(wanted)),
                 sorted(k for k in wanted if k in got and got[k] != wanted[k])))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no flb sources at %s; run from a full checkout"
             % os.path.join(ROOT, "src"), 2)
    if args.self_test:
        bdir = build(["perfbench_arith_test"])
        sys.exit(subprocess.run(
            [os.path.join(bdir, "perfbench_arith_test")]).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    try:
        bdir = build(["perfbench"])
    except subprocess.CalledProcessError as e:
        fail("build failed: %s" % e)
    cmd = [os.path.join(bdir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(), "--src-digest", source_digest()]
    if args.trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, args.workload + ".trace.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    if proc.returncode != 0:
        fail("perfbench exited with %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("perfbench printed no result line")
    check_names(result, args.trace == 1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
