#!/usr/bin/env python3
"""Build the host benchmark from source and run one workload.

Usage (from the repository root):

    python3 hostbench/run.py --workload table2-live --seed 1 \
        --seconds 25 --trace 0

The benchmark package (hostbench/CMakeLists.txt) builds the repository
as a subproject into .bench_build/hostbench, so the first run compiles
everything and later runs only re-check the build. The measuring
binary prints progress and, as its last line, one JSON object with the
keys correct, attempted, failed and metrics. Exit status is 0 only when
every operation ran and passed its output check.
"""

import argparse
import fcntl
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("table2-live", "fig-replay", "serve-mix")
TARGETS = ("hostbench", "interpd", "interproxy")
# Each run must end well inside three minutes; the binary bounds
# itself, this is the backstop.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("hostbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(repo, build_dir):
    """Configure (once) and build the benchmark targets; log to stderr."""
    os.makedirs(build_dir, exist_ok=True)
    cache = os.path.join(build_dir, "CMakeCache.txt")
    source = os.path.join(repo, "hostbench")
    if os.path.exists(cache):
        # A checkout moved since it was configured: start over.
        with open(cache) as f:
            home = [l for l in f if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or home[0].split("=", 1)[1].strip() != source:
            shutil.rmtree(build_dir)
            os.makedirs(build_dir)
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", source, "-B", build_dir]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target", *TARGETS]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for need in ("CMakeLists.txt", "src/CMakeLists.txt", "programs"):
        if not os.path.exists(os.path.join(repo, need)):
            fail("repository sources missing (%s); run from a checkout"
                 % need)

    out_dir = os.path.join(repo, ".bench_build")
    build_dir = os.path.join(out_dir, "hostbench")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "hostbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        build(repo, build_dir)

    # Scratch space for tapes, sockets and daemon logs. Socket paths
    # stay relative to the repository root (sun_path is short).
    work_rel = os.path.join(".bench_build", "run-%d" % os.getpid())
    work = os.path.join(repo, work_rel)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.join(build_dir, "hostbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin-dir", build_dir, "--work-dir", work_rel]
    proc = subprocess.Popen(cmd, cwd=repo, start_new_session=True)
    # A SIGTERM to this script unwinds through the cleanup below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except BaseException:
        # The daemons die with the binary (parent-death signal); kill
        # the whole session anyway so nothing outlives this script.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        code = 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
