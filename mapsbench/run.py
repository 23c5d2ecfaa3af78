#!/usr/bin/env python3
"""Run one workload of the MAPS benchmark (see README.md beside this file).

    python3 mapsbench/run.py --workload sim_read --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The first run builds the harness, mapsd
and the two drivers it submits from the checkout's sources into
.bench_build/mapsbench; later runs rebuild only what changed. The last
line of standard output is one JSON object: correct, attempted, failed
and the metrics (end-to-end with --trace 0, per-layer with --trace 1).
The exit status is non-zero when the build fails, any operation fails
or any output digest differs from its reference.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sim_read", "sim_write", "analysis", "mapsd_jobs")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(os.getcwd(), ".bench_build", "mapsbench")


def env():
    """Child environment: temporary files stay inside the checkout."""
    tmp = os.path.join(os.getcwd(), ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configure once, then build incrementally; False on failure."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               env=env()) != 0:
                break
        else:
            return True
    with open(log_path) as log:
        sys.stderr.write("".join(log.readlines()[-30:]))
    sys.stderr.write("mapsbench: build failed (log: %s)\n" % log_path)
    return False


def harness(args, extra=()):
    """Run the harness; returns (exit status, stdout text)."""
    work = os.path.join(".bench_run", "%s-s%d-t%d" % (
        args.workload, args.seed, args.trace))
    shutil.rmtree(work, ignore_errors=True)
    cmd = [os.path.join(build_dir(), "mapsbench"),
           "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--bin-dir=" + build_dir(), "--work-dir=" + work,
           "--reference=" + os.path.join(HERE, "reference_digests.json")]
    cmd += list(extra)
    # A process group of its own: whatever the harness leaves behind (mapsd,
    # its cells) is stopped as one group.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=env(), start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        status = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.stderr.write("mapsbench: run exceeded %ds\n" % RUN_TIMEOUT_S)
        out, status = "", 1
    stop_group(proc.pid)
    return status, out


def stop_group(pgid):
    """Kill whatever the harness left in its process group; wait it out."""
    for _ in range(100):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="record this run's digests as the reference "
                        "(seed 1 only; after an intended output change)")
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    if not build():
        return 1
    extra = ["--write-reference"] if args.write_reference else []
    status, out = harness(args, extra)
    sys.stdout.write(out)
    sys.stdout.flush()
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
