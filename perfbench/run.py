#!/usr/bin/env python3
"""One-command SemTree benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. Builds the SemTree library and the
benchmark binary from source into .bench_build/perfbench (the first run
compiles; later runs only check that the build is current), then runs
one workload. Build output and progress go to stderr; the last line of
stdout is the result as one JSON object. Traced runs also write their
spans to .bench_build/traces/. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
TRACES = os.path.join(BUILD_ROOT, "traces")
WORKLOADS = ("qbe_semantic", "vec_read", "hot_rw")
# Time a run may take beyond --seconds for set-up, probes and checks.
RUN_SLACK_S = 140


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "semtree", "semtree.h")):
        sys.exit("perfbench: SemTree sources not found under %s/src" % ROOT)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    # The compiler's scratch files stay inside the checkout too.
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in (["cmake", "-S", HERE, "-B", BUILD],
                ["cmake", "--build", BUILD, "-j", jobs]):
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            sys.exit("perfbench: build failed: %s" % " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build()
    os.makedirs(TRACES, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", args.trace, "--trace-dir", TRACES]
    timeout_s = args.seconds + RUN_SLACK_S
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the benchmark binary by now.
        sys.exit("perfbench: %s did not finish in %g s"
                 % (args.workload, timeout_s))
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.exit("perfbench: benchmark binary exited with %d" % proc.returncode)


if __name__ == "__main__":
    main()
