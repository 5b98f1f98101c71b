#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 45 --trace 0

Builds perfbench/bench.exe with dune from the checkout this file sits in,
then runs it with the same arguments.  Build output goes to stderr; the
last line of stdout is the benchmark's JSON result.  Exits nonzero, with
no result, when the checkout cannot be built or a run fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("analytic", "serve-hot", "simulate")
RUN_TIMEOUT_S = 175


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # The benchmark drives the repository's libraries: without them
    # there is nothing to build.
    needed = ("dune-project", "lib/serve", "lib/swap", "lib/numerics")
    missing = [p for p in needed if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print("perfbench: not a checkout of the repository, missing "
              + ", ".join(missing), file=sys.stderr)
        return 2

    # No shared dune cache: the build reads and writes inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    out = os.path.join("perfbench", "out")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", out]
    # The run keeps to one CPU, the last it may use, so the guest
    # scheduler cannot spread serve-hot's client and server over two
    # vCPUs as the host's load shifts (see README.md, Host).
    cpu = max(os.sched_getaffinity(0))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
