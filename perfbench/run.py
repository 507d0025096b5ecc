#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload spec --seed 1 --seconds 9 --trace 0

Builds the Go benchmark (perfbench/, its own module over the repository's
module) into .bench_build/ with every Go cache, temp and config directory
inside the checkout, runs it with the given arguments from the checkout
root, and passes its output through. The last line of standard output is
the benchmark's JSON result. Exits non-zero, printing no result, if the
build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 175


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        HOME=os.path.join(build, "home"),
        GOFLAGS="-buildvcs=false",
        GOPROXY="off",
        GOTOOLCHAIN="local",
    )
    for d in ("tmp", "config", "home"):
        os.makedirs(os.path.join(build, d), exist_ok=True)

    binary = os.path.join(build, "perfbench")
    try:
        subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=os.path.join(root, "perfbench"),
            env=env,
            stdout=sys.stderr,
            check=True,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    # Flush the build's writes now rather than during the timed run.
    os.sync()
    cmd = [
        binary,
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", str(args.seconds),
        "-trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1
    out = proc.stdout.decode()
    if proc.returncode != 0:
        sys.stderr.write(out)
        print(f"perfbench: benchmark exited with {proc.returncode}", file=sys.stderr)
        return 1
    try:
        json.loads(out.rstrip("\n").split("\n")[-1])
    except ValueError:
        print("perfbench: benchmark printed no JSON result", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
