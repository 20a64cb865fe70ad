#!/usr/bin/env python3
"""Builds the platbench driver from this checkout's sources and runs it.

    python3 perfbench/run.py --workload gauss --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload trie_serve --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --selftest

Run it from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/platbench (default .bench_build/platbench); build output goes
to stderr, so the last stdout line stays the driver's JSON result. Traced runs
also write their spans as Chrome trace-event JSON under the build directory's
traces/ directory. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("gauss", "sort_forensics", "trie_serve")
DEFAULT_SEED = 1


def build(build_dir):
    # Compiler temporaries stay inside the build directory too.
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"],
                   check=True, stdout=sys.stderr, env=env)
    return os.path.join(build_dir, "platbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check that forged failures raise fail_frac")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no platinum source tree next to perfbench/; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "platbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 2

    if args.selftest:
        command = [binary, "--selftest"]
    else:
        command = [binary, "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            trace_dir = os.path.join(build_dir, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            command += ["--trace-out",
                        os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(binary, command)


if __name__ == "__main__":
    sys.exit(main())
