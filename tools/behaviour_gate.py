#!/usr/bin/env python3
"""Live behaviour gate: compare this build's simulated behaviour with a golden file.

Usage:
  tools/behaviour_gate.py BUILD_DIR [CASE ...]
  tools/behaviour_gate.py BUILD_DIR --update

A case is one bench of bench_report.BENCHES, run at the SMALL_ENV sizes, or
"platsim", the SCENARIOS below. For a bench, bench/golden_small.json holds
the exact integers of its PLATINUM_BENCH_METRICS line (machines, references,
sim_ns) and a SHA-256 of its stdout and of each table it writes. For each
platsim scenario it holds a SHA-256 of the stdout, stats, page report and
time series. Without a CASE every case runs.

The check runs with PLATINUM_BENCH_WORKERS=4 and --update writes the golden
file with PLATINUM_BENCH_WORKERS=1, so a pass also proves that sweep workers
never reach the output. A change that alters simulated behaviour on purpose
runs --update and commits the new golden file in the same diff. Each case's
live artifacts stay under BUILD_DIR/behaviour_gate/<case>/.

Exit codes: 0 pass, 1 behaviour differs from the golden file, 2 usage error.
"""

import argparse
import concurrent.futures
import hashlib
import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_report import BENCHES, SMALL_ENV, run_bench  # noqa: E402

GOLDEN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "bench", "golden_small.json")

SCENARIOS = {
    "gauss": ["gauss", "--procs=4", "--n=48"],
    "sort": ["sort", "--procs=4", "--count=8192"],
    # The tardis protocol replaces shootdown rounds with lease waits.
    "gauss_tardis": ["gauss", "--procs=4", "--n=48", "--protocol=tardis"],
    "sort_tardis": ["sort", "--procs=4", "--count=8192", "--protocol=tardis"],
    # The serving trie adds the load layer (Zipf scripts, latency histograms,
    # the "serving" stats block), closed and open loop, under both protocols.
    "trie": ["trie", "--procs=8", "--ops=20000", "--keys=4096"],
    "trie_tardis": ["trie", "--procs=8", "--ops=20000", "--keys=4096", "--protocol=tardis"],
    "trie_open": ["trie", "--procs=8", "--ops=20000", "--keys=4096", "--arrival=open"],
    # Defrost passes that thaw several pages each, under the invariant oracle.
    "neural_defrost": ["neural", "--procs=16"],
    # The adaptive daemon wakes at per-page thaw deadlines, not periodically.
    "neural_adaptive": ["neural", "--procs=16", "--adaptive-defrost"],
    "trie_defrost": ["trie", "--procs=16", "--ops=50000", "--keys=16384"],
    # The per-processor and per-module counter tables of Observability::ToString.
    "gauss_histograms": ["gauss", "--procs=4", "--n=48", "--histograms"],
    # The race detector and the page trace watch the same access path; stdout
    # carries the detector's summary line.
    "gauss_races": ["gauss", "--procs=4", "--n=48", "--check-races"],
}
# Every scenario runs in a fresh directory with relative artifact names, so
# the paths platsim echoes to stdout are the same wherever it runs.
PLATSIM_FLAGS = ["--check-invariants", "--report", "--stats-json=stats.json",
                 "--page-report=pages.json", "--topk-pages=8",
                 "--timeseries-json=ts.json", "--epoch-ms=5"]
ARTIFACTS = ["stdout.txt", "stats.json", "pages.json", "ts.json"]


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def run_bench_case(build_dir, name, env):
    workdir = fresh_dir(os.path.join(build_dir, "behaviour_gate", name))
    stdout, metrics, tables, _ = run_bench(os.path.join(build_dir, "bench", name), workdir, env)
    with open(os.path.join(workdir, "stdout.txt"), "wb") as f:
        f.write(stdout)
    entry = {key: metrics[key] for key in ("machines", "references", "sim_ns")}
    entry["stdout"] = sha256(stdout)
    entry["tables"] = {table: sha256(data) for table, data in tables.items()}
    return workdir, entry


def run_platsim_case(build_dir, env):
    platsim = os.path.abspath(os.path.join(build_dir, "examples", "platsim"))
    root = os.path.join(build_dir, "behaviour_gate", "platsim")
    entry = {}
    for scenario, args in SCENARIOS.items():
        workdir = fresh_dir(os.path.join(root, scenario))
        with open(os.path.join(workdir, "stdout.txt"), "wb") as out:
            proc = subprocess.run([platsim, *args, *PLATSIM_FLAGS], cwd=workdir, env=env,
                                  stdout=out, stderr=subprocess.PIPE)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            raise SystemExit(f"platsim {scenario} exited with {proc.returncode}")
        digests = {}
        for artifact in ARTIFACTS:
            with open(os.path.join(workdir, artifact), "rb") as f:
                digests[artifact] = sha256(f.read())
        entry[scenario] = digests
    return root, entry


def run_case(build_dir, case, env):
    if case == "platsim":
        return run_platsim_case(build_dir, env)
    return run_bench_case(build_dir, case, env)


def diff(golden, live, path=""):
    """Yields (field, golden value, live value) for every leaf that differs."""
    for key in sorted(set(golden) | set(live)):
        field = f"{path}/{key}" if path else key
        g, v = golden.get(key, "absent"), live.get(key, "absent")
        if isinstance(g, dict) and isinstance(v, dict):
            yield from diff(g, v, field)
        elif g != v:
            yield field, g, v


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("build_dir", metavar="BUILD_DIR")
    parser.add_argument("cases", nargs="*", metavar="CASE")
    parser.add_argument("--update", action="store_true",
                        help="rewrite bench/golden_small.json from every case of this build")
    args = parser.parse_args()

    all_cases = [*BENCHES, "platsim"]
    unknown = sorted(set(args.cases) - set(all_cases))
    if unknown:
        parser.error(f"unknown case(s) {', '.join(unknown)}; known: {', '.join(all_cases)}")
    if args.update and args.cases:
        parser.error("--update rewrites every case")
    cases = args.cases or all_cases

    # Only the gate chooses the knobs: sizes, and workers 1 to write, 4 to check.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PLATINUM_")}
    env.update(SMALL_ENV, PLATINUM_BENCH_WORKERS="1" if args.update else "4")
    with concurrent.futures.ThreadPoolExecutor(max_workers=os.cpu_count()) as pool:
        runs = dict(zip(cases, pool.map(lambda case: run_case(args.build_dir, case, env), cases)))

    if args.update:
        with open(GOLDEN, "w") as f:
            json.dump({case: entry for case, (_, entry) in runs.items()}, f, indent=2,
                      sort_keys=True)
            f.write("\n")
        print(f"behaviour_gate: wrote {GOLDEN} ({len(runs)} cases)")
        return 0

    with open(GOLDEN) as f:
        golden = json.load(f)
    failed = False
    for case, (workdir, entry) in runs.items():
        mismatches = list(diff(golden.get(case, {}), entry))
        for field, g, v in mismatches:
            print(f"behaviour_gate: {case}: {field}: golden {g} live {v}")
        if mismatches:
            print(f"behaviour_gate: {case}: live artifacts kept in {workdir}")
            failed = True
        else:
            print(f"behaviour_gate: {case}: OK")
    if failed:
        print("behaviour_gate: simulated behaviour differs from the golden file. If the "
              "change is intended, run `tools/behaviour_gate.py BUILD_DIR --update` and "
              "commit bench/golden_small.json with it.")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
