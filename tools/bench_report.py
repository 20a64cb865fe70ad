#!/usr/bin/env python3
"""Run the bench suite and write a JSON report of its metrics.

Every bench binary prints a PLATINUM_BENCH_METRICS line (bench/bench_util.h:
RunMetrics) summing simulated references and simulated time across all the
machines it built; this script adds host wall-clock and peak resident memory
per binary and derives accesses/sec. Tables written via PLATINUM_JSON_DIR are
embedded so the simulated-time series travel with the report. No gate reads
the report: tools/behaviour_gate.py checks simulated behaviour against
bench/golden_small.json, reusing BENCHES, SMALL_ENV and run_bench, and
perfbench/ measures host speed (docs/PERFORMANCE.md).

Usage:
  tools/bench_report.py --build-dir build --out build/bench_report.json [--small]

`--small` shrinks the workloads to smoke size (SMALL_ENV, the sizes the
behaviour gate runs); without it the default run-in-seconds sizes are used.
PLATINUM_FULL and PLATINUM_BENCH_WORKERS are inherited from the caller's
environment.
"""

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time

BENCHES = [
    "fig1_gauss",
    "table1_migration",
    "sec4_basic_ops",
    "fig5_mergesort",
    "fig6_neural",
    "abl_t1_sweep",
    "abl_defrost",
    "abl_policy",
    "abl_pagesize",
    "abl_patterns",
    "abl_advice",
    "abl_scalability",
    "abl_protocol",
    "fig_trie_serve",
    "abl_lease",
]

SMALL_ENV = {
    "PLATINUM_GAUSS_N": "48",
    "PLATINUM_SORT_COUNT": "4096",
    "PLATINUM_NEURAL_EPOCHS": "2",
    "PLATINUM_TRIE_OPS": "20000",
    "PLATINUM_TRIE_KEYS": "4096",
}

METRICS_RE = re.compile(r"^PLATINUM_BENCH_METRICS (\{.*\})$", re.MULTILINE)


def run_bench(binary, workdir, env):
    """Runs one bench binary inside `workdir` with PLATINUM_JSON_DIR=".".

    Its tables land in `workdir` and its stdout names them by relative path,
    so the output does not depend on where it ran. Returns (stdout bytes,
    metrics, tables, host); tables maps each table's name to the bytes the
    bench wrote, and host holds the host-side figures: wall-clock seconds and
    the child's peak resident set in MB (ru_maxrss from wait4).
    """
    start = time.monotonic()
    proc = subprocess.Popen(
        [os.path.abspath(binary)],
        cwd=workdir,
        env=dict(env, PLATINUM_JSON_DIR="."),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    with proc.stdout:
        stdout = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    host_seconds = time.monotonic() - start
    # wait4 reaped the child; recording its status keeps Popen from waiting.
    proc.returncode = os.waitstatus_to_exitcode(status)
    text = stdout.decode(errors="replace")
    if proc.returncode != 0:
        sys.stderr.write(text)
        raise SystemExit(f"{binary} exited with {proc.returncode}")
    matches = METRICS_RE.findall(text)
    if not matches:
        raise SystemExit(f"{binary} printed no PLATINUM_BENCH_METRICS line")
    tables = {}
    for name in sorted(os.listdir(workdir)):
        if name.endswith(".json"):
            with open(os.path.join(workdir, name), "rb") as f:
                tables[name[: -len(".json")]] = f.read()
    host = {"host_seconds": host_seconds, "peak_rss_mb": usage.ru_maxrss / 1024}
    return stdout, json.loads(matches[-1]), tables, host


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--out", default="bench_report.json")
    parser.add_argument("--tag", default="local")
    parser.add_argument("--small", action="store_true", help="smoke-size workloads")
    parser.add_argument("--benches", nargs="*", default=BENCHES)
    args = parser.parse_args()

    env = dict(os.environ)
    if args.small:
        env.update(SMALL_ENV)

    report = {
        "schema": "platinum-bench-report-v1",
        "tag": args.tag,
        "host": {
            "machine": platform.machine(),
            "system": platform.system(),
            "cpus": os.cpu_count(),
            "workers": env.get("PLATINUM_BENCH_WORKERS", "auto"),
            "small": args.small,
            "full": env.get("PLATINUM_FULL", "0") != "0",
        },
        "benches": {},
    }

    total_host = 0.0
    total_refs = 0
    total_sim = 0.0
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.benches:
            binary = os.path.join(args.build_dir, "bench", name)
            if not os.path.exists(binary):
                raise SystemExit(f"bench binary not found: {binary} (build it first)")
            print(f"bench_report: running {name} ...", flush=True)
            workdir = os.path.join(tmp, name)
            os.mkdir(workdir)
            _, metrics, tables, host = run_bench(binary, workdir, env)
            host_seconds = host["host_seconds"]
            entry = {
                "host_seconds": round(host_seconds, 3),
                "peak_rss_mb": round(host["peak_rss_mb"], 1),
                **metrics,
            }
            if host_seconds > 0:
                entry["accesses_per_sec"] = round(metrics["references"] / host_seconds)
            if tables:
                entry["tables"] = {k: json.loads(v) for k, v in tables.items()}
            report["benches"][name] = entry
            total_host += entry["host_seconds"]
            total_refs += entry["references"]
            total_sim += entry["sim_seconds"]

    report["totals"] = {
        "host_seconds": round(total_host, 3),
        "references": total_refs,
        "sim_seconds": round(total_sim, 3),
        "accesses_per_sec": round(total_refs / total_host) if total_host > 0 else None,
    }

    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(
        f"bench_report: wrote {args.out} "
        f"({total_host:.1f}s host, {total_refs} references, "
        f"{report['totals']['accesses_per_sec']} accesses/sec)"
    )


if __name__ == "__main__":
    main()
