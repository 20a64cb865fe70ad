#!/usr/bin/env python3
"""Compare two platinum-bench-report-v1 documents and gate on regressions.

Usage:
    bench_compare.py BASELINE.json CANDIDATE.json [--max-regression FRAC]
                     [--allow-new BENCH ...]
    bench_compare.py --selftest

The gate enforces two properties, mirroring docs/PERFORMANCE.md:

  * throughput: candidate accesses_per_sec (totals and per-bench, for every
    bench that reports it in both files) must be at least
    baseline * (1 - max_regression). Host throughput is noisy, so the
    threshold is a fraction, not equality.
  * simulated behaviour: sim_seconds and references must match EXACTLY
    (totals and per-bench). The simulator is deterministic; any drift means
    simulated behavior changed, which is a different bug than a slow host.

A degenerate comparison is a failure, not a silent pass: a bench present in
only one report, a metric reported on only one side of a shared bench, or a
non-positive accesses_per_sec all fail the gate — each of those means the
reports do not actually cover each other. The one sanctioned asymmetry is
--allow-new: a bench named there may appear only in the candidate (a PR that
adds a bench still gates every pre-existing bench), or may appear in the
baseline without numbers (a PR that starts metering it). Such a bench is not
compared, and its contribution is subtracted from both sides' totals before
the totals are compared, so the exact properties keep holding over the
benches both reports meter.

The two reports must describe the same configuration (host.small/host.full);
comparing a small run against a full run is a usage error (exit 2), as are
an unreadable file, malformed JSON, and an unknown schema.

Exit codes: 0 ok, 1 regression or sim mismatch, 2 usage/config error.

--selftest verifies the gate actually fires: a synthetic 2x throughput
regression and a synthetic sim_seconds drift must both fail, an identical
pair must pass, and each degenerate-input case above must be rejected.
"""

import argparse
import copy
import json
import os
import sys
import tempfile

DEFAULT_MAX_REGRESSION = 0.10


def die(msg):
    print(msg, file=sys.stderr)
    raise SystemExit(2)


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        die(f"error: cannot read {path}: {e.strerror}")
    except json.JSONDecodeError as e:
        die(f"error: {path} is not valid JSON: {e}")
    if not isinstance(doc, dict) or doc.get("schema") != "platinum-bench-report-v1":
        die(f"error: {path} is not a platinum-bench-report-v1 document")
    return doc


def totals_without(doc, names):
    """The report's totals with the named benches' contributions removed.

    Sums (sim_seconds, references, host_seconds) are subtracted directly;
    accesses_per_sec is re-derived from the adjusted sums. Rounding mirrors
    bench_report.py so an unchanged shared bench set reproduces the baseline
    totals bit-for-bit.
    """
    totals = dict(doc.get("totals", {}))
    benches = doc.get("benches", {})
    removed = [benches[n] for n in names if n in benches]
    if not removed:
        return totals
    for entry in removed:
        if "sim_seconds" in totals and "sim_seconds" in entry:
            totals["sim_seconds"] = round(totals["sim_seconds"] - entry["sim_seconds"], 3)
        if "references" in totals and "references" in entry:
            totals["references"] -= entry["references"]
        if "host_seconds" in totals and "host_seconds" in entry:
            totals["host_seconds"] = round(totals["host_seconds"] - entry["host_seconds"], 3)
    if "accesses_per_sec" in totals:
        host = totals.get("host_seconds", 0)
        refs = totals.get("references", 0)
        totals["accesses_per_sec"] = round(refs / host) if host > 0 else None
    return totals


def compare(base, cand, max_regression, allow_new=frozenset()):
    """Returns a list of human-readable failure strings (empty = pass)."""
    failures = []
    floor = 1.0 - max_regression

    def check_throughput(label, b, c):
        if not isinstance(b, (int, float)) or not isinstance(c, (int, float)) \
                or b <= 0 or c <= 0:
            failures.append(
                f"{label}: non-positive or non-numeric accesses_per_sec "
                f"({b!r} -> {c!r}); the report is malformed"
            )
            return
        if c < b * floor:
            failures.append(
                f"{label}: accesses_per_sec regressed {b:.0f} -> {c:.0f} "
                f"({c / b - 1.0:+.1%}, allowed {-max_regression:.0%})"
            )

    def check_exact(label, b, c, key):
        if b != c:
            failures.append(f"{label}: {key} changed {b!r} -> {c!r} (must match exactly)")

    def check_pair(label, b, c):
        for key in ("accesses_per_sec", "sim_seconds", "references"):
            if (key in b) != (key in c):
                side = "baseline" if key in b else "candidate"
                failures.append(f"{label}: {key} reported only by the {side}")
            elif key == "accesses_per_sec" and key in b:
                check_throughput(label, b[key], c[key])
            elif key in b:
                check_exact(label, b[key], c[key], key)

    base_benches = base.get("benches", {})
    base_names = set(base_benches)
    cand_names = set(cand.get("benches", {}))
    # An --allow-new name is excused only if it is new or the baseline ran it
    # without numbers; a bench metered in both reports is compared normally.
    unmetered = {n for n in base_names & cand_names if "sim_seconds" not in base_benches[n]}
    excused = set(allow_new) & ((cand_names - base_names) | unmetered)
    check_pair("totals", totals_without(base, excused), totals_without(cand, excused))

    for name in sorted(base_names - cand_names):
        failures.append(f"{name}: present only in the baseline (bench disappeared)")
    for name in sorted(cand_names - base_names - excused):
        failures.append(f"{name}: present only in the candidate (no baseline to compare)")
    for name in sorted((base_names & cand_names) - excused):
        check_pair(name, base_benches[name], cand["benches"][name])
    return failures


def config_mismatch(base, cand):
    bh, ch = base.get("host", {}), cand.get("host", {})
    for key in ("small", "full"):
        if bh.get(key) != ch.get(key):
            return f"host.{key} differs ({bh.get(key)!r} vs {ch.get(key)!r})"
    return None


def expect_load_rejects(path, why):
    try:
        load(path)
    except SystemExit as e:
        if e.code == 2:
            return True
        print(f"selftest FAILED: {why} exited {e.code}, not 2")
        return False
    print(f"selftest FAILED: {why} was accepted")
    return False


def selftest():
    base = {
        "schema": "platinum-bench-report-v1",
        "host": {"small": False, "full": False},
        "benches": {
            "abl_policy": {"accesses_per_sec": 4.0e6, "sim_seconds": 10.0},
            "lat_faults": {"host_seconds": 0.5},
        },
        "totals": {"accesses_per_sec": 4.0e6, "sim_seconds": 10.0},
    }

    identical = copy.deepcopy(base)
    if compare(base, identical, DEFAULT_MAX_REGRESSION):
        print("selftest FAILED: identical reports did not pass")
        return 1

    slow = copy.deepcopy(base)
    slow["totals"]["accesses_per_sec"] *= 0.5
    slow["benches"]["abl_policy"]["accesses_per_sec"] *= 0.5
    failures = compare(base, slow, DEFAULT_MAX_REGRESSION)
    if len(failures) != 2:
        print(f"selftest FAILED: 2x throughput regression not caught ({failures})")
        return 1

    drift = copy.deepcopy(base)
    drift["totals"]["sim_seconds"] += 1e-6
    failures = compare(base, drift, DEFAULT_MAX_REGRESSION)
    if not any("sim_seconds" in f for f in failures):
        print(f"selftest FAILED: sim_seconds drift not caught ({failures})")
        return 1

    borderline = copy.deepcopy(base)
    borderline["totals"]["accesses_per_sec"] *= 0.95
    if compare(base, borderline, DEFAULT_MAX_REGRESSION):
        print("selftest FAILED: -5% flagged at a 10% threshold")
        return 1

    dropped = copy.deepcopy(base)
    del dropped["benches"]["lat_faults"]
    if not any("only in the baseline" in f
               for f in compare(base, dropped, DEFAULT_MAX_REGRESSION)):
        print("selftest FAILED: disappeared bench not caught")
        return 1
    if not any("only in the candidate" in f
               for f in compare(dropped, base, DEFAULT_MAX_REGRESSION)):
        print("selftest FAILED: baseline-less bench not caught")
        return 1

    # --allow-new: an added bench passes when sanctioned (totals re-derived
    # over the shared set), still fails when it is not.
    grown = copy.deepcopy(base)
    grown["benches"]["abl_new"] = {
        "accesses_per_sec": 1.0e6,
        "sim_seconds": 3.0,
        "references": 3_000_000,
        "host_seconds": 3.0,
    }
    grown["totals"] = {
        "accesses_per_sec": 1.0e6,  # recomputed below from the new sums
        "sim_seconds": round(base["totals"]["sim_seconds"] + 3.0, 3),
    }
    base["totals"]["references"] = 12_000_000
    base["totals"]["host_seconds"] = 3.0
    grown["totals"]["references"] = 15_000_000
    grown["totals"]["host_seconds"] = 6.0
    base["totals"]["accesses_per_sec"] = round(12_000_000 / 3.0)
    grown["totals"]["accesses_per_sec"] = round(15_000_000 / 6.0)
    if compare(base, grown, DEFAULT_MAX_REGRESSION, allow_new={"abl_new"}):
        print(
            f"selftest FAILED: sanctioned new bench rejected "
            f"({compare(base, grown, DEFAULT_MAX_REGRESSION, allow_new={'abl_new'})})"
        )
        return 1
    if not any("only in the candidate" in f
               for f in compare(base, grown, DEFAULT_MAX_REGRESSION)):
        print("selftest FAILED: unsanctioned new bench accepted")
        return 1

    # --allow-new also excuses a bench the baseline ran without numbers: its
    # host time leaves the baseline's totals, its numbers the candidate's.
    metered = copy.deepcopy(base)
    metered["benches"]["lat_faults"] = {
        "host_seconds": 0.5,
        "accesses_per_sec": 2.0e6,
        "sim_seconds": 1.0,
        "references": 1_000_000,
    }
    base["totals"]["host_seconds"] += 0.5
    base["totals"]["accesses_per_sec"] = round(12_000_000 / 3.5)
    metered["totals"] = {
        "host_seconds": 3.5,
        "references": 13_000_000,
        "sim_seconds": round(base["totals"]["sim_seconds"] + 1.0, 3),
        "accesses_per_sec": round(13_000_000 / 3.5),
    }
    if compare(base, metered, DEFAULT_MAX_REGRESSION, allow_new={"lat_faults"}):
        print(
            f"selftest FAILED: newly metered bench rejected "
            f"({compare(base, metered, DEFAULT_MAX_REGRESSION, allow_new={'lat_faults'})})"
        )
        return 1
    if not any("reported only by the candidate" in f
               for f in compare(base, metered, DEFAULT_MAX_REGRESSION)):
        print("selftest FAILED: unsanctioned newly metered bench accepted")
        return 1
    del base["totals"]["references"]
    del base["totals"]["host_seconds"]
    base["totals"]["accesses_per_sec"] = 4.0e6

    silent = copy.deepcopy(base)
    del silent["benches"]["abl_policy"]["accesses_per_sec"]
    if not any("reported only by the baseline" in f
               for f in compare(base, silent, DEFAULT_MAX_REGRESSION)):
        print("selftest FAILED: vanished accesses_per_sec not caught")
        return 1

    zero = copy.deepcopy(base)
    zero["benches"]["abl_policy"]["accesses_per_sec"] = 0.0
    if not any("non-positive" in f
               for f in compare(base, zero, DEFAULT_MAX_REGRESSION)):
        print("selftest FAILED: zero accesses_per_sec not caught")
        return 1
    if not any("non-positive" in f
               for f in compare(zero, base, DEFAULT_MAX_REGRESSION)):
        print("selftest FAILED: zero baseline accesses_per_sec not caught")
        return 1

    # Unreadable / malformed / mis-schema'd inputs must die with exit 2 (the
    # stderr lines below are the rejections under test, not real errors).
    with tempfile.TemporaryDirectory() as tmp:
        malformed = os.path.join(tmp, "malformed.json")
        with open(malformed, "w") as f:
            f.write("{not json")
        wrong = os.path.join(tmp, "wrong_schema.json")
        with open(wrong, "w") as f:
            json.dump({"schema": "not-a-bench-report"}, f)
        for path, why in ((malformed, "malformed JSON"),
                          (wrong, "unknown schema"),
                          (os.path.join(tmp, "absent.json"), "missing file")):
            if not expect_load_rejects(path, why):
                return 1

    print("selftest OK: gate fires on injected regression, sim drift, and "
          "degenerate reports")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", nargs="?", help="baseline BENCH_PR*.json")
    parser.add_argument("candidate", nargs="?", help="candidate BENCH_PR*.json")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=DEFAULT_MAX_REGRESSION,
        help="allowed fractional accesses_per_sec drop (default %(default)s)",
    )
    parser.add_argument(
        "--allow-new",
        nargs="*",
        default=[],
        metavar="BENCH",
        help="benches allowed to exist only in the candidate (their totals "
             "contribution is subtracted before comparing)",
    )
    parser.add_argument("--selftest", action="store_true", help="verify the gate fires")
    args = parser.parse_args()

    if args.selftest:
        return selftest()
    if not args.baseline or not args.candidate:
        parser.print_usage(sys.stderr)
        return 2

    base, cand = load(args.baseline), load(args.candidate)
    mismatch = config_mismatch(base, cand)
    if mismatch:
        print(f"error: reports are not comparable: {mismatch}", file=sys.stderr)
        return 2

    failures = compare(base, cand, args.max_regression, frozenset(args.allow_new))
    if failures:
        print(f"bench_compare: {args.candidate} vs {args.baseline}: FAIL")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"bench_compare: {args.candidate} vs {args.baseline}: OK "
          f"(threshold {args.max_regression:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
