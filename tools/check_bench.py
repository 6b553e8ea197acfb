#!/usr/bin/env python3
"""Benchmark-regression gate over BENCH_*.json artifacts.

Compares the deterministic metrics of freshly produced bench results against
checked-in baselines (bench/baselines/*.json) and fails on any relative
deviation beyond the tolerance. Only seed-deterministic, virtual-time-domain
fields are gated (CHECK_KEYS below): virtual times, byte/message/round
counts, retry accounting, losses. Wall-clock histogram fields (\"*.p50\" etc.)
vary by machine and are deliberately ignored.

Usage:
  tools/check_bench.py --results-dir build-rel/bench \\
      --baseline-dir bench/baselines [--tolerance 0.15]
  tools/check_bench.py --results-dir ... --baseline-dir ... --update
    (rewrites the baselines from the current results instead of checking;
    a baseline keeps only each run's name and its gated fields)

Exit status: 0 = all gated metrics within tolerance, 1 = regression or
missing data, 2 = usage error.
"""

import argparse
import json
import os
import sys

# Deterministic fields gated by the tolerance check. A field listed here is
# compared whenever the baseline run contains it; anything else in the JSON
# (wall-clock percentiles, machine-specific throughput) is informational.
CHECK_KEYS = (
    "virtual_time_s",
    "bytes_worker_to_server",
    "bytes_server_to_worker",
    "messages",
    "rounds",
    "local_pull_hits",
    "local_pull_bytes",
    "retries",
    "retry_backoff_us",
    "dedup_hits",
    # Consistency controller (bench/staleness_sweep.cpp). Both are
    # seed-deterministic: the trainers' stage windows provably keep the
    # staleness gate from blocking, so these gate that the schedule stays
    # gate-clean (any nonzero wait is a planning regression).
    "staleness_waits",
    "staleness_wait_us",
    "final_loss",
    "retry_penalty",
    "sync_time_s",
    "async_time_s",
    "speedup",
    "bytes_match",
    "server_busy_skew",
    "bytes_wire",
    "bytes_logical",
    "wire_ratio",
    "keycache_hits",
    "keycache_installs",
    "keycache_misses",
    # Serving tier (bench/serving_qps.cpp). Latency percentiles here are
    # VIRTUAL-time percentiles from the serving loop's deterministic queueing
    # model — unlike the wall-clock "*.p50" histogram fields, they are
    # seed-deterministic and safe to gate.
    "offered_qps",
    "achieved_qps",
    "shed_rate",
    "requests_offered",
    "requests_served",
    "requests_shed",
    "p50_virtual_us",
    "p95_virtual_us",
    "p99_virtual_us",
    "coalesce_bytes_ratio",
    "epoch_stable",
    "loss_parity",
    # Per-key parameter management (bench/ablation_nups.cpp). All
    # virtual-time-domain and seed-deterministic: wire byte totals per leg,
    # the loopback diversion, and the tiering census.
    "pulled_bytes",
    "pushed_bytes",
    "loopback_bytes",
)


def is_gated(key):
    # "det." fields are the kernel-equivalence metrics written by
    # microbench_dcv_ops: deterministic by construction (fixed seed, fixed
    # sizes, virtual-time domain), and required to be IDENTICAL across SIMD
    # dispatch modes — CI compares a PS2_SIMD=off run against an auto run
    # with --tolerance 0 to prove the scalar and AVX2 backends equivalent.
    # "migrate." fields are the elastic-membership metrics written by
    # bench/elastic_scaleout.cpp (bytes moved, routing epochs, rebalance
    # virtual time, skew reduction): seed-deterministic outputs of the
    # migration planner, gated so resharding regressions fail the bench job.
    # "nups." fields are the per-key tiering metrics written by
    # bench/ablation_nups.cpp (pull-reduction ratios, relocation bytes, the
    # replicated/relocated/cold census): deterministic classifier outputs,
    # gated so a tiering regression fails the bench job.
    return key in CHECK_KEYS or key.startswith(("det.", "migrate.", "nups."))


def gated_only(doc):
    """The baseline form of a results document: every run keeps its name and
    the fields is_gated() selects. Wall-clock histograms, percentiles and
    per-server detail are machine- or run-specific and never compared."""
    runs = [
        {k: v for k, v in run.items() if k == "name" or is_gated(k)}
        for run in doc.get("runs", [])
    ]
    return dict(doc, runs=runs)


def load_runs(path):
    """Returns {run_name: {field: value}} from one BENCH_*.json."""
    with open(path) as f:
        doc = json.load(f)
    runs = {}
    for run in doc.get("runs", []):
        fields = {k: v for k, v in run.items() if k != "name"}
        runs[run["name"]] = fields
    return doc.get("bench", os.path.basename(path)), runs


def compare(bench, baseline_runs, result_runs, tolerance, rows):
    """Returns a list of failure strings (empty = pass). Appends one
    (field, baseline, observed, delta, verdict) row per gated metric to
    `rows` for the step-summary table."""
    failures = []
    for run_name, base_fields in baseline_runs.items():
        if run_name not in result_runs:
            failures.append(f"{bench}/{run_name}: run missing from results")
            rows.append((f"{bench}/{run_name}", "-", "missing", "-", "FAIL"))
            continue
        got_fields = result_runs[run_name]
        for key, base in base_fields.items():
            if not is_gated(key):
                continue
            if base is None:
                continue  # null in baseline: value was non-finite, skip
            field = f"{bench}/{run_name}/{key}"
            if key not in got_fields:
                failures.append(f"{field}: missing from results")
                rows.append((field, f"{base:g}", "missing", "-", "FAIL"))
                continue
            got = got_fields[key]
            if got is None:
                failures.append(f"{field}: non-finite result")
                rows.append((field, f"{base:g}", "non-finite", "-", "FAIL"))
                continue
            denom = abs(base) if base != 0 else 1.0
            rel = abs(got - base) / denom
            verdict = "OK" if rel <= tolerance else "FAIL"
            rows.append((field, f"{base:g}", f"{got:g}", f"{rel * 100:+.1f}%",
                         verdict))
            if verdict == "FAIL":
                failures.append(
                    f"{field}: baseline {base:g} vs "
                    f"result {got:g} ({rel * 100:.1f}% off, "
                    f"tolerance {tolerance * 100:.0f}%)"
                )
    return failures


def write_step_summary(rows, tolerance, failures):
    """Emits the gate table to $GITHUB_STEP_SUMMARY (no-op outside CI)."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path or not rows:
        return
    verdict = "FAIL" if failures else "PASS"
    failed = sum(1 for r in rows if r[4] != "OK")
    with open(path, "a") as f:
        f.write(f"### Bench regression gate: {verdict} "
                f"({len(rows)} gated metrics, {failed} failing, "
                f"tolerance ±{tolerance * 100:.0f}%)\n\n")
        f.write("| field | baseline | observed | delta | gate |\n")
        f.write("|---|---:|---:|---:|---|\n")
        # Failures first so they are visible without expanding anything.
        for row in sorted(rows, key=lambda r: r[4] == "OK"):
            mark = ":white_check_mark:" if row[4] == "OK" else ":x:"
            f.write(f"| `{row[0]}` | {row[1]} | {row[2]} | {row[3]} "
                    f"| {mark} {row[4]} |\n")
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir", default="bench/baselines")
    parser.add_argument("--results-dir", default=".")
    parser.add_argument("--tolerance", type=float, default=0.15)
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite baselines from the current results instead of checking",
    )
    args = parser.parse_args()

    baselines = sorted(
        f for f in os.listdir(args.baseline_dir)
        if f.startswith("BENCH_") and f.endswith(".json")
    ) if os.path.isdir(args.baseline_dir) else []

    if args.update:
        os.makedirs(args.baseline_dir, exist_ok=True)
        results = sorted(
            f for f in os.listdir(args.results_dir)
            if f.startswith("BENCH_") and f.endswith(".json")
        )
        if not results:
            print(f"check_bench: no BENCH_*.json in {args.results_dir}")
            return 2
        for name in results:
            src = os.path.join(args.results_dir, name)
            dst = os.path.join(args.baseline_dir, name)
            with open(src) as f:
                doc = json.load(f)  # validate before installing
            with open(dst, "w") as f:
                json.dump(gated_only(doc), f, indent=2, sort_keys=True)
                f.write("\n")
            print(f"check_bench: installed baseline {dst}")
        return 0

    if not baselines:
        print(f"check_bench: no baselines in {args.baseline_dir}", file=sys.stderr)
        return 1

    failures = []
    rows = []
    checked = 0
    for name in baselines:
        bench, baseline_runs = load_runs(os.path.join(args.baseline_dir, name))
        result_path = os.path.join(args.results_dir, name)
        if not os.path.exists(result_path):
            failures.append(f"{bench}: {name} missing from {args.results_dir}")
            rows.append((f"{bench}", "-", "file missing", "-", "FAIL"))
            continue
        _, result_runs = load_runs(result_path)
        failures.extend(
            compare(bench, baseline_runs, result_runs, args.tolerance, rows))
        gated = sum(
            1
            for fields in baseline_runs.values()
            for k, v in fields.items()
            if is_gated(k) and v is not None
        )
        checked += gated
        print(f"check_bench: {bench}: {len(baseline_runs)} runs, {gated} gated metrics")

    write_step_summary(rows, args.tolerance, failures)
    if failures:
        print(f"\ncheck_bench: FAIL — {len(failures)} regression(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"check_bench: PASS — {checked} metrics within "
          f"±{args.tolerance * 100:.0f}% of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
