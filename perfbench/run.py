#!/usr/bin/env python3
"""Benchmark entry point: builds the driver, runs one workload, reports.

    python3 perfbench/run.py --workload lr-wide|w2v-reloc|serve-mixed \\
        --seed N --seconds S --trace 0|1

Builds perfbench/ (the ps2 library from src/ plus the ps2perf driver) into
.bench_build/ at the repo root, runs the workload for S wall seconds, checks
its outputs, prints a readable summary and, as the last line, one JSON object
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones; with --trace 1 the per-layer ones, which need one more
rep with the span tracer on. See perfbench/README.md for what each workload
and metric is.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import analysis  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("lr-wide", "w2v-reloc", "serve-mixed")
# Wall limit of one driver process; a run must end well inside three minutes.
RUN_TIMEOUT_S = 170

# Throughput is read on two clocks: per wall second with the hypervisor's
# steal taken out, and per CPU second of all threads. On a shared VM the wall
# clock stretches several-fold while the host takes the vCPUs away and the
# CPU clock does not; but the CPU clock sees no waiting, so a change that
# trades parallelism for CPU moves only the wall reading. Step and set-up
# times use the CPU clock alone: the steal counter ticks every 10 ms, too
# coarse to correct a 40 ms step or an 8 ms set-up. The raw wall readings
# are per-layer metrics (wall.*).
END_TO_END = (
    ("samples_per_s", "1/s"),
    ("samples_per_cpu_s", "1/s"),
    ("step_cpu_ms.p50", "ms"),
    ("virtual_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Opcodes the three workloads send; each gets ps.server.<op>.n and .ms.
SERVER_OPS = ("pull_sparse", "push_sparse", "zip", "column_op",
              "pull_rows_batch", "push_rows_batch", "range_extract",
              "range_migrate", "routing_update", "serving_pull")
DCV_OPS = ("pull_sparse", "add", "zip")
# (metric, driver series, percentile): serving wall times of the first rep.
SERVING_PERCENTILES = (
    ("serving.batch_us.p50", "serving.batch_us", 50),
    ("serving.batch_us.p99", "serving.batch_us", 99),
    ("serving.publish_ms.p50", "serving.publish_ms", 50),
    ("serving.write_ms", "serving.write_ms", 50),
)

PER_LAYER = (
    [("wall.samples_per_s", "1/s"), ("wall.step_ms.p50", "ms"),
     ("wall.step_ms.p90", "ms"), ("wall.setup_s", "s"),
     ("step_cpu_ms.p90", "ms"),
     ("final_loss", "loss"), ("time_to_loss_vs", "s"),
     ("error_rate", "ratio"), ("serve_p50_vus", "us"),
     ("serve_p999_vus", "us"), ("serve_max_qps", "1/s"),
     ("data.gen_s", "s"),
     ("dataflow.stages", "count"), ("dataflow.tasks", "count"),
     ("dataflow.idle_share", "ratio"),
     ("ml.worker_self_ms", "ms")]
    + [(f"dcv.{op}.{k}", u) for op in DCV_OPS
       for k, u in (("n", "count"), ("self_ms", "ms"))]
    + [("ps.client.exchanges", "count"), ("ps.client.self_ms", "ms"),
       ("ps.client.async_wait_ms", "ms")]
    + [(f"ps.server.{op}.{k}", u) for op in SERVER_OPS
       for k, u in (("n", "count"), ("ms", "ms"))]
    + [("ps.server.busy_skew", "ratio"),
       ("net.bytes_wire", "bytes"), ("net.bytes_logical", "bytes"),
       ("net.wire_ratio", "ratio"), ("net.messages", "count"),
       ("net.rounds", "count"), ("net.loopback_bytes", "bytes"),
       ("ps.keycache_hits", "count"), ("ps.keycache_misses", "count"),
       ("net.retries", "count"),
       ("vt.worker_bound_s", "s"), ("vt.server_bound_s", "s"),
       ("vt.dispatch_s", "s"), ("vt.retry_penalty_s", "s"),
       ("vt.stage_s", "s"), ("vt.out_of_task_s", "s"),
       ("nups.relocated", "count"), ("migrate.migrations", "count"),
       ("migrate.moves", "count"), ("migrate.bytes", "bytes"),
       ("net.routing_refetches", "count"),
       ("serving.batch_us.p50", "us"), ("serving.batch_us.p99", "us"),
       ("serving.publish_ms.p50", "ms"), ("serving.write_ms", "ms"),
       ("serving.snapshot_bytes_copied", "bytes"),
       ("serving.coalesce_ratio", "ratio"), ("serving.epoch_repins", "count"),
       ("trace.overhead", "ratio"), ("trace.spans", "count"),
       ("trace.dropped", "count")]
    + [(f"share.{layer}", "ratio") for layer in analysis.LAYERS]
)

def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    # CARGO_TARGET_DIR, when set, names the build directory (relative paths
    # are taken from the repo root); the default is .bench_build there.
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build(out_dir):
    """Configures (once) and builds the driver; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("perfbench: no src/ next to perfbench/; run it from "
                         "a checkout of the repo")
    if not (out_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out_dir), "-j",
                    str(os.cpu_count() or 2), "--target", "ps2perf"],
                   check=True, stdout=sys.stderr)
    return out_dir / "ps2perf"


def run_driver(binary, args, trace_file):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-file", str(trace_file)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                          check=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def samples_per_s(reps, clock=""):
    """Median over reps of each rep's work per second of the wall clock, or
    of the CPU clock (clock="_cpu") or the wall clock less steal
    (clock="_unstolen"): one slowed rep barely moves it."""
    return analysis.median([r["samples"] / r["run_s" + clock] for r in reps])


def reported(values, p, what, notes):
    """The p-th percentile of values, or 0 with a note when the percentile
    rule forbids it."""
    value, n = analysis.percentile(values, p)
    if value is None:
        notes.append(f"{what} not reported: {n} samples leave fewer than "
                     f"{analysis.MIN_SAMPLES_BEYOND} beyond p{p:g} (reads 0)")
        return 0.0
    return value


def step_percentile(untraced, clock, p, notes):
    steps = [s for r in untraced for s in r["step_ms" + clock]]
    value, n = analysis.percentile(steps, p)
    if value is None and p == 50:
        value = analysis.median(steps)
        notes.append(f"step p50 is the plain median of only {n} steps")
    elif value is None:
        notes.append(f"step p{p:g} not reported: {n} steps leave fewer than "
                     f"{analysis.MIN_SAMPLES_BEYOND} beyond it (reads 0)")
    return value or 0.0


def setup_median(raw, untraced, clock):
    return analysis.median([r["setup_s" + clock] for r in untraced]
                           + raw["extra_setup_s" + clock])


def end_to_end(raw, untraced, notes):
    return {
        "samples_per_s": samples_per_s(untraced, "_unstolen"),
        "samples_per_cpu_s": samples_per_s(untraced, "_cpu"),
        "step_cpu_ms.p50": step_percentile(untraced, "_cpu", 50, notes),
        "virtual_s": analysis.median([r["values"]["virtual_s"]
                                      for r in untraced]),
        "setup_s": setup_median(raw, untraced, "_cpu"),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(raw, untraced, traced, spans, notes):
    # Counters and virtual metrics repeat across reps: take the first
    # untraced rep's, plus the run-level ones (the serving ladder). The
    # driver writes a non-finite value (a diverged loss, a target never
    # reached) as null; it reads 0 here and fails the run's checks.
    m = {name: 0.0 for name, _ in PER_LAYER}
    for values in (untraced[0]["values"], raw["values"]):
        m.update((k, v) for k, v in values.items()
                 if k in m and v is not None)
    m["error_rate"] = raw["failed"] / max(1, raw["attempted"])
    m["wall.samples_per_s"] = samples_per_s(untraced)
    m["wall.step_ms.p50"] = step_percentile(untraced, "", 50, notes)
    m["wall.step_ms.p90"] = step_percentile(untraced, "", 90, notes)
    m["wall.setup_s"] = setup_median(raw, untraced, "")
    m["step_cpu_ms.p90"] = step_percentile(untraced, "_cpu", 90, [])
    for name, series, p in SERVING_PERCENTILES:
        if raw["series"].get(series):
            m[name] = reported(raw["series"][series], p, name, notes)
    lat = raw["latencies_us"]
    if lat:
        m["serve_p50_vus"] = reported(lat, 50, "serve_p50_vus", notes)
        m["serve_p999_vus"] = reported(lat, 99.9, "serve_p999_vus", notes)
    if m["net.bytes_wire"] > 0:
        m["net.wire_ratio"] = m["net.bytes_logical"] / m["net.bytes_wire"]

    analysis.assign_self_time(spans)
    b = analysis.layer_breakdown(spans)
    for layer, share in b["shares"].items():
        m[f"share.{layer}"] = share
    m["ml.worker_self_ms"] = b["self_ms"]["ml"]
    if b["stage_ms"] > 0:
        threads = raw["env"]["pool_threads"]
        m["dataflow.idle_share"] = 1.0 - b["task_ms"] / (b["stage_ms"] * threads)
    for op in DCV_OPS:
        n, _, self_ms = b["by_op"].get(("dcv", op), (0, 0.0, 0.0))
        m[f"dcv.{op}.n"], m[f"dcv.{op}.self_ms"] = n, self_ms
    client = [(k, v) for k, v in b["by_op"].items() if k[0] == "ps.client"]
    m["ps.client.exchanges"] = sum(v[0] for k, v in client
                                   if k[1] != "exchange_all")
    m["ps.client.self_ms"] = b["self_ms"]["ps.client"]
    m["ps.client.async_wait_ms"] = b["async_wait_ms"]
    for op in SERVER_OPS:
        n, total_ms, _ = b["by_op"].get(("ps.server", op), (0, 0.0, 0.0))
        m[f"ps.server.{op}.n"], m[f"ps.server.{op}.ms"] = n, total_ms
    unlisted = sorted(k[1] for k in b["by_op"]
                      if k[0] == "ps.server" and k[1] not in SERVER_OPS)
    if unlisted:
        notes.append("server opcodes without a metric: " + ", ".join(unlisted))
    m["trace.overhead"] = (samples_per_s(untraced, "_cpu")
                           / samples_per_s(traced, "_cpu") - 1.0)
    m["trace.spans"] = len(spans)
    m["trace.dropped"] = raw["trace_dropped"]
    return m, b


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (subprocess.CalledProcessError, FileNotFoundError) as e:
        log(f"perfbench: build failed: {e}")
        return 1

    trace_file = out_dir / f"trace-{args.workload}-{args.seed}-{os.getpid()}.json"
    started = time.monotonic()
    try:
        raw = run_driver(binary, args, trace_file)
        spans = []
        if args.trace:
            with open(trace_file) as f:
                spans = analysis.spans_from_trace(json.load(f)["traceEvents"])
    except (subprocess.SubprocessError, OSError, ValueError, KeyError,
            IndexError) as e:
        log(f"perfbench: {args.workload} run failed: {e}")
        return 1
    finally:
        if trace_file.exists():
            trace_file.unlink()

    untraced = [r for r in raw["reps"] if not r["traced"]]
    traced = [r for r in raw["reps"] if r["traced"]]
    env = raw["env"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"env: nproc={env['nproc']} pool_threads={env['pool_threads']} "
          f"build={env['build_type']} kernels={env['kernels']} "
          f"input_digest={raw['input_digest']}")
    failed_checks = sorted(k for k, ok in raw["checks"].items() if not ok)
    print(f"checks: {len(raw['checks']) - len(failed_checks)}/"
          f"{len(raw['checks'])} passed"
          + (f" (FAILED: {', '.join(failed_checks)})" if failed_checks else ""))
    wall = sum(r["run_s"] for r in untraced) / len(untraced)
    cpu = sum(r["run_s_cpu"] for r in untraced) / len(untraced)
    unstolen = sum(r["run_s_unstolen"] for r in untraced) / len(untraced)
    print(f"untraced wall {wall:.3f} s/rep ({unstolen:.3f} s not stolen, "
          f"{cpu:.3f} CPU s) over {len(untraced)} reps "
          f"({time.monotonic() - started:.1f} s in the driver)")

    notes = []
    steps = [s for r in untraced for s in r["step_ms"]]
    for what, n in (("step_ms", len(steps)),
                    ("serve latencies", len(raw["latencies_us"])),
                    ("serving batches",
                     len(raw["series"].get("serving.batch_us", [])))):
        if n:
            p = analysis.highest_reportable(n)
            notes.append(f"{what}: n={n}, highest reportable percentile "
                         + (f"p{p:g}" if p else "none"))
    if args.trace:
        metrics, b = per_layer(raw, untraced, traced, spans, notes)
        units = dict(PER_LAYER)
        shares = " | ".join(f"{k} {100 * v:.1f}%"
                            for k, v in sorted(b["shares"].items(),
                                               key=lambda kv: -kv[1]))
        print(f"layer self-time shares beside untraced wall {wall:.3f} s: "
              f"{shares}")
    else:
        metrics = end_to_end(raw, untraced, notes)
        units = dict(END_TO_END)
    for note in notes:
        print(f"note: {note}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:.6g} {units[name]}")

    correct = not failed_checks and raw["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
