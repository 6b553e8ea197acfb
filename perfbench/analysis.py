"""Pure helpers of the benchmark: the percentile rule and span self time.

Kept free of I/O and of the build so tests/test_bench.py can check them on
synthetic inputs. Every reported percentile is computed here.
"""

import math
from collections import defaultdict

# A percentile is reported only when at least this many samples lie beyond
# it; with fewer, one outlier decides the value.
MIN_SAMPLES_BEYOND = 10
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)


def nearest_rank(sorted_values, p):
    """Smallest sample with at least p% of the sample at or below it.

    The serve_max_qps probes inside the driver use the same rule
    (NearestRank in src/ladder.h), including the epsilon that keeps p99.9 of
    1000 samples at rank 999.
    """
    if not sorted_values:
        raise ValueError("empty sample")
    rank = math.ceil(p / 100.0 * len(sorted_values) - 1e-9)
    index = min(max(rank, 1), len(sorted_values)) - 1
    return sorted_values[index]


def reportable(n, p):
    """True when a sample of n values has MIN_SAMPLES_BEYOND beyond p."""
    return n * (100.0 - p) / 100.0 >= MIN_SAMPLES_BEYOND - 1e-9


def highest_reportable(n):
    """Highest percentile of PERCENTILE_LADDER the rule allows for n samples,
    or None."""
    allowed = [p for p in PERCENTILE_LADDER if reportable(n, p)]
    return allowed[-1] if allowed else None


def percentile(values, p):
    """(value, n) of the p-th percentile, or (None, n) when the rule forbids
    reporting it."""
    n = len(values)
    if n == 0 or not reportable(n, p):
        return None, n
    return nearest_rank(sorted(values), p), n


def median(values):
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("empty sample")
    mid = n // 2
    return s[mid] if n % 2 else (s[mid - 1] + s[mid]) / 2.0


class Span:
    __slots__ = ("tid", "depth", "cat", "name", "begin", "dur", "child")

    def __init__(self, tid, depth, cat, name, begin, dur):
        self.tid = tid
        self.depth = depth
        self.cat = cat
        self.name = name
        self.begin = begin
        self.dur = dur
        self.child = 0.0

    @property
    def self_time(self):
        return self.dur - self.child


def spans_from_trace(events):
    """Spans from the "traceEvents" of obs::Tracer::WriteChromeTrace."""
    return [Span(e["tid"], e["args"]["depth"], e["cat"], e["name"], e["ts"],
                 e["dur"]) for e in events]


def assign_self_time(spans):
    """Charges each span's duration to its parent: the nearest enclosing span
    one level up on the same thread. Spans of depth 0 were recorded across
    threads (async completions) and nest in nothing. Sets span.child."""
    by_tid = defaultdict(list)
    for s in spans:
        s.child = 0.0
        if s.depth >= 1:
            by_tid[s.tid].append(s)
    for thread_spans in by_tid.values():
        # Parents open no later than their children; on a tie the outer
        # (shallower) span comes first.
        thread_spans.sort(key=lambda s: (s.begin, s.depth))
        stack = []
        for s in thread_spans:
            while stack and stack[-1].depth >= s.depth:
                stack.pop()
            if stack:
                stack[-1].child += s.dur
            stack.append(s)
    return spans


def layer_of(span):
    """Layer a span's self time belongs to."""
    if span.cat == "dataflow":
        # A task span's self time is the worker's own compute: the ml layer.
        return "ml" if span.name.startswith("task:") else "dataflow"
    if span.cat == "perfbench":
        # The root span's self time is coordinator work outside any library
        # span; the benchmark's spans around serving calls are the frontend.
        return "coordinator" if span.name == "measured" else "serving"
    return span.cat


LAYERS = ("dataflow", "ml", "dcv", "ps.client", "ps.server", "serving",
          "coordinator")


def layer_breakdown(spans):
    """Per-layer self time (ms), span counts by (cat, name), and derived
    totals. Expects assign_self_time to have run."""
    self_ms = {layer: 0.0 for layer in LAYERS}
    by_op = defaultdict(lambda: [0, 0.0, 0.0])  # n, total ms, self ms
    async_wait_ms = 0.0
    task_ms = stage_ms = 0.0
    for s in spans:
        if s.depth == 0:
            if s.cat == "ps.client.async":
                async_wait_ms += s.dur / 1e3
            continue
        layer = layer_of(s)
        self_ms[layer] = self_ms.get(layer, 0.0) + s.self_time / 1e3
        entry = by_op[(s.cat, s.name)]
        entry[0] += 1
        entry[1] += s.dur / 1e3
        entry[2] += s.self_time / 1e3
        if s.cat == "dataflow":
            if s.name.startswith("task:"):
                task_ms += s.dur / 1e3
            else:
                stage_ms += s.dur / 1e3
    total = sum(self_ms.values())
    shares = {k: (v / total if total > 0 else 0.0) for k, v in self_ms.items()}
    return {
        "self_ms": self_ms,
        "shares": shares,
        "by_op": dict(by_op),
        "async_wait_ms": async_wait_ms,
        "task_ms": task_ms,
        "stage_ms": stage_ms,
    }
