"""Span reader and statistics for the specctrl end-to-end benchmark.

A traced run of the benchmark binary writes a trace file: one JSON header
line (span names, counters, sample series) followed by packed span
records, seven little-endian uint64 each:

    id, parent, request, start_ns, end_ns, name_index, count

``parent`` is 0 for a root span.  ``count`` is the work the span covers
(events, instructions, calls).  This module turns such a file into
per-layer self times and the benchmark's per-layer metrics, and holds the
timing statistics every report uses (median, highest supported
percentile).  Run it directly to print a trace's self-time table:

    python3 perfbench/spans.py TRACE_FILE
"""

import json
import struct
import sys
from collections import namedtuple

RECORD = struct.Struct("<7Q")

Span = namedtuple("Span", "id parent req start end name count")

# Percentiles a timing may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def load(path):
    """Returns (header, spans) of a trace file."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        data = f.read()
    names = header["names"]
    if len(data) != header["spans"] * RECORD.size:
        raise ValueError("%s: truncated span records" % path)
    spans = [Span(i, p, r, s, e, names[n], c)
             for i, p, r, s, e, n, c in RECORD.iter_unpack(data)]
    return header, spans


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def median(values):
    v = sorted(values)
    n = len(v)
    if n == 0:
        raise ValueError("median of no samples")
    return v[n // 2] if n % 2 else (v[n // 2 - 1] + v[n // 2]) / 2.0


def _rank(n, p):
    """1-based nearest rank of the p-th percentile in n samples, in exact
    integer arithmetic (p in hundredths of a percent)."""
    return max(1, -(-round(p * 100) * n // 10000))


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    v = sorted(values)
    if not v:
        raise ValueError("percentile of no samples")
    return v[_rank(len(v), p) - 1]


def beyond(n, p):
    """How many of n samples lie beyond the nearest-rank p-th percentile."""
    return n - _rank(n, p)


def supports(n, p):
    return beyond(n, p) >= MIN_BEYOND


def highest_percentile(n):
    """The highest ladder percentile with MIN_BEYOND samples beyond it in
    a sample of n, or None when even the median is not supported."""
    best = None
    for p in PERCENTILE_LADDER:
        if supports(n, p):
            best = p
    return best


def summarize(values):
    """Median, highest supported percentile and sample count of a timing."""
    n = len(values)
    out = {"n": n, "median": median(values) if n else None,
           "top_p": highest_percentile(n), "top": None}
    if out["top_p"] is not None:
        out["top"] = percentile(values, out["top_p"])
    return out


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------

def union_length(intervals, lo, hi):
    """Total length of the union of intervals, clipped to [lo, hi)."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals
                     if min(e, hi) > max(s, lo))
    total = 0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Maps span id -> self time: its duration minus the part of its
    interval covered by its children (overlapping children counted once)."""
    children = {}
    for s in spans:
        if s.parent:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: (s.end - s.start) -
            union_length(children.get(s.id, ()), s.start, s.end)
            for s in spans}


def layer_table(spans):
    """Per span name: calls, total and self nanoseconds, summed count."""
    selfs = self_times(spans)
    table = {}
    for s in spans:
        row = table.setdefault(s.name, {"n": 0, "total_ns": 0, "self_ns": 0,
                                        "count": 0})
        row["n"] += 1
        row["total_ns"] += s.end - s.start
        row["self_ns"] += selfs[s.id]
        row["count"] += s.count
    return table


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _ratio(a, b):
    return a / b if b else 0.0


def _grid_of(span, by_id):
    """Id of the traced grid span a span ran under (0 outside grids)."""
    while span is not None and span.name != "bench.grid":
        span = by_id.get(span.parent)
    return span.id if span is not None else 0


def materialize_ns_per_event(spans, by_id):
    """Per (grid, trace) only the first materialize span generated the
    trace; the others waited on it.  Sum those first spans."""
    first = {}
    for s in spans:
        if s.name != "workload.materialize":
            continue
        key = (_grid_of(s, by_id), s.req)
        if key not in first or s.start < first[key].start:
            first[key] = s
    ns = sum(s.end - s.start for s in first.values())
    return _ratio(ns, sum(s.count for s in first.values()))


def engine_tail_s(spans):
    """Per traced grid: grid end minus the first time a worker finished a
    cell and found none left to start; median over grids."""
    tails = []
    for g in (s for s in spans if s.name == "bench.grid"):
        cells = [s for s in spans if s.name == "engine.cell" and
                 s.parent == g.id]
        if not cells:
            continue
        last_start = max(c.start for c in cells)
        idle = min(c.end for c in cells if c.end >= last_start)
        tails.append((g.end - idle) * 1e-9)
    return median(tails) if tails else 0.0


def trace_overhead_pct(spans):
    for traced, plain in (("bench.grid", "bench.grid_untraced"),
                          ("bench.round", "bench.round_untraced")):
        t = [s.end - s.start for s in spans if s.name == traced]
        u = [s.end - s.start for s in spans if s.name == plain]
        if t and u:
            return 100.0 * (median(t) / median(u) - 1.0)
    return 0.0


def per_layer_metrics(header, spans, raw=None):
    """Every per-layer metric of the benchmark.  A layer the workload never
    enters reads 0."""
    table = layer_table(spans)
    by_id = {s.id: s for s in spans}
    counters = header.get("counters", {})
    samples = header.get("samples", {})
    raw_samples = (raw or {}).get("samples", {})

    def total(name):
        return table.get(name, {}).get("total_ns", 0)

    def selfns(name):
        return table.get(name, {}).get("self_ns", 0)

    def count(name):
        return table.get(name, {}).get("count", 0)

    def calls(name):
        return table.get(name, {}).get("n", 0)

    c = counters.get
    m = {}
    m["workload.materialize_ns_per_event"] = materialize_ns_per_event(
        spans, by_id)
    m["workload.decode_ns_per_event"] = _ratio(selfns("workload.nextBatch"),
                                               count("workload.nextBatch"))
    m["workload.arena_bytes_per_event"] = _ratio(
        c("workload.arena_bytes", 0), c("workload.arena_events", 0))
    m["workload.synth_ms"] = _ratio(total("workload.synthesize"),
                                    calls("workload.synthesize")) * 1e-6
    m["core.onbatch_ns_per_event"] = _ratio(total("probe.onBatch"),
                                            count("probe.onBatch"))
    m["core.onbranch_ns_per_event"] = _ratio(total("probe.onBranch"),
                                             count("probe.onBranch"))
    m["core.requests"] = c("core.requests", 0)

    grid_ns = total("bench.grid")
    m["engine.busy_pct"] = 100.0 * _ratio(
        total("engine.cell"), c("engine.workers", 0) * grid_ns)
    m["engine.tail_s"] = engine_tail_s(spans)

    exec_ns = _ratio(total("probe.exec"), count("probe.exec"))
    timing_ns = max(0.0, _ratio(total("probe.exec_timed"),
                                count("probe.exec_timed")) - exec_ns)
    m["exec.ns_per_inst"] = exec_ns
    m["mssp.timing_ns_per_inst"] = timing_ns
    m["mssp.run_ns_per_inst"] = _ratio(total("mssp.run"), count("mssp.run"))
    distill_us = _ratio(total("distill.distillFunction"),
                        calls("distill.distillFunction")) * 1e-3
    m["distill.us_per_call"] = distill_us
    m["mssp.attributed_pct"] = 100.0 * _ratio(
        sum(mssp_attribution(header, table).values()), total("mssp.run"))
    m["mssp.squash_pct"] = 100.0 * _ratio(c("mssp.squashes", 0),
                                          c("mssp.tasks", 0))
    hits, misses = c("mssp.distill_cache_hits", 0), c(
        "mssp.distill_cache_misses", 0)
    m["mssp.distill_cache_hit_pct"] = 100.0 * _ratio(hits, hits + misses)
    m["mssp.master_insts"] = c("mssp.master_insts", 0)
    m["mssp.checker_insts"] = c("mssp.checker_insts", 0)
    m["mssp.speedup_closed"] = c("mssp.speedup_closed", 0)

    m["serve.push_ns_per_event"] = _ratio(total("serve.push"),
                                          count("serve.push"))
    m["serve.ring_full_pct"] = 100.0 * _ratio(c("serve.zero_pushes", 0),
                                              c("serve.pushes", 0))
    backlog = samples.get("serve.backlog_events", [])
    m["serve.backlog_events_p99"] = percentile(backlog, 99) if backlog else 0
    m["serve.consumer_busy_pct"] = 100.0 * _ratio(
        total("probe.onBatch") * c("serve.probe_scale", 0),
        c("serve.consumers", 0) * c("serve.closed_wall_s", 0) * 1e9)
    opens = [s.end - s.start for s in spans if s.name == "serve.openStream"]
    m["serve.open_stream_us"] = median(opens) * 1e-3 if opens else 0.0
    late = raw_samples.get("gen_late_us", [])
    m["bench.gen_late_p99_us"] = percentile(late, 99) if late else 0.0
    m["bench.trace_overhead_pct"] = trace_overhead_pct(spans)
    return m


def mssp_attribution(header, table):
    """Estimated nanoseconds of the traced MSSP runs spent per layer: the
    probe costs per unit times the exact MsspResult counts.  Whatever the
    mssp.run spans hold beyond their sum is the digest/commit/squash task
    protocol (an estimate, by difference)."""
    c = header.get("counters", {}).get
    grids = c("mssp.traced_grids", 0)
    if not grids or "mssp.run" not in table:
        return {}

    def per(name, unit_ns=1.0):
        row = table.get(name)
        if not row or not row["count"]:
            return 0.0
        return row["total_ns"] / row["count"] * unit_ns

    exec_ns = per("probe.exec")
    timing_ns = max(0.0, per("probe.exec_timed") - exec_ns)
    insts = (c("mssp.master_insts", 0) + c("mssp.checker_insts", 0)) * grids
    distill = table.get("distill.distillFunction")
    distill_ns = distill["total_ns"] / distill["n"] if distill else 0.0
    return {
        "exec": exec_ns * insts,
        "timing": timing_ns * insts,
        "controller": per("probe.onBranch") *
        c("mssp.controller_branches", 0) * grids,
        "distill": distill_ns * c("mssp.distill_cache_misses", 0) * grids,
    }


def print_self_times(spans, out=sys.stdout):
    table = layer_table(spans)
    out.write("%-28s %9s %12s %12s %14s\n" %
              ("span", "calls", "total_ms", "self_ms", "count"))
    for name in sorted(table, key=lambda k: -table[k]["self_ns"]):
        row = table[name]
        out.write("%-28s %9d %12.2f %12.2f %14d\n" %
                  (name, row["n"], row["total_ns"] * 1e-6,
                   row["self_ns"] * 1e-6, row["count"]))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: spans.py TRACE_FILE")
    hdr, sp = load(sys.argv[1])
    print_self_times(sp)
    for key, value in per_layer_metrics(hdr, sp).items():
        print("%-36s %.6g" % (key, value))
