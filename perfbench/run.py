#!/usr/bin/env python3
"""End-to-end benchmark of specctrl.

    python3 perfbench/run.py --workload sweep|mssp|serve --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout.  The first run configures and
builds the benchmark binary (perfbench/CMakeLists.txt) under .bench_build/;
later runs only check that it is up to date.  Each run executes one
workload in its own process against the libraries' public APIs, checks
the outputs, prints a human-readable report and, as the last line of
standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 measures the end-to-end metrics; --trace 1 wraps the calls into
each layer in spans and reports the per-layer metrics (see README.md).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import spans  # noqa: E402  (the benchmark's own span reader)

WORKLOADS = ("sweep", "mssp", "serve")

# Open-loop runs whose generator sent its batches later than this (p99)
# measured the load generator as much as the server: marked invalid.
GEN_LATE_LIMIT_US = 500.0

# The open loop is judged as this many back-to-back repetitions (equal
# runs of batches in due order), and its p50/p90 are the lowest any
# repetition shows: min-of-N, as this repository compares timings on its
# noisy hosts.  Stalls of the whole guest last up to seconds and inflate
# every batch due during them, so even the median repetition can be one
# the host stalled; a slower server raises every repetition.
OPEN_LOOP_SEGMENTS = 16

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    sys.stderr.write("perfbench: %s\n" % msg)


def build(root, build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    cmake_dir = os.path.join(build_dir, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", cmake_dir, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w") as out:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                env=clean_env()[0], timeout=BUILD_TIMEOUT_S,
                                cwd=root).returncode
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise SystemExit("perfbench: build failed (%s)" % log_path)
    return os.path.join(cmake_dir, "perfbench")


def clean_env():
    """The environment without SPECCTRL_* knobs, and the knobs removed."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SPECCTRL_")}
    return env, sorted(k for k in os.environ if k.startswith("SPECCTRL_"))


def latency_groups(raw):
    """The latency samples p50/p90 are taken over: the pooled grid cells,
    or the open loop's segments."""
    lat = raw["samples"]["latency_us"]
    if raw["workload"] != "serve":
        return [lat]
    n, k = len(lat), OPEN_LOOP_SEGMENTS
    return [lat[i * n // k:(i + 1) * n // k] for i in range(k)]


def declared_units(root):
    """{metric: unit} of BENCHMARK.json's end-to-end and per-layer lists."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def end_to_end_metrics(raw):
    s, v = raw["samples"], raw["values"]
    groups = latency_groups(raw)
    for g in groups:
        if not spans.supports(len(g), 90):
            raise SystemExit("perfbench: %d latency samples cannot support "
                             "p90" % len(g))
    return {
        "setup_s": spans.median(s["setup_s"]),
        "events_per_s": spans.median(s["events_per_s"]),
        "sim_insts_per_s": spans.median(s["sim_insts_per_s"]),
        "p50_us": min(spans.median(g) for g in groups),
        "p90_us": min(spans.percentile(g, 90) for g in groups),
        "peak_rss_mb": spans.median(s["peak_rss_mb"]),
        "correct_pct": v["correct_pct"],
        "misspec_pct": v["misspec_pct"],
    }


def describe_timing(name, values, unit):
    t = spans.summarize(values)
    if t["top_p"] is None:
        tail = "no percentile has %d samples beyond it" % spans.MIN_BEYOND
    else:
        tail = "p%g %.6g %s" % (t["top_p"], t["top"], unit)
    return "  %-22s median %.6g %s, %s (n=%d)" % (name, t["median"], unit,
                                                  tail, t["n"])


def report(raw, metrics, units, traced, stripped):
    out = sys.stdout
    out.write("perfbench %s: seed %d, %d threads, %s run\n" %
              (raw["workload"], raw["seed"], raw["threads"],
               "traced" if traced else "untraced"))
    if stripped:
        out.write("  note: ignored ambient knobs %s\n" % ", ".join(stripped))
    s = raw["samples"]
    if not traced:
        out.write(describe_timing("setup_s", s["setup_s"], "s") + "\n")
        out.write(describe_timing("events_per_s", s["events_per_s"], "1/s")
                  + "\n")
        out.write(describe_timing("sim_insts_per_s", s["sim_insts_per_s"],
                                  "1/s") + "\n")
        unit_name = "batch" if raw["workload"] == "serve" else "grid cell"
        lat = s["latency_us"]
        out.write(describe_timing("latency_us (%s)" % unit_name, lat, "us")
                  + "\n")
        for p in (90.0, 99.0):
            out.write("    pooled p%g %.6g us, %d samples beyond it%s\n" %
                      (p, spans.percentile(lat, p), spans.beyond(len(lat), p),
                       "" if spans.supports(len(lat), p) else
                       " (too few to report)"))
        groups = latency_groups(raw)
        if len(groups) > 1:
            out.write("    per open-loop segment (n=%d each): p50 %s us; "
                      "p90 %s us; p99 %s us\n" % (
                          len(groups[0]),
                          " ".join("%.4g" % spans.median(g) for g in groups),
                          " ".join("%.4g" % spans.percentile(g, 90)
                                   for g in groups),
                          " ".join("%.4g" % spans.percentile(g, 99)
                                   for g in groups)))
        late = s.get("gen_late_us")
        if late:
            out.write(describe_timing("generator_late_us", late, "us") + "\n")
            late99 = spans.percentile(late, 99)
            out.write("    run %s: generator p99 lateness %.6g us "
                      "(limit %g us)\n" %
                      ("valid" if late99 <= GEN_LATE_LIMIT_US else "INVALID",
                       late99, GEN_LATE_LIMIT_US))
        for key in ("speedup_closed", "core.requests", "repetitions",
                    "sessions"):
            if key in raw["values"]:
                out.write("  %-22s %.6g\n" % (key, raw["values"][key]))
    attempted, failed = raw["attempted"], raw["failed"]
    out.write("  %-22s %.4g%% (%d of %d operations)\n" %
              ("fail_pct", 100.0 * failed / max(1, attempted), failed,
               attempted))
    for msg in raw.get("failures", []):
        out.write("    failure: %s\n" % msg)
    for name, value in metrics.items():
        out.write("  %-36s %.6g %s\n" % (name, value, units[name]))


def report_mssp_shares(shares, run_ns):
    out = sys.stdout
    out.write("  mssp.run share by layer (probe costs x exact counts; "
              "protocol by difference):\n")
    for layer, ns in shares.items():
        out.write("    %-12s %6.1f%%\n" % (layer, 100.0 * ns / run_ns))
    out.write("    %-12s %6.1f%% (estimate)\n" %
              ("protocol", 100.0 * (run_ns - sum(shares.values())) / run_ns))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log("no specctrl sources under %s; run from a checkout's root" % root)
        return 2
    e2e_units, layer_units = declared_units(root)
    build_dir = os.path.join(root, ".bench_build")
    binary = build(root, build_dir)

    runs = os.path.join(build_dir, "runs")
    os.makedirs(runs, exist_ok=True)
    tag = "%s-%d-%d" % (args.workload, args.seed, args.trace)
    out_path = os.path.join(runs, tag + ".json")
    trace_path = os.path.join(runs, tag + ".spans")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--out", out_path]
    if args.trace:
        cmd += ["--trace-out", trace_path]
    env, stripped = clean_env()
    try:
        rc = subprocess.run(cmd, env=env, stdout=sys.stderr,
                            timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("workload exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    if rc != 0:
        log("benchmark binary exited with %d" % rc)
        return 1

    with open(out_path) as f:
        raw = json.load(f)
    if args.trace:
        header, recs = spans.load(trace_path)
        metrics, units = spans.per_layer_metrics(header, recs, raw), layer_units
    else:
        metrics, units = end_to_end_metrics(raw), e2e_units
    if set(metrics) != set(units):
        log("metrics %s do not match BENCHMARK.json" %
            sorted(set(metrics) ^ set(units)))
        return 1
    report(raw, metrics, units, args.trace, stripped)
    if args.trace:
        table = spans.layer_table(recs)
        spans.print_self_times(recs)
        if args.workload == "mssp":
            report_mssp_shares(spans.mssp_attribution(header, table),
                               table["mssp.run"]["total_ns"])

    result = {
        "correct": raw["failed"] == 0 and raw["attempted"] > 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
