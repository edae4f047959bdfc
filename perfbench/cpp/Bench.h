//===- perfbench/cpp/Bench.h - Benchmark binary plumbing --------*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing of the end-to-end benchmark binary: options, the raw
/// result record handed to perfbench/run.py, and the in-memory span tracer
/// used by traced runs.  The binary only measures and checks; every
/// statistic (medians, percentiles, per-layer metrics) is computed by the
/// Python side from the raw samples and spans it writes.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the first call (a process-local monotonic epoch).
uint64_t nowNs();

inline double secondsBetween(uint64_t StartNs, uint64_t EndNs) {
  return static_cast<double>(EndNs - StartNs) * 1e-9;
}

/// splitmix64: derives independent sub-seeds from the workload seed.
uint64_t mixSeed(uint64_t X);

/// Threads a workload may use in total: min(nproc, 4) - 1.
unsigned threadBudget();

/// Peak resident set size of this process since it started or since the
/// last resetPeakRss(), in MiB.
double peakRssMb();

/// Restarts the peak RSS measurement (Linux /proc/self/clear_refs).
void resetPeakRss();

/// Returns freed heap memory to the system between repetitions, so that
/// peak RSS tracks the live data of one repetition rather than how the
/// allocator's per-thread arenas happened to fragment across several.
void releaseFreeMemory();

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string OutPath;   ///< raw results (JSON)
  std::string TracePath; ///< spans (traced runs only)
};

/// Raw measurements of one run, serialized to JSON for run.py.
struct Results {
  /// Named sample series (setup times, per-repetition rates, latencies).
  std::map<std::string, std::vector<double>> Samples;
  /// Named scalars (exact simulated metrics, counts, peak RSS).
  std::map<std::string, double> Values;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures; ///< first few failure descriptions

  void fail(const std::string &What);
  void add(const std::string &Series, double V) { Samples[Series].push_back(V); }
  bool write(const std::string &Path, const Options &Opt) const;
};

/// One recorded span.  Ids are process-unique and nonzero; Parent 0 marks
/// a root.  Count is the work the span covers (events, instructions, ...).
struct SpanRecord {
  uint64_t Id = 0;
  uint64_t Parent = 0;
  uint64_t Request = 0;
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  uint64_t Name = 0;
  uint64_t Count = 0;
};

/// In-memory span store.  Spans are appended to per-thread buffers (no
/// lock on the hot path) and written out once, when the run ends.
class Tracer {
public:
  Tracer();
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  /// Interns \p Name (call before spawning workers).
  uint64_t name(const std::string &Name);
  uint64_t newId() { return NextId.fetch_add(1, std::memory_order_relaxed); }
  void record(const SpanRecord &S);

  /// Named counters and samples travel in the trace header.
  void count(const std::string &Key, double Delta);
  void sample(const std::string &Key, double V);

  /// Writes a one-line JSON header followed by the packed span records
  /// (7 little-endian uint64 each).  See perfbench/spans.py.
  bool write(const std::string &Path, const std::string &Workload) const;

private:
  std::vector<std::string> Names;
  std::atomic<uint64_t> NextId{1};
  mutable std::mutex Mutex; ///< guards Buffers, Counters, Samples
  std::vector<std::unique_ptr<std::vector<SpanRecord>>> Buffers;
  std::map<std::string, double> Counters;
  std::map<std::string, std::vector<double>> SampleSeries;
  std::vector<SpanRecord> &localBuffer();
};

/// RAII span: records [construction, destruction) under the current span
/// and becomes the current span for its lifetime.  A null tracer makes it
/// free of effect.
class ScopedSpan {
public:
  ScopedSpan(Tracer *T, uint64_t Name, uint64_t Request = 0,
             uint64_t Parent = ~0ull);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  void setCount(uint64_t N) { Rec.Count = N; }
  uint64_t id() const { return Rec.Id; }

private:
  Tracer *T;
  SpanRecord Rec;
  uint64_t SavedCurrent = 0;
};

/// An explicitly opened span whose end is recorded from another scope on
/// the same thread (engine cells: opened in the controller factory, closed
/// when the cell's controller is destroyed).
class OpenSpan {
public:
  OpenSpan(Tracer *T, uint64_t Name, uint64_t Request, uint64_t Parent);
  void close(uint64_t Count);
  uint64_t id() const { return Rec.Id; }

private:
  Tracer *T;
  SpanRecord Rec;
  uint64_t SavedCurrent = 0;
  bool Closed = false;
};

/// The workloads: each measures, checks its outputs into \p R, and records
/// spans into \p T when tracing (T null = untraced run).
void runSweep(const Options &Opt, Results &R, Tracer *T);
void runMssp(const Options &Opt, Results &R, Tracer *T);
void runServe(const Options &Opt, Results &R, Tracer *T);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
