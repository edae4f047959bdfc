//===- bench/trace_decode.cpp - Trace decode + sweep microbenches ---------===//
//
// google-benchmark microbenches for the SCT2 decode tiers and the sweep
// executors:
//
//  * BM_Decode_* -- per-block payload decode over a recorded trace: the
//    checked decoder (validation on every event), the scalar trusted
//    decoder (the pre-SWAR baseline), and the SWAR trusted decoder (four
//    events per 8-byte load).  The SWAR path must beat the scalar path by
//    >= 1.5x events/sec; the equivalence tests pin bit-identical output,
//    so the speedup is free.
//  * BM_Replay_* -- whole-trace replay throughput of the streaming
//    reader (TraceFileReader over an ifstream) vs the zero-copy mapped
//    image (ArenaReplaySource over a mapped page-aligned file).
//  * BM_Sweep -- a table4-shaped plan through the in-process thread-pool
//    executor vs the forked work-stealing process pool, at 1 and 4
//    workers (the BENCH_sweep.json trajectory point).
//
//===----------------------------------------------------------------------===//

#include "engine/ExperimentRunner.h"
#include "engine/ProcessPool.h"
#include "core/ReactiveController.h"
#include "workload/MmapTraceStore.h"
#include "workload/SpecSuite.h"
#include "workload/TraceFile.h"
#include "workload/TraceGenerator.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

using namespace specctrl;

namespace {

const workload::SuiteScale DecodeScale{6.0e4, 0.1};

const workload::WorkloadSpec &decodeSpec() {
  static const workload::WorkloadSpec Spec =
      workload::makeBenchmark("bzip2", DecodeScale);
  return Spec;
}

/// The decode workload recorded once in the packed v2 layout.
const std::string &recordedV2() {
  static const std::string Bytes = [] {
    std::ostringstream OS;
    workload::TraceGenerator Gen(decodeSpec(), decodeSpec().refInput());
    workload::writeTraceV2(OS, Gen);
    return OS.str();
  }();
  return Bytes;
}

struct BlockRef {
  const uint8_t *Payload = nullptr;
  size_t PayloadBytes = 0;
  uint32_t Events = 0;
};

/// Structural walk of the recorded (packed, writer-produced) image:
/// (payload, bytes, count) per block.
const std::vector<BlockRef> &recordedBlocks() {
  static const std::vector<BlockRef> Blocks = [] {
    const std::string &Bytes = recordedV2();
    const uint8_t *Base = reinterpret_cast<const uint8_t *>(Bytes.data());
    std::vector<BlockRef> Out;
    size_t Off = workload::TraceV2HeaderBytes;
    while (Off + workload::TraceV2FrameBytes <= Bytes.size()) {
      const workload::TraceV2Frame F = workload::readTraceV2Frame(Base + Off);
      Off += workload::TraceV2FrameBytes;
      Out.push_back({Base + Off, F.PayloadBytes, F.Events});
      Off += F.PayloadBytes;
    }
    return Out;
  }();
  return Blocks;
}

uint64_t recordedEvents() {
  uint64_t Total = 0;
  for (const BlockRef &B : recordedBlocks())
    Total += B.Events;
  return Total;
}

void reportDecode(benchmark::State &State, uint64_t Events) {
  State.SetItemsProcessed(State.iterations() * static_cast<int64_t>(Events));
  State.counters["blocks"] =
      benchmark::Counter(static_cast<double>(recordedBlocks().size()));
}

/// Fully checked decode (per-event validation): the first-touch path.
void BM_Decode_Checked(benchmark::State &State) {
  const std::vector<BlockRef> &Blocks = recordedBlocks();
  const uint32_t NumSites = decodeSpec().numSites();
  std::vector<workload::BranchEvent> Buf(workload::TraceV2BlockEvents);
  for (auto _ : State) {
    uint64_t NextIndex = 0, InstRet = 0;
    for (const BlockRef &B : Blocks)
      if (!workload::decodeTraceBlockPayload(B.Payload, B.PayloadBytes,
                                             B.Events, NumSites, NextIndex,
                                             InstRet, Buf.data()))
        State.SkipWithError("checked decode rejected a block");
    benchmark::DoNotOptimize(Buf.data());
    benchmark::DoNotOptimize(InstRet);
  }
  reportDecode(State, recordedEvents());
}
BENCHMARK(BM_Decode_Checked)->Unit(benchmark::kMillisecond);

/// Trusted scalar decode: the pre-SWAR baseline, one event per iteration.
void BM_Decode_TrustedScalar(benchmark::State &State) {
  const std::vector<BlockRef> &Blocks = recordedBlocks();
  std::vector<workload::BranchEvent> Buf(workload::TraceV2BlockEvents);
  for (auto _ : State) {
    uint64_t NextIndex = 0, InstRet = 0;
    for (const BlockRef &B : Blocks)
      workload::decodeTraceBlockPayloadTrustedScalar(
          B.Payload, B.PayloadBytes, B.Events, NextIndex, InstRet, Buf.data());
    benchmark::DoNotOptimize(Buf.data());
    benchmark::DoNotOptimize(InstRet);
  }
  reportDecode(State, recordedEvents());
}
BENCHMARK(BM_Decode_TrustedScalar)->Unit(benchmark::kMillisecond);

/// Trusted SWAR decode: four events per 8-byte load on the varint fast
/// path.  Must be >= 1.5x BM_Decode_TrustedScalar events/sec.
void BM_Decode_TrustedSWAR(benchmark::State &State) {
  const std::vector<BlockRef> &Blocks = recordedBlocks();
  std::vector<workload::BranchEvent> Buf(workload::TraceV2BlockEvents);
  for (auto _ : State) {
    uint64_t NextIndex = 0, InstRet = 0;
    for (const BlockRef &B : Blocks)
      workload::decodeTraceBlockPayloadTrusted(
          B.Payload, B.PayloadBytes, B.Events, NextIndex, InstRet, Buf.data());
    benchmark::DoNotOptimize(Buf.data());
    benchmark::DoNotOptimize(InstRet);
  }
  reportDecode(State, recordedEvents());
}
BENCHMARK(BM_Decode_TrustedSWAR)->Unit(benchmark::kMillisecond);

/// The decode workload recorded once to disk in the page-aligned layout,
/// removed at process exit.
class AlignedTraceFile {
public:
  AlignedTraceFile() {
    Path = (std::filesystem::temp_directory_path() /
            ("specctrl-bench-decode-" + std::to_string(::getpid()) + ".sct2"))
               .string();
    std::ofstream OS(Path, std::ios::binary);
    workload::TraceGenerator Gen(decodeSpec(), decodeSpec().refInput());
    workload::writeTraceV2(OS, Gen, workload::TraceV2BlockEvents,
                           workload::TraceV2AlignBytes);
  }
  ~AlignedTraceFile() { std::remove(Path.c_str()); }
  const std::string &path() const { return Path; }

private:
  std::string Path;
};

const std::string &alignedTracePath() {
  static const AlignedTraceFile File;
  return File.path();
}

/// Whole-trace replay through the streaming reader: ifstream ->
/// TraceFileReader (read + checksum + checked decode every pass).
void BM_Replay_Resident(benchmark::State &State) {
  const std::string &Path = alignedTracePath();
  std::vector<workload::BranchEvent> Buf(workload::TraceV2BlockEvents);
  uint64_t Events = 0;
  for (auto _ : State) {
    std::ifstream IS(Path, std::ios::binary);
    workload::TraceFileReader Reader(IS);
    if (!Reader.valid())
      State.SkipWithError("trace file invalid");
    Events = 0;
    size_t N;
    while ((N = Reader.nextBatch(Buf)) != 0)
      Events += N;
    benchmark::DoNotOptimize(Events);
  }
  State.SetItemsProcessed(State.iterations() * static_cast<int64_t>(Events));
}
BENCHMARK(BM_Replay_Resident)->Unit(benchmark::kMillisecond);

/// Whole-trace replay of the mapped image: blocks decode in place from
/// the shared mapping; after the first pass verifies the bitmap, every
/// pass runs the trusted SWAR path.
void BM_Replay_Mmap(benchmark::State &State) {
  const std::string &Path = alignedTracePath();
  std::vector<workload::BranchEvent> Buf(workload::TraceV2BlockEvents);
  uint64_t Events = 0;
  for (auto _ : State) {
    std::string Error;
    std::unique_ptr<workload::ArenaReplaySource> Cursor =
        workload::MmapTraceStore::global().openCursor(Path, &Error);
    if (!Cursor)
      State.SkipWithError(Error.c_str());
    Events = 0;
    size_t N;
    while ((N = Cursor->nextBatch(Buf)) != 0)
      Events += N;
    if (Cursor->failed())
      State.SkipWithError(Cursor->error().c_str());
    benchmark::DoNotOptimize(Events);
  }
  State.SetItemsProcessed(State.iterations() * static_cast<int64_t>(Events));
  std::string Error;
  if (std::shared_ptr<const workload::MaterializedTrace> Trace =
          workload::MmapTraceStore::global().open(Path, &Error))
    State.counters["mapped_bytes"] =
        benchmark::Counter(static_cast<double>(Trace->bytes()));
}
BENCHMARK(BM_Replay_Mmap)->Unit(benchmark::kMillisecond);

/// A table4-shaped sweep (two workloads x a reactive-config ladder)
/// through the in-process thread pool (procs=0) vs the forked
/// work-stealing process pool (procs=1).  The process pool adds fork +
/// fragment-serialization overhead per run but isolates cells and shares
/// the page cache; both produce bit-identical reports (pinned by
/// ProcessPoolTest), so this measures pure executor overhead/scaling.
void BM_Sweep(benchmark::State &State) {
  const bool UseProcs = State.range(0) != 0;
  const unsigned Workers = static_cast<unsigned>(State.range(1));

  engine::ExperimentPlan Plan;
  Plan.addBenchmark(workload::makeBenchmark("bzip2", DecodeScale));
  Plan.addBenchmark(workload::makeBenchmark("bzip2", DecodeScale));
  const double Ladder[] = {0.98, 0.99, 0.995, 0.998};
  for (double T : Ladder)
    Plan.addConfig("t" + std::to_string(T),
                   [T](const engine::CellContext &) {
                     core::ReactiveConfig C = core::ReactiveConfig::baseline();
                     C.OptLatency = 10000;
                     C.WaitPeriod = 50000;
                     C.SelectThreshold = T;
                     return std::make_unique<core::ReactiveController>(C);
                   });

  uint64_t Events = 0;
  for (auto _ : State) {
    engine::RunReport Report;
    if (UseProcs) {
      engine::ProcessRunOptions Options;
      Options.Procs = Workers;
      Report = engine::runPlanProcesses(Plan, Options);
    } else {
      Report = engine::runPlan(Plan, {.Jobs = Workers});
    }
    if (Report.failedCells() != 0)
      State.SkipWithError("sweep cells failed");
    Events = Report.totalEvents();
    benchmark::DoNotOptimize(Events);
  }
  State.SetItemsProcessed(State.iterations() * static_cast<int64_t>(Events));
}
BENCHMARK(BM_Sweep)
    ->ArgNames({"procs", "workers"})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({0, 4})
    ->Args({1, 4})
    ->UseRealTime() // the workers' time, not the coordinating parent's
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
