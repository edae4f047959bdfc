//===- bench/trace_pipe.cpp - Trace-pipeline throughput microbenches ------===//
//
// google-benchmark microbenches for the batched trace-event pipeline: the
// same (generation or replay) -> controller -> observer runs driven per
// event (BatchEvents = 1, the reference path) and in chunks (the default
// path), reported as events/sec.  The batched path must beat the
// per-event path by >= 1.5x on at least one configuration (the
// dispatch-bound replay and static-selection pipelines are the clearest
// wins); the equivalence property tests guarantee the two paths produce
// bit-identical results, so the speedup is free.
//
// Every benchmark takes the chunk size as its argument: 1 = per-event.
//
//===----------------------------------------------------------------------===//

#include "core/Driver.h"
#include "core/ReactiveController.h"
#include "core/StaticControllers.h"
#include "engine/ExperimentRunner.h"
#include "profile/BranchProfile.h"
#include "workload/SpecSuite.h"
#include "workload/TraceArena.h"
#include "workload/TraceFile.h"
#include "workload/TraceGenerator.h"

#include <benchmark/benchmark.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace specctrl;

namespace {

const workload::SuiteScale PipeScale{6.0e4, 0.1};

const workload::WorkloadSpec &pipeSpec() {
  static const workload::WorkloadSpec Spec =
      workload::makeBenchmark("bzip2", PipeScale);
  return Spec;
}

/// The whole-run profile of the pipe workload (for self-trained static
/// selections), computed once.
const profile::BranchProfile &pipeProfile() {
  static const profile::BranchProfile Profile = [] {
    profile::BranchProfile P(pipeSpec().numSites());
    workload::TraceGenerator Gen(pipeSpec(), pipeSpec().refInput());
    workload::BranchEvent E;
    while (Gen.next(E))
      P.addOutcome(E.Site, E.Taken);
    return P;
  }();
  return Profile;
}

/// The pipe workload recorded once in each trace format.
const std::string &recordedTrace(unsigned Version) {
  static const std::string V1 = [] {
    std::ostringstream OS;
    workload::TraceGenerator Gen(pipeSpec(), pipeSpec().refInput());
    workload::writeTrace(OS, Gen);
    return OS.str();
  }();
  static const std::string V2 = [] {
    std::ostringstream OS;
    workload::TraceGenerator Gen(pipeSpec(), pipeSpec().refInput());
    workload::writeTraceV2(OS, Gen);
    return OS.str();
  }();
  return Version == 1 ? V1 : V2;
}

core::ReactiveConfig scaledReactive() {
  core::ReactiveConfig C = core::ReactiveConfig::baseline();
  C.OptLatency = 10000;
  C.WaitPeriod = 50000;
  return C;
}

void reportRun(benchmark::State &State, const core::TraceRunMetrics &M) {
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(M.Events));
  State.counters["batches"] =
      benchmark::Counter(static_cast<double>(M.Batches));
}

/// Generation -> reactive controller, chunk size = Arg.
void BM_TracePipe_Reactive(benchmark::State &State) {
  const size_t Batch = static_cast<size_t>(State.range(0));
  core::TraceRunMetrics Metrics;
  for (auto _ : State) {
    core::ReactiveController C(scaledReactive());
    workload::TraceGenerator Gen(pipeSpec(), pipeSpec().refInput());
    Metrics = {};
    core::runTrace(C, Gen, nullptr, Batch, &Metrics);
    benchmark::DoNotOptimize(C.stats().CorrectSpecs);
  }
  reportRun(State, Metrics);
}
BENCHMARK(BM_TracePipe_Reactive)->Arg(1)->Arg(256)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

/// Generation -> self-trained static selection, chunk size = Arg.
void BM_TracePipe_Static(benchmark::State &State) {
  const size_t Batch = static_cast<size_t>(State.range(0));
  core::TraceRunMetrics Metrics;
  for (auto _ : State) {
    core::StaticSelectionController C(pipeProfile(), 0.99);
    workload::TraceGenerator Gen(pipeSpec(), pipeSpec().refInput());
    Metrics = {};
    core::runTrace(C, Gen, nullptr, Batch, &Metrics);
    benchmark::DoNotOptimize(C.stats().CorrectSpecs);
  }
  reportRun(State, Metrics);
}
BENCHMARK(BM_TracePipe_Static)->Arg(1)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

/// Replay (recorded trace -> controller) with a profile observer, chunk
/// size = Arg; Version selects the v1 or v2 on-disk format.
template <unsigned Version>
void BM_TracePipe_Replay(benchmark::State &State) {
  const size_t Batch = static_cast<size_t>(State.range(0));
  const std::string &Bytes = recordedTrace(Version);
  core::TraceRunMetrics Metrics;
  for (auto _ : State) {
    std::istringstream IS(Bytes);
    workload::TraceFileReader Reader(IS);
    core::StaticSelectionController C(pipeProfile(), 0.99);
    core::ProfileObserver Observer(Reader.numSites());
    Metrics = {};
    core::runTrace(C, Reader, &Observer, Batch, &Metrics);
    benchmark::DoNotOptimize(Observer.profile().totalExecutions());
  }
  State.counters["trace_bytes"] =
      benchmark::Counter(static_cast<double>(Bytes.size()));
  reportRun(State, Metrics);
}
BENCHMARK(BM_TracePipe_Replay<1>)->Arg(1)->Arg(4096)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TracePipe_Replay<2>)->Arg(1)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

/// A table4-shaped sweep (\p Specs x a ladder of reactive configs)
/// through the experiment engine, with and without the trace arena:
/// synthesize-once-and-replay vs regenerate-per-cell.  Arguments are
/// (UseArena, Jobs); each iteration builds a fresh arena, so the reported
/// time includes the one-time materialization cost the sweep amortizes.
/// Rates are per wall second: the cells run on pool threads, so the
/// calling thread's CPU time measures nothing.  Arena runs report how
/// many opens waited on another worker's materialization of their key
/// and for how long in total.
void runArenaSweep(benchmark::State &State,
                   const std::vector<workload::WorkloadSpec> &Specs) {
  const bool UseArena = State.range(0) != 0;
  const unsigned Jobs = static_cast<unsigned>(State.range(1));
  const double Ladder[] = {0.98, 0.99, 0.995, 0.998, 0.9995, 0.9999};

  engine::ExperimentPlan Plan;
  for (const workload::WorkloadSpec &Spec : Specs)
    Plan.addBenchmark(Spec);
  for (double T : Ladder)
    Plan.addConfig("t" + std::to_string(T),
                   [T](const engine::CellContext &) {
                     core::ReactiveConfig C = scaledReactive();
                     C.SelectThreshold = T;
                     return std::make_unique<core::ReactiveController>(C);
                   });

  engine::RunOptions Run;
  Run.Jobs = Jobs;
  uint64_t Events = 0;
  workload::TraceArenaStats Arena;
  for (auto _ : State) {
    if (UseArena)
      Plan.setTraceArena(std::make_shared<workload::TraceArena>());
    const engine::RunReport Report = engine::runPlan(Plan, Run);
    Events = Report.totalEvents();
    if (UseArena) {
      Arena = Plan.traceArena()->stats();
      Plan.setTraceArena(nullptr);
    }
    benchmark::DoNotOptimize(Events);
  }
  State.SetItemsProcessed(State.iterations() * static_cast<int64_t>(Events));
  if (UseArena) {
    State.counters["materializations"] =
        benchmark::Counter(static_cast<double>(Arena.Materializations));
    State.counters["resident_bytes"] =
        benchmark::Counter(static_cast<double>(Arena.ResidentBytes));
    State.counters["blocked_opens"] =
        benchmark::Counter(static_cast<double>(Arena.BlockedOpens));
    State.counters["blocked_ms"] =
        benchmark::Counter(Arena.BlockedSeconds * 1e3);
  }
}

/// One workload: every cell shares a single arena key.
void BM_TraceArena(benchmark::State &State) {
  runArenaSweep(State, {pipeSpec()});
}
BENCHMARK(BM_TraceArena)
    ->ArgNames({"arena", "jobs"})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({0, 4})
    ->Args({1, 4})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Four suite workloads: cells of distinct keys compete for the workers,
/// so the engine's submission order decides whether workers materialize
/// different keys or wait on one.
void BM_TraceArenaSuite(benchmark::State &State) {
  static const std::vector<workload::WorkloadSpec> Specs = [] {
    std::vector<workload::WorkloadSpec> Out;
    for (const char *Name : {"bzip2", "gzip", "mcf", "vpr"})
      Out.push_back(workload::makeBenchmark(Name, PipeScale));
    return Out;
  }();
  runArenaSweep(State, Specs);
}
BENCHMARK(BM_TraceArenaSuite)
    ->ArgNames({"arena", "jobs"})
    ->Args({1, 3})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Recording throughput of each format (generation included, identical in
/// both, so the delta is pure encode cost; counters report bytes/event).
template <unsigned Version>
void BM_TracePipe_Record(benchmark::State &State) {
  uint64_t Events = 0;
  size_t Bytes = 0;
  for (auto _ : State) {
    std::ostringstream OS;
    workload::TraceGenerator Gen(pipeSpec(), pipeSpec().refInput());
    Events = Version == 1 ? workload::writeTrace(OS, Gen)
                          : workload::writeTraceV2(OS, Gen);
    Bytes = OS.str().size();
    benchmark::DoNotOptimize(Events);
  }
  State.SetItemsProcessed(State.iterations() * static_cast<int64_t>(Events));
  State.counters["bytes_per_event"] = benchmark::Counter(
      Events ? static_cast<double>(Bytes) / static_cast<double>(Events)
             : 0.0);
}
BENCHMARK(BM_TracePipe_Record<1>)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TracePipe_Record<2>)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
