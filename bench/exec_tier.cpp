//===- bench/exec_tier.cpp - Execution-backend throughput microbenches ----===//
//
// google-benchmark microbenches comparing the two SimIR execution tiers
// behind fsim::ExecBackend:
//
//   reference  the switch-dispatch interpreter (fsim::Interpreter), the
//              bit-exactness oracle;
//   fused      the pre-decoded direct-threaded tier (exec/
//              ThreadedBackend) with superinstruction fusion for the
//              distiller's hot patterns, the default.
//
// BM_ExecRegion is the headline number: the Figure 7 default workload
// (bzip2-like, 90k iterations) with every region distilled under its
// dominant-direction assertion set -- exactly the code the MSSP master
// executes -- run end to end on a bare backend with no observer.  Items
// are MSSP tasks (4 iterations each), so items_per_second is directly
// comparable against BM_Mssp's tasks/sec in BENCH_mssp.json.
//
// BM_ExecOriginal runs the undistilled program (the checker's side), and
// BM_MsspTier the full MSSP simulation under each tier, showing how much
// of the raw-dispatch win survives the timing model and task protocol.
// The equivalence suite (tests/exec/ExecBackendEquivalenceTest.cpp) and
// the fig7/fig8 golden CSVs, run under both tiers, pin them to
// bit-identical results, so every delta here is free throughput.
//
// BM_TimedRegion is the timing-tier axis: the same distilled workload
// with a full CoreTiming model attached -- per-instruction virtual
// observer dispatch on the reference interpreter versus the fused tier's
// block-charged runTimed loop.  Both produce bit-identical cycle counts
// (tests/mssp/TimingFusedTest.cpp), so the fused delta is pure
// timing-model overhead removed.
//
//===----------------------------------------------------------------------===//

#include "distill/Distiller.h"
#include "exec/TimedRun.h"
#include "mssp/CoreTiming.h"
#include "mssp/MsspSimulator.h"
#include "workload/SpecSuite.h"

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

using namespace specctrl;
using namespace specctrl::mssp;
using namespace specctrl::workload;

namespace {

/// Figure 7's default per-run length (matches bench/mssp_sim.cpp).
constexpr uint64_t Fig7Iterations = 90000;
/// MSSP default task granularity (MsspConfig::TaskIterations).
constexpr uint64_t TaskIters = 4;

const SynthProgram &fig7Program() {
  static const SynthProgram Program =
      synthesize(makeSynthSpecFor(profileByName("bzip2"), Fig7Iterations));
  return Program;
}

/// Each region distilled under its dominant-direction assertion set (the
/// steady-state code the MSSP master runs once the controller deploys).
const std::vector<distill::DistillResult> &fig7DistilledRegions() {
  static const std::vector<distill::DistillResult> Results = [] {
    const SynthProgram &P = fig7Program();
    std::vector<distill::DistillResult> Out;
    Out.reserve(P.RegionFunctions.size());
    for (uint32_t FuncId : P.RegionFunctions) {
      distill::DistillRequest Request;
      for (const SynthSiteInfo &Info : P.Sites)
        if (!Info.IsControlSite && Info.FunctionId == FuncId)
          Request.BranchAssertions[Info.Site] = Info.Behavior.BiasA >= 0.5;
      Out.push_back(
          distill::distillFunction(P.Mod.function(FuncId), Request));
    }
    return Out;
  }();
  return Results;
}

void reportExec(benchmark::State &State, uint64_t InstRet) {
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(
                              (Fig7Iterations + TaskIters - 1) / TaskIters));
  State.counters["sim_insts_per_sec"] = benchmark::Counter(
      static_cast<double>(InstRet) * State.iterations(),
      benchmark::Counter::kIsRate);
}

/// Distilled-region execution: the fig7 program with every region's
/// deployed code version installed, run to halt on a bare backend.
void BM_ExecRegion(benchmark::State &State, ExecTier Tier) {
  const SynthProgram &P = fig7Program();
  const std::vector<distill::DistillResult> &Regions =
      fig7DistilledRegions();
  uint64_t InstRet = 0;
  for (auto _ : State) {
    std::unique_ptr<fsim::ExecBackend> Backend =
        exec::createBackend(Tier, P.Mod, P.InitialMemory);
    for (size_t I = 0; I < Regions.size(); ++I)
      Backend->setCodeVersion(P.RegionFunctions[I], &Regions[I].Distilled);
    const fsim::StopReason Reason = Backend->run(~0ull >> 1);
    if (Reason != fsim::StopReason::Halted)
      State.SkipWithError("program did not halt");
    InstRet = Backend->instructionsRetired();
    benchmark::DoNotOptimize(InstRet);
  }
  reportExec(State, InstRet);
}
BENCHMARK_CAPTURE(BM_ExecRegion, reference, ExecTier::Reference)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ExecRegion, fused, ExecTier::TimingFused)
    ->Unit(benchmark::kMillisecond);

/// The undistilled program (what the checker executes).
void BM_ExecOriginal(benchmark::State &State, ExecTier Tier) {
  const SynthProgram &P = fig7Program();
  uint64_t InstRet = 0;
  for (auto _ : State) {
    std::unique_ptr<fsim::ExecBackend> Backend =
        exec::createBackend(Tier, P.Mod, P.InitialMemory);
    const fsim::StopReason Reason = Backend->run(~0ull >> 1);
    if (Reason != fsim::StopReason::Halted)
      State.SkipWithError("program did not halt");
    InstRet = Backend->instructionsRetired();
    benchmark::DoNotOptimize(InstRet);
  }
  reportExec(State, InstRet);
}
BENCHMARK_CAPTURE(BM_ExecOriginal, reference, ExecTier::Reference)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ExecOriginal, fused, ExecTier::TimingFused)
    ->Unit(benchmark::kMillisecond);

/// Event-only timing policy for runTimed: what the fused tier feeds
/// CoreTiming instead of per-instruction virtual observer calls.
class TimingPolicy {
public:
  explicit TimingPolicy(CoreTiming &T) : T(T) {}
  void noteBranch(ir::SiteId Site, bool Taken, uint64_t) {
    T.recordBranch(Site, Taken);
  }
  void noteLoad(const fsim::InstLocation &, uint64_t Addr, uint64_t,
                uint64_t) {
    T.recordMemoryAccess(Addr);
  }
  void noteStore(uint64_t Addr, uint64_t) { T.recordMemoryAccess(Addr); }
  void noteCall(uint32_t Callee) { T.recordCall(Callee); }
  void noteReturn(uint32_t Callee) { T.recordReturn(Callee); }

private:
  CoreTiming &T;
};

/// The timing-tier axis: the distilled fig7 workload driving a full
/// leading-core CoreTiming model.  reference pays a virtual ExecObserver
/// call per retired instruction; fused charges straight-line issue cost
/// once per block and only touches the models at events.
void BM_TimedRegion(benchmark::State &State, ExecTier Tier) {
  const SynthProgram &P = fig7Program();
  const std::vector<distill::DistillResult> &Regions =
      fig7DistilledRegions();
  const MachineConfig M;
  uint64_t InstRet = 0;
  for (auto _ : State) {
    CacheModel L2(M.L2);
    CoreTiming Timing(M.Leading, &L2, M.L2.LatencyCycles,
                      M.MemoryLatencyCycles);
    fsim::StopReason Reason;
    if (Tier == ExecTier::TimingFused) {
      exec::ThreadedBackend Backend(P.Mod, P.InitialMemory);
      for (size_t I = 0; I < Regions.size(); ++I)
        Backend.setCodeVersion(P.RegionFunctions[I], &Regions[I].Distilled);
      TimingPolicy Policy(Timing);
      Reason = Backend.runTimed(~0ull >> 1, Policy);
      Timing.addInstructions(Backend.instructionsRetired());
      InstRet = Backend.instructionsRetired();
    } else {
      std::unique_ptr<fsim::ExecBackend> Backend =
          exec::createBackend(Tier, P.Mod, P.InitialMemory);
      for (size_t I = 0; I < Regions.size(); ++I)
        Backend->setCodeVersion(P.RegionFunctions[I], &Regions[I].Distilled);
      Reason = Backend->run(~0ull >> 1, &Timing);
      InstRet = Backend->instructionsRetired();
    }
    if (Reason != fsim::StopReason::Halted)
      State.SkipWithError("program did not halt");
    benchmark::DoNotOptimize(Timing.cycles());
  }
  reportExec(State, InstRet);
}
BENCHMARK_CAPTURE(BM_TimedRegion, reference, ExecTier::Reference)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_TimedRegion, fused, ExecTier::TimingFused)
    ->Unit(benchmark::kMillisecond);

/// The full MSSP simulation (fig7 closed-loop defaults) under each tier:
/// how much of the dispatch win survives the timing model, verification,
/// and the task protocol.
void BM_MsspTier(benchmark::State &State, ExecTier Tier) {
  MsspConfig Cfg;
  Cfg.Tier = Tier;
  Cfg.Control.MonitorPeriod = 1000;
  Cfg.Control.EnableEviction = true;
  Cfg.Control.EvictSaturation = 2000;
  Cfg.Control.WaitPeriod = 100000;
  Cfg.OptLatencyCycles = 0;
  MsspResult R;
  for (auto _ : State) {
    MsspSimulator Sim(fig7Program(), Cfg);
    R = Sim.run();
    benchmark::DoNotOptimize(R.TotalCycles);
  }
  State.SetItemsProcessed(State.iterations() * static_cast<int64_t>(R.Tasks));
  State.counters["sim_insts_per_sec"] = benchmark::Counter(
      static_cast<double>(R.MasterInstructions + R.CheckerInstructions) *
          State.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_MsspTier, reference, ExecTier::Reference)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MsspTier, fused, ExecTier::TimingFused)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
