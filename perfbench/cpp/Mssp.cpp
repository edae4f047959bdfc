//===- perfbench/cpp/Mssp.cpp - The `mssp` workload -----------------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
//
// The Figure 7 grid: twelve synthesized suite programs x {superscalar
// baseline, open/closed loop at 1k and 10k monitor periods}, each cell a
// task cell that synthesizes its program and simulates it, run through
// engine::runPlan.  Library defaults throughout (execution tier included).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "distill/Distiller.h"
#include "engine/ExperimentRunner.h"
#include "exec/ThreadedBackend.h"
#include "mssp/MsspSimulator.h"
#include "workload/ProgramSynthesizer.h"
#include "workload/SpecSuite.h"

#include <any>
#include <memory>
#include <vector>

using namespace perfbench;
using namespace specctrl;

namespace {

/// Figure 7's per-run length (fig7_mssp_reactivity's default).
constexpr uint64_t Iterations = 90000;
constexpr uint64_t Fuel = ~0ull >> 1;

struct Series {
  const char *Name;
  bool Eviction;
  uint64_t Monitor;
};
constexpr Series MsspSeries[4] = {{"open-1k", false, 1000},
                                  {"closed-1k", true, 1000},
                                  {"open-10k", false, 10000},
                                  {"closed-10k", true, 10000}};
constexpr uint32_t NumColumns = 5;  // baseline + the four series
constexpr uint32_t ClosedOneK = 2; // grid column of closed-1k

/// Figure 7's control settings for one series.
mssp::MsspConfig seriesConfig(const Series &S) {
  mssp::MsspConfig Cfg;
  Cfg.Control.MonitorPeriod = S.Monitor;
  Cfg.Control.EnableEviction = S.Eviction;
  Cfg.Control.EvictSaturation = 2000;
  Cfg.Control.WaitPeriod = 100000;
  Cfg.OptLatencyCycles = 0;
  return Cfg;
}

/// One program per benchmark, shared by its five columns.
workload::SynthSpec synthSpec(const std::string &Name, uint32_t Bench,
                              uint64_t Seed) {
  workload::SynthSpec S =
      workload::makeSynthSpecFor(workload::profileByName(Name), Iterations);
  S.Seed ^= mixSeed(Seed ^ mixSeed(Bench + 101));
  return S;
}

struct BaselineCell {
  uint64_t Cycles = 0;
};

struct Hooks {
  Tracer *T = nullptr; ///< null during untraced repetitions
  uint64_t GridSpan = 0;
  uint64_t CellName = 0, SynthName = 0, RunName = 0, BaselineName = 0;
};

workload::SynthProgram synthesizeTraced(const Hooks &H,
                                        const engine::CellContext &Ctx) {
  ScopedSpan S(H.T, H.SynthName, Ctx.Coord.Benchmark);
  S.setCount(1);
  return workload::synthesize(
      synthSpec(Ctx.Spec.Name, Ctx.Coord.Benchmark, Ctx.BaseSeed));
}

uint64_t cellRequest(const engine::CellContext &Ctx) {
  return uint64_t(Ctx.Coord.Benchmark) * NumColumns + Ctx.Coord.Config;
}

engine::ExperimentPlan buildPlan(uint64_t Seed, const Hooks &H) {
  engine::ExperimentPlan Plan;
  Plan.setBaseSeed(Seed);
  for (const workload::BenchmarkProfile &P : workload::suiteProfiles())
    Plan.addBenchmark(workload::makeBenchmark(P));
  Plan.addTaskConfig("baseline", [&H](const engine::CellContext &Ctx) {
    ScopedSpan Cell(H.T, H.CellName, cellRequest(Ctx), H.GridSpan);
    const workload::SynthProgram Program = synthesizeTraced(H, Ctx);
    ScopedSpan S(H.T, H.BaselineName, Ctx.Coord.Benchmark);
    return std::any(BaselineCell{
        mssp::simulateSuperscalarBaseline(Program, mssp::MachineConfig())});
  });
  for (const Series &Ser : MsspSeries)
    Plan.addTaskConfig(Ser.Name, [&H, &Ser](const engine::CellContext &Ctx) {
      ScopedSpan Cell(H.T, H.CellName, cellRequest(Ctx), H.GridSpan);
      const workload::SynthProgram Program = synthesizeTraced(H, Ctx);
      ScopedSpan S(H.T, H.RunName, Ctx.Coord.Benchmark);
      mssp::MsspSimulator Sim(Program, seriesConfig(Ser));
      mssp::MsspResult Result = Sim.run();
      S.setCount(Result.MasterInstructions + Result.CheckerInstructions);
      return std::any(std::move(Result));
    });
  return Plan;
}

bool sameResult(const mssp::MsspResult &A, const mssp::MsspResult &B) {
  return A.TotalCycles == B.TotalCycles && A.Tasks == B.Tasks &&
         A.TaskSquashes == B.TaskSquashes &&
         A.MasterInstructions == B.MasterInstructions &&
         A.CheckerInstructions == B.CheckerInstructions &&
         A.OptRequests == B.OptRequests &&
         A.Regenerations == B.Regenerations &&
         A.DistillCacheHits == B.DistillCacheHits &&
         A.DistillCacheMisses == B.DistillCacheMisses &&
         A.MasterBranchMispredicts == B.MasterBranchMispredicts &&
         A.Controller == B.Controller;
}

/// Records the checker-side branch stream (site, outcome, instret).
class BranchRecorder final : public fsim::ExecObserver {
public:
  struct Event {
    ir::SiteId Site;
    bool Taken;
    uint64_t InstRet;
  };
  std::vector<Event> Events;

  void onInstruction(const ir::Instruction &, const fsim::InstLocation &)
      override {
    ++Retired;
  }
  void onBranch(ir::SiteId Site, bool Taken) override {
    Events.push_back({Site, Taken, Retired + 1});
  }

private:
  uint64_t Retired = 0;
};

/// Per-layer cost probes over one benchmark's program (traced runs only).
void probeProgram(Tracer &T, uint32_t Bench,
                  const workload::SynthProgram &Program, Results &R) {
  const ExecTier Tier = RunConfig::global().Tier;
  const mssp::MachineConfig Machine;

  // distill: every region under its dominant-direction assertion set.
  std::vector<distill::DistillResult> Regions;
  for (uint32_t FuncId : Program.RegionFunctions) {
    distill::DistillRequest Request;
    for (const workload::SynthSiteInfo &Info : Program.Sites)
      if (!Info.IsControlSite && Info.FunctionId == FuncId)
        Request.BranchAssertions[Info.Site] = Info.Behavior.BiasA >= 0.5;
    ScopedSpan S(&T, T.name("distill.distillFunction"), Bench);
    S.setCount(1);
    Regions.push_back(
        distill::distillFunction(Program.Mod.function(FuncId), Request));
  }

  // exec, then exec + timing, on the original and the distilled program.
  for (int Timed = 0; Timed < 2; ++Timed)
    for (int Distilled = 0; Distilled < 2; ++Distilled) {
      std::unique_ptr<fsim::ExecBackend> Backend =
          exec::createBackend(Tier, Program.Mod, Program.InitialMemory);
      if (Distilled)
        for (size_t I = 0; I < Regions.size(); ++I)
          Backend->setCodeVersion(Program.RegionFunctions[I],
                                  &Regions[I].Distilled);
      mssp::CacheModel L2(Machine.L2);
      mssp::CoreTiming Timing(Machine.Leading, &L2, Machine.L2.LatencyCycles,
                              Machine.MemoryLatencyCycles);
      ScopedSpan S(&T, T.name(Timed ? "probe.exec_timed" : "probe.exec"),
                   Bench);
      const fsim::StopReason Reason =
          Backend->run(Fuel, Timed ? &Timing : nullptr);
      S.setCount(Backend->instructionsRetired());
      if (Reason != fsim::StopReason::Halted)
        R.fail("probe: program of benchmark " + std::to_string(Bench) +
               " did not halt");
    }

  // core: per-event onBranch over the checker's branch stream.
  BranchRecorder Rec;
  std::unique_ptr<fsim::ExecBackend> Backend =
      exec::createBackend(Tier, Program.Mod, Program.InitialMemory);
  Backend->run(Fuel, &Rec);
  core::ReactiveController Ctl(seriesConfig(MsspSeries[ClosedOneK - 1]).Control);
  ScopedSpan S(&T, T.name("probe.onBranch"), Bench);
  for (const BranchRecorder::Event &E : Rec.Events)
    Ctl.onBranch(E.Site, E.Taken, E.InstRet);
  S.setCount(Rec.Events.size());
}

} // namespace

void perfbench::runMssp(const Options &Opt, Results &R, Tracer *T) {
  const unsigned Jobs = threadBudget();
  Hooks H;
  if (T) {
    H.CellName = T->name("engine.cell");
    H.SynthName = T->name("workload.synthesize");
    H.RunName = T->name("mssp.run");
    H.BaselineName = T->name("mssp.baseline");
  }

  // ---- Repetitions: set-up (suite profiles and plan), then the timed
  // grid.  Set-up is sampled once per repetition, so its median spans the
  // whole run rather than one burst at its start. ----
  engine::ExperimentPlan Plan;
  engine::RunOptions Run;
  Run.Jobs = Jobs;
  const uint64_t PhaseStart = nowNs();
  engine::RunReport Ref;
  std::vector<double> Walls, MsspInsts, CtlEvents;
  double LastWall = 0;
  unsigned Reps = 0;
  const uint64_t GridName = T ? T->name("bench.grid") : 0;
  const uint64_t UntracedName = T ? T->name("bench.grid_untraced") : 0;
  // Traced runs alternate untraced and traced repetitions and always end
  // on a complete pair.
  while (Reps < 2 || (T && Reps % 2 == 1) ||
         secondsBetween(PhaseStart, nowNs()) + LastWall <= Opt.Seconds) {
    const bool TracedRep = T && Reps % 2 == 1;
    resetPeakRss();
    const uint64_t SetupStart = nowNs();
    Plan = buildPlan(Opt.Seed, H);
    R.add("setup_s", secondsBetween(SetupStart, nowNs()));
    H.T = TracedRep ? T : nullptr;
    ScopedSpan Grid(T, TracedRep ? GridName : UntracedName, Reps, 0);
    H.GridSpan = Grid.id();
    const uint64_t Start = nowNs();
    engine::RunReport Report = engine::runPlan(Plan, Run);
    const double Wall = secondsBetween(Start, nowNs());
    H.T = nullptr;
    if (!T)
      R.add("peak_rss_mb", peakRssMb());
    releaseFreeMemory();

    double Insts = 0, Events = 0;
    for (const engine::CellResult &Cell : Report.Cells) {
      ++R.Attempted;
      if (Cell.Failed) {
        R.fail("cell " + Cell.Benchmark + "/" + Cell.Config +
               " failed: " + Cell.Error);
        continue;
      }
      if (!T)
        R.add("latency_us", Cell.WallSeconds * 1e6);
      const size_t I = &Cell - Report.Cells.data();
      if (Cell.Coord.Config == 0) {
        if (Reps && std::any_cast<BaselineCell>(Cell.Value).Cycles !=
                        std::any_cast<BaselineCell>(Ref.Cells[I].Value).Cycles)
          R.fail("baseline " + Cell.Benchmark + " differs between repetitions");
        continue;
      }
      const auto &Res = std::any_cast<const mssp::MsspResult &>(Cell.Value);
      Insts += static_cast<double>(Res.MasterInstructions +
                                   Res.CheckerInstructions);
      Events += static_cast<double>(Res.Controller.Branches);
      if (Reps && !Ref.Cells[I].Failed &&
          !sameResult(Res,
                      std::any_cast<const mssp::MsspResult &>(Ref.Cells[I].Value)))
        R.fail("cell " + Cell.Benchmark + "/" + Cell.Config +
               " differs between repetitions");
    }
    Grid.setCount(static_cast<uint64_t>(Insts));
    Walls.push_back(Wall);
    MsspInsts.push_back(Insts);
    CtlEvents.push_back(Events);
    if (Reps == 0)
      Ref = std::move(Report);
    LastWall = Wall;
    ++Reps;
  }
  R.Values["repetitions"] = Reps;
  const uint32_t NumBench = static_cast<uint32_t>(Plan.benchmarks().size());
  auto addRates = [&](double BaselineInsts) {
    for (size_t I = 0; !T && I < Walls.size(); ++I) {
      R.add("sim_insts_per_s", (MsspInsts[I] + BaselineInsts) / Walls[I]);
      R.add("events_per_s", CtlEvents[I] / Walls[I]);
    }
  };
  if (R.Failed) {
    // The reference repetition is incomplete: report the failures with
    // the rates measured, and no exact results.
    addRates(0);
    R.Values["correct_pct"] = R.Values["misspec_pct"] = 0;
    return;
  }

  // ---- Output checks and the baseline's retired instructions. ----
  const uint64_t TaskIterations = mssp::MsspConfig().TaskIterations;
  double BaselineInsts = 0, Speedup = 0, Correct = 0, Incorrect = 0;
  std::vector<workload::SynthProgram> Programs;
  for (uint32_t B = 0; B < NumBench; ++B) {
    const std::string &Name = Plan.benchmarks()[B].Spec.Name;
    workload::SynthProgram Program =
        workload::synthesize(synthSpec(Name, B, Opt.Seed));
    std::unique_ptr<fsim::ExecBackend> Backend = exec::createBackend(
        RunConfig::global().Tier, Program.Mod, Program.InitialMemory);
    ++R.Attempted;
    if (Backend->run(Fuel) != fsim::StopReason::Halted)
      R.fail("baseline program of " + Name + " did not halt");
    const uint64_t Retired = Backend->instructionsRetired();
    BaselineInsts += static_cast<double>(Retired);
    // One task per TaskIterations main-loop iterations, plus the final
    // task that runs from the last boundary to Halt.
    const uint64_t Tasks = Program.Iterations / TaskIterations + 1;
    for (uint32_t C = 1; C < NumColumns; ++C) {
      const auto &Res =
          std::any_cast<const mssp::MsspResult &>(Ref.cell(B, 0, C).Value);
      ++R.Attempted;
      if (Res.CheckerInstructions != Retired || Res.Tasks != Tasks)
        R.fail(Name + "/" + MsspSeries[C - 1].Name + ": checker " +
               std::to_string(Res.CheckerInstructions) + " vs retired " +
               std::to_string(Retired) + ", tasks " +
               std::to_string(Res.Tasks) + " vs " + std::to_string(Tasks));
    }
    const auto &Closed =
        std::any_cast<const mssp::MsspResult &>(Ref.cell(B, 0, ClosedOneK).Value);
    Speedup += static_cast<double>(
                   std::any_cast<BaselineCell>(Ref.cell(B, 0, 0).Value).Cycles) /
               static_cast<double>(Closed.TotalCycles);
    Correct += Closed.Controller.correctRate();
    Incorrect += Closed.Controller.incorrectRate();
    if (T)
      Programs.push_back(std::move(Program));
  }
  addRates(BaselineInsts);
  R.Values["speedup_closed"] = Speedup / NumBench;
  R.Values["correct_pct"] = 100.0 * Correct / NumBench;
  R.Values["misspec_pct"] = 100.0 * Incorrect / NumBench;

  uint64_t Master = 0, Checker = 0, Tasks = 0, Squashes = 0, Hits = 0,
           Misses = 0, Branches = 0, Requests = 0;
  for (const engine::CellResult &Cell : Ref.Cells) {
    if (Cell.Coord.Config == 0)
      continue;
    const auto &Res = std::any_cast<const mssp::MsspResult &>(Cell.Value);
    Master += Res.MasterInstructions;
    Checker += Res.CheckerInstructions;
    Tasks += Res.Tasks;
    Squashes += Res.TaskSquashes;
    Hits += Res.DistillCacheHits;
    Misses += Res.DistillCacheMisses;
    Branches += Res.Controller.Branches;
    Requests += Res.OptRequests;
  }
  R.Values["core.requests"] = static_cast<double>(Requests);
  if (!T)
    return;

  // ---- Traced run: exact counts and the per-layer cost probes. ----
  T->count("engine.workers", Jobs);
  T->count("core.requests", static_cast<double>(Requests));
  T->count("mssp.master_insts", static_cast<double>(Master));
  T->count("mssp.checker_insts", static_cast<double>(Checker));
  T->count("mssp.tasks", static_cast<double>(Tasks));
  T->count("mssp.squashes", static_cast<double>(Squashes));
  T->count("mssp.distill_cache_hits", static_cast<double>(Hits));
  T->count("mssp.distill_cache_misses", static_cast<double>(Misses));
  T->count("mssp.controller_branches", static_cast<double>(Branches));
  T->count("mssp.speedup_closed", Speedup / NumBench);
  T->count("mssp.traced_grids", static_cast<double>(Reps / 2));
  for (uint32_t B = 0; B < NumBench; ++B)
    probeProgram(*T, B, Programs[B], R);
}
