//===- perfbench/cpp/Sweep.cpp - The `sweep` workload ---------------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
//
// The Table 4 grid: all twelve suite benchmarks (ref input) x the seven
// Table 4 controller configurations, run through engine::runPlan with a
// trace arena.  Each timed repetition starts from a fresh arena, so trace
// materialization is paid inside the timed phase, as every invocation of
// the sweep pays it.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "Table4Experiment.h"
#include "core/ReactiveController.h"
#include "engine/ExperimentRunner.h"
#include "workload/SpecSuite.h"
#include "workload/TraceArena.h"

#include <cstdio>
#include <memory>
#include <vector>

using namespace perfbench;
using namespace specctrl;

namespace {

/// Run-length scale: 1/6 of the bench default, so one grid takes seconds.
constexpr double EventsPerBillion = 1.0e5;
/// Cells re-run serially through the generator path by the output check.
constexpr unsigned CheckedCells = 3;

/// The Table 4 baseline under the table4 bench's default rescaling.
core::ReactiveConfig sweepBaseline() {
  core::ReactiveConfig C = core::ReactiveConfig::baseline();
  C.OptLatency = 10000;
  C.WaitPeriod = 50000;
  return C;
}


/// Traced-run state shared with the cell factories.
struct Hooks {
  Tracer *T = nullptr; ///< null during untraced repetitions
  const engine::ExperimentPlan *Plan = nullptr;
  uint64_t GridSpan = 0;
  uint64_t CellName = 0, MaterializeName = 0, OnBatchName = 0;
};

/// Forwards to the cell's real controller, timing each onBatch call and
/// closing the cell span when the engine destroys it at the cell's end.
class TracedController final : public core::SpeculationController {
public:
  TracedController(std::unique_ptr<core::SpeculationController> Inner,
                   const Hooks &H, std::unique_ptr<OpenSpan> Cell)
      : Inner(std::move(Inner)), H(H), Cell(std::move(Cell)) {}
  ~TracedController() override {
    Cell->close(Inner->stats().EventsConsumed);
  }

  core::BranchVerdict onBranch(core::SiteId Site, bool Taken,
                               uint64_t InstRet) override {
    return Inner->onBranch(Site, Taken, InstRet);
  }
  void onBatch(std::span<const workload::BranchEvent> Events,
               core::BranchVerdict *Verdicts) override {
    ScopedSpan S(H.T, H.OnBatchName);
    S.setCount(Events.size());
    Inner->onBatch(Events, Verdicts);
  }
  bool isDeployed(core::SiteId Site) const override {
    return Inner->isDeployed(Site);
  }
  bool deployedDirection(core::SiteId Site) const override {
    return Inner->deployedDirection(Site);
  }
  const core::ControlStats &stats() const override { return Inner->stats(); }
  core::ControlStats &stats() override { return Inner->stats(); }
  const char *name() const override { return Inner->name(); }

private:
  std::unique_ptr<core::SpeculationController> Inner;
  const Hooks &H;
  std::unique_ptr<OpenSpan> Cell;
};

engine::ExperimentPlan
buildPlan(uint64_t Seed, const std::vector<bench::Table4Variant> &Variants,
          const Hooks &H) {
  engine::ExperimentPlan Plan;
  Plan.setBaseSeed(Seed);
  workload::SuiteScale Scale;
  Scale.EventsPerBillion = EventsPerBillion;
  for (workload::WorkloadSpec &Spec : workload::makeSuite(Scale))
    Plan.addBenchmark(std::move(Spec));
  const uint32_t NumConfigs = static_cast<uint32_t>(Variants.size());
  for (const bench::Table4Variant &V : Variants)
    Plan.addConfig(V.Name, [C = V.Config, &H, NumConfigs](
                               const engine::CellContext &Ctx)
                               -> std::unique_ptr<core::SpeculationController> {
      if (!H.T)
        return std::make_unique<core::ReactiveController>(C);
      const uint64_t Req =
          uint64_t(Ctx.Coord.Benchmark) * NumConfigs + Ctx.Coord.Config;
      auto Cell =
          std::make_unique<OpenSpan>(H.T, H.CellName, Req, H.GridSpan);
      {
        // Materialize from the cell, inside a span; the engine's own
        // open() that follows is then a hit on the same entry.
        ScopedSpan M(H.T, H.MaterializeName, Ctx.Coord.Benchmark);
        auto Trace = H.Plan->traceArena()->materialize(Ctx.Spec, Ctx.Input);
        M.setCount(Trace ? Trace->totalEvents() : 0);
      }
      return std::make_unique<TracedController>(
          std::make_unique<core::ReactiveController>(C), H, std::move(Cell));
    });
  return Plan;
}

struct GridRun {
  engine::RunReport Report;
  double Wall = 0;
  uint64_t Events = 0;
  uint64_t Insts = 0;
};

GridRun runGrid(engine::ExperimentPlan &Plan, unsigned Jobs,
                std::shared_ptr<workload::TraceArena> Arena) {
  Plan.setTraceArena(std::move(Arena));
  engine::RunOptions Run;
  Run.Jobs = Jobs;
  GridRun G;
  const uint64_t Start = nowNs();
  G.Report = engine::runPlan(Plan, Run);
  G.Wall = secondsBetween(Start, nowNs());
  for (const engine::CellResult &Cell : G.Report.Cells) {
    G.Events += Cell.Stats.EventsConsumed;
    G.Insts += Cell.Stats.LastInstRet;
  }
  return G;
}

/// Counts failed cells and cells whose stats differ from the reference
/// repetition (the grid is deterministic, so every repetition must agree).
void checkGrid(const GridRun &G, const engine::RunReport *Ref, Results &R) {
  for (size_t I = 0; I < G.Report.Cells.size(); ++I) {
    const engine::CellResult &Cell = G.Report.Cells[I];
    ++R.Attempted;
    if (Cell.Failed)
      R.fail("cell " + Cell.Benchmark + "/" + Cell.Config +
             " failed: " + Cell.Error);
    else if (Ref && !(Cell.Stats == Ref->Cells[I].Stats))
      R.fail("cell " + Cell.Benchmark + "/" + Cell.Config +
             " differs between repetitions");
  }
}

} // namespace

void perfbench::runSweep(const Options &Opt, Results &R, Tracer *T) {
  const unsigned Jobs = threadBudget();
  const std::vector<bench::Table4Variant> Variants =
      bench::table4Variants(sweepBaseline(), /*NoOscillationLimit=*/false);

  Hooks H;
  engine::ExperimentPlan Plan;
  H.Plan = &Plan;
  if (T) {
    H.CellName = T->name("engine.cell");
    H.MaterializeName = T->name("workload.materialize");
    H.OnBatchName = T->name("core.onBatch");
  }
  const uint32_t NumConfigs = static_cast<uint32_t>(Variants.size());

  // ---- Repetitions: set-up (suite construction and plan), then the
  // timed grid.  Set-up is sampled once per repetition, so its median
  // spans the whole run rather than one burst at its start. ----
  const uint64_t PhaseStart = nowNs();
  auto Elapsed = [&] { return secondsBetween(PhaseStart, nowNs()); };
  engine::RunReport Ref;
  bool HaveRef = false;
  std::shared_ptr<workload::TraceArena> ProbeArena;
  double LastWall = 0;
  unsigned Reps = 0;
  const uint64_t GridName = T ? T->name("bench.grid") : 0;
  const uint64_t UntracedName = T ? T->name("bench.grid_untraced") : 0;
  // A traced run always ends on a complete untraced/traced pair.
  while (Reps < 2 || (T && Reps % 2 == 1) ||
         Elapsed() + LastWall <= Opt.Seconds) {
    // Traced runs alternate untraced and traced repetitions of the same
    // grid; the pair walls give the tracing overhead.
    const bool TracedRep = T && Reps % 2 == 1;
    resetPeakRss();
    const uint64_t SetupStart = nowNs();
    Plan = buildPlan(Opt.Seed, Variants, H);
    R.add("setup_s", secondsBetween(SetupStart, nowNs()));
    auto Arena = std::make_shared<workload::TraceArena>();
    GridRun G;
    {
      ScopedSpan S(T, TracedRep ? GridName : UntracedName, Reps, 0);
      H.T = TracedRep ? T : nullptr;
      H.GridSpan = S.id();
      G = runGrid(Plan, Jobs, Arena);
      H.T = nullptr;
      S.setCount(G.Events);
    }
    Plan.setTraceArena(nullptr);
    if (TracedRep)
      ProbeArena = Arena;
    Arena.reset();
    releaseFreeMemory();
    checkGrid(G, HaveRef ? &Ref : nullptr, R);
    if (!T) {
      R.add("peak_rss_mb", peakRssMb());
      R.add("events_per_s", static_cast<double>(G.Events) / G.Wall);
      R.add("sim_insts_per_s", static_cast<double>(G.Insts) / G.Wall);
      for (const engine::CellResult &Cell : G.Report.Cells)
        R.add("latency_us", Cell.WallSeconds * 1e6);
    }
    if (!HaveRef) {
      Ref = std::move(G.Report);
      HaveRef = true;
    }
    LastWall = G.Wall;
    ++Reps;
  }
  R.Values["repetitions"] = Reps;
  const uint32_t NumBench = static_cast<uint32_t>(Plan.benchmarks().size());

  // ---- Exact results: Table 4's baseline row, suite average. ----
  uint32_t BaselineCol = 0;
  for (uint32_t C = 0; C < NumConfigs; ++C)
    if (Variants[C].Name == "baseline")
      BaselineCol = C;
  double Correct = 0, Incorrect = 0;
  uint64_t Requests = 0;
  for (uint32_t B = 0; B < NumBench; ++B) {
    const core::ControlStats &S = Ref.cell(B, 0, BaselineCol).Stats;
    Correct += S.correctRate();
    Incorrect += S.incorrectRate();
  }
  for (const engine::CellResult &Cell : Ref.Cells)
    Requests += Cell.Stats.DeployRequests + Cell.Stats.RevokeRequests;
  R.Values["correct_pct"] = 100.0 * Correct / NumBench;
  R.Values["misspec_pct"] = 100.0 * Incorrect / NumBench;
  R.Values["core.requests"] = static_cast<double>(Requests);

  // ---- Output check: arena == generator on a seeded sample of cells. ----
  uint64_t Pick = mixSeed(Opt.Seed ^ 0x5357454550ull);
  for (unsigned K = 0; K < CheckedCells; ++K) {
    Pick = mixSeed(Pick);
    const uint32_t B = static_cast<uint32_t>(Pick % NumBench);
    const uint32_t C = static_cast<uint32_t>((Pick >> 32) % NumConfigs);
    const engine::BenchmarkAxis &Axis = Plan.benchmarks()[B];
    core::ReactiveController Ctl(Variants[C].Config);
    core::runWorkload(Ctl, Axis.Spec, Axis.Inputs[0]);
    ++R.Attempted;
    if (!(Ctl.stats() == Ref.cell(B, 0, C).Stats))
      R.fail("arena != generator for " + Axis.Spec.Name + "/" +
             Variants[C].Name);
  }

  if (!T)
    return;

  // ---- Probe: decode and controller cost over the same arena cursors. ----
  T->count("core.requests", static_cast<double>(Requests));
  T->count("engine.workers", Jobs);
  const uint64_t ReplayName = T->name("probe.replay");
  const uint64_t NextBatchName = T->name("workload.nextBatch");
  const uint64_t ProbeBatchName = T->name("probe.onBatch");
  std::vector<workload::BranchEvent> Buf(workload::DefaultBatchEvents);
  std::vector<core::BranchVerdict> Verdicts(Buf.size());
  for (uint32_t B = 0; B < NumBench; ++B) {
    const engine::BenchmarkAxis &Axis = Plan.benchmarks()[B];
    std::shared_ptr<const workload::MaterializedTrace> Trace =
        ProbeArena->materialize(Axis.Spec, Axis.Inputs[0]);
    if (!Trace) {
      R.fail("probe: trace of " + Axis.Spec.Name + " not materialized");
      continue;
    }
    T->count("workload.arena_bytes", static_cast<double>(Trace->bytes()));
    T->count("workload.arena_events",
             static_cast<double>(Trace->totalEvents()));
    workload::ArenaReplaySource Cursor(Trace);
    core::ReactiveController Ctl(Variants[BaselineCol].Config);
    ScopedSpan Replay(T, ReplayName, B, 0);
    uint64_t Total = 0;
    while (true) {
      size_t N;
      {
        ScopedSpan S(T, NextBatchName, B);
        N = Cursor.nextBatch(Buf);
        S.setCount(N);
      }
      if (N == 0)
        break;
      ScopedSpan S(T, ProbeBatchName, B);
      S.setCount(N);
      Ctl.onBatch(std::span<const workload::BranchEvent>(Buf.data(), N),
                  Verdicts.data());
      Total += N;
    }
    Replay.setCount(Total);
  }
}
