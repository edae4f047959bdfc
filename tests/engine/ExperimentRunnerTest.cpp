//===- tests/engine/ExperimentRunnerTest.cpp ------------------------------===//
//
// Runner behavior: report layout, submission order, per-cell seeding,
// observer plumbing, throughput accounting, and failure isolation (a
// throwing cell must not poison its siblings).
//
//===----------------------------------------------------------------------===//

#include "engine/ExperimentRunner.h"

#include "core/Driver.h"
#include "core/ReactiveController.h"
#include "workload/TraceArena.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <vector>

using namespace specctrl;
using namespace specctrl::core;
using namespace specctrl::engine;
using namespace specctrl::workload;

namespace {

WorkloadSpec smallSpec(const char *Name, uint64_t Seed,
                       uint64_t Events = 20000) {
  WorkloadSpec Spec;
  Spec.Name = Name;
  Spec.Seed = Seed;
  Spec.RefEvents = Events;
  Spec.TrainEvents = Events / 2;
  Spec.NumPhases = 1;
  SiteSpec Biased;
  Biased.Behavior = BehaviorSpec::fixed(0.999);
  Biased.Weight = 3.0;
  SiteSpec Noise;
  Noise.Behavior = BehaviorSpec::fixed(0.5);
  Noise.Weight = 1.0;
  Spec.Sites = {Biased, Noise};
  return Spec;
}

ReactiveConfig fastConfig() {
  ReactiveConfig Cfg;
  Cfg.MonitorPeriod = 1000;
  Cfg.OptLatency = 0;
  return Cfg;
}

ControllerFactory reactiveFactory() {
  return [](const CellContext &) {
    return std::make_unique<ReactiveController>(fastConfig());
  };
}

/// A controller that throws mid-run: exercises failure isolation.
class ThrowingController final : public SpeculationController {
public:
  BranchVerdict onBranch(SiteId, bool, uint64_t) override {
    if (++Seen > 100)
      throw std::runtime_error("deliberate cell failure");
    return {};
  }
  bool isDeployed(SiteId) const override { return false; }
  bool deployedDirection(SiteId) const override { return false; }
  const ControlStats &stats() const override { return Stats; }
  ControlStats &stats() override { return Stats; }
  const char *name() const override { return "throwing"; }

private:
  uint64_t Seen = 0;
  ControlStats Stats;
};

/// Counts the events its cell saw.
class CountingObserver final : public core::TraceObserver {
public:
  void onEvent(const BranchEvent &, const BranchVerdict &) override {
    ++Events;
  }
  uint64_t Events = 0;
};

/// Records the coordinates of the cells in the order they start, holding
/// the first Gate starters until all of them have entered.  With a FIFO
/// pool of Gate workers, the held cells are exactly the first Gate cells
/// submitted.
class StartRecorder {
public:
  explicit StartRecorder(size_t Gate) : Gate(Gate) {}

  ControllerFactory factory() {
    return [this](const CellContext &Ctx) {
      std::unique_lock<std::mutex> Lock(Mutex);
      Starts.push_back(Ctx.Coord);
      if (Starts.size() == Gate)
        Entered.notify_all();
      else if (Starts.size() < Gate)
        Entered.wait_for(Lock, std::chrono::seconds(30),
                         [this] { return Starts.size() >= Gate; });
      return std::make_unique<ReactiveController>(fastConfig());
    };
  }

  std::vector<CellCoord> firstStarts() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return {Starts.begin(),
            Starts.begin() +
                static_cast<std::ptrdiff_t>(std::min(Gate, Starts.size()))};
  }

private:
  const size_t Gate;
  mutable std::mutex Mutex;
  std::condition_variable Entered;
  std::vector<CellCoord> Starts;
};

/// Four benchmarks with ascending trace lengths x three configs, all
/// columns built by \p Recorder.
ExperimentPlan orderPlan(StartRecorder &Recorder) {
  ExperimentPlan Plan;
  const char *Names[] = {"alpha", "beta", "gamma", "delta"};
  for (uint64_t B = 0; B < 4; ++B)
    Plan.addBenchmark(smallSpec(Names[B], B + 1, 4000 * (B + 1)));
  for (const char *Config : {"one", "two", "three"})
    Plan.addConfig(Config, Recorder.factory());
  return Plan;
}

} // namespace

TEST(ExperimentRunnerTest, ArenaPlanStartsDistinctKeysLongestFirst) {
  StartRecorder Recorder(3);
  ExperimentPlan Plan = orderPlan(Recorder);
  auto Arena = std::make_shared<TraceArena>();
  Plan.setTraceArena(Arena);

  const RunReport Report = runPlan(Plan, {.Jobs = 3});
  ASSERT_EQ(Report.Cells.size(), 12u);
  EXPECT_EQ(Report.failedCells(), 0u);

  // Config-major, longest trace first: the three workers start on the
  // first config's three longest benchmarks, so none waits on another's
  // materialization.
  std::set<uint32_t> Benchmarks;
  for (const CellCoord &Coord : Recorder.firstStarts()) {
    EXPECT_EQ(Coord.Config, 0u);
    Benchmarks.insert(Coord.Benchmark);
  }
  EXPECT_EQ(Benchmarks, (std::set<uint32_t>{1, 2, 3}));
  EXPECT_EQ(Arena->stats().Materializations, 4u);

  // Report slots stay benchmark-major.
  const std::vector<CellResult> Layout = layoutPlanCells(Plan);
  for (size_t I = 0; I < Layout.size(); ++I)
    EXPECT_EQ(Report.Cells[I].Coord, Layout[I].Coord) << "slot " << I;
}

TEST(ExperimentRunnerTest, PlanWithoutArenaStartsInLayoutOrder) {
  StartRecorder Recorder(3);
  const ExperimentPlan Plan = orderPlan(Recorder);

  const RunReport Report = runPlan(Plan, {.Jobs = 3});
  ASSERT_EQ(Report.Cells.size(), 12u);
  EXPECT_EQ(Report.failedCells(), 0u);

  // No arena, no shared materialization: cells go in report order, so the
  // first three starts are layout cells 0-2.
  std::set<uint32_t> Configs;
  for (const CellCoord &Coord : Recorder.firstStarts()) {
    EXPECT_EQ(Coord.Benchmark, 0u);
    EXPECT_EQ(Coord.Input, 0u);
    Configs.insert(Coord.Config);
  }
  EXPECT_EQ(Configs, (std::set<uint32_t>{0, 1, 2}));
}

TEST(ExperimentRunnerTest, ReportHasStableGridOrder) {
  ExperimentPlan Plan;
  WorkloadSpec A = smallSpec("alpha", 1);
  Plan.addBenchmark(A, {A.refInput(), A.trainInput()});
  Plan.addBenchmark(smallSpec("beta", 2));
  Plan.addConfig("one", reactiveFactory());
  Plan.addConfig("two", reactiveFactory());
  EXPECT_EQ(Plan.numCells(), 6u);

  const RunReport Report = runPlan(Plan, {.Jobs = 4});
  ASSERT_EQ(Report.Cells.size(), 6u);
  EXPECT_EQ(Report.failedCells(), 0u);

  // benchmark-major, then input, then config.
  EXPECT_EQ(Report.Cells[0].Benchmark, "alpha");
  EXPECT_EQ(Report.Cells[0].Input, "ref");
  EXPECT_EQ(Report.Cells[0].Config, "one");
  EXPECT_EQ(Report.Cells[1].Config, "two");
  EXPECT_EQ(Report.Cells[2].Input, "train");
  EXPECT_EQ(Report.Cells[4].Benchmark, "beta");

  const CellResult *Found = Report.find("alpha", "train", "two");
  ASSERT_NE(Found, nullptr);
  EXPECT_EQ(Found->Coord, (CellCoord{0, 1, 1}));
  EXPECT_EQ(&Report.cell(0, 1, 1), Found);
  EXPECT_EQ(Report.find("alpha", "ref", "missing"), nullptr);
}

TEST(ExperimentRunnerTest, CellSeedsAreCoordinatePure) {
  const uint64_t S00 = ExperimentPlan::cellSeed(7, {0, 0, 0});
  EXPECT_EQ(S00, ExperimentPlan::cellSeed(7, {0, 0, 0}));
  EXPECT_NE(S00, ExperimentPlan::cellSeed(7, {0, 0, 1}));
  EXPECT_NE(S00, ExperimentPlan::cellSeed(7, {0, 1, 0}));
  EXPECT_NE(S00, ExperimentPlan::cellSeed(7, {1, 0, 0}));
  EXPECT_NE(S00, ExperimentPlan::cellSeed(8, {0, 0, 0}));

  ExperimentPlan Plan;
  Plan.setBaseSeed(7);
  Plan.addBenchmark(smallSpec("alpha", 1, 2000));
  Plan.addConfig("one", reactiveFactory());
  const RunReport Report = runPlan(Plan, {.Jobs = 1});
  EXPECT_EQ(Report.Cells[0].Seed, S00);
}

TEST(ExperimentRunnerTest, CountsEventsAndThroughput) {
  ExperimentPlan Plan;
  Plan.addBenchmark(smallSpec("alpha", 3, 30000));
  Plan.addConfig("one", reactiveFactory());
  const RunReport Report = runPlan(Plan, {.Jobs = 2});
  const CellResult &Cell = Report.cell(0, 0, 0);
  EXPECT_EQ(Cell.Events, 30000u);
  EXPECT_EQ(Cell.Stats.EventsConsumed, 30000u);
  EXPECT_EQ(Cell.Stats.Branches, 30000u);
  EXPECT_GT(Cell.WallSeconds, 0.0);
  EXPECT_GE(Cell.QueueWaitSeconds, 0.0);
  EXPECT_GT(Cell.eventsPerSecond(), 0.0);
  EXPECT_EQ(Report.totalEvents(), 30000u);
  EXPECT_GT(Report.eventsPerSecond(), 0.0);
}

TEST(ExperimentRunnerTest, FailingCellDoesNotPoisonSiblings) {
  ExperimentPlan Plan;
  Plan.addBenchmark(smallSpec("alpha", 1));
  Plan.addBenchmark(smallSpec("beta", 2));
  Plan.addConfig("good", reactiveFactory());
  Plan.addConfig("bad", [](const CellContext &Ctx) // throws on one bench
                 -> std::unique_ptr<SpeculationController> {
    if (Ctx.Coord.Benchmark == 0)
      return std::make_unique<ThrowingController>();
    return std::make_unique<ReactiveController>(fastConfig());
  });

  const RunReport Report = runPlan(Plan, {.Jobs = 4});
  ASSERT_EQ(Report.Cells.size(), 4u);
  EXPECT_EQ(Report.failedCells(), 1u);

  const CellResult &Bad = Report.cell(0, 0, 1);
  EXPECT_TRUE(Bad.Failed);
  EXPECT_EQ(Bad.Error, "deliberate cell failure");

  for (const CellResult &Cell : Report.Cells) {
    if (&Cell == &Bad)
      continue;
    EXPECT_FALSE(Cell.Failed) << Cell.Benchmark << "/" << Cell.Config;
    EXPECT_EQ(Cell.Stats.Branches, 20000u);
  }
}

TEST(ExperimentRunnerTest, NullControllerFactoryIsCapturedAsFailure) {
  ExperimentPlan Plan;
  Plan.addBenchmark(smallSpec("alpha", 1, 2000));
  Plan.addConfig("null", [](const CellContext &) {
    return std::unique_ptr<SpeculationController>();
  });
  const RunReport Report = runPlan(Plan, {.Jobs = 1});
  ASSERT_EQ(Report.failedCells(), 1u);
  EXPECT_NE(Report.Cells[0].Error.find("factory returned null"),
            std::string::npos);
}

TEST(ExperimentRunnerTest, ObserverFactoryRunsPerCell) {
  ExperimentPlan Plan;
  Plan.addBenchmark(smallSpec("alpha", 1, 10000));
  Plan.addBenchmark(smallSpec("beta", 2, 15000));
  Plan.addConfig("one", reactiveFactory());
  Plan.setObserverFactory([](const CellContext &Ctx)
                              -> std::unique_ptr<core::TraceObserver> {
    if (Ctx.Spec.Name == "beta")
      return nullptr; // observers are optional per cell
    return std::make_unique<CountingObserver>();
  });

  const RunReport Report = runPlan(Plan, {.Jobs = 4});
  const CellResult &Alpha = Report.cell(0, 0, 0);
  ASSERT_NE(Alpha.Observer, nullptr);
  EXPECT_EQ(static_cast<const CountingObserver &>(*Alpha.Observer).Events,
            10000u);
  EXPECT_EQ(Report.cell(1, 0, 0).Observer, nullptr);
  // Cells without an observer still count consumed events.
  EXPECT_EQ(Report.cell(1, 0, 0).Events, 15000u);
}
