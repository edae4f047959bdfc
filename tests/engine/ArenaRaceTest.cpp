//===- tests/engine/ArenaRaceTest.cpp -------------------------------------===//
//
// The arena-backed engine contract under concurrency: when several worker
// threads hit a cold arena key at once (one benchmark, many configs, so
// every cell wants the same trace the moment the run starts), exactly one
// materialization happens, every cell replays it, and the per-cell
// ControlStats are bit-identical to an arena-less serial run.  Built to
// run under TSAN (-DSPECCTRL_TSAN=ON): the call_once/mutex discipline in
// TraceArena is what it exercises.
//
//===----------------------------------------------------------------------===//

#include "engine/ExperimentRunner.h"

#include "core/ReactiveController.h"
#include "workload/SpecSuite.h"
#include "workload/TraceArena.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

using namespace specctrl;
using namespace specctrl::core;
using namespace specctrl::engine;
using namespace specctrl::workload;

namespace {

constexpr SuiteScale TestScale{3.0e3, 0.1};

ReactiveConfig scaledConfig(double SelectThreshold) {
  ReactiveConfig C = ReactiveConfig::baseline();
  C.MonitorPeriod = 100;
  C.WaitPeriod = 2000;
  C.OptLatency = 0;
  C.SelectThreshold = SelectThreshold;
  return C;
}

/// One benchmark, eight configs: every cell needs the same (spec, input)
/// trace, so a parallel run races all workers on one cold arena key.
ExperimentPlan contendedPlan() {
  ExperimentPlan Plan;
  Plan.setBaseSeed(42);
  Plan.addBenchmark(makeBenchmark("gzip", TestScale));
  const double Ladder[] = {0.90, 0.95, 0.98, 0.99,
                           0.995, 0.998, 0.9995, 0.9999};
  for (const double T : Ladder)
    Plan.addConfig("t" + std::to_string(T), [T](const CellContext &) {
      return std::make_unique<ReactiveController>(scaledConfig(T));
    });
  return Plan;
}

std::vector<ControlStats> cellStats(const RunReport &Report) {
  std::vector<ControlStats> Out;
  for (const CellResult &Cell : Report.Cells) {
    EXPECT_FALSE(Cell.Failed) << Cell.Config << ": " << Cell.Error;
    Out.push_back(Cell.Stats);
  }
  return Out;
}

} // namespace

TEST(ArenaRaceTest, ColdKeyRaceMaterializesOnceAndMatchesSerialNoArena) {
  ExperimentPlan Plan = contendedPlan();

  // The oracle: serial, no arena (every cell re-synthesizes its trace).
  RunOptions Serial;
  Serial.Jobs = 1;
  const std::vector<ControlStats> Reference =
      cellStats(runPlan(Plan, Serial));
  ASSERT_EQ(Reference.size(), 8u);

  // Four workers race on the single cold key; repeated to give the race
  // a few chances to interleave differently (esp. under TSAN).
  for (unsigned Round = 0; Round < 3; ++Round) {
    auto Arena = std::make_shared<TraceArena>();
    Plan.setTraceArena(Arena);
    RunOptions Parallel;
    Parallel.Jobs = 4;
    const std::vector<ControlStats> Racy =
        cellStats(runPlan(Plan, Parallel));
    Plan.setTraceArena(nullptr);

    ASSERT_EQ(Racy.size(), Reference.size());
    for (size_t I = 0; I < Reference.size(); ++I)
      EXPECT_EQ(Racy[I], Reference[I]) << "cell " << I << " round " << Round;

    const TraceArenaStats S = Arena->stats();
    EXPECT_EQ(S.Materializations, 1u) << "round " << Round;
    EXPECT_EQ(S.CursorOpens, 8u) << "round " << Round;
    EXPECT_EQ(S.Fallbacks, 0u) << "round " << Round;
    // Only cells that did not materialize can have waited on the key.
    EXPECT_LE(S.BlockedOpens, S.CursorOpens - S.Materializations)
        << "round " << Round;
  }

  // Serially nothing ever waits on another thread's materialization.
  auto Arena = std::make_shared<TraceArena>();
  Plan.setTraceArena(Arena);
  EXPECT_EQ(cellStats(runPlan(Plan, Serial)), Reference);
  const TraceArenaStats S = Arena->stats();
  EXPECT_EQ(S.Materializations, 1u);
  EXPECT_EQ(S.BlockedOpens, 0u);
  EXPECT_EQ(S.BlockedSeconds, 0.0);
}

TEST(ArenaRaceTest, SharedArenaAcrossPlansReusesMaterializations) {
  // Two plans backed by one arena (the suitePlan + --trace-cache-dir use
  // case, minus the disk): the second run's cells are all warm hits.
  ExperimentPlan Plan = contendedPlan();
  auto Arena = std::make_shared<TraceArena>();
  Plan.setTraceArena(Arena);

  RunOptions Parallel;
  Parallel.Jobs = 4;
  const std::vector<ControlStats> First = cellStats(runPlan(Plan, Parallel));
  const std::vector<ControlStats> Second = cellStats(runPlan(Plan, Parallel));
  ASSERT_EQ(First.size(), Second.size());
  for (size_t I = 0; I < First.size(); ++I)
    EXPECT_EQ(First[I], Second[I]) << "cell " << I;

  const TraceArenaStats S = Arena->stats();
  EXPECT_EQ(S.Materializations, 1u);
  EXPECT_EQ(S.CursorOpens, 16u);
}
