//===- tests/mssp/MsspGoldenTest.cpp - MSSP result golden pins ------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
// Pins MsspResult bit-exactly against values captured from the first
// implementation (full-digest verification, map-based tables, unkeyed
// code cache), under both execution tiers.  Every later throughput
// change to the simulator carries the contract "never changes results";
// these tests are that contract.
//
//===----------------------------------------------------------------------===//

#include "mssp/MsspSimulator.h"
#include "workload/SpecSuite.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

using namespace specctrl;
using namespace specctrl::mssp;
using namespace specctrl::workload;

namespace {

/// The Fig. 7 short-run control configuration every golden uses.
MsspConfig fig7Config() {
  MsspConfig Cfg;
  Cfg.Control.MonitorPeriod = 1000;
  Cfg.Control.EnableEviction = true;
  Cfg.Control.EvictSaturation = 2000;
  Cfg.Control.WaitPeriod = 100000;
  return Cfg;
}

constexpr ExecTier Tiers[] = {ExecTier::Reference, ExecTier::TimingFused};

MsspResult runMssp(const std::string &Bench, uint64_t Iterations,
                   MsspConfig Cfg, ExecTier Tier) {
  const SynthProgram Program =
      synthesize(makeSynthSpecFor(profileByName(Bench), Iterations));
  Cfg.Tier = Tier;
  MsspSimulator Sim(Program, Cfg);
  return Sim.run();
}

void expectStatsEq(const core::ControlStats &A, const core::ControlStats &B,
                   const std::string &Tag) {
  EXPECT_EQ(A.Branches, B.Branches) << Tag;
  EXPECT_EQ(A.LastInstRet, B.LastInstRet) << Tag;
  EXPECT_EQ(A.CorrectSpecs, B.CorrectSpecs) << Tag;
  EXPECT_EQ(A.IncorrectSpecs, B.IncorrectSpecs) << Tag;
  EXPECT_EQ(A.DeployRequests, B.DeployRequests) << Tag;
  EXPECT_EQ(A.RevokeRequests, B.RevokeRequests) << Tag;
  EXPECT_EQ(A.SuppressedRequests, B.SuppressedRequests) << Tag;
  EXPECT_EQ(A.Evictions, B.Evictions) << Tag;
  EXPECT_EQ(A.Revisits, B.Revisits) << Tag;
  EXPECT_EQ(A.EventsConsumed, B.EventsConsumed) << Tag;
}

void expectResultsEq(const MsspResult &A, const MsspResult &B,
                     const std::string &Tag) {
  EXPECT_EQ(A.TotalCycles, B.TotalCycles) << Tag;
  EXPECT_EQ(A.Tasks, B.Tasks) << Tag;
  EXPECT_EQ(A.TaskSquashes, B.TaskSquashes) << Tag;
  EXPECT_EQ(A.MasterInstructions, B.MasterInstructions) << Tag;
  EXPECT_EQ(A.CheckerInstructions, B.CheckerInstructions) << Tag;
  EXPECT_EQ(A.OptRequests, B.OptRequests) << Tag;
  EXPECT_EQ(A.Regenerations, B.Regenerations) << Tag;
  EXPECT_EQ(A.DistillCacheHits, B.DistillCacheHits) << Tag;
  EXPECT_EQ(A.DistillCacheMisses, B.DistillCacheMisses) << Tag;
  EXPECT_EQ(A.MasterBranchMispredicts, B.MasterBranchMispredicts) << Tag;
  expectStatsEq(A.Controller, B.Controller, Tag + "/branch-ctrl");
  expectStatsEq(A.ValueController, B.ValueController, Tag + "/value-ctrl");
}

/// The memoization counters account for every redeployment exactly once.
void expectCacheCounterInvariant(const MsspResult &R, const std::string &Tag) {
  EXPECT_EQ(R.DistillCacheHits + R.DistillCacheMisses, R.Regenerations)
      << Tag;
}

/// Values captured from the first implementation (seed commit,
/// full-digest verification, map-based tables, unkeyed code cache).
struct Golden {
  uint64_t TotalCycles, Tasks, TaskSquashes;
  uint64_t MasterInstructions, CheckerInstructions;
  uint64_t OptRequests, Regenerations, MasterBranchMispredicts;
  uint64_t CtrlCorrect, CtrlIncorrect, CtrlEvict, CtrlDeploy, CtrlRevoke;
  uint64_t ValCorrect, ValEvict;
};

void expectGolden(const MsspResult &R, const Golden &G,
                  const std::string &Tag) {
  EXPECT_EQ(R.TotalCycles, G.TotalCycles) << Tag;
  EXPECT_EQ(R.Tasks, G.Tasks) << Tag;
  EXPECT_EQ(R.TaskSquashes, G.TaskSquashes) << Tag;
  EXPECT_EQ(R.MasterInstructions, G.MasterInstructions) << Tag;
  EXPECT_EQ(R.CheckerInstructions, G.CheckerInstructions) << Tag;
  EXPECT_EQ(R.OptRequests, G.OptRequests) << Tag;
  EXPECT_EQ(R.Regenerations, G.Regenerations) << Tag;
  EXPECT_EQ(R.MasterBranchMispredicts, G.MasterBranchMispredicts) << Tag;
  EXPECT_EQ(R.Controller.CorrectSpecs, G.CtrlCorrect) << Tag;
  EXPECT_EQ(R.Controller.IncorrectSpecs, G.CtrlIncorrect) << Tag;
  EXPECT_EQ(R.Controller.Evictions, G.CtrlEvict) << Tag;
  EXPECT_EQ(R.Controller.DeployRequests, G.CtrlDeploy) << Tag;
  EXPECT_EQ(R.Controller.RevokeRequests, G.CtrlRevoke) << Tag;
  EXPECT_EQ(R.ValueController.CorrectSpecs, G.ValCorrect) << Tag;
  EXPECT_EQ(R.ValueController.Evictions, G.ValEvict) << Tag;
}

/// Runs one golden configuration under both execution tiers and pins
/// each to the captured values.
void checkGolden(const std::string &Bench, uint64_t Iterations,
                 MsspConfig Cfg, const Golden &G) {
  for (const ExecTier Tier : Tiers) {
    const std::string Tag = Bench + "/" + execTierName(Tier);
    const MsspResult R = runMssp(Bench, Iterations, Cfg, Tier);
    expectGolden(R, G, Tag);
    expectCacheCounterInvariant(R, Tag);
  }
}

// ---- Seed-captured goldens (20000 iterations each) -----------------------

TEST(MsspGoldenTest, Bzip2Closed1k) {
  checkGolden("bzip2", 20000, fig7Config(),
              {2689804, 5001, 69, 1134835, 1311721, 10, 6, 19242, 28507,
               103, 2, 8, 2, 0, 0});
}

TEST(MsspGoldenTest, Bzip2Open1k) {
  MsspConfig Cfg = fig7Config();
  Cfg.Control.EnableEviction = false;
  checkGolden("bzip2", 20000, Cfg,
              {2912949, 5001, 749, 1119202, 1311721, 8, 4, 18381, 30056,
               2296, 0, 8, 0, 0, 0});
}

TEST(MsspGoldenTest, GccClosed1kLatency5k) {
  MsspConfig Cfg = fig7Config();
  Cfg.OptLatencyCycles = 5000; // pins the pending-completion batching
  checkGolden("gcc", 20000, Cfg,
              {2110646, 5001, 48, 1109765, 1344065, 13, 5, 13307, 47469,
               75, 1, 12, 1, 0, 0});
}

TEST(MsspGoldenTest, GccValueSpeculation) {
  MsspConfig Cfg = fig7Config();
  Cfg.EnableValueSpeculation = true;
  Cfg.ValueControl = Cfg.Control;
  checkGolden("gcc", 20000, Cfg,
              {2106625, 5001, 46, 1109244, 1344065, 26, 5, 13300, 47575,
               70, 1, 12, 1, 47575, 1});
}

TEST(MsspGoldenTest, Bzip2TinyTasksAndBuffer) {
  MsspConfig Cfg = fig7Config();
  Cfg.TaskIterations = 2;
  Cfg.MaxOutstandingTasks = 2;
  checkGolden("bzip2", 20000, Cfg,
              {3091204, 10001, 81, 1134832, 1311721, 10, 6, 19241, 28506,
               102, 2, 8, 2, 0, 0});
}

// ---- Completion ordering --------------------------------------------------

// With a long optimization latency several pending requests become ready
// on the same task boundary, so one processOptCompletions call drains a
// batch: region rebuild order and request completion order are what this
// pins (both tiers must agree exactly; mcf's oscillating periodic
// branches make the batch non-trivial).
TEST(MsspGoldenTest, CompletionBatchOrdering) {
  for (const uint64_t Latency : {0ull, 5000ull, 200000ull}) {
    MsspConfig Cfg = fig7Config();
    Cfg.OptLatencyCycles = Latency;
    const std::string Tag = "mcf/lat" + std::to_string(Latency);
    const MsspResult Ref = runMssp("mcf", 10000, Cfg, ExecTier::Reference);
    const MsspResult Fused = runMssp("mcf", 10000, Cfg, ExecTier::TimingFused);
    expectResultsEq(Fused, Ref, Tag);
    expectCacheCounterInvariant(Fused, Tag);
  }
}

} // namespace
