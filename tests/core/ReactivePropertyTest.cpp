//===- tests/core/ReactivePropertyTest.cpp --------------------------------===//
//
// Property-style TEST_P sweeps over controller configurations and random
// behavior mixes: invariants that must hold for ANY parameter setting --
// the paper's core insensitivity claim (Sec. 3.3) in executable form.
//
//===----------------------------------------------------------------------===//

#include "core/Driver.h"
#include "core/ReactiveController.h"
#include "workload/TraceGenerator.h"

#include <gtest/gtest.h>

#include <ostream>

using namespace specctrl;
using namespace specctrl::core;
using namespace specctrl::workload;

namespace {

/// A compact mixed workload: biased, changing, periodic, and noisy sites.
WorkloadSpec mixedWorkload(uint64_t Seed) {
  WorkloadSpec Spec;
  Spec.Name = "mixed";
  Spec.Seed = Seed;
  Spec.RefEvents = 400000;
  Spec.NumPhases = 4;
  Spec.MinGap = 1;
  Spec.MaxGap = 8;

  auto Add = [&Spec](BehaviorSpec B, double W) {
    SiteSpec S;
    S.Behavior = B;
    S.Weight = W;
    Spec.Sites.push_back(S);
  };
  Add(BehaviorSpec::fixed(0.9995), 8);
  Add(BehaviorSpec::fixed(0.0005), 8);
  Add(BehaviorSpec::fixed(0.97), 4);
  Add(BehaviorSpec::fixed(0.5), 4);
  Add(BehaviorSpec::flipAt(0.9995, 0.02, 30000), 6);
  Add(BehaviorSpec::periodic(0.998, 0.4, 25000), 6);
  Add(BehaviorSpec::inductionFlip(32768), 6);
  Add(BehaviorSpec::randomWalk(0.5, 2000), 2);
  return Spec;
}

struct SweepParam {
  const char *Name;
  ReactiveConfig Config;
};

// gtest prints a parameter into the listed test name; print the config
// name rather than a byte dump of the struct.
void PrintTo(const SweepParam &P, std::ostream *OS) { *OS << P.Name; }

class ReactiveSweepTest : public ::testing::TestWithParam<SweepParam> {};

ReactiveConfig scaled(ReactiveConfig C) {
  // Shrink the paper's periods to this test workload's scale.
  C.MonitorPeriod = std::min<uint64_t>(C.MonitorPeriod, 2000);
  C.WaitPeriod = std::min<uint64_t>(C.WaitPeriod, 40000);
  C.OptLatency = std::min<uint64_t>(C.OptLatency, 50000);
  C.EvictSaturation = std::min<uint64_t>(C.EvictSaturation, 5000);
  // The 1k-of-10k sampling duty cycle assumes paper-length runs; shrink
  // it with everything else so detection latency stays proportionate.
  C.EvictSampleWindow = std::min<uint64_t>(C.EvictSampleWindow, 2000);
  C.EvictSampleCount = std::min<uint64_t>(C.EvictSampleCount, 200);
  return C;
}

} // namespace

TEST_P(ReactiveSweepTest, InvariantsHoldForAnyConfiguration) {
  const WorkloadSpec Spec = mixedWorkload(1234);
  ReactiveController C(GetParam().Config, GetParam().Name);
  workload::TraceGenerator Gen(Spec, Spec.refInput());
  const ControlStats &S = runTrace(C, Gen);

  // Conservation: every event observed once; speculated subset.
  EXPECT_EQ(S.Branches, Spec.RefEvents);
  EXPECT_LE(S.CorrectSpecs + S.IncorrectSpecs, S.Branches);

  // Requests balance: revokes never exceed deploys.
  EXPECT_LE(S.RevokeRequests, S.DeployRequests);
  EXPECT_EQ(S.Evictions, S.RevokeRequests);

  // Per-site accounting is consistent with aggregates.
  uint64_t SiteEvictSum = 0;
  for (uint32_t E : S.SiteEvictions)
    SiteEvictSum += E;
  EXPECT_EQ(SiteEvictSum, S.Evictions);
  EXPECT_LE(S.everBiasedCount(), S.touchedCount());
  EXPECT_LE(S.evictedSiteCount(), S.everBiasedCount());

  // Whatever the parameters, the strongly biased sites dominate benefit:
  // correct rate stays within sane bounds.
  EXPECT_GE(S.correctRate(), 0.0);
  EXPECT_LE(S.correctRate(), 1.0);
}

TEST_P(ReactiveSweepTest, EvictionBoundsMisspeculation) {
  // With eviction enabled, any config's misspeculation rate must be far
  // below the open-loop rate on the same changing workload.
  const WorkloadSpec Spec = mixedWorkload(777);

  ReactiveController WithArcs(GetParam().Config);
  workload::TraceGenerator GenA(Spec, Spec.refInput());
  const double Closed = runTrace(WithArcs, GenA).incorrectRate();

  ReactiveConfig Open = GetParam().Config;
  Open.EnableEviction = false;
  ReactiveController NoEvict(Open);
  workload::TraceGenerator GenB(Spec, Spec.refInput());
  const double OpenRate = runTrace(NoEvict, GenB).incorrectRate();

  if (!GetParam().Config.EnableEviction) {
    EXPECT_NEAR(Closed, OpenRate, 1e-9);
    return;
  }
  // The changing sites are ~20% of dynamic weight: open loop misspeculates
  // heavily on them; the closed loop must cut that by at least 5x.
  EXPECT_LT(Closed, OpenRate / 5.0 + 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ReactiveSweepTest,
    ::testing::Values(
        SweepParam{"baseline", scaled(ReactiveConfig::baseline())},
        SweepParam{"no_eviction", scaled(ReactiveConfig::noEviction())},
        SweepParam{"no_revisit", scaled(ReactiveConfig::noRevisit())},
        SweepParam{"lower_evict",
                   scaled(ReactiveConfig::lowerEvictionThreshold())},
        SweepParam{"evict_sampling",
                   scaled(ReactiveConfig::evictionBySampling())},
        SweepParam{"monitor_sampling",
                   scaled(ReactiveConfig::monitorSampling())},
        SweepParam{"frequent_revisit",
                   scaled(ReactiveConfig::frequentRevisit())},
        SweepParam{"one_shot_1k", scaled(ReactiveConfig::oneShot(1000))}),
    [](const ::testing::TestParamInfo<SweepParam> &Info) {
      return Info.param.Name;
    });

namespace {

class LatencySweepTest : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(LatencySweepTest, LatencyToleranceProperty) {
  // The paper's headline: latencies up to 10^6 instructions barely change
  // the outcome.  Verify correct-rate changes stay small across latencies.
  const WorkloadSpec Spec = mixedWorkload(42);

  ReactiveConfig Zero = scaled(ReactiveConfig::baseline());
  Zero.OptLatency = 0;
  ReactiveController Base(Zero);
  workload::TraceGenerator GenA(Spec, Spec.refInput());
  const double BaseCorrect = runTrace(Base, GenA).correctRate();

  ReactiveConfig Lat = Zero;
  Lat.OptLatency = GetParam();
  ReactiveController Delayed(Lat);
  workload::TraceGenerator GenB(Spec, Spec.refInput());
  const ControlStats &S = runTrace(Delayed, GenB);

  EXPECT_NEAR(S.correctRate(), BaseCorrect, 0.05)
      << "latency " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Latencies, LatencySweepTest,
                         ::testing::Values(0ull, 1000ull, 10000ull, 50000ull,
                                           100000ull));

namespace {

class SeedSweepTest : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(SeedSweepTest, DeterministicAcrossRunsForAnySeed) {
  const WorkloadSpec Spec = mixedWorkload(GetParam());
  ReactiveConfig Cfg = scaled(ReactiveConfig::baseline());

  ReactiveController A(Cfg), B(Cfg);
  workload::TraceGenerator GenA(Spec, Spec.refInput());
  workload::TraceGenerator GenB(Spec, Spec.refInput());
  const ControlStats &SA = runTrace(A, GenA);
  const ControlStats &SB = runTrace(B, GenB);
  EXPECT_EQ(SA.CorrectSpecs, SB.CorrectSpecs);
  EXPECT_EQ(SA.IncorrectSpecs, SB.IncorrectSpecs);
  EXPECT_EQ(SA.Evictions, SB.Evictions);
  EXPECT_EQ(SA.DeployRequests, SB.DeployRequests);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweepTest,
                         ::testing::Values(1ull, 99ull, 2026ull, 31337ull));
