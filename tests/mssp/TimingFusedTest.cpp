//===- tests/mssp/TimingFusedTest.cpp - Fused-tier exactness --------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
// The timing-fused tier's contract: driving the threaded backend through
// runTimed (block-charged issue accounting, event-only policies) is
// bit-identical to the reference per-instruction observer path -- same
// cycle counts, same timing-model state, same event streams with the same
// reconstructed completed-instruction counts, and same MsspResult --
// across every module of the 12-benchmark seed suite, its distillation
// pairs, and mid-run stop/resume slicing.  `ctest -R timing_fused` is the
// stable handle for the whole suite-wide exactness check.
//
//===----------------------------------------------------------------------===//

#include "exec/TimedRun.h"

#include "distill/Distiller.h"
#include "fsim/Interpreter.h"
#include "mssp/CoreTiming.h"
#include "mssp/MsspSimulator.h"
#include "workload/ProgramSynthesizer.h"
#include "workload/SpecSuite.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

using namespace specctrl;
using namespace specctrl::mssp;
using namespace specctrl::workload;

namespace {

constexpr uint64_t TestIterations = 1500;
constexpr uint64_t AllFuel = ~0ull >> 1;

/// One timing-relevant event: kind, two payload words, and the
/// completed-instruction count the consumer saw (the quantity the fused
/// loop reconstructs instead of counting per instruction).
using Event = std::array<uint64_t, 4>;
enum EventKind : uint64_t { EvBranch, EvLoad, EvStore, EvCall, EvRet };

/// Reference drive: per-instruction observer over the interpreter,
/// counting completed instructions independently of the policy adapter
/// (incremented in onInstruction, i.e. after the events of the current
/// instruction fire).  Optionally requests a stop after every KStop-th
/// store, mirroring the MSSP task-boundary mechanism.
class RefRecorder {
public:
  RefRecorder(CoreTiming &T, fsim::ExecBackend &Backend, uint64_t KStop = 0)
      : T(T), Backend(Backend), KStop(KStop) {}

  std::vector<Event> Events;

  void onInstruction(const ir::Instruction &, const fsim::InstLocation &) {
    ++InstRet;
    T.recordInstruction();
  }
  void onBranch(ir::SiteId Site, bool Taken) {
    T.recordBranch(Site, Taken);
    Events.push_back({EvBranch + (Site << 3), Taken ? 1ull : 0ull, 0, InstRet});
  }
  void onLoad(const fsim::InstLocation &, uint64_t Addr, uint64_t Value) {
    T.recordMemoryAccess(Addr);
    Events.push_back({EvLoad, Addr, Value, InstRet});
  }
  void onStore(uint64_t Addr, uint64_t Value, uint64_t) {
    T.recordMemoryAccess(Addr);
    Events.push_back({EvStore, Addr, Value, 0});
    if (KStop && ++Stores % KStop == 0)
      Backend.requestStop();
  }
  void onCall(uint32_t Callee) {
    T.recordCall(Callee);
    Events.push_back({EvCall, Callee, 0, 0});
  }
  void onReturn(uint32_t Callee) {
    T.recordReturn(Callee);
    Events.push_back({EvRet, Callee, 0, 0});
  }

private:
  CoreTiming &T;
  fsim::ExecBackend &Backend;
  uint64_t KStop;
  uint64_t InstRet = 0;
  uint64_t Stores = 0;
};

/// Fused drive: event-only policy for runTimed, recording the loop's
/// reconstructed Done in the same slot RefRecorder puts its InstRet.
class FusedRecorder {
public:
  FusedRecorder(CoreTiming &T, exec::ThreadedBackend &Backend,
                uint64_t KStop = 0)
      : T(T), Backend(Backend), KStop(KStop) {}

  std::vector<Event> Events;

  void noteBranch(ir::SiteId Site, bool Taken, uint64_t Done) {
    T.recordBranch(Site, Taken);
    Events.push_back({EvBranch + (Site << 3), Taken ? 1ull : 0ull, 0, Done});
  }
  void noteLoad(const fsim::InstLocation &, uint64_t Addr, uint64_t Value,
                uint64_t Done) {
    T.recordMemoryAccess(Addr);
    Events.push_back({EvLoad, Addr, Value, Done});
  }
  void noteStore(uint64_t Addr, uint64_t Value) {
    T.recordMemoryAccess(Addr);
    Events.push_back({EvStore, Addr, Value, 0});
    if (KStop && ++Stores % KStop == 0)
      Backend.requestStop();
  }
  void noteCall(uint32_t Callee) {
    T.recordCall(Callee);
    Events.push_back({EvCall, Callee, 0, 0});
  }
  void noteReturn(uint32_t Callee) {
    T.recordReturn(Callee);
    Events.push_back({EvRet, Callee, 0, 0});
  }

private:
  CoreTiming &T;
  exec::ThreadedBackend &Backend;
  uint64_t KStop;
  uint64_t Stores = 0;
};

/// Everything a timing consumer can observe from one run.
struct TimingOutcome {
  uint64_t Cycles = 0;
  uint64_t Insts = 0;
  uint64_t Mispredicts = 0;
  uint64_t L1Misses = 0;
  uint64_t Retired = 0;
  bool Halted = false;
  std::vector<Event> Events;
  std::vector<uint64_t> Memory;
};

void expectSameOutcome(const TimingOutcome &Ref, const TimingOutcome &Fused,
                       const std::string &What) {
  EXPECT_EQ(Ref.Cycles, Fused.Cycles) << What;
  EXPECT_EQ(Ref.Insts, Fused.Insts) << What;
  EXPECT_EQ(Ref.Mispredicts, Fused.Mispredicts) << What;
  EXPECT_EQ(Ref.L1Misses, Fused.L1Misses) << What;
  EXPECT_EQ(Ref.Retired, Fused.Retired) << What;
  EXPECT_EQ(Ref.Halted, Fused.Halted) << What;
  EXPECT_EQ(Ref.Memory, Fused.Memory) << What << ": final memory differs";
  ASSERT_EQ(Ref.Events.size(), Fused.Events.size())
      << What << ": event counts differ";
  for (size_t I = 0; I < Ref.Events.size(); ++I)
    ASSERT_EQ(Ref.Events[I], Fused.Events[I])
        << What << ": first divergence at event " << I;
}

/// Reference outcome: interpreter + per-instruction observer, single shot.
TimingOutcome runReference(const SynthProgram &P, const ir::Function *Version,
                           uint32_t FuncId) {
  const MachineConfig M;
  fsim::Interpreter Interp(P.Mod, P.InitialMemory);
  if (Version)
    Interp.setCodeVersion(FuncId, Version);
  CacheModel L2(M.L2);
  CoreTiming Timing(M.Leading, &L2, M.L2.LatencyCycles,
                    M.MemoryLatencyCycles);
  RefRecorder Obs(Timing, Interp);
  EXPECT_EQ(Interp.runWith(AllFuel, Obs), fsim::StopReason::Halted);
  return {Timing.cycles(),        Timing.instructions(),
          Timing.branchMispredicts(), Timing.l1Misses(),
          Interp.instructionsRetired(), Interp.halted(),
          std::move(Obs.Events),  Interp.memory()};
}

/// Fused outcome: threaded backend driven through runTimed in fuel slices
/// of \p SliceFuel (AllFuel = single shot), bulk-charging each slice's
/// straight-line cost exactly like the MSSP task loop does.
TimingOutcome runFused(const SynthProgram &P, const ir::Function *Version,
                       uint32_t FuncId, uint64_t SliceFuel,
                       uint64_t *SlicesOut = nullptr) {
  const MachineConfig M;
  exec::ThreadedBackend Backend(P.Mod, P.InitialMemory);
  if (Version)
    Backend.setCodeVersion(FuncId, Version);
  CacheModel L2(M.L2);
  CoreTiming Timing(M.Leading, &L2, M.L2.LatencyCycles,
                    M.MemoryLatencyCycles);
  FusedRecorder Policy(Timing, Backend);
  uint64_t Slices = 0;
  fsim::StopReason Reason = fsim::StopReason::FuelExhausted;
  while (Reason == fsim::StopReason::FuelExhausted) {
    const uint64_t Before = Backend.instructionsRetired();
    Reason = Backend.runTimed(SliceFuel, Policy);
    Timing.addInstructions(Backend.instructionsRetired() - Before);
    ++Slices;
  }
  EXPECT_EQ(Reason, fsim::StopReason::Halted);
  if (SlicesOut)
    *SlicesOut = Slices;
  return {Timing.cycles(),        Timing.instructions(),
          Timing.branchMispredicts(), Timing.l1Misses(),
          Backend.instructionsRetired(), Backend.halted(),
          std::move(Policy.Events), Backend.memory()};
}

/// The per-region dominant-direction distillation request (the
/// DistillerFuzz / MSSP idiom).
distill::DistillRequest regionRequest(const SynthProgram &P,
                                      uint32_t FuncId) {
  distill::DistillRequest Request;
  for (const SynthSiteInfo &Info : P.Sites)
    if (!Info.IsControlSite && Info.FunctionId == FuncId)
      Request.BranchAssertions[Info.Site] = Info.Behavior.BiasA >= 0.5;
  return Request;
}

class TimingFused : public ::testing::TestWithParam<std::string> {
protected:
  SynthProgram synthProgram() {
    return synthesize(
        makeSynthSpecFor(profileByName(GetParam()), TestIterations));
  }
};

} // namespace

// The original (undistilled) module: the fused loop's cycles, timing-model
// state, event stream, and reconstructed Done counts are bit-identical to
// the per-instruction reference.
TEST_P(TimingFused, OriginalTimingBitExact) {
  const SynthProgram P = synthProgram();
  expectSameOutcome(runReference(P, nullptr, 0),
                    runFused(P, nullptr, 0, AllFuel), "original");
}

// Every distillation pair: each region function distilled under its
// dominant-direction assertions -- the exact code versions the MSSP
// master dispatches, with the speculative control flow the fused branch
// handlers must time identically.
TEST_P(TimingFused, DistilledPairsTimingBitExact) {
  const SynthProgram P = synthProgram();
  for (uint32_t FuncId : P.RegionFunctions) {
    const distill::DistillResult Result = distill::distillFunction(
        P.Mod.function(FuncId), regionRequest(P, FuncId));
    const std::string What =
        GetParam() + "/region-fn-" + std::to_string(FuncId);
    expectSameOutcome(runReference(P, &Result.Distilled, FuncId),
                      runFused(P, &Result.Distilled, FuncId, AllFuel),
                      What);
  }
}

// Fuel slicing: running the fused loop in prime-sized slices (cutting
// through blocks, fused pairs, and call frames, with one bulk issue
// charge per slice) must reproduce the single-shot reference exactly.
TEST_P(TimingFused, SlicedTimingMatchesSingleShot) {
  const SynthProgram P = synthProgram();
  uint64_t Slices = 0;
  const TimingOutcome Fused = runFused(P, nullptr, 0, 997, &Slices);
  EXPECT_GT(Slices, 3u) << "slicing did not actually slice";
  expectSameOutcome(runReference(P, nullptr, 0), Fused, "sliced");
}

// Mid-task stop/resume: both paths request a stop from the store hook
// (the MSSP task-boundary mechanism) every 7th store and resume.  Stop
// positions, retire counts at each stop, and the merged stream must
// match.
TEST_P(TimingFused, StopResumeTimingBitExact) {
  const SynthProgram P = synthProgram();
  const MachineConfig M;
  constexpr uint64_t KStop = 7;

  fsim::Interpreter Interp(P.Mod, P.InitialMemory);
  CacheModel RefL2(M.L2);
  CoreTiming RefTiming(M.Leading, &RefL2, M.L2.LatencyCycles,
                       M.MemoryLatencyCycles);
  RefRecorder RefObs(RefTiming, Interp, KStop);

  exec::ThreadedBackend Backend(P.Mod, P.InitialMemory);
  CacheModel FusedL2(M.L2);
  CoreTiming FusedTiming(M.Leading, &FusedL2, M.L2.LatencyCycles,
                         M.MemoryLatencyCycles);
  FusedRecorder Policy(FusedTiming, Backend, KStop);

  uint64_t Stops = 0;
  for (;;) {
    const fsim::StopReason RefReason = Interp.runWith(AllFuel, RefObs);
    const uint64_t Before = Backend.instructionsRetired();
    const fsim::StopReason FusedReason = Backend.runTimed(AllFuel, Policy);
    FusedTiming.addInstructions(Backend.instructionsRetired() - Before);

    ASSERT_EQ(RefReason, FusedReason) << "stop " << Stops;
    ASSERT_EQ(Interp.instructionsRetired(), Backend.instructionsRetired())
        << "stop " << Stops;
    ASSERT_EQ(RefTiming.cycles(), FusedTiming.cycles()) << "stop " << Stops;
    if (RefReason == fsim::StopReason::Halted)
      break;
    ASSERT_EQ(RefReason, fsim::StopReason::Stopped);
    ++Stops;
  }
  EXPECT_GT(Stops, 3u) << "stop hook never fired";
  ASSERT_EQ(RefObs.Events.size(), Policy.Events.size());
  for (size_t I = 0; I < RefObs.Events.size(); ++I)
    ASSERT_EQ(RefObs.Events[I], Policy.Events[I])
        << "first divergence at event " << I;
  EXPECT_EQ(Interp.memory(), Backend.memory());
}

// The superscalar baseline (Figs. 7-8's B bars) is cycle-identical across
// both tiers, both to completion and under an instruction cap.
TEST_P(TimingFused, BaselineCyclesTierInvariant) {
  const SynthProgram P = synthProgram();
  const MachineConfig M;
  for (const uint64_t Cap : {0ull, 50021ull})
    EXPECT_EQ(simulateSuperscalarBaseline(P, M, Cap, ExecTier::Reference),
              simulateSuperscalarBaseline(P, M, Cap, ExecTier::TimingFused))
        << "cap " << Cap;
}

namespace {

/// The Fig. 7 short-run control configuration (the MsspGoldenTest one).
MsspConfig fig7Config() {
  MsspConfig Cfg;
  Cfg.Control.MonitorPeriod = 1000;
  Cfg.Control.EnableEviction = true;
  Cfg.Control.EvictSaturation = 2000;
  Cfg.Control.WaitPeriod = 100000;
  return Cfg;
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

MsspResult runMsspTier(const SynthProgram &Program, MsspConfig Cfg,
                       ExecTier Tier) {
  Cfg.Tier = Tier;
  MsspSimulator Sim(Program, Cfg);
  return Sim.run();
}

} // namespace

// The full MSSP simulation -- timing protocol, controller decisions,
// distillation requests, squashes, commit times -- is bit-identical under
// the fused tier on every suite module.
TEST_P(TimingFused, MsspResultsBitExactAcrossTiers) {
  const SynthProgram P =
      synthesize(makeSynthSpecFor(profileByName(GetParam()), TestIterations));
  const MsspResult Ref = runMsspTier(P, fig7Config(), ExecTier::Reference);
  expectResultsEq(runMsspTier(P, fig7Config(), ExecTier::TimingFused), Ref,
                  GetParam() + "/fused");
}

// Value speculation routes checker loads (with their completed-instruction
// counts) into the value-invariance controller; the fused tier's Done
// reconstruction must leave its decisions bit-identical too.
TEST(TimingFusedMssp, ValueSpeculationBitExact) {
  MsspConfig Cfg = fig7Config();
  Cfg.EnableValueSpeculation = true;
  Cfg.ValueControl = Cfg.Control;
  const SynthProgram P =
      synthesize(makeSynthSpecFor(profileByName("gcc"), 10000));
  expectResultsEq(runMsspTier(P, Cfg, ExecTier::TimingFused),
                  runMsspTier(P, Cfg, ExecTier::Reference), "gcc-vs/fused");
}

// Squash-heavy regime (open-loop control keeps misspeculating): restores
// and post-squash resumes under the fused tier stay bit-identical.
TEST(TimingFusedMssp, SquashHeavyBitExact) {
  MsspConfig Cfg = fig7Config();
  Cfg.Control.EnableEviction = false;
  const SynthProgram P =
      synthesize(makeSynthSpecFor(profileByName("bzip2"), 10000));
  expectResultsEq(runMsspTier(P, Cfg, ExecTier::TimingFused),
                  runMsspTier(P, Cfg, ExecTier::Reference),
                  "bzip2/fused-openloop");
}

namespace {

std::vector<std::string> suiteNames() {
  std::vector<std::string> Names;
  for (const BenchmarkProfile &P : suiteProfiles())
    Names.push_back(P.Name);
  return Names;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, TimingFused,
                         ::testing::ValuesIn(suiteNames()),
                         [](const auto &Info) { return Info.param; });
