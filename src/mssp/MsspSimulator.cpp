//===- mssp/MsspSimulator.cpp - MSSP execution-driven simulation ----------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "mssp/MsspSimulator.h"

#include "distill/Distiller.h"
#include "exec/TimedRun.h"
#include "fsim/Interpreter.h"
#include "support/Hash.h"

#include <algorithm>
#include <cassert>

using namespace specctrl;
using namespace specctrl::mssp;

namespace {

constexpr uint64_t RunForever = ~0ull >> 1;

/// The master's timing policy, statically dispatched through either
/// backend's runTimed: straight-line issue cost is bulk-charged by the
/// caller (one CoreTiming::addInstructions per run slice), so the policy
/// only handles the events that touch dynamic timing state -- gshare,
/// RAS, caches -- plus task boundaries and dirty-set tracking.  BackendT
/// is the concrete backend, so the boundary requestStop devirtualizes
/// along with the hooks themselves.
template <class BackendT> class MasterPolicy {
public:
  MasterPolicy(BackendT &Backend, CoreTiming &Timing, uint64_t IterationAddr,
               unsigned TaskIterations, std::vector<uint8_t> &AddrClass,
               std::vector<uint64_t> &DirtyAddrs)
      : Backend(Backend), Timing(Timing), IterationAddr(IterationAddr),
        TaskIterations(TaskIterations), AddrClass(AddrClass),
        DirtyAddrs(DirtyAddrs) {}

  void noteBranch(ir::SiteId Site, bool Taken, uint64_t /*Done*/) {
    Timing.recordBranch(Site, Taken);
  }
  void noteLoad(const fsim::InstLocation &, uint64_t Addr, uint64_t /*Value*/,
                uint64_t /*Done*/) {
    Timing.recordMemoryAccess(Addr);
  }
  void noteStore(uint64_t Addr, uint64_t Value) {
    Timing.recordMemoryAccess(Addr);
    // The first store to a writable word this task marks it dirty; stores
    // outside the writable set are not tracked.
    if (Addr < AddrClass.size() && AddrClass[Addr] == 1) {
      AddrClass[Addr] = 2;
      DirtyAddrs.push_back(Addr);
    }
    if (Addr == IterationAddr && Value != 0 &&
        Value % TaskIterations == 0)
      Backend.requestStop();
  }
  void noteCall(uint32_t Callee) { Timing.recordCall(Callee); }
  void noteReturn(uint32_t Callee) { Timing.recordReturn(Callee); }

protected:
  BackendT &Backend;
  CoreTiming &Timing;
  uint64_t IterationAddr;
  unsigned TaskIterations;
  std::vector<uint8_t> &AddrClass;
  std::vector<uint64_t> &DirtyAddrs;
};

/// The checker's timing policy: master duties plus controller and
/// value-invariance feeding.  `Done` is the completed-instruction count at
/// the event (the instructions fully completed before the one raising
/// it), identical under both backends' runTimed.
template <class BackendT>
class CheckerPolicy : public MasterPolicy<BackendT> {
public:
  CheckerPolicy(BackendT &Backend, CoreTiming &Timing, uint64_t IterationAddr,
                unsigned TaskIterations, std::vector<uint8_t> &AddrClass,
                std::vector<uint64_t> &DirtyAddrs,
                core::ReactiveController &Controller,
                const std::vector<bool> &ControlSites,
                const std::vector<bool> &RegionFunc, bool ValueSpec,
                MsspSimulator &Sim)
      : MasterPolicy<BackendT>(Backend, Timing, IterationAddr, TaskIterations,
                               AddrClass, DirtyAddrs),
        Controller(Controller), ControlSites(ControlSites),
        RegionFunc(RegionFunc), ValueSpec(ValueSpec), Sim(Sim) {}

  void noteBranch(ir::SiteId Site, bool Taken, uint64_t Done) {
    this->Timing.recordBranch(Site, Taken);
    // Control sites (loop exit, dispatch) are real branches the predictor
    // sees, but the dynamic optimizer never asserts them, so the
    // controller does not track them.
    if (Site < ControlSites.size() && ControlSites[Site])
      return;
    Controller.onBranch(Site, Taken, Done);
  }
  void noteLoad(const fsim::InstLocation &L, uint64_t Addr, uint64_t Value,
                uint64_t Done) {
    this->Timing.recordMemoryAccess(Addr);
    // Backends only dispatch module function ids, all of which RegionFunc
    // covers, so L.Func needs no bounds check.
    if (ValueSpec && RegionFunc[L.Func])
      Sim.noteRegionLoad(L, Value, Done);
  }

private:
  core::ReactiveController &Controller;
  const std::vector<bool> &ControlSites;
  const std::vector<bool> &RegionFunc;
  bool ValueSpec;
  MsspSimulator &Sim;
};

/// The superscalar baseline's timing policy: no task boundaries.
class BaselinePolicy {
public:
  explicit BaselinePolicy(CoreTiming &T) : T(T) {}
  void noteBranch(ir::SiteId S, bool Taken, uint64_t) {
    T.recordBranch(S, Taken);
  }
  void noteLoad(const fsim::InstLocation &, uint64_t A, uint64_t, uint64_t) {
    T.recordMemoryAccess(A);
  }
  void noteStore(uint64_t A, uint64_t) { T.recordMemoryAccess(A); }
  void noteCall(uint32_t C) { T.recordCall(C); }
  void noteReturn(uint32_t C) { T.recordReturn(C); }

private:
  CoreTiming &T;
};

/// Runs \p B under \p Policy for up to \p Fuel instructions and charges
/// the slice's straight-line issue cost into \p Timing in one bulk add.
/// Issue accumulation is order-free between cycle reads, and cycles() is
/// only read at slice boundaries, so the count is bit-identical to
/// per-instruction accounting.
template <class BackendT, class PolicyT>
fsim::StopReason runCharged(BackendT &B, PolicyT &Policy, CoreTiming &Timing,
                            uint64_t Fuel = RunForever) {
  const uint64_t Before = B.instructionsRetired();
  const fsim::StopReason Reason = B.runTimed(Fuel, Policy);
  Timing.addInstructions(B.instructionsRetired() - Before);
  return Reason;
}

uint8_t *putU32(uint8_t *P, uint32_t V) {
  P[0] = static_cast<uint8_t>(V);
  P[1] = static_cast<uint8_t>(V >> 8);
  P[2] = static_cast<uint8_t>(V >> 16);
  P[3] = static_cast<uint8_t>(V >> 24);
  return P + 4;
}

uint8_t *putU64(uint8_t *P, uint64_t V) {
  return putU32(putU32(P, static_cast<uint32_t>(V)),
                static_cast<uint32_t>(V >> 32));
}

/// Canonical, injective serialization of a distillation request (both
/// maps iterate sorted): count-prefixed fixed-width records, so equal
/// bytes <=> equal requests.  The output size is known up front, so the
/// buffer is sized once and filled with raw writes -- this runs on every
/// rebuild, and the per-byte push_back version was a visible
/// slice of the full MSSP loop profile.
void serializeRequest(const distill::DistillRequest &Request,
                      std::vector<uint8_t> &Out) {
  Out.resize(4 + 5 * Request.BranchAssertions.size() + 4 +
             16 * Request.ValueConstants.size());
  uint8_t *P = Out.data();
  P = putU32(P, static_cast<uint32_t>(Request.BranchAssertions.size()));
  for (const auto &[Site, Dir] : Request.BranchAssertions) {
    P = putU32(P, Site);
    *P++ = Dir ? 1 : 0;
  }
  P = putU32(P, static_cast<uint32_t>(Request.ValueConstants.size()));
  for (const auto &[Loc, Value] : Request.ValueConstants) {
    P = putU32(P, Loc.Block);
    P = putU32(P, Loc.Index);
    P = putU64(P, static_cast<uint64_t>(Value));
  }
  assert(P == Out.data() + Out.size() && "serialized size mismatch");
}

/// Packs a value-site coordinate into one FlatMap64 key.  Field widths
/// (23/20/20 bits, top bit of the function field always clear) keep the
/// key below the map's all-ones sentinel; synthesized programs are orders
/// of magnitude smaller than these bounds.
uint64_t packValueSiteKey(uint32_t Func, distill::LocKey Loc) {
  assert(Func < (1u << 23) && Loc.Block < (1u << 20) &&
         Loc.Index < (1u << 20) && "value-site coordinate out of pack range");
  return (static_cast<uint64_t>(Func) << 40) |
         (static_cast<uint64_t>(Loc.Block) << 20) | Loc.Index;
}

/// Dirty-set task verification, exact over the writable set: both
/// executions start each task with identical writable memory (same
/// initial image; equal after a match; copied equal after a squash), so
/// words neither stored to are still equal and only the dirty set needs
/// comparing.  Templated over the concrete backend so the loadWord calls
/// devirtualize (both backends are final).
template <class BackendT>
bool dirtyStateMatches(const BackendT &Master, const BackendT &Checker,
                       const std::vector<uint64_t> &DirtyAddrs) {
  if (Master.halted() != Checker.halted())
    return false;
  for (uint64_t Addr : DirtyAddrs)
    if (Master.loadWord(Addr) != Checker.loadWord(Addr))
      return false;
  return true;
}

} // namespace

MsspSimulator::MsspSimulator(const workload::SynthProgram &Program,
                             const MsspConfig &Config)
    : Program(Program), Config(Config),
      Master(exec::createBackend(Config.Tier, Program.Mod,
                                 Program.InitialMemory)),
      Checker(exec::createBackend(Config.Tier, Program.Mod,
                                  Program.InitialMemory)),
      SharedL2(Config.Machine.L2),
      MasterTiming(Config.Machine.Leading, &SharedL2,
                   Config.Machine.L2.LatencyCycles,
                   Config.Machine.MemoryLatencyCycles),
      TrailTiming(Config.Machine.Trailing, &SharedL2,
                  Config.Machine.L2.LatencyCycles,
                  Config.Machine.MemoryLatencyCycles),
      Controller(Config.Control, "mssp-reactive"),
      ValueCtrl(Config.ValueControl),
      AssertState(Program.Sites.size(), 0),
      SitesByFunc(Program.Mod.numFunctions()),
      ValueConstsByFunc(Program.Mod.numFunctions()) {
  assert(Config.TaskIterations > 0 && "tasks need at least one iteration");
  Controller.setRequestSink(this);
  if (Config.EnableValueSpeculation)
    ValueCtrl.setRequestSink(&ValueSink);

  for (const workload::SynthSiteInfo &Info : Program.Sites)
    SitesByFunc[Info.FunctionId].push_back(Info.Site);
  for (std::vector<ir::SiteId> &Sites : SitesByFunc)
    std::sort(Sites.begin(), Sites.end());

  const std::vector<uint64_t> WritableAddrs = Program.writableAddrs();
  uint64_t MaxAddr = 0;
  for (uint64_t Addr : WritableAddrs)
    MaxAddr = std::max(MaxAddr, Addr);
  AddrClass.assign(WritableAddrs.empty() ? 0 : MaxAddr + 1, 0);
  for (uint64_t Addr : WritableAddrs)
    AddrClass[Addr] = 1;
  DirtyAddrs.reserve(WritableAddrs.size());
}

MsspSimulator::~MsspSimulator() = default;

void MsspSimulator::onRequest(const core::OptRequest &Request) {
  const workload::SynthSiteInfo &Info = Program.Sites[Request.Site];
  // The optimizer never touches the dispatch loop: requests for control
  // sites complete trivially with no code change.
  if (Info.IsControlSite || Info.FunctionId == Program.MainFunction) {
    Controller.completeRequest(Request.Site);
    return;
  }
  Pending.push_back({Request, MasterClock + Config.OptLatencyCycles,
                     /*IsValue=*/false});
  ++Result.OptRequests;
}

void MsspSimulator::onValueRequest(const core::OptRequest &Request) {
  Pending.push_back({Request, MasterClock + Config.OptLatencyCycles,
                     /*IsValue=*/true});
  ++Result.OptRequests;
}

uint32_t MsspSimulator::valueSiteId(uint32_t Func, distill::LocKey Loc) {
  const auto [Id, Inserted] = ValueSiteMap.tryEmplace(
      packValueSiteKey(Func, Loc), static_cast<uint32_t>(ValueSites.size()));
  if (Inserted)
    ValueSites.push_back({Func, Loc});
  return Id;
}

void MsspSimulator::noteRegionLoad(const fsim::InstLocation &L,
                                   uint64_t Value, uint64_t InstRet) {
  ValueCtrl.onLoad(valueSiteId(L.Func, {L.Block, L.Index}), Value, InstRet);
}

void MsspSimulator::restoreMasterDirty() {
  // Clean writable words are equal by the task-start invariant, so
  // copying the dirty set transplants the checker's full memory state.
  for (uint64_t Addr : DirtyAddrs)
    Master->storeWord(Addr, Checker->loadWord(Addr));
  Master->adoptPositionFrom(*Checker);
}

void MsspSimulator::clearDirtyAddrs() {
  for (uint64_t Addr : DirtyAddrs)
    AddrClass[Addr] = 1;
  DirtyAddrs.clear();
}

distill::DistillRequest
MsspSimulator::buildDistillRequest(uint32_t FunctionId) const {
  distill::DistillRequest Request;
  for (ir::SiteId Site : SitesByFunc[FunctionId]) {
    const uint8_t State = AssertState[Site];
    if (State != 0)
      Request.BranchAssertions[Site] = State == 2;
  }
  for (const auto &[Loc, Value] : ValueConstsByFunc[FunctionId])
    Request.ValueConstants[Loc] = Value;
  return Request;
}

void MsspSimulator::rebuildRegion(uint32_t FunctionId) {
  const distill::DistillRequest Request = buildDistillRequest(FunctionId);
  serializeRequest(Request, KeyBuf);
  const uint64_t KeyHash = hash64(KeyBuf.data(), KeyBuf.size(), FunctionId);
  const ir::Function *Installed = Cache.findKeyed(FunctionId, KeyHash, KeyBuf);
  if (Installed) {
    ++Result.DistillCacheHits;
  } else {
    ++Result.DistillCacheMisses;
    distill::DistillResult Distilled =
        distill::distillFunction(Program.Mod.function(FunctionId), Request);
    Installed = Cache.installKeyed(FunctionId, KeyHash, KeyBuf,
                                   std::move(Distilled.Distilled));
  }
  Master->setCodeVersion(FunctionId, Installed);
  ++Result.Regenerations;
}

void MsspSimulator::processOptCompletions() {
  if (Pending.empty())
    return;

  // Collect the requests whose optimization latency has elapsed.
  ReadyBuf.clear();
  for (size_t I = 0; I < Pending.size();) {
    if (Pending[I].ReadyCycle <= MasterClock) {
      ReadyBuf.push_back(Pending[I]);
      Pending[I] = Pending.back();
      Pending.pop_back();
    } else {
      ++I;
    }
  }
  if (ReadyBuf.empty())
    return;

  // Apply all ready assertion changes, then rebuild each affected region
  // once -- several controller transitions can fold into one
  // re-optimization (Sec. 4.3).  Regions are kept sorted-unique; rebuild
  // order across distinct functions is immaterial (no shared state).
  RegionsBuf.clear();
  for (const PendingOpt &P : ReadyBuf) {
    const core::OptRequest &Rq = P.Request;
    uint32_t Func = 0;
    const bool Deploy = Rq.Kind == core::OptRequestKind::Deploy;
    if (P.IsValue) {
      const ValueSite &Site = ValueSites[Rq.Site];
      Func = Site.Func;
      auto &Consts = ValueConstsByFunc[Func];
      const auto It = std::lower_bound(
          Consts.begin(), Consts.end(), Site.Loc,
          [](const auto &Entry, distill::LocKey K) { return Entry.first < K; });
      const bool Present = It != Consts.end() && It->first == Site.Loc;
      if (Deploy) {
        const auto Value =
            static_cast<int64_t>(ValueCtrl.deployedValue(Rq.Site));
        if (Present)
          It->second = Value;
        else
          Consts.insert(It, {Site.Loc, Value});
      } else if (Present) {
        Consts.erase(It);
      }
    } else {
      assert(Rq.Site < AssertState.size() && "assertion for unknown site");
      AssertState[Rq.Site] = Deploy ? (Rq.Direction ? 2 : 1) : 0;
      Func = Program.Sites[Rq.Site].FunctionId;
    }
    const auto It =
        std::lower_bound(RegionsBuf.begin(), RegionsBuf.end(), Func);
    if (It == RegionsBuf.end() || *It != Func)
      RegionsBuf.insert(It, Func);
  }
  for (uint32_t Func : RegionsBuf)
    rebuildRegion(Func);
  for (const PendingOpt &P : ReadyBuf) {
    if (P.IsValue)
      ValueCtrl.completeRequest(P.Request.Site);
    else
      Controller.completeRequest(P.Request.Site);
  }
}

template <class BackendT>
uint64_t MsspSimulator::taskLoop(BackendT &MasterB, BackendT &CheckerB,
                                 const std::vector<bool> &ControlSites,
                                 const std::vector<bool> &RegionFunc) {
  MasterPolicy<BackendT> MasterPol(MasterB, MasterTiming,
                                   Program.IterationAddr,
                                   Config.TaskIterations, AddrClass,
                                   DirtyAddrs);
  CheckerPolicy<BackendT> CheckerPol(
      CheckerB, TrailTiming, Program.IterationAddr, Config.TaskIterations,
      AddrClass, DirtyAddrs, Controller, ControlSites, RegionFunc,
      Config.EnableValueSpeculation, *this);
  std::deque<uint64_t> CommitTimes; ///< in-flight verified-commit times
  std::vector<uint64_t> SlaveFree(Config.Machine.NumTrailing, 0);
  uint64_t PrevCommit = 0;
  const uint32_t Hop = Config.Machine.CoherenceHopCycles;

  for (;;) {
    processOptCompletions();

    // Checkpoint-buffer back-pressure.
    while (CommitTimes.size() >= Config.MaxOutstandingTasks) {
      MasterClock = std::max(MasterClock, CommitTimes.front());
      CommitTimes.pop_front();
    }

    // Master executes one task of distilled code.
    const uint64_t MStart = MasterTiming.cycles();
    const fsim::StopReason MReason =
        runCharged(MasterB, MasterPol, MasterTiming);
    MasterClock += MasterTiming.cycles() - MStart;

    // The trailing execution covers the same task with original code.
    const uint64_t VStartCycles = TrailTiming.cycles();
    const fsim::StopReason CReason =
        runCharged(CheckerB, CheckerPol, TrailTiming);
    const uint64_t VCycles = TrailTiming.cycles() - VStartCycles;
    assert(MReason != fsim::StopReason::Fault &&
           CReason != fsim::StopReason::Fault && "simulated program faulted");

    ++Result.Tasks;

    // Verification on the earliest-free trailing core.
    auto SlaveIt = std::min_element(SlaveFree.begin(), SlaveFree.end());
    const uint64_t VerifyStart = std::max(MasterClock, *SlaveIt) + Hop;
    const uint64_t VerifyEnd = VerifyStart + VCycles;
    *SlaveIt = VerifyEnd;
    const uint64_t Commit = std::max(VerifyEnd + Hop, PrevCommit);
    PrevCommit = Commit;

    if (!dirtyStateMatches(MasterB, CheckerB, DirtyAddrs)) {
      // Task misspeculation: detected when verification completes; the
      // master restarts from the trailing execution's state.
      ++Result.TaskSquashes;
      restoreMasterDirty();
      MasterClock = Commit + Hop + Config.Machine.Leading.PipelineDepth;
    } else {
      CommitTimes.push_back(Commit);
    }
    clearDirtyAddrs();

    const bool Done =
        (MReason == fsim::StopReason::Halted &&
         CReason == fsim::StopReason::Halted) ||
        (Config.MaxInstructions != 0 &&
         CheckerB.instructionsRetired() >= Config.MaxInstructions);
    if (Done)
      break;
  }

  return std::max(MasterClock, PrevCommit);
}

MsspResult MsspSimulator::run() {
  std::vector<bool> ControlSites(Program.Sites.size(), false);
  for (const workload::SynthSiteInfo &Info : Program.Sites)
    ControlSites[Info.Site] = Info.IsControlSite;

  std::vector<bool> IsRegionFunc(Program.Mod.numFunctions(), false);
  for (uint32_t F : Program.RegionFunctions)
    IsRegionFunc[F] = true;

  // createBackend built the concrete backend of Config.Tier; the loop is
  // instantiated over it so the policies inline into its dispatch loop.
  if (Config.Tier == ExecTier::TimingFused)
    Result.TotalCycles =
        taskLoop(static_cast<exec::ThreadedBackend &>(*Master),
                 static_cast<exec::ThreadedBackend &>(*Checker), ControlSites,
                 IsRegionFunc);
  else
    Result.TotalCycles = taskLoop(static_cast<fsim::Interpreter &>(*Master),
                                  static_cast<fsim::Interpreter &>(*Checker),
                                  ControlSites, IsRegionFunc);

  Result.MasterInstructions = MasterTiming.instructions();
  Result.CheckerInstructions = TrailTiming.instructions();
  Result.MasterBranchMispredicts = MasterTiming.branchMispredicts();
  Result.Controller = Controller.stats();
  Result.ValueController = ValueCtrl.stats();
  return Result;
}

uint64_t mssp::simulateSuperscalarBaseline(
    const workload::SynthProgram &Program, const MachineConfig &Machine,
    uint64_t MaxInstructions, ExecTier Tier) {
  CacheModel L2(Machine.L2);
  CoreTiming Timing(Machine.Leading, &L2, Machine.L2.LatencyCycles,
                    Machine.MemoryLatencyCycles);
  BaselinePolicy Policy(Timing);
  const uint64_t Fuel = MaxInstructions ? MaxInstructions : RunForever;
  fsim::StopReason Reason;
  if (Tier == ExecTier::TimingFused) {
    exec::ThreadedBackend Backend(Program.Mod, Program.InitialMemory);
    Reason = runCharged(Backend, Policy, Timing, Fuel);
  } else {
    fsim::Interpreter Backend(Program.Mod, Program.InitialMemory);
    Reason = runCharged(Backend, Policy, Timing, Fuel);
  }
  assert(Reason != fsim::StopReason::Fault && "baseline program faulted");
  (void)Reason;
  return Timing.cycles();
}
