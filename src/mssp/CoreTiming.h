//===- mssp/CoreTiming.h - Component-latency core model ---------*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A mechanistic timing model for one core, driven as an interpreter
/// observer: base issue cost of 1/width per instruction, pipeline-depth
/// misprediction penalties from a live gshare (branch sites keyed by their
/// stable site ids, so original and distilled versions share predictor
/// state exactly as one PC would), RAS-overflow penalties on returns, and
/// cache-miss stalls from the L1 -> shared L2 -> memory hierarchy.
/// Instruction fetch is assumed to hit (synthesized regions are small);
/// the window size's memory-level-parallelism effect is folded into the
/// per-miss latencies.  See DESIGN.md for the substitution argument.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_MSSP_CORETIMING_H
#define SPECCTRL_MSSP_CORETIMING_H

#include "fsim/Interpreter.h"
#include "mssp/BranchPredictor.h"
#include "mssp/Cache.h"

namespace specctrl {
namespace mssp {

/// Cycle accumulator for one core.
class CoreTiming : public fsim::ExecObserver {
public:
  /// \p SharedL2 may be shared between cores (nullptr = perfect L2).
  CoreTiming(const CoreConfig &Config, CacheModel *SharedL2,
             uint32_t L2LatencyCycles, uint32_t MemoryLatencyCycles);

  // Observer hooks -- chainable from a composite observer.
  void onInstruction(const ir::Instruction &I,
                     const fsim::InstLocation &L) override;
  void onBranch(ir::SiteId Site, bool Taken) override;
  void onLoad(const fsim::InstLocation &L, uint64_t Addr,
              uint64_t Value) override;
  void onStore(uint64_t Addr, uint64_t Value, uint64_t Old) override;
  void onCall(uint32_t Callee) override;
  void onReturn(uint32_t Callee) override;

  // Non-virtual hot-path equivalents of the hooks above.  The MSSP and
  // baseline timing policies call these directly; the virtual overrides
  // delegate to them, so both paths share one definition of the timing
  // rules.
  //
  // The instruction counter is kept pre-divided: IssueFull/IssueRem are
  // exactly (Insts / Width, Insts % Width) at all times, so cycles() is
  // O(1) reads with no division, and the timing-fused tier can charge a
  // whole straight-line block in one addInstructions() call.
  void recordInstruction() {
    if (++IssueRem == Width) {
      ++IssueFull;
      IssueRem = 0;
    }
  }
  /// Bulk-charges \p N straight-line instructions at once -- bit-identical
  /// to N recordInstruction() calls, since instruction issue accumulates
  /// order-free between cycle reads.  The timing-fused execution tier uses
  /// this to charge per decoded block / per run slice.
  void addInstructions(uint64_t N) {
    IssueRem += N;
    IssueFull += IssueRem / Width;
    IssueRem %= Width;
  }
  void recordBranch(ir::SiteId Site, bool Taken) {
    if (!Gshare.predictAndUpdate(Site, Taken))
      Stalls += Config.PipelineDepth;
  }
  void recordMemoryAccess(uint64_t WordAddr) {
    if (L1.access(WordAddr))
      return;
    // Batched: resolve the whole miss path, then touch the accumulator
    // once.
    uint64_t Stall = L2Latency;
    if (L2 && !L2->access(WordAddr))
      Stall += MemoryLatency;
    Stalls += Stall;
  }
  void recordCall(uint32_t Callee) { Ras.pushCall(Callee); }
  void recordReturn(uint32_t Callee) {
    // SimIR returns have a single static target per activation; the RAS
    // mispredicts only on overflow-induced stack corruption.
    if (!Ras.popAndCheck(Callee))
      Stalls += Config.PipelineDepth;
  }

  /// Total cycles accumulated so far.  O(1): the issue quotient is
  /// maintained incrementally, not divided out per read.
  uint64_t cycles() const { return IssueFull + (IssueRem != 0) + Stalls; }
  uint64_t instructions() const { return IssueFull * Width + IssueRem; }
  uint64_t branchMispredicts() const { return Gshare.mispredicts(); }
  uint64_t l1Misses() const { return L1.misses(); }

  /// Adds idle/penalty cycles from outside (hops, squash recovery).
  void addStallCycles(uint64_t Cycles) { Stalls += Cycles; }

private:
  CoreConfig Config;
  GsharePredictor Gshare;
  ReturnAddressStack Ras;
  CacheModel L1;
  CacheModel *L2;
  uint32_t L2Latency;
  uint32_t MemoryLatency;
  uint64_t Width;         ///< Config.Width, cached for the hot counters
  uint64_t IssueFull = 0; ///< completed issue groups (Insts / Width)
  uint64_t IssueRem = 0;  ///< instructions in the open group (< Width)
  uint64_t Stalls = 0;
};

} // namespace mssp
} // namespace specctrl

#endif // SPECCTRL_MSSP_CORETIMING_H
