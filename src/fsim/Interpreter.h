//===- fsim/Interpreter.h - SimIR functional simulator ----------*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The functional simulator: a resumable SimIR interpreter with observer
/// hooks for branches, loads, stores, and calls.  It plays the role of the
/// paper's SimpleScalar-based functional simulation (Sec. 3.2): producing
/// dynamic branch streams, executing both original and distilled code
/// versions, and exposing the state comparisons MSSP's verification needs.
///
/// Code versioning: the interpreter dispatches calls through a per-function
/// code map, so a dynamic optimizer can swap in a distilled version of a
/// function (and back) between or during runs -- the mechanism behind the
/// paper's "re-optimize and deploy" arc.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_FSIM_INTERPRETER_H
#define SPECCTRL_FSIM_INTERPRETER_H

#include "fsim/ExecBackend.h"
#include "ir/Function.h"

#include <cassert>
#include <cstdint>
#include <vector>

namespace specctrl {
namespace fsim {

/// A resumable SimIR interpreter over a module and a flat word memory: the
/// reference ExecBackend (ExecTier::Reference).  Declared final so the
/// compiler can devirtualize the backend interface when the concrete type
/// is known (the MSSP task loop and runWith's callers rely on this).
class Interpreter final : public ExecBackend {
public:
  /// Creates an interpreter positioned at the entry of \p M's entry
  /// function.  \p Memory is the initial memory image (word-addressed).
  Interpreter(const ir::Module &M, std::vector<uint64_t> Memory);

  /// Swaps the code executed for function \p FuncId (nullptr restores the
  /// module's original).  Takes effect at the next call of the function;
  /// active activations keep running their current version.
  void setCodeVersion(uint32_t FuncId, const ir::Function *F) override;

  /// Returns the code version currently dispatched for \p FuncId.
  const ir::Function &codeFor(uint32_t FuncId) const override;

  /// Executes up to \p MaxInstructions instructions, reporting events to
  /// \p Obs (may be null).  Resumable: call again to continue.
  StopReason run(uint64_t MaxInstructions, ExecObserver *Obs = nullptr) override;

  /// Statically dispatched variant of run(): \p Obs is any type providing
  /// the ExecObserver hook signatures (onLoad/onStore/onBranch/onCall/
  /// onReturn/onInstruction) as plain members.  With a concrete final
  /// observer the compiler inlines the hooks into the dispatch loop,
  /// eliminating the per-instruction virtual calls of the generic path.
  /// Event order and semantics are identical to run().
  template <class ObsT> StopReason runWith(uint64_t MaxInstructions, ObsT &Obs) {
    return runLoop<ObsT>(MaxInstructions, &Obs);
  }

  /// The reference drive of an event-only timing policy: the same
  /// noteBranch/noteLoad/noteStore/noteCall/noteReturn calls, with the
  /// same completed-instruction counts, as exec::ThreadedBackend::runTimed
  /// (exec/TimedRun.h has the policy concept).  Like runTimed it charges no
  /// per-instruction cost; the caller bulk-charges the slice's retired
  /// instructions.  One policy type therefore serves both tiers.
  template <class PolicyT>
  StopReason runTimed(uint64_t MaxInstructions, PolicyT &Policy) {
    TimedPolicyAdapter<PolicyT> Adapter{Policy, InstRet};
    return runWith(MaxInstructions, Adapter);
  }

  /// Requests that run() return after the current instruction retires.
  /// Callable from observer callbacks (e.g. to pause at task boundaries).
  void requestStop() override { StopFlag = true; }

  /// Adopts another interpreter's architectural position and registers
  /// (call stack, register stack, halt flag) -- but not its memory, which
  /// the caller reconciles (MSSP recovery copies only the written words).
  /// Both interpreters must execute the same module.  Concrete-type fast
  /// path; the ExecBackend overload round-trips through ArchPosition.
  void adoptPositionFrom(const Interpreter &Other);
  using ExecBackend::adoptPositionFrom;

  ArchPosition archPosition() const override;
  void setArchPosition(const ArchPosition &Position) override;

  /// True once Halt has retired (further run() calls return Halted).
  bool halted() const override { return Halted; }

  uint64_t instructionsRetired() const override { return InstRet; }

  std::vector<uint64_t> &memory() override { return Memory; }
  const std::vector<uint64_t> &memory() const override { return Memory; }

  /// Reads a memory word (0 beyond the image, matching load semantics).
  uint64_t loadWord(uint64_t Addr) const override {
    return Addr < Memory.size() ? Memory[Addr] : 0;
  }
  /// Writes a memory word, growing the image if needed.  Inline: runs on
  /// every simulated store.
  void storeWord(uint64_t Addr, uint64_t Value) override {
    if (Addr >= Memory.size()) {
      if (Addr >= MaxMemoryWords) {
        Faulted = true;
        return;
      }
      Memory.resize(Addr + 1, 0);
    }
    Memory[Addr] = Value;
  }

private:
  /// Forwards runWith's observer hooks to a timing policy's note* hooks.
  /// Done counts the instructions completed before the one raising an
  /// event -- what runTimed reconstructs -- so it advances in
  /// onInstruction, after the current instruction's events have fired.
  /// It starts from the retired count, which is exact between slices.
  template <class PolicyT> struct TimedPolicyAdapter {
    PolicyT &Policy;
    uint64_t Done;

    void onInstruction(const ir::Instruction &, const InstLocation &) {
      ++Done;
    }
    void onBranch(ir::SiteId Site, bool Taken) {
      Policy.noteBranch(Site, Taken, Done);
    }
    void onLoad(const InstLocation &L, uint64_t Addr, uint64_t Value) {
      Policy.noteLoad(L, Addr, Value, Done);
    }
    void onStore(uint64_t Addr, uint64_t Value, uint64_t /*Old*/) {
      Policy.noteStore(Addr, Value);
    }
    void onCall(uint32_t Callee) { Policy.noteCall(Callee); }
    void onReturn(uint32_t Callee) { Policy.noteReturn(Callee); }
  };

  /// The one dispatch loop, behind run() (ObsT = ExecObserver, virtual
  /// hooks), runWith() and runTimed() (concrete hooks, inlined).  The
  /// execution context (frame, block, register window) is hoisted out of
  /// the per-instruction path.
  template <class ObsT> StopReason runLoop(uint64_t MaxInstructions, ObsT *Obs);

  struct Frame {
    const ir::Function *Code = nullptr;
    uint32_t FuncId = 0;
    uint32_t Block = 0;
    uint32_t Index = 0;
    uint32_t RegBase = 0; ///< offset into RegStack
  };

  static constexpr size_t MaxCallDepth = 256;
  /// Memory images beyond this many words fault instead of growing, so a
  /// corrupted address cannot swallow the host's RAM.
  static constexpr uint64_t MaxMemoryWords = 1ull << 28;

  const ir::Module &Mod;
  std::vector<const ir::Function *> CodeMap; ///< per-function current version
  std::vector<uint64_t> Memory;
  std::vector<Frame> Stack;
  std::vector<uint64_t> RegStack;
  uint64_t InstRet = 0;
  bool Halted = false;
  bool Faulted = false;
  bool StopFlag = false;
};

template <class ObsT>
StopReason Interpreter::runLoop(uint64_t MaxInstructions, ObsT *Obs) {
  if (Halted)
    return StopReason::Halted;
  if (Faulted || Stack.empty())
    return StopReason::Fault;

  StopFlag = false;
  uint64_t Fuel = MaxInstructions;

  // Hot execution context, hoisted out of the per-instruction path and
  // re-derived only at control-flow boundaries (and wherever the backing
  // vectors may reallocate).
  Frame *F = &Stack.back();
  const ir::BasicBlock *BB = &F->Code->block(F->Block);
  uint64_t *Regs = RegStack.data() + F->RegBase;

  while (Fuel > 0) {
    assert(F->Index < BB->size() && "instruction index past block end");
    const ir::Instruction &I = BB->Insts[F->Index];
    const InstLocation Loc{F->FuncId, F->Block, F->Index};

    ++InstRet;
    --Fuel;
    ++F->Index;

    switch (I.Op) {
    case ir::Opcode::Nop:
      break;
    case ir::Opcode::MovImm:
      Regs[I.Dest] = static_cast<uint64_t>(I.Imm);
      break;
    case ir::Opcode::Mov:
      Regs[I.Dest] = Regs[I.SrcA];
      break;
    case ir::Opcode::Add:
      Regs[I.Dest] = Regs[I.SrcA] + Regs[I.SrcB];
      break;
    case ir::Opcode::AddImm:
      Regs[I.Dest] = Regs[I.SrcA] + static_cast<uint64_t>(I.Imm);
      break;
    case ir::Opcode::Sub:
      Regs[I.Dest] = Regs[I.SrcA] - Regs[I.SrcB];
      break;
    case ir::Opcode::Mul:
      Regs[I.Dest] = Regs[I.SrcA] * Regs[I.SrcB];
      break;
    case ir::Opcode::And:
      Regs[I.Dest] = Regs[I.SrcA] & Regs[I.SrcB];
      break;
    case ir::Opcode::Or:
      Regs[I.Dest] = Regs[I.SrcA] | Regs[I.SrcB];
      break;
    case ir::Opcode::Xor:
      Regs[I.Dest] = Regs[I.SrcA] ^ Regs[I.SrcB];
      break;
    case ir::Opcode::Shl:
      Regs[I.Dest] = Regs[I.SrcA] << (Regs[I.SrcB] & 63);
      break;
    case ir::Opcode::Shr:
      Regs[I.Dest] = Regs[I.SrcA] >> (Regs[I.SrcB] & 63);
      break;
    case ir::Opcode::CmpLt:
      Regs[I.Dest] = static_cast<int64_t>(Regs[I.SrcA]) <
                             static_cast<int64_t>(Regs[I.SrcB])
                         ? 1
                         : 0;
      break;
    case ir::Opcode::CmpLtImm:
      Regs[I.Dest] =
          static_cast<int64_t>(Regs[I.SrcA]) < I.Imm ? 1 : 0;
      break;
    case ir::Opcode::CmpEq:
      Regs[I.Dest] = Regs[I.SrcA] == Regs[I.SrcB] ? 1 : 0;
      break;
    case ir::Opcode::CmpEqImm:
      Regs[I.Dest] = Regs[I.SrcA] == static_cast<uint64_t>(I.Imm) ? 1 : 0;
      break;
    case ir::Opcode::Load: {
      const uint64_t Addr = Regs[I.SrcA] + static_cast<uint64_t>(I.Imm);
      const uint64_t Value = loadWord(Addr);
      Regs[I.Dest] = Value;
      if (Obs)
        Obs->onLoad(Loc, Addr, Value);
      break;
    }
    case ir::Opcode::Store: {
      const uint64_t Addr = Regs[I.SrcA] + static_cast<uint64_t>(I.Imm);
      const uint64_t Old = loadWord(Addr);
      storeWord(Addr, Regs[I.SrcB]);
      if (Faulted)
        return StopReason::Fault;
      if (Obs)
        Obs->onStore(Addr, Regs[I.SrcB], Old);
      break;
    }
    case ir::Opcode::Br: {
      const bool Taken = Regs[I.SrcA] != 0;
      F->Block = Taken ? I.ThenTarget : I.ElseTarget;
      F->Index = 0;
      BB = &F->Code->block(F->Block);
      if (Obs)
        Obs->onBranch(I.Site, Taken);
      break;
    }
    case ir::Opcode::Jmp:
      F->Block = I.ThenTarget;
      F->Index = 0;
      BB = &F->Code->block(F->Block);
      break;
    case ir::Opcode::Call: {
      if (Stack.size() >= MaxCallDepth) {
        Faulted = true;
        return StopReason::Fault;
      }
      assert(I.Callee < CodeMap.size() && "call to unknown function");
      const ir::Function *Callee = CodeMap[I.Callee];
      const uint32_t RegBase = static_cast<uint32_t>(RegStack.size());
      RegStack.resize(RegBase + Callee->numRegs(), 0);
      Stack.push_back({Callee, I.Callee, 0, 0, RegBase});
      // Both vectors may have reallocated.
      F = &Stack.back();
      BB = &Callee->block(0);
      Regs = RegStack.data() + RegBase;
      if (Obs)
        Obs->onCall(I.Callee);
      break;
    }
    case ir::Opcode::Ret: {
      const uint32_t Callee = F->FuncId;
      RegStack.resize(F->RegBase);
      Stack.pop_back();
      if (Obs)
        Obs->onReturn(Callee);
      if (Stack.empty()) {
        // Returning from the entry function ends the program.
        Halted = true;
        if (Obs)
          Obs->onInstruction(I, Loc);
        return StopReason::Halted;
      }
      F = &Stack.back();
      BB = &F->Code->block(F->Block);
      Regs = RegStack.data() + F->RegBase;
      break;
    }
    case ir::Opcode::Halt:
      Halted = true;
      if (Obs)
        Obs->onInstruction(I, Loc);
      return StopReason::Halted;
    }

    if (Obs)
      Obs->onInstruction(I, Loc);
    if (StopFlag)
      return StopReason::Stopped;
  }
  return StopReason::FuelExhausted;
}

} // namespace fsim
} // namespace specctrl

#endif // SPECCTRL_FSIM_INTERPRETER_H
