//===- exec/ThreadedBackend.h - Direct-threaded SimIR tier ------*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiled execution tier: a direct-threaded (computed-goto) dispatch
/// loop over a pre-decoded, flattened instruction stream.  Where the
/// reference interpreter re-derives block pointers, operand fields, and
/// branch targets on every instruction, this tier decodes each code version
/// once into a DecodedFunction -- operands widened into fixed slots, branch
/// targets resolved to decoded-PC offsets, blocks concatenated into one
/// array -- and then executes with a single indirect jump per instruction
/// (token threading: each handler re-dispatches through a per-opcode label
/// table, so the branch predictor sees one indirect branch per handler
/// rather than one shared dispatch branch).
///
/// Superinstruction fusion: adjacent pairs the distiller's straightened
/// code produces in bulk (cmp+br, load+op, op+store) are rewritten at
/// decode time into one fused handler at the pair head.  Decoded entries
/// stay 1:1 with source instructions -- the second instruction of a pair
/// keeps its own unfused entry -- so a fused handler reads its second
/// half's operands from IP[1], mid-pair stop/resume lands on a real
/// instruction, and decoded PC <-> (block, index) stays bijective.
/// Bit-exactness through fusion holds because a fused handler executes the
/// two halves in original order with the original per-instruction event
/// protocol (retire count, observer hooks, stop-flag checks) between them;
/// when fewer than two fuel units remain it falls back to the plain
/// handler of its first half.
///
/// Both the event streams and the architectural state are bit-identical to
/// fsim::Interpreter::run (pinned by ExecBackendEquivalenceTest and the
/// fig7/fig8 golden CSVs, which run under both tiers).
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_EXEC_THREADEDBACKEND_H
#define SPECCTRL_EXEC_THREADEDBACKEND_H

#include "fsim/ExecBackend.h"
#include "ir/Function.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

// Token-threaded dispatch requires the GNU address-of-label extension; a
// portable switch loop with identical semantics is kept as the fallback.
#if defined(__GNUC__) || defined(__clang__)
#define SPECCTRL_EXEC_COMPUTED_GOTO 1
#else
#define SPECCTRL_EXEC_COMPUTED_GOTO 0
#endif

namespace specctrl {
namespace exec {

/// Decoded opcode: the plain opcodes in ir::Opcode order, then the fused
/// superinstructions.  Values index the dispatch table.
enum class XOp : uint8_t {
  Nop,
  MovImm,
  Mov,
  Add,
  AddImm,
  Sub,
  Mul,
  And,
  Or,
  Xor,
  Shl,
  Shr,
  CmpLt,
  CmpLtImm,
  CmpEq,
  CmpEqImm,
  Load,
  Store,
  Br,
  Jmp,
  Call,
  Ret,
  Halt,
  // Fused pairs (handler at the pair head; second half's operands are read
  // from the following decoded entry, which keeps its plain XOp).
  FCmpLtBr,    ///< CmpLt    + Br
  FCmpLtImmBr, ///< CmpLtImm + Br
  FCmpEqBr,    ///< CmpEq    + Br
  FCmpEqImmBr, ///< CmpEqImm + Br
  FLoadAdd,    ///< Load     + Add
  FLoadAddImm, ///< Load     + AddImm
  FAddStore,   ///< Add      + Store
  FAddImmStore,///< AddImm   + Store
  FXorStore,   ///< Xor      + Store
};

inline constexpr unsigned NumXOps = static_cast<unsigned>(XOp::FXorStore) + 1;

/// One pre-decoded instruction.  Exactly one entry per source instruction;
/// branch targets are offsets into the enclosing DecodedFunction's stream.
struct DecodedInst {
  XOp Op = XOp::Nop;
  uint8_t D = 0; ///< destination register slot
  uint8_t A = 0; ///< first source register slot
  uint8_t B = 0; ///< second source register slot
  ir::SiteId Site = ir::InvalidSite;
  uint32_t ThenPC = 0;  ///< Br taken / Jmp target as a decoded PC
  uint32_t ElsePC = 0;  ///< Br not-taken target as a decoded PC
  uint32_t Callee = 0;  ///< Call target (function id)
  uint32_t Block = 0;   ///< source coordinates (for observers / positions)
  uint32_t Index = 0;
  int64_t Imm = 0;
  const ir::Instruction *Src = nullptr; ///< original, for onInstruction
};

/// Per-block static timing metadata, computed once at decode time.  EndPC
/// is what the timing-fused dispatch loop consumes: it charges the whole
/// remaining straight-line stretch [PC, EndPC) in one step and then only
/// touches the dynamic timing models at the event slots.  The event-slot
/// census (how many of the block's instructions are branches, memory
/// accesses, calls, returns) is decode-time ground truth for timing
/// policies and tests -- it never changes per execution, so it is not
/// re-derived in any loop.
struct DecodedBlockInfo {
  uint32_t StartPC = 0;  ///< decoded PC of the block head
  uint32_t EndPC = 0;    ///< one past the block's last decoded PC
  uint16_t Branches = 0; ///< conditional-branch slots (gshare events)
  uint16_t Mems = 0;     ///< load + store slots (cache events)
  uint16_t Calls = 0;    ///< call slots (RAS push events)
  uint16_t Rets = 0;     ///< return slots (RAS pop events)

  uint32_t instCount() const { return EndPC - StartPC; }
};

/// One code version, decoded: blocks concatenated in index order, so the
/// decoded PC of (Block, Index) is BlockStart[Block] + Index and every
/// decoded entry carries its source coordinates back.
struct DecodedFunction {
  const ir::Function *Src = nullptr;
  unsigned NumRegs = 1;
  std::vector<DecodedInst> Insts;
  std::vector<uint32_t> BlockStart; ///< decoded PC of each block's head
  std::vector<DecodedBlockInfo> Blocks; ///< static timing metadata, 1/block

  uint32_t pcOf(uint32_t Block, uint32_t Index) const {
    assert(Block < BlockStart.size() && "block out of range");
    return BlockStart[Block] + Index;
  }
};

/// Decodes \p F (which must verify) into a flattened stream with fused
/// superinstructions.  Exposed for tests; execution goes through
/// ThreadedBackend's per-version cache.
std::unique_ptr<DecodedFunction> decodeFunction(const ir::Function &F);

/// The direct-threaded ExecBackend (ExecTier::TimingFused).  Construction,
/// code-version swaps, and position transplants mirror fsim::Interpreter;
/// see the file comment for how execution differs.
class ThreadedBackend final : public fsim::ExecBackend {
public:
  ThreadedBackend(const ir::Module &M, std::vector<uint64_t> Memory);

  void setCodeVersion(uint32_t FuncId, const ir::Function *F) override;
  const ir::Function &codeFor(uint32_t FuncId) const override;

  fsim::StopReason run(uint64_t MaxInstructions,
                       fsim::ExecObserver *Obs = nullptr) override;

  /// Statically dispatched variant of run(): \p Obs is any type providing
  /// the ExecObserver hook signatures as plain members, inlined into the
  /// dispatch loop.  Event order and semantics are identical to run().
  template <class ObsT>
  fsim::StopReason runWith(uint64_t MaxInstructions, ObsT &Obs) {
    return runLoop<ObsT>(MaxInstructions, &Obs);
  }

  /// The timing-fused loop (ExecTier::TimingFused): charges straight-line
  /// instruction counts per decoded block instead of per instruction and
  /// calls \p Policy only at branch/load/store/call/return events, with a
  /// completed-instruction count reconstructed at each event.  Defined in
  /// exec/TimedRun.h (include it to instantiate); see that file for the
  /// policy concept and the exactness contract.
  template <class PolicyT>
  fsim::StopReason runTimed(uint64_t MaxInstructions, PolicyT &Policy);

  void requestStop() override { StopFlag = true; }

  bool halted() const override { return Halted; }
  uint64_t instructionsRetired() const override { return InstRet; }

  std::vector<uint64_t> &memory() override { return Memory; }
  const std::vector<uint64_t> &memory() const override { return Memory; }

  uint64_t loadWord(uint64_t Addr) const override {
    return Addr < Memory.size() ? Memory[Addr] : 0;
  }
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

  fsim::ArchPosition archPosition() const override;
  void setArchPosition(const fsim::ArchPosition &Position) override;

private:
  /// A frame over decoded code.  PC is authoritative while running; Block
  /// and Index are synced whenever the frame can be observed (loop exit,
  /// call push, position export).
  struct DecodedFrame {
    const DecodedFunction *DF = nullptr;
    uint32_t FuncId = 0;
    uint32_t PC = 0;
    uint32_t RegBase = 0;
    uint32_t Block = 0;
    uint32_t Index = 0;
  };

  static constexpr size_t MaxCallDepth = 256;
  static constexpr uint64_t MaxMemoryWords = 1ull << 28;

  /// Returns the cached decode of \p F, decoding on first use.  Aborts if
  /// the module was mutated since construction (stale Function handles) --
  /// an always-on check, since release builds compile asserts out.
  const DecodedFunction *decodedFor(const ir::Function *F);

  template <class ObsT>
  fsim::StopReason runLoop(uint64_t MaxInstructions, ObsT *Obs);

  const ir::Module &Mod;
  uint64_t ModGeneration; ///< Mod.generation() at construction
  /// Per-function currently dispatched version (parallel to VersionMap).
  std::vector<const DecodedFunction *> CodeMap;
  std::vector<const ir::Function *> VersionMap;
  /// Decode cache: one entry per distinct code version ever dispatched.
  std::unordered_map<const ir::Function *, std::unique_ptr<DecodedFunction>>
      Decoded;
  std::vector<uint64_t> Memory;
  std::vector<DecodedFrame> Stack;
  std::vector<uint64_t> RegStack;
  uint64_t InstRet = 0;
  bool Halted = false;
  bool Faulted = false;
  bool StopFlag = false;
};

/// Constructs the backend for \p Tier over \p M and \p Memory.  This is
/// the one place consumers (MSSP, engine cells, tools, tests) select an
/// execution tier; it lives in exec because fsim cannot depend on it.
std::unique_ptr<fsim::ExecBackend>
createBackend(ExecTier Tier, const ir::Module &M, std::vector<uint64_t> Memory);

//===----------------------------------------------------------------------===//
// The dispatch loop
//===----------------------------------------------------------------------===//
//
// Replicates Interpreter::run's per-instruction protocol exactly:
//   retire (InstRet/Fuel/advance) -> execute -> data events -> control
//   transfer -> onInstruction -> stop-flag check
// with faults, halt, and entry-return behaving byte-for-byte like the
// reference (Interpreter::runLoop in fsim/Interpreter.h).  Handlers
// re-derive the frame pointer, code base, and register window only at
// control-flow boundaries.

#if SPECCTRL_EXEC_COMPUTED_GOTO
// Token threading: every handler ends in its own indirect jump.
#define SPECCTRL_XCASE(op) L_##op:
#define SPECCTRL_XDISPATCH()                                                   \
  do {                                                                         \
    if (Fuel == 0)                                                             \
      goto ExitFuel;                                                           \
    goto *Tbl[static_cast<unsigned>(IP->Op)];                                  \
  } while (0)
#else
// Portable fallback: one switch in a loop.  The L_ labels stay so fused
// handlers can fall back to their first half's plain handler.
#define SPECCTRL_XCASE(op)                                                     \
  case XOp::op:                                                                \
  L_##op:
#define SPECCTRL_XDISPATCH() goto Dispatch
#endif

template <class ObsT>
fsim::StopReason ThreadedBackend::runLoop(uint64_t MaxInstructions,
                                          ObsT *Obs) {
  using fsim::InstLocation;
  using fsim::StopReason;

  if (Halted)
    return StopReason::Halted;
  if (Faulted || Stack.empty())
    return StopReason::Fault;

  StopFlag = false;
  uint64_t Fuel = MaxInstructions;
  if (Fuel == 0)
    return StopReason::FuelExhausted;

  DecodedFrame *F = &Stack.back();
  const DecodedInst *Code = F->DF->Insts.data();
  const DecodedInst *IP = Code + F->PC;
  uint64_t *Regs = RegStack.data() + F->RegBase;

#if defined(__GNUC__) || defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wunused-label"
#endif

#if SPECCTRL_EXEC_COMPUTED_GOTO
  // Indexed by XOp; must match the enum order exactly.
  static const void *const Tbl[NumXOps] = {
      &&L_Nop,      &&L_MovImm,      &&L_Mov,      &&L_Add,
      &&L_AddImm,   &&L_Sub,         &&L_Mul,      &&L_And,
      &&L_Or,       &&L_Xor,         &&L_Shl,      &&L_Shr,
      &&L_CmpLt,    &&L_CmpLtImm,    &&L_CmpEq,    &&L_CmpEqImm,
      &&L_Load,     &&L_Store,       &&L_Br,       &&L_Jmp,
      &&L_Call,     &&L_Ret,         &&L_Halt,     &&L_FCmpLtBr,
      &&L_FCmpLtImmBr, &&L_FCmpEqBr, &&L_FCmpEqImmBr, &&L_FLoadAdd,
      &&L_FLoadAddImm, &&L_FAddStore, &&L_FAddImmStore, &&L_FXorStore,
  };
  goto *Tbl[static_cast<unsigned>(IP->Op)];
#else
Dispatch:
  if (Fuel == 0)
    goto ExitFuel;
  switch (IP->Op) {
#endif

// Common prologue/epilogue for simple (non-control) instructions.
#define SPECCTRL_XRETIRE()                                                     \
  ++InstRet;                                                                   \
  --Fuel
#define SPECCTRL_XFINISH(InstRef)                                              \
  do {                                                                         \
    if (Obs)                                                                   \
      Obs->onInstruction(*(InstRef).Src, InstLocation{F->FuncId,               \
                                                      (InstRef).Block,         \
                                                      (InstRef).Index});       \
    if (StopFlag)                                                              \
      goto ExitStop;                                                           \
  } while (0)

  SPECCTRL_XCASE(Nop) {
    const DecodedInst &I = *IP;
    SPECCTRL_XRETIRE();
    ++IP;
    SPECCTRL_XFINISH(I);
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(MovImm) {
    const DecodedInst &I = *IP;
    SPECCTRL_XRETIRE();
    ++IP;
    Regs[I.D] = static_cast<uint64_t>(I.Imm);
    SPECCTRL_XFINISH(I);
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(Mov) {
    const DecodedInst &I = *IP;
    SPECCTRL_XRETIRE();
    ++IP;
    Regs[I.D] = Regs[I.A];
    SPECCTRL_XFINISH(I);
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(Add) {
    const DecodedInst &I = *IP;
    SPECCTRL_XRETIRE();
    ++IP;
    Regs[I.D] = Regs[I.A] + Regs[I.B];
    SPECCTRL_XFINISH(I);
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(AddImm) {
    const DecodedInst &I = *IP;
    SPECCTRL_XRETIRE();
    ++IP;
    Regs[I.D] = Regs[I.A] + static_cast<uint64_t>(I.Imm);
    SPECCTRL_XFINISH(I);
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(Sub) {
    const DecodedInst &I = *IP;
    SPECCTRL_XRETIRE();
    ++IP;
    Regs[I.D] = Regs[I.A] - Regs[I.B];
    SPECCTRL_XFINISH(I);
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(Mul) {
    const DecodedInst &I = *IP;
    SPECCTRL_XRETIRE();
    ++IP;
    Regs[I.D] = Regs[I.A] * Regs[I.B];
    SPECCTRL_XFINISH(I);
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(And) {
    const DecodedInst &I = *IP;
    SPECCTRL_XRETIRE();
    ++IP;
    Regs[I.D] = Regs[I.A] & Regs[I.B];
    SPECCTRL_XFINISH(I);
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(Or) {
    const DecodedInst &I = *IP;
    SPECCTRL_XRETIRE();
    ++IP;
    Regs[I.D] = Regs[I.A] | Regs[I.B];
    SPECCTRL_XFINISH(I);
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(Xor) {
    const DecodedInst &I = *IP;
    SPECCTRL_XRETIRE();
    ++IP;
    Regs[I.D] = Regs[I.A] ^ Regs[I.B];
    SPECCTRL_XFINISH(I);
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(Shl) {
    const DecodedInst &I = *IP;
    SPECCTRL_XRETIRE();
    ++IP;
    Regs[I.D] = Regs[I.A] << (Regs[I.B] & 63);
    SPECCTRL_XFINISH(I);
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(Shr) {
    const DecodedInst &I = *IP;
    SPECCTRL_XRETIRE();
    ++IP;
    Regs[I.D] = Regs[I.A] >> (Regs[I.B] & 63);
    SPECCTRL_XFINISH(I);
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(CmpLt) {
    const DecodedInst &I = *IP;
    SPECCTRL_XRETIRE();
    ++IP;
    Regs[I.D] = static_cast<int64_t>(Regs[I.A]) <
                        static_cast<int64_t>(Regs[I.B])
                    ? 1
                    : 0;
    SPECCTRL_XFINISH(I);
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(CmpLtImm) {
    const DecodedInst &I = *IP;
    SPECCTRL_XRETIRE();
    ++IP;
    Regs[I.D] = static_cast<int64_t>(Regs[I.A]) < I.Imm ? 1 : 0;
    SPECCTRL_XFINISH(I);
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(CmpEq) {
    const DecodedInst &I = *IP;
    SPECCTRL_XRETIRE();
    ++IP;
    Regs[I.D] = Regs[I.A] == Regs[I.B] ? 1 : 0;
    SPECCTRL_XFINISH(I);
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(CmpEqImm) {
    const DecodedInst &I = *IP;
    SPECCTRL_XRETIRE();
    ++IP;
    Regs[I.D] = Regs[I.A] == static_cast<uint64_t>(I.Imm) ? 1 : 0;
    SPECCTRL_XFINISH(I);
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(Load) {
    const DecodedInst &I = *IP;
    SPECCTRL_XRETIRE();
    ++IP;
    const uint64_t Addr = Regs[I.A] + static_cast<uint64_t>(I.Imm);
    const uint64_t Value = loadWord(Addr);
    Regs[I.D] = Value;
    if (Obs)
      Obs->onLoad(InstLocation{F->FuncId, I.Block, I.Index}, Addr, Value);
    SPECCTRL_XFINISH(I);
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(Store) {
    const DecodedInst &I = *IP;
    SPECCTRL_XRETIRE();
    ++IP;
    const uint64_t Addr = Regs[I.A] + static_cast<uint64_t>(I.Imm);
    const uint64_t Old = loadWord(Addr);
    storeWord(Addr, Regs[I.B]);
    if (Faulted)
      goto ExitFault;
    if (Obs)
      Obs->onStore(Addr, Regs[I.B], Old);
    SPECCTRL_XFINISH(I);
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(Br) {
    const DecodedInst &I = *IP;
    SPECCTRL_XRETIRE();
    const bool Taken = Regs[I.A] != 0;
    IP = Code + (Taken ? I.ThenPC : I.ElsePC);
    if (Obs)
      Obs->onBranch(I.Site, Taken);
    SPECCTRL_XFINISH(I);
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(Jmp) {
    const DecodedInst &I = *IP;
    SPECCTRL_XRETIRE();
    IP = Code + I.ThenPC;
    SPECCTRL_XFINISH(I);
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(Call) {
    const DecodedInst &I = *IP;
    SPECCTRL_XRETIRE();
    ++IP;
    if (Stack.size() >= MaxCallDepth) {
      Faulted = true;
      goto ExitFault;
    }
    assert(I.Callee < CodeMap.size() && "call to unknown function");
    const uint32_t Caller = F->FuncId;
    const DecodedFunction *Callee = CodeMap[I.Callee];
    const uint32_t RegBase = static_cast<uint32_t>(RegStack.size());
    RegStack.resize(RegBase + Callee->NumRegs, 0);
    // Sync the caller's resume point before the frame vector can move.
    F->PC = static_cast<uint32_t>(IP - Code);
    F->Block = IP->Block;
    F->Index = IP->Index;
    Stack.push_back({Callee, I.Callee, 0, RegBase, 0, 0});
    F = &Stack.back();
    Code = Callee->Insts.data();
    IP = Code;
    Regs = RegStack.data() + RegBase;
    if (Obs) {
      Obs->onCall(I.Callee);
      Obs->onInstruction(*I.Src, InstLocation{Caller, I.Block, I.Index});
    }
    if (StopFlag)
      goto ExitStop;
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(Ret) {
    const DecodedInst &I = *IP;
    SPECCTRL_XRETIRE();
    const uint32_t Callee = F->FuncId;
    RegStack.resize(F->RegBase);
    Stack.pop_back();
    if (Obs)
      Obs->onReturn(Callee);
    if (Stack.empty()) {
      // Returning from the entry function ends the program.
      Halted = true;
      if (Obs)
        Obs->onInstruction(*I.Src, InstLocation{Callee, I.Block, I.Index});
      return StopReason::Halted;
    }
    F = &Stack.back();
    Code = F->DF->Insts.data();
    IP = Code + F->PC;
    Regs = RegStack.data() + F->RegBase;
    if (Obs)
      Obs->onInstruction(*I.Src, InstLocation{Callee, I.Block, I.Index});
    if (StopFlag)
      goto ExitStop;
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(Halt) {
    const DecodedInst &I = *IP;
    SPECCTRL_XRETIRE();
    ++IP;
    Halted = true;
    // The reference leaves the frame index one past the Halt; mirror that
    // in source coordinates for position export.
    F->PC = static_cast<uint32_t>(IP - Code);
    F->Block = I.Block;
    F->Index = I.Index + 1;
    if (Obs)
      Obs->onInstruction(*I.Src, InstLocation{F->FuncId, I.Block, I.Index});
    goto ExitHalt;
  }

  //--- Fused superinstructions -------------------------------------------
  // Each executes its two halves with the exact reference protocol between
  // them; IP[1] is the second half's own (plain) decoded entry.

  SPECCTRL_XCASE(FCmpLtBr) {
    if (Fuel < 2)
      goto L_CmpLt;
    const DecodedInst &C = IP[0];
    const DecodedInst &B = IP[1];
    SPECCTRL_XRETIRE();
    ++IP;
    Regs[C.D] = static_cast<int64_t>(Regs[C.A]) <
                        static_cast<int64_t>(Regs[C.B])
                    ? 1
                    : 0;
    SPECCTRL_XFINISH(C);
    SPECCTRL_XRETIRE();
    const bool Taken = Regs[B.A] != 0;
    IP = Code + (Taken ? B.ThenPC : B.ElsePC);
    if (Obs)
      Obs->onBranch(B.Site, Taken);
    SPECCTRL_XFINISH(B);
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(FCmpLtImmBr) {
    if (Fuel < 2)
      goto L_CmpLtImm;
    const DecodedInst &C = IP[0];
    const DecodedInst &B = IP[1];
    SPECCTRL_XRETIRE();
    ++IP;
    Regs[C.D] = static_cast<int64_t>(Regs[C.A]) < C.Imm ? 1 : 0;
    SPECCTRL_XFINISH(C);
    SPECCTRL_XRETIRE();
    const bool Taken = Regs[B.A] != 0;
    IP = Code + (Taken ? B.ThenPC : B.ElsePC);
    if (Obs)
      Obs->onBranch(B.Site, Taken);
    SPECCTRL_XFINISH(B);
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(FCmpEqBr) {
    if (Fuel < 2)
      goto L_CmpEq;
    const DecodedInst &C = IP[0];
    const DecodedInst &B = IP[1];
    SPECCTRL_XRETIRE();
    ++IP;
    Regs[C.D] = Regs[C.A] == Regs[C.B] ? 1 : 0;
    SPECCTRL_XFINISH(C);
    SPECCTRL_XRETIRE();
    const bool Taken = Regs[B.A] != 0;
    IP = Code + (Taken ? B.ThenPC : B.ElsePC);
    if (Obs)
      Obs->onBranch(B.Site, Taken);
    SPECCTRL_XFINISH(B);
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(FCmpEqImmBr) {
    if (Fuel < 2)
      goto L_CmpEqImm;
    const DecodedInst &C = IP[0];
    const DecodedInst &B = IP[1];
    SPECCTRL_XRETIRE();
    ++IP;
    Regs[C.D] = Regs[C.A] == static_cast<uint64_t>(C.Imm) ? 1 : 0;
    SPECCTRL_XFINISH(C);
    SPECCTRL_XRETIRE();
    const bool Taken = Regs[B.A] != 0;
    IP = Code + (Taken ? B.ThenPC : B.ElsePC);
    if (Obs)
      Obs->onBranch(B.Site, Taken);
    SPECCTRL_XFINISH(B);
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(FLoadAdd) {
    if (Fuel < 2)
      goto L_Load;
    const DecodedInst &L = IP[0];
    const DecodedInst &A = IP[1];
    SPECCTRL_XRETIRE();
    ++IP;
    const uint64_t Addr = Regs[L.A] + static_cast<uint64_t>(L.Imm);
    const uint64_t Value = loadWord(Addr);
    Regs[L.D] = Value;
    if (Obs)
      Obs->onLoad(InstLocation{F->FuncId, L.Block, L.Index}, Addr, Value);
    SPECCTRL_XFINISH(L);
    SPECCTRL_XRETIRE();
    ++IP;
    Regs[A.D] = Regs[A.A] + Regs[A.B];
    SPECCTRL_XFINISH(A);
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(FLoadAddImm) {
    if (Fuel < 2)
      goto L_Load;
    const DecodedInst &L = IP[0];
    const DecodedInst &A = IP[1];
    SPECCTRL_XRETIRE();
    ++IP;
    const uint64_t Addr = Regs[L.A] + static_cast<uint64_t>(L.Imm);
    const uint64_t Value = loadWord(Addr);
    Regs[L.D] = Value;
    if (Obs)
      Obs->onLoad(InstLocation{F->FuncId, L.Block, L.Index}, Addr, Value);
    SPECCTRL_XFINISH(L);
    SPECCTRL_XRETIRE();
    ++IP;
    Regs[A.D] = Regs[A.A] + static_cast<uint64_t>(A.Imm);
    SPECCTRL_XFINISH(A);
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(FAddStore) {
    if (Fuel < 2)
      goto L_Add;
    const DecodedInst &A = IP[0];
    const DecodedInst &S = IP[1];
    SPECCTRL_XRETIRE();
    ++IP;
    Regs[A.D] = Regs[A.A] + Regs[A.B];
    SPECCTRL_XFINISH(A);
    SPECCTRL_XRETIRE();
    ++IP;
    const uint64_t Addr = Regs[S.A] + static_cast<uint64_t>(S.Imm);
    const uint64_t Old = loadWord(Addr);
    storeWord(Addr, Regs[S.B]);
    if (Faulted)
      goto ExitFault;
    if (Obs)
      Obs->onStore(Addr, Regs[S.B], Old);
    SPECCTRL_XFINISH(S);
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(FAddImmStore) {
    if (Fuel < 2)
      goto L_AddImm;
    const DecodedInst &A = IP[0];
    const DecodedInst &S = IP[1];
    SPECCTRL_XRETIRE();
    ++IP;
    Regs[A.D] = Regs[A.A] + static_cast<uint64_t>(A.Imm);
    SPECCTRL_XFINISH(A);
    SPECCTRL_XRETIRE();
    ++IP;
    const uint64_t Addr = Regs[S.A] + static_cast<uint64_t>(S.Imm);
    const uint64_t Old = loadWord(Addr);
    storeWord(Addr, Regs[S.B]);
    if (Faulted)
      goto ExitFault;
    if (Obs)
      Obs->onStore(Addr, Regs[S.B], Old);
    SPECCTRL_XFINISH(S);
    SPECCTRL_XDISPATCH();
  }
  SPECCTRL_XCASE(FXorStore) {
    if (Fuel < 2)
      goto L_Xor;
    const DecodedInst &X = IP[0];
    const DecodedInst &S = IP[1];
    SPECCTRL_XRETIRE();
    ++IP;
    Regs[X.D] = Regs[X.A] ^ Regs[X.B];
    SPECCTRL_XFINISH(X);
    SPECCTRL_XRETIRE();
    ++IP;
    const uint64_t Addr = Regs[S.A] + static_cast<uint64_t>(S.Imm);
    const uint64_t Old = loadWord(Addr);
    storeWord(Addr, Regs[S.B]);
    if (Faulted)
      goto ExitFault;
    if (Obs)
      Obs->onStore(Addr, Regs[S.B], Old);
    SPECCTRL_XFINISH(S);
    SPECCTRL_XDISPATCH();
  }

#if !SPECCTRL_EXEC_COMPUTED_GOTO
  }
#endif

ExitFuel:
  F->PC = static_cast<uint32_t>(IP - Code);
  F->Block = IP->Block;
  F->Index = IP->Index;
  return StopReason::FuelExhausted;

ExitStop:
  F->PC = static_cast<uint32_t>(IP - Code);
  F->Block = IP->Block;
  F->Index = IP->Index;
  return StopReason::Stopped;

ExitFault:
  F->PC = static_cast<uint32_t>(IP - Code);
  F->Block = IP->Block;
  F->Index = IP->Index;
  return StopReason::Fault;

ExitHalt:
  return StopReason::Halted;

#if defined(__GNUC__) || defined(__clang__)
#pragma GCC diagnostic pop
#endif

#undef SPECCTRL_XCASE
#undef SPECCTRL_XDISPATCH
#undef SPECCTRL_XRETIRE
#undef SPECCTRL_XFINISH
}

} // namespace exec
} // namespace specctrl

#endif // SPECCTRL_EXEC_THREADEDBACKEND_H
