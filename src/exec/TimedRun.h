//===- exec/TimedRun.h - Block-charged timing-fused dispatch ----*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ThreadedBackend::runTimed, the ExecTier::TimingFused dispatch loop.
/// runWith() pays a per-instruction protocol on every handler -- retire
/// counter, fuel check, onInstruction hook, stop-flag test -- which is
/// exactly the per-instruction cost the MSSP timing model turns into its
/// profile: CoreTiming only needs an instruction *count* for issue cost,
/// and only branch/memory/call/return events ever touch its dynamic state
/// (gshare, RAS, caches).  runTimed exploits that:
///
///  * Straight-line cost is charged once per decoded block: on entry to a
///    block (and after every control transfer) the loop bulk-charges the
///    remaining stretch [IP, EndPC) against the fuel budget and remembers
///    the charge horizon in LimitIP.  Plain handlers then run with no
///    per-instruction bookkeeping at all -- one pointer bump and a
///    IP == LimitIP test folded into the dispatch jump.
///  * The policy (a statically dispatched template parameter, like
///    runWith's observer) is called only at events: noteBranch, noteLoad,
///    noteStore, noteCall, noteReturn.  Event order is identical to the
///    observer path.
///  * Any hook that needs the completed-instruction count (the reactive
///    controller's monitor windows key off it) gets `Done`, reconstructed
///    as Retired - (LimitIP - IP): everything charged minus the charged-
///    but-not-yet-completed tail.  This equals the per-instruction count
///    bit-for-bit: fsim::Interpreter::runTimed, the reference drive of the
///    same policies, counts an instruction *after* its data/branch events
///    fire.
///
/// Exactness contract (pinned by tests/mssp/TimingFusedTest.cpp and the
/// fig7/fig8 golden CSVs, produced by this loop by default and by the
/// reference interpreter under --exec-tier reference):
///
///  * instructionsRetired() is exact at every exit.  Early exits refund
///    the unexecuted tail of the open charge (Retired -= LimitIP - IP);
///    terminators always consume their charge exactly, because a charge
///    never extends past the block end and the dispatch test routes a
///    spent charge to the recharger before the terminator runs.
///  * Architectural state, positions, and stop/fault/halt semantics match
///    runWith byte-for-byte; mid-block exits land on real instructions.
///  * Fuel slicing composes: stopping after any N instructions and
///    resuming reaches the same states as one unsliced run, exactly like
///    runWith (a fused pair whose charge ends between its halves falls
///    back to the plain handler of its first half).
///
/// Contract differences from runWith, both deliberate:
///  * No onInstruction-equivalent hook -- that is the point.  Policies
///    may request a stop only from their note hooks (the loop tests the
///    stop flag after each event, not after each instruction).
///  * noteStore does not receive the old memory value, so the fused loop
///    skips the reference path's pre-store load.  Consumers that need the
///    old value (none of the timing policies do) use runWith.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_EXEC_TIMEDRUN_H
#define SPECCTRL_EXEC_TIMEDRUN_H

#include "exec/ThreadedBackend.h"

namespace specctrl {
namespace exec {

#if SPECCTRL_EXEC_COMPUTED_GOTO
#define SPECCTRL_XTCASE(op) T_##op:
// The block-charge dispatch: one compare against the charge horizon and
// the handler's own indirect jump.  A spent charge goes back through the
// recharger (which also ends the run when fuel is gone).
#define SPECCTRL_XTDISPATCH()                                                  \
  do {                                                                         \
    if (IP == LimitIP)                                                         \
      goto TRecharge;                                                          \
    goto *TTbl[static_cast<unsigned>(IP->Op)];                                 \
  } while (0)
#else
#define SPECCTRL_XTCASE(op)                                                    \
  case XOp::op:                                                                \
  T_##op:
#define SPECCTRL_XTDISPATCH() goto TDispatch
#endif

template <class PolicyT>
fsim::StopReason ThreadedBackend::runTimed(uint64_t MaxInstructions,
                                           PolicyT &Policy) {
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
  const DecodedBlockInfo *BI = F->DF->Blocks.data();
  const DecodedInst *IP = Code + F->PC;
  /// One past the last charged entry.  Invariant: [IP, LimitIP) is charged
  /// (counted in Retired, paid from Fuel) but not yet executed, and both
  /// pointers stay within one frame's code between charges.
  const DecodedInst *LimitIP = IP;
  uint64_t *Regs = RegStack.data() + F->RegBase;
  uint64_t Retired = InstRet;

#if defined(__GNUC__) || defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wunused-label"
#endif

#if SPECCTRL_EXEC_COMPUTED_GOTO
  // Indexed by XOp; must match the enum order exactly.
  static const void *const TTbl[NumXOps] = {
      &&T_Nop,      &&T_MovImm,      &&T_Mov,      &&T_Add,
      &&T_AddImm,   &&T_Sub,         &&T_Mul,      &&T_And,
      &&T_Or,       &&T_Xor,         &&T_Shl,      &&T_Shr,
      &&T_CmpLt,    &&T_CmpLtImm,    &&T_CmpEq,    &&T_CmpEqImm,
      &&T_Load,     &&T_Store,       &&T_Br,       &&T_Jmp,
      &&T_Call,     &&T_Ret,         &&T_Halt,     &&T_FCmpLtBr,
      &&T_FCmpLtImmBr, &&T_FCmpEqBr, &&T_FCmpEqImmBr, &&T_FLoadAdd,
      &&T_FLoadAddImm, &&T_FAddStore, &&T_FAddImmStore, &&T_FXorStore,
  };
#endif

TRecharge:
  // IP points at a real, uncharged instruction and the previous charge is
  // fully consumed (LimitIP == IP).
  if (Fuel == 0)
    goto ExitFuel;
  {
    const DecodedInst *End = Code + BI[IP->Block].EndPC;
    uint64_t N = static_cast<uint64_t>(End - IP);
    if (N > Fuel)
      N = Fuel;
    Fuel -= N;
    Retired += N;
    LimitIP = IP + N;
  }
#if SPECCTRL_EXEC_COMPUTED_GOTO
  goto *TTbl[static_cast<unsigned>(IP->Op)];
#else
  goto TExec;

TDispatch:
  if (IP == LimitIP)
    goto TRecharge;
TExec:
  switch (IP->Op) {
#endif

  SPECCTRL_XTCASE(Nop) {
    ++IP;
    SPECCTRL_XTDISPATCH();
  }
  SPECCTRL_XTCASE(MovImm) {
    const DecodedInst &I = *IP;
    ++IP;
    Regs[I.D] = static_cast<uint64_t>(I.Imm);
    SPECCTRL_XTDISPATCH();
  }
  SPECCTRL_XTCASE(Mov) {
    const DecodedInst &I = *IP;
    ++IP;
    Regs[I.D] = Regs[I.A];
    SPECCTRL_XTDISPATCH();
  }
  SPECCTRL_XTCASE(Add) {
    const DecodedInst &I = *IP;
    ++IP;
    Regs[I.D] = Regs[I.A] + Regs[I.B];
    SPECCTRL_XTDISPATCH();
  }
  SPECCTRL_XTCASE(AddImm) {
    const DecodedInst &I = *IP;
    ++IP;
    Regs[I.D] = Regs[I.A] + static_cast<uint64_t>(I.Imm);
    SPECCTRL_XTDISPATCH();
  }
  SPECCTRL_XTCASE(Sub) {
    const DecodedInst &I = *IP;
    ++IP;
    Regs[I.D] = Regs[I.A] - Regs[I.B];
    SPECCTRL_XTDISPATCH();
  }
  SPECCTRL_XTCASE(Mul) {
    const DecodedInst &I = *IP;
    ++IP;
    Regs[I.D] = Regs[I.A] * Regs[I.B];
    SPECCTRL_XTDISPATCH();
  }
  SPECCTRL_XTCASE(And) {
    const DecodedInst &I = *IP;
    ++IP;
    Regs[I.D] = Regs[I.A] & Regs[I.B];
    SPECCTRL_XTDISPATCH();
  }
  SPECCTRL_XTCASE(Or) {
    const DecodedInst &I = *IP;
    ++IP;
    Regs[I.D] = Regs[I.A] | Regs[I.B];
    SPECCTRL_XTDISPATCH();
  }
  SPECCTRL_XTCASE(Xor) {
    const DecodedInst &I = *IP;
    ++IP;
    Regs[I.D] = Regs[I.A] ^ Regs[I.B];
    SPECCTRL_XTDISPATCH();
  }
  SPECCTRL_XTCASE(Shl) {
    const DecodedInst &I = *IP;
    ++IP;
    Regs[I.D] = Regs[I.A] << (Regs[I.B] & 63);
    SPECCTRL_XTDISPATCH();
  }
  SPECCTRL_XTCASE(Shr) {
    const DecodedInst &I = *IP;
    ++IP;
    Regs[I.D] = Regs[I.A] >> (Regs[I.B] & 63);
    SPECCTRL_XTDISPATCH();
  }
  SPECCTRL_XTCASE(CmpLt) {
    const DecodedInst &I = *IP;
    ++IP;
    Regs[I.D] = static_cast<int64_t>(Regs[I.A]) <
                        static_cast<int64_t>(Regs[I.B])
                    ? 1
                    : 0;
    SPECCTRL_XTDISPATCH();
  }
  SPECCTRL_XTCASE(CmpLtImm) {
    const DecodedInst &I = *IP;
    ++IP;
    Regs[I.D] = static_cast<int64_t>(Regs[I.A]) < I.Imm ? 1 : 0;
    SPECCTRL_XTDISPATCH();
  }
  SPECCTRL_XTCASE(CmpEq) {
    const DecodedInst &I = *IP;
    ++IP;
    Regs[I.D] = Regs[I.A] == Regs[I.B] ? 1 : 0;
    SPECCTRL_XTDISPATCH();
  }
  SPECCTRL_XTCASE(CmpEqImm) {
    const DecodedInst &I = *IP;
    ++IP;
    Regs[I.D] = Regs[I.A] == static_cast<uint64_t>(I.Imm) ? 1 : 0;
    SPECCTRL_XTDISPATCH();
  }
  SPECCTRL_XTCASE(Load) {
    const DecodedInst &I = *IP;
    const uint64_t Done = Retired - static_cast<uint64_t>(LimitIP - IP);
    ++IP;
    const uint64_t Addr = Regs[I.A] + static_cast<uint64_t>(I.Imm);
    const uint64_t Value = loadWord(Addr);
    Regs[I.D] = Value;
    Policy.noteLoad(InstLocation{F->FuncId, I.Block, I.Index}, Addr, Value,
                    Done);
    if (StopFlag)
      goto ExitStop;
    SPECCTRL_XTDISPATCH();
  }
  SPECCTRL_XTCASE(Store) {
    const DecodedInst &I = *IP;
    ++IP;
    const uint64_t Addr = Regs[I.A] + static_cast<uint64_t>(I.Imm);
    const uint64_t Value = Regs[I.B];
    storeWord(Addr, Value);
    if (Faulted)
      goto ExitFault;
    Policy.noteStore(Addr, Value);
    if (StopFlag)
      goto ExitStop;
    SPECCTRL_XTDISPATCH();
  }
  SPECCTRL_XTCASE(Br) {
    const DecodedInst &I = *IP;
    // Done before the transfer: IP still points at the branch itself.
    const uint64_t Done = Retired - static_cast<uint64_t>(LimitIP - IP);
    const bool Taken = Regs[I.A] != 0;
    IP = Code + (Taken ? I.ThenPC : I.ElsePC);
    LimitIP = IP; // terminator: the old charge is exactly consumed
    Policy.noteBranch(I.Site, Taken, Done);
    if (StopFlag)
      goto ExitStop;
    goto TRecharge;
  }
  SPECCTRL_XTCASE(Jmp) {
    IP = Code + IP->ThenPC;
    LimitIP = IP;
    goto TRecharge;
  }
  SPECCTRL_XTCASE(Call) {
    const DecodedInst &I = *IP;
    ++IP;
    if (Stack.size() >= MaxCallDepth) {
      Faulted = true;
      goto ExitFault; // the call itself stays retired; the tail refunds
    }
    assert(I.Callee < CodeMap.size() && "call to unknown function");
    // Not a terminator: refund the caller's outstanding charge (the
    // resume point recharges after the return), then mirror runLoop's
    // frame push exactly.
    Fuel += static_cast<uint64_t>(LimitIP - IP);
    Retired -= static_cast<uint64_t>(LimitIP - IP);
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
    BI = Callee->Blocks.data();
    IP = Code;
    LimitIP = IP;
    Regs = RegStack.data() + RegBase;
    Policy.noteCall(I.Callee);
    if (StopFlag)
      goto ExitStop;
    goto TRecharge;
  }
  SPECCTRL_XTCASE(Ret) {
    // Terminator: the charge is exactly consumed (LimitIP == IP + 1).
    const uint32_t Callee = F->FuncId;
    RegStack.resize(F->RegBase);
    Stack.pop_back();
    Policy.noteReturn(Callee);
    if (Stack.empty()) {
      // Returning from the entry function ends the program.
      Halted = true;
      InstRet = Retired;
      return StopReason::Halted;
    }
    F = &Stack.back();
    Code = F->DF->Insts.data();
    BI = F->DF->Blocks.data();
    IP = Code + F->PC;
    LimitIP = IP;
    Regs = RegStack.data() + F->RegBase;
    if (StopFlag)
      goto ExitStop;
    goto TRecharge;
  }
  SPECCTRL_XTCASE(Halt) {
    const DecodedInst &I = *IP;
    ++IP;
    Halted = true;
    // Terminator: charge exactly consumed.  The reference leaves the
    // frame index one past the Halt; mirror that in source coordinates.
    InstRet = Retired;
    F->PC = static_cast<uint32_t>(IP - Code);
    F->Block = I.Block;
    F->Index = I.Index + 1;
    return StopReason::Halted;
  }

  //--- Fused superinstructions -------------------------------------------
  // Mirror runLoop's pairs, with the per-instruction protocol between the
  // halves reduced to the event hooks.  When the charge horizon splits
  // the pair (fuel ran out between the halves), fall back to the plain
  // handler of the first half, exactly like runLoop's Fuel < 2 fallback.

  SPECCTRL_XTCASE(FCmpLtBr) {
    if (LimitIP - IP < 2)
      goto T_CmpLt;
    const DecodedInst &C = IP[0];
    const DecodedInst &B = IP[1];
    Regs[C.D] = static_cast<int64_t>(Regs[C.A]) <
                        static_cast<int64_t>(Regs[C.B])
                    ? 1
                    : 0;
    const uint64_t Done = Retired - static_cast<uint64_t>(LimitIP - (IP + 1));
    const bool Taken = Regs[B.A] != 0;
    IP = Code + (Taken ? B.ThenPC : B.ElsePC);
    LimitIP = IP;
    Policy.noteBranch(B.Site, Taken, Done);
    if (StopFlag)
      goto ExitStop;
    goto TRecharge;
  }
  SPECCTRL_XTCASE(FCmpLtImmBr) {
    if (LimitIP - IP < 2)
      goto T_CmpLtImm;
    const DecodedInst &C = IP[0];
    const DecodedInst &B = IP[1];
    Regs[C.D] = static_cast<int64_t>(Regs[C.A]) < C.Imm ? 1 : 0;
    const uint64_t Done = Retired - static_cast<uint64_t>(LimitIP - (IP + 1));
    const bool Taken = Regs[B.A] != 0;
    IP = Code + (Taken ? B.ThenPC : B.ElsePC);
    LimitIP = IP;
    Policy.noteBranch(B.Site, Taken, Done);
    if (StopFlag)
      goto ExitStop;
    goto TRecharge;
  }
  SPECCTRL_XTCASE(FCmpEqBr) {
    if (LimitIP - IP < 2)
      goto T_CmpEq;
    const DecodedInst &C = IP[0];
    const DecodedInst &B = IP[1];
    Regs[C.D] = Regs[C.A] == Regs[C.B] ? 1 : 0;
    const uint64_t Done = Retired - static_cast<uint64_t>(LimitIP - (IP + 1));
    const bool Taken = Regs[B.A] != 0;
    IP = Code + (Taken ? B.ThenPC : B.ElsePC);
    LimitIP = IP;
    Policy.noteBranch(B.Site, Taken, Done);
    if (StopFlag)
      goto ExitStop;
    goto TRecharge;
  }
  SPECCTRL_XTCASE(FCmpEqImmBr) {
    if (LimitIP - IP < 2)
      goto T_CmpEqImm;
    const DecodedInst &C = IP[0];
    const DecodedInst &B = IP[1];
    Regs[C.D] = Regs[C.A] == static_cast<uint64_t>(C.Imm) ? 1 : 0;
    const uint64_t Done = Retired - static_cast<uint64_t>(LimitIP - (IP + 1));
    const bool Taken = Regs[B.A] != 0;
    IP = Code + (Taken ? B.ThenPC : B.ElsePC);
    LimitIP = IP;
    Policy.noteBranch(B.Site, Taken, Done);
    if (StopFlag)
      goto ExitStop;
    goto TRecharge;
  }
  SPECCTRL_XTCASE(FLoadAdd) {
    if (LimitIP - IP < 2)
      goto T_Load;
    const DecodedInst &L = IP[0];
    const DecodedInst &A = IP[1];
    const uint64_t Done = Retired - static_cast<uint64_t>(LimitIP - IP);
    ++IP;
    const uint64_t Addr = Regs[L.A] + static_cast<uint64_t>(L.Imm);
    const uint64_t Value = loadWord(Addr);
    Regs[L.D] = Value;
    Policy.noteLoad(InstLocation{F->FuncId, L.Block, L.Index}, Addr, Value,
                    Done);
    if (StopFlag)
      goto ExitStop; // lands on the pair's second half, a real instruction
    ++IP;
    Regs[A.D] = Regs[A.A] + Regs[A.B];
    SPECCTRL_XTDISPATCH();
  }
  SPECCTRL_XTCASE(FLoadAddImm) {
    if (LimitIP - IP < 2)
      goto T_Load;
    const DecodedInst &L = IP[0];
    const DecodedInst &A = IP[1];
    const uint64_t Done = Retired - static_cast<uint64_t>(LimitIP - IP);
    ++IP;
    const uint64_t Addr = Regs[L.A] + static_cast<uint64_t>(L.Imm);
    const uint64_t Value = loadWord(Addr);
    Regs[L.D] = Value;
    Policy.noteLoad(InstLocation{F->FuncId, L.Block, L.Index}, Addr, Value,
                    Done);
    if (StopFlag)
      goto ExitStop;
    ++IP;
    Regs[A.D] = Regs[A.A] + static_cast<uint64_t>(A.Imm);
    SPECCTRL_XTDISPATCH();
  }
  SPECCTRL_XTCASE(FAddStore) {
    if (LimitIP - IP < 2)
      goto T_Add;
    const DecodedInst &A = IP[0];
    const DecodedInst &S = IP[1];
    Regs[A.D] = Regs[A.A] + Regs[A.B];
    IP += 2;
    const uint64_t Addr = Regs[S.A] + static_cast<uint64_t>(S.Imm);
    const uint64_t Value = Regs[S.B];
    storeWord(Addr, Value);
    if (Faulted)
      goto ExitFault;
    Policy.noteStore(Addr, Value);
    if (StopFlag)
      goto ExitStop;
    SPECCTRL_XTDISPATCH();
  }
  SPECCTRL_XTCASE(FAddImmStore) {
    if (LimitIP - IP < 2)
      goto T_AddImm;
    const DecodedInst &A = IP[0];
    const DecodedInst &S = IP[1];
    Regs[A.D] = Regs[A.A] + static_cast<uint64_t>(A.Imm);
    IP += 2;
    const uint64_t Addr = Regs[S.A] + static_cast<uint64_t>(S.Imm);
    const uint64_t Value = Regs[S.B];
    storeWord(Addr, Value);
    if (Faulted)
      goto ExitFault;
    Policy.noteStore(Addr, Value);
    if (StopFlag)
      goto ExitStop;
    SPECCTRL_XTDISPATCH();
  }
  SPECCTRL_XTCASE(FXorStore) {
    if (LimitIP - IP < 2)
      goto T_Xor;
    const DecodedInst &X = IP[0];
    const DecodedInst &S = IP[1];
    Regs[X.D] = Regs[X.A] ^ Regs[X.B];
    IP += 2;
    const uint64_t Addr = Regs[S.A] + static_cast<uint64_t>(S.Imm);
    const uint64_t Value = Regs[S.B];
    storeWord(Addr, Value);
    if (Faulted)
      goto ExitFault;
    Policy.noteStore(Addr, Value);
    if (StopFlag)
      goto ExitStop;
    SPECCTRL_XTDISPATCH();
  }

#if !SPECCTRL_EXEC_COMPUTED_GOTO
  }
#endif

ExitFuel:
  // Only reached from the recharger, where the previous charge is fully
  // consumed (IP == LimitIP): nothing to refund.
  InstRet = Retired;
  F->PC = static_cast<uint32_t>(IP - Code);
  F->Block = IP->Block;
  F->Index = IP->Index;
  return StopReason::FuelExhausted;

ExitStop:
  // Refund the charged-but-unexecuted tail so instructionsRetired() is
  // exact at the stop point (IP already points past the stopping
  // instruction, at a real resume position).
  Retired -= static_cast<uint64_t>(LimitIP - IP);
  InstRet = Retired;
  F->PC = static_cast<uint32_t>(IP - Code);
  F->Block = IP->Block;
  F->Index = IP->Index;
  return StopReason::Stopped;

ExitFault:
  Retired -= static_cast<uint64_t>(LimitIP - IP);
  InstRet = Retired;
  F->PC = static_cast<uint32_t>(IP - Code);
  F->Block = IP->Block;
  F->Index = IP->Index;
  return StopReason::Fault;

#if defined(__GNUC__) || defined(__clang__)
#pragma GCC diagnostic pop
#endif

#undef SPECCTRL_XTCASE
#undef SPECCTRL_XTDISPATCH
}

} // namespace exec
} // namespace specctrl

#endif // SPECCTRL_EXEC_TIMEDRUN_H
