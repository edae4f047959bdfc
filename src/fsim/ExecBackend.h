//===- fsim/ExecBackend.h - SimIR execution-backend interface ---*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unified execution surface for SimIR backends.  Two implementations
/// exist: fsim::Interpreter (the switch-dispatch interpreter, the
/// bit-exactness oracle) and exec::ThreadedBackend (the pre-decoded
/// direct-threaded tier, the default).  Everything that drives execution --
/// the MSSP simulator, the interpreter-as-EventSource adapter, tools, and
/// tests -- consumes this interface; exec::createBackend constructs either
/// tier from a specctrl::ExecTier.
///
/// The contract both backends satisfy, pinned by
/// tests/exec/ExecBackendEquivalenceTest.cpp:
///
///  * identical observer event streams (order, arguments, and counts) for
///    identical programs, across resumable run() slices of any size;
///  * identical architectural state: memory image, retired-instruction
///    count, halt/fault behavior, and StopReason at every boundary;
///  * interchangeable positions: archPosition()/setArchPosition() express
///    the call stack, registers, and halt flags in source coordinates, so
///    MSSP squash recovery can transplant state between backends.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_FSIM_EXECBACKEND_H
#define SPECCTRL_FSIM_EXECBACKEND_H

#include "ir/Function.h"
#include "support/RunConfig.h"

#include <cstdint>
#include <vector>

namespace specctrl {
namespace fsim {

/// Identifies a static instruction across code versions.
struct InstLocation {
  uint32_t Func = 0;
  uint32_t Block = 0;
  uint32_t Index = 0;
};

/// Callback interface for execution events.  The default implementations
/// do nothing, so observers override only what they need.
class ExecObserver {
public:
  virtual ~ExecObserver();

  /// Called after every retired instruction.
  virtual void onInstruction(const ir::Instruction &I, const InstLocation &L) {
    (void)I;
    (void)L;
  }
  /// Called after a conditional branch resolves.
  virtual void onBranch(ir::SiteId Site, bool Taken) {
    (void)Site;
    (void)Taken;
  }
  /// Called after a load retires.
  virtual void onLoad(const InstLocation &L, uint64_t Addr, uint64_t Value) {
    (void)L;
    (void)Addr;
    (void)Value;
  }
  /// Called after a store retires; \p Old is the overwritten value (undo
  /// logs for task squash are built from this).
  virtual void onStore(uint64_t Addr, uint64_t Value, uint64_t Old) {
    (void)Addr;
    (void)Value;
    (void)Old;
  }
  virtual void onCall(uint32_t Callee) { (void)Callee; }
  virtual void onReturn(uint32_t Callee) { (void)Callee; }
};

/// Why a backend's run returned.
enum class StopReason {
  Halted,        ///< the program executed Halt
  FuelExhausted, ///< the instruction budget ran out (resumable)
  Stopped,       ///< an observer called requestStop() (resumable)
  Fault,         ///< memory out of range or call-stack overflow
};

/// One activation record in backend-neutral coordinates: the code version
/// it executes, its source position, and its register window base.
struct ArchFrame {
  const ir::Function *Code = nullptr;
  uint32_t FuncId = 0;
  uint32_t Block = 0;
  uint32_t Index = 0;
  uint32_t RegBase = 0;
};

/// A backend's full architectural position minus memory: call stack,
/// register stack, and termination flags.  Memory is reconciled separately
/// by the caller (MSSP recovery copies only the written words).
struct ArchPosition {
  std::vector<ArchFrame> Frames;
  std::vector<uint64_t> Regs;
  bool Halted = false;
  bool Faulted = false;
};

/// A resumable SimIR execution backend over a module and a flat word
/// memory.  Implementations start positioned at the entry of their
/// module's entry function.
class ExecBackend {
public:
  virtual ~ExecBackend();

  /// Executes up to \p MaxInstructions instructions, reporting events to
  /// \p Obs (may be null).  Resumable: call again to continue.
  virtual StopReason run(uint64_t MaxInstructions,
                         ExecObserver *Obs = nullptr) = 0;

  /// Requests that run() return after the current instruction retires.
  /// Callable from observer callbacks (e.g. to pause at task boundaries).
  virtual void requestStop() = 0;

  /// Swaps the code executed for function \p FuncId (nullptr restores the
  /// module's original).  Takes effect at the next call of the function;
  /// active activations keep running their current version.
  virtual void setCodeVersion(uint32_t FuncId, const ir::Function *F) = 0;

  /// Returns the code version currently dispatched for \p FuncId.
  virtual const ir::Function &codeFor(uint32_t FuncId) const = 0;

  /// True once Halt has retired (further run() calls return Halted).
  virtual bool halted() const = 0;

  virtual uint64_t instructionsRetired() const = 0;

  virtual std::vector<uint64_t> &memory() = 0;
  virtual const std::vector<uint64_t> &memory() const = 0;

  /// Reads a memory word (0 beyond the image, matching load semantics).
  virtual uint64_t loadWord(uint64_t Addr) const = 0;
  /// Writes a memory word, growing the image if needed; addresses past the
  /// backend's memory cap fault instead of growing.
  virtual void storeWord(uint64_t Addr, uint64_t Value) = 0;

  /// This backend's position and registers in source coordinates.
  virtual ArchPosition archPosition() const = 0;
  /// Adopts \p Position (call stack, registers, halt flags) -- but not
  /// memory, which the caller reconciles.  The position must come from a
  /// backend executing the same module.
  virtual void setArchPosition(const ArchPosition &Position) = 0;

  /// Adopts another backend's architectural position and registers via
  /// the neutral ArchPosition coordinates; works across backend types.
  void adoptPositionFrom(const ExecBackend &Other) {
    setArchPosition(Other.archPosition());
  }
};

} // namespace fsim
} // namespace specctrl

#endif // SPECCTRL_FSIM_EXECBACKEND_H
