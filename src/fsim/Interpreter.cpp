//===- fsim/Interpreter.cpp - SimIR functional simulator ------------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "fsim/Interpreter.h"

#include "analysis/DistillVerifier.h"
#include "ir/Verifier.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

using namespace specctrl;
using namespace specctrl::fsim;
using namespace specctrl::ir;

Interpreter::Interpreter(const ir::Module &M, std::vector<uint64_t> Memory)
    : Mod(M), Memory(std::move(Memory)) {
  assert(M.numFunctions() > 0 && "module has no functions");
  CodeMap.resize(M.numFunctions());
  for (uint32_t F = 0; F < M.numFunctions(); ++F)
    CodeMap[F] = &M.function(F);

  const Function &Entry = *CodeMap[M.entry()];
  Stack.push_back({&Entry, M.entry(), 0, 0, 0});
  RegStack.assign(Entry.numRegs(), 0);
}

void Interpreter::setCodeVersion(uint32_t FuncId, const ir::Function *F) {
  assert(FuncId < CodeMap.size() && "function id out of range");
  const Function *Version = F ? F : &Mod.function(FuncId);
  assert(Version->numRegs() <= Function::MaxRegs && "bad code version");
  // Deploy-time gate (SPECCTRL_VERIFY): never dispatch into a
  // structurally broken code version.
  if (F && analysis::verifyDistillEnabled()) {
    std::string Err;
    if (!ir::verifyFunction(*F, &Err)) {
      std::fprintf(stderr,
                   "specctrl: refusing to dispatch malformed code version "
                   "for function %u: %s\n",
                   FuncId, Err.c_str());
      std::abort();
    }
  }
  CodeMap[FuncId] = Version;
}

const ir::Function &Interpreter::codeFor(uint32_t FuncId) const {
  assert(FuncId < CodeMap.size() && "function id out of range");
  return *CodeMap[FuncId];
}

void Interpreter::adoptPositionFrom(const Interpreter &Other) {
  assert(&Mod == &Other.Mod && "interpreters execute different modules");
  Stack = Other.Stack;
  RegStack = Other.RegStack;
  Halted = Other.Halted;
  Faulted = Other.Faulted;
}

ArchPosition Interpreter::archPosition() const {
  ArchPosition Out;
  Out.Frames.reserve(Stack.size());
  for (const Frame &F : Stack)
    Out.Frames.push_back({F.Code, F.FuncId, F.Block, F.Index, F.RegBase});
  Out.Regs = RegStack;
  Out.Halted = Halted;
  Out.Faulted = Faulted;
  return Out;
}

void Interpreter::setArchPosition(const ArchPosition &Position) {
  Stack.clear();
  Stack.reserve(Position.Frames.size());
  for (const ArchFrame &F : Position.Frames) {
    assert(F.Code && "arch frame without a code version");
    Stack.push_back({F.Code, F.FuncId, F.Block, F.Index, F.RegBase});
  }
  RegStack = Position.Regs;
  Halted = Position.Halted;
  Faulted = Position.Faulted;
}

StopReason Interpreter::run(uint64_t MaxInstructions, ExecObserver *Obs) {
  return runLoop<ExecObserver>(MaxInstructions, Obs);
}
