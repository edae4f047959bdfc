//===- tests/workload/TraceReplayFuzzTest.cpp -----------------------------===//
//
// Robustness of trace replay against damaged inputs: truncations, random
// byte flips, and outright garbage must never crash either reader -- the
// streaming TraceFileReader or an ArenaReplaySource over a mapping of the
// same bytes, in the packed and the page-aligned SCT2 layouts -- and the
// events a reader does deliver must be an exact prefix of the undamaged
// stream (v2 additionally never delivers any event of a damaged block,
// and a short stream says why it is short).  All randomness is
// std::mt19937 with fixed seeds, so failures reproduce.
//
//===----------------------------------------------------------------------===//

#include "workload/TraceFile.h"

#include "core/Driver.h"
#include "core/StaticControllers.h"
#include "workload/TraceArena.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

using namespace specctrl;
using namespace specctrl::workload;

namespace {

/// Small enough to damage exhaustively, with several v2 blocks.
constexpr uint32_t FuzzBlockEvents = 64;

WorkloadSpec fuzzSpec() {
  WorkloadSpec Spec;
  Spec.Name = "fuzz";
  Spec.Seed = 11;
  Spec.RefEvents = 1000;
  Spec.NumPhases = 2;
  SiteSpec A, B, C;
  A.Behavior = BehaviorSpec::fixed(0.99);
  A.Weight = 3;
  B.Behavior = BehaviorSpec::fixed(0.4);
  B.Weight = 1;
  C.Behavior = BehaviorSpec::fixed(0.7);
  C.Weight = 2;
  Spec.Sites = {A, B, C};
  return Spec;
}

std::vector<BranchEvent> referenceStream(const WorkloadSpec &Spec) {
  std::vector<BranchEvent> All;
  TraceGenerator Gen(Spec, Spec.refInput());
  BranchEvent E;
  while (Gen.next(E))
    All.push_back(E);
  return All;
}

std::string recordV1(const WorkloadSpec &Spec) {
  std::ostringstream OS;
  TraceGenerator Gen(Spec, Spec.refInput());
  writeTrace(OS, Gen);
  return OS.str();
}

std::string recordV2(const WorkloadSpec &Spec, uint32_t AlignBytes = 0) {
  std::ostringstream OS;
  TraceGenerator Gen(Spec, Spec.refInput());
  writeTraceV2(OS, Gen, FuzzBlockEvents, AlignBytes);
  return OS.str();
}

/// The two readers under test.
enum class ReaderKind { Stream, Mapped };

const char *readerName(ReaderKind R) {
  return R == ReaderKind::Stream ? "stream" : "mapped";
}

/// Drains \p Source with an odd-sized chunk buffer, asserting every
/// delivered event matches \p Reference at its index.  \p Count receives
/// the number of events delivered (void return so gtest's fatal
/// assertions can be used inside).
void drainSource(EventSource &Source, const std::vector<BranchEvent> &Reference,
                 size_t &Count) {
  std::vector<BranchEvent> Chunk(257);
  while (const size_t N = Source.nextBatch(Chunk)) {
    for (size_t I = 0; I < N; ++I) {
      ASSERT_LT(Count, Reference.size()) << "fabricated events past the end";
      ASSERT_EQ(Chunk[I], Reference[Count]) << "diverged at event " << Count;
      ++Count;
    }
  }
}

/// Drains \p Bytes through reader \p R, checking the delivered events are
/// a prefix of \p Reference; \p Count receives how many were delivered.
/// The mapped reader maps a scratch file holding \p Bytes; a rejected
/// open or header delivers nothing.  A short stream must say why it is
/// short.
void drainCheckingPrefix(ReaderKind R, const std::string &Bytes,
                         const std::vector<BranchEvent> &Reference,
                         size_t &Count) {
  Count = 0;
  if (R == ReaderKind::Stream) {
    std::istringstream IS(Bytes);
    TraceFileReader Reader(IS);
    if (!Reader.valid())
      return;
    drainSource(Reader, Reference, Count);
    if (Count < Reference.size()) {
      EXPECT_TRUE(Reader.truncated() || Reader.failed());
    }
    return;
  }
  const std::string Path =
      (std::filesystem::temp_directory_path() /
       ("specctrl-replay-fuzz-" + std::to_string(::getpid()) + ".sct2"))
          .string();
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out << Bytes;
  }
  if (const std::shared_ptr<const MaterializedTrace> Trace =
          MaterializedTrace::map(Path)) {
    ArenaReplaySource Source(Trace);
    drainSource(Source, Reference, Count);
    if (Count < Reference.size()) {
      EXPECT_TRUE(Source.failed());
    }
  }
  std::filesystem::remove(Path);
}

} // namespace

TEST(TraceReplayFuzzTest, TruncationsDeliverExactPrefixes) {
  const WorkloadSpec Spec = fuzzSpec();
  const std::vector<BranchEvent> Reference = referenceStream(Spec);
  for (const std::string &Bytes :
       {recordV1(Spec), recordV2(Spec), recordV2(Spec, TraceV2AlignBytes)}) {
    const bool V2 = Bytes.compare(0, 4, "SCT2") == 0;
    std::mt19937 Rng(1234);
    std::uniform_int_distribution<size_t> Cut(0, Bytes.size() - 1);
    // Every short length near the start (header truncations) plus a
    // random sample of interior cuts.
    std::vector<size_t> Lengths;
    for (size_t L = 0; L < 40; ++L)
      Lengths.push_back(L);
    for (int I = 0; I < 60; ++I)
      Lengths.push_back(Cut(Rng));
    for (const ReaderKind R : {ReaderKind::Stream, ReaderKind::Mapped})
      for (const size_t Len : Lengths) {
        size_t Count = 0;
        drainCheckingPrefix(R, Bytes.substr(0, Len), Reference, Count);
        if (::testing::Test::HasFatalFailure())
          return;
        EXPECT_LE(Count, Reference.size());
        // v2 rejects damaged blocks whole: anything delivered is a whole
        // number of full blocks (the final block is only partial-sized in
        // the untruncated file, where Count == Reference.size()).
        if (V2 && Count != Reference.size()) {
          EXPECT_EQ(Count % FuzzBlockEvents, 0u)
              << readerName(R) << ": partial block at " << Len;
        }
      }
  }
}

TEST(TraceReplayFuzzTest, ByteFlipsNeverCrashOrFabricate) {
  const WorkloadSpec Spec = fuzzSpec();
  const std::vector<BranchEvent> Reference = referenceStream(Spec);
  for (const uint32_t Align : {0u, TraceV2AlignBytes}) {
    const std::string V2 = recordV2(Spec, Align);
    std::mt19937 Rng(99);
    std::uniform_int_distribution<size_t> Pos(0, V2.size() - 1);
    std::uniform_int_distribution<int> Bit(0, 7);
    std::uniform_int_distribution<int> Flips(1, 3);
    for (int Round = 0; Round < 300; ++Round) {
      std::string Damaged = V2;
      for (int F = Flips(Rng); F > 0; --F)
        Damaged[Pos(Rng)] ^= static_cast<char>(1 << Bit(Rng));
      // A reader may reject the header, stop early, or (if the flips
      // cancelled out) deliver everything -- but whatever it delivers
      // must be an exact prefix of the true stream in whole blocks.
      for (const ReaderKind R : {ReaderKind::Stream, ReaderKind::Mapped}) {
        size_t Count = 0;
        drainCheckingPrefix(R, Damaged, Reference, Count);
        if (::testing::Test::HasFatalFailure())
          return;
        if (Count != Reference.size()) {
          EXPECT_EQ(Count % FuzzBlockEvents, 0u)
              << readerName(R) << " align=" << Align << " round " << Round;
        }
      }
    }
  }
}

TEST(TraceReplayFuzzTest, GarbageInputsFailCleanly) {
  std::mt19937 Rng(7);
  std::uniform_int_distribution<int> Byte(0, 255);
  std::uniform_int_distribution<size_t> Len(0, 64);
  for (int Round = 0; Round < 100; ++Round) {
    std::string Garbage(Len(Rng), '\0');
    for (char &C : Garbage)
      C = static_cast<char>(Byte(Rng));
    std::istringstream IS(Garbage);
    TraceFileReader Reader(IS);
    BranchEvent E;
    size_t Count = 0;
    while (Reader.next(E))
      ++Count;
    // Nothing this short parses as a whole valid trace.
    EXPECT_TRUE(!Reader.valid() || Reader.truncated() || Reader.failed() ||
                Count == Reader.totalEvents());
  }
  // The mapped reader over fresh garbage, half of it behind a valid magic:
  // rejected at open, or a stream that says why it is short.
  for (int Round = 0; Round < 100; ++Round) {
    std::string Garbage(Len(Rng), '\0');
    for (char &C : Garbage)
      C = static_cast<char>(Byte(Rng));
    if (Round % 2 == 0 && Garbage.size() >= 4)
      Garbage.replace(0, 4, "SCT2"); // get past the magic check
    size_t Count = 0;
    drainCheckingPrefix(ReaderKind::Mapped, Garbage, {}, Count);
    if (::testing::Test::HasFatalFailure())
      return;
  }
  // A valid magic with a chopped header is still an invalid trace.
  for (const char *Magic : {"SCT1", "SCT2"}) {
    std::istringstream IS(std::string(Magic) + "\x01\x02");
    TraceFileReader Reader(IS);
    EXPECT_FALSE(Reader.valid());
    BranchEvent E;
    EXPECT_FALSE(Reader.next(E));
  }
}

TEST(TraceReplayFuzzTest, CorruptBlockDeliversNothingToObservers) {
  const WorkloadSpec Spec = fuzzSpec();
  std::string V2 = recordV2(Spec);
  // Flip one payload byte inside the first block (past the 28-byte file
  // header and 16-byte block header).
  V2[28 + 16 + 3] ^= 0x10;

  std::istringstream IS(V2);
  TraceFileReader Reader(IS);
  ASSERT_TRUE(Reader.valid());
  core::StaticSelectionController C({false, false, false},
                                    {false, false, false});
  core::ProfileObserver Observer(Spec.numSites());
  core::runTrace(C, Reader, &Observer);
  // The first block is damaged, so not one event reaches the observer.
  EXPECT_EQ(Observer.profile().totalExecutions(), 0u);
  EXPECT_TRUE(Reader.failed());
  EXPECT_NE(Reader.error().find("checksum"), std::string::npos)
      << Reader.error();
}
