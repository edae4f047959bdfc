//===- tests/workload/TraceArenaTest.cpp ----------------------------------===//
//
// The trace arena's contract: an ArenaReplaySource streams events
// bit-identical to the TraceGenerator for the same (spec, input) -- Index
// and InstRet included -- at any consumer chunk size; a key materializes
// exactly once no matter how many cursors open it; the cache directory
// round-trips through ordinary v2 trace files, maps them, and regenerates
// any file that fails verification; and traces beyond the SCT2 encoding
// limits fall back to a private generator transparently.
//
//===----------------------------------------------------------------------===//

#include "workload/TraceArena.h"

#include "core/Driver.h"
#include "core/ReactiveController.h"
#include "workload/SpecSuite.h"
#include "workload/TraceGenerator.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <vector>

using namespace specctrl;
using namespace specctrl::workload;

namespace {

/// Small enough that the 12-benchmark x 2-input sweep runs in seconds,
/// large enough for multi-block traces (see BatchEquivalenceTest).
constexpr SuiteScale TestScale{3.0e3, 0.1};

/// The consumer chunk sizes under test: the pipeline default (= the
/// arena's block size, the zero-copy path) and an odd size that never
/// divides a block (the staging path).
constexpr size_t TestBatches[] = {DefaultBatchEvents, 257};

/// Drains \p Source in chunks of \p Batch and compares every event --
/// all fields -- against a fresh generator stream for (Spec, Input).
void expectStreamIdentity(EventSource &Source, const WorkloadSpec &Spec,
                          const InputConfig &Input, size_t Batch) {
  TraceGenerator Reference(Spec, Input);
  std::vector<BranchEvent> Chunk(Batch);
  BranchEvent Expected;
  uint64_t Count = 0;
  while (const size_t N = Source.nextBatch(Chunk)) {
    for (size_t I = 0; I < N; ++I) {
      ASSERT_TRUE(Reference.next(Expected))
          << Spec.Name << "/" << Input.Name << ": replay stream too long "
          << "at event " << Count;
      ASSERT_EQ(Chunk[I], Expected)
          << Spec.Name << "/" << Input.Name << " batch=" << Batch
          << " event " << Count;
      ++Count;
    }
  }
  EXPECT_FALSE(Reference.next(Expected))
      << Spec.Name << "/" << Input.Name << ": replay stream too short";
  EXPECT_EQ(Count, Input.Events);
}

/// A scratch directory for disk-tier tests, removed on destruction.
class TempDir {
public:
  TempDir() {
    Path = std::filesystem::temp_directory_path() /
           ("specctrl-arena-test-" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "-" + std::to_string(reinterpret_cast<uintptr_t>(this)));
    std::filesystem::create_directories(Path);
  }
  ~TempDir() {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }
  std::string str() const { return Path.string(); }
  std::filesystem::path Path;
};

/// The single cached trace file in \p Dir (asserts there is exactly one).
std::filesystem::path cachedFile(const TempDir &Dir) {
  std::filesystem::path Found;
  unsigned N = 0;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir.Path)) {
    Found = Entry.path();
    ++N;
  }
  EXPECT_EQ(N, 1u);
  return Found;
}

} // namespace

TEST(TraceArenaTest, ReplayMatchesGeneratorAcrossSuiteAndChunkSizes) {
  TraceArena Arena;
  for (const BenchmarkProfile &P : suiteProfiles()) {
    const WorkloadSpec Spec = makeBenchmark(P, TestScale);
    for (const InputConfig &Input : {Spec.refInput(), Spec.trainInput()})
      for (const size_t Batch : TestBatches) {
        const std::unique_ptr<EventSource> Source = Arena.open(Spec, Input);
        expectStreamIdentity(*Source, Spec, Input, Batch);
      }
  }
  // Every open above replayed the arena (no fallbacks), and each of the
  // 12 x 2 (spec, input) keys materialized exactly once despite four
  // opens apiece.
  const TraceArenaStats S = Arena.stats();
  EXPECT_EQ(S.Materializations, 24u);
  EXPECT_EQ(S.CursorOpens, 48u);
  EXPECT_EQ(S.Fallbacks, 0u);
  EXPECT_EQ(S.MmapLoads, 0u);
  EXPECT_EQ(S.MmapStores, 0u);
  EXPECT_GT(S.ResidentEvents, 0u);
  // The SCT2 encoding must actually compress vs the 4 B/event v1 format.
  EXPECT_LT(S.ResidentBytes, 4 * S.ResidentEvents);
}

TEST(TraceArenaTest, PerEventNextMatchesGenerator) {
  const WorkloadSpec Spec = makeBenchmark("gzip", TestScale);
  const InputConfig Input = Spec.refInput();
  TraceArena Arena;
  const std::unique_ptr<EventSource> Source = Arena.open(Spec, Input);
  TraceGenerator Reference(Spec, Input);
  BranchEvent Got, Expected;
  uint64_t Count = 0;
  while (Source->next(Got)) {
    ASSERT_TRUE(Reference.next(Expected));
    ASSERT_EQ(Got, Expected) << "event " << Count;
    ++Count;
  }
  EXPECT_FALSE(Reference.next(Expected));
  EXPECT_EQ(Count, Input.Events);
}

TEST(TraceArenaTest, CursorResetRestartsTheStream) {
  const WorkloadSpec Spec = makeBenchmark("gzip", TestScale);
  const InputConfig Input = Spec.refInput();
  TraceArena Arena;
  const std::shared_ptr<const MaterializedTrace> Trace =
      Arena.materialize(Spec, Input);
  ASSERT_TRUE(Trace);
  ArenaReplaySource Source(Trace);

  // Consume a ragged prefix, then reset: the stream must restart from
  // event zero with Index/InstRet reconstruction rewound too.
  std::vector<BranchEvent> Chunk(257);
  ASSERT_GT(Source.nextBatch(Chunk), 0u);
  ASSERT_GT(Source.nextBatch(Chunk), 0u);
  Source.reset();
  expectStreamIdentity(Source, Spec, Input, 4096);
}

TEST(TraceArenaTest, IndependentCursorsShareOneMaterialization) {
  const WorkloadSpec Spec = makeBenchmark("gzip", TestScale);
  const InputConfig Input = Spec.refInput();
  TraceArena Arena;

  // Two cursors advanced in lockstep see identical streams (independent
  // decode positions over the same immutable bytes).
  const std::unique_ptr<EventSource> A = Arena.open(Spec, Input);
  const std::unique_ptr<EventSource> B = Arena.open(Spec, Input);
  std::vector<BranchEvent> ChunkA(257), ChunkB(257);
  while (true) {
    const size_t NA = A->nextBatch(ChunkA);
    const size_t NB = B->nextBatch(ChunkB);
    ASSERT_EQ(NA, NB);
    if (NA == 0)
      break;
    for (size_t I = 0; I < NA; ++I)
      ASSERT_EQ(ChunkA[I], ChunkB[I]);
  }

  const TraceArenaStats S = Arena.stats();
  EXPECT_EQ(S.Materializations, 1u);
  EXPECT_EQ(S.CursorOpens, 2u);
}

TEST(TraceArenaTest, DistinctInputsMaterializeSeparately) {
  const WorkloadSpec Spec = makeBenchmark("gzip", TestScale);
  TraceArena Arena;
  (void)Arena.open(Spec, Spec.refInput());
  (void)Arena.open(Spec, Spec.trainInput());
  (void)Arena.open(Spec, Spec.refInput()); // warm
  const TraceArenaStats S = Arena.stats();
  EXPECT_EQ(S.Materializations, 2u);
  EXPECT_EQ(S.CursorOpens, 3u);
}

TEST(TraceArenaTest, DiskTierRoundTripsAcrossArenaInstances) {
  const WorkloadSpec Spec = makeBenchmark("gzip", TestScale);
  const InputConfig Input = Spec.refInput();
  TempDir Dir;

  {
    // Cold: the arena stream-generates a page-aligned cache file and
    // serves it zero-copy -- nothing is materialized resident.
    TraceArena::Config Cfg;
    Cfg.CacheDir = Dir.str();
    TraceArena Cold(std::move(Cfg));
    const std::unique_ptr<EventSource> Source = Cold.open(Spec, Input);
    expectStreamIdentity(*Source, Spec, Input, DefaultBatchEvents);
    const TraceArenaStats S = Cold.stats();
    EXPECT_EQ(S.MmapStores, 1u);
    EXPECT_EQ(S.MmapLoads, 0u);
    EXPECT_GT(S.MappedBytes, 0u);
    EXPECT_EQ(S.Materializations, 0u);
    EXPECT_EQ(S.ResidentBytes, 0u);
  }

  // A fresh arena (a later process) maps the same cache file -- no
  // regeneration -- and the replayed stream is still bit-identical.
  TraceArena::Config Cfg;
  Cfg.CacheDir = Dir.str();
  TraceArena Warm(std::move(Cfg));
  const std::unique_ptr<EventSource> Source = Warm.open(Spec, Input);
  expectStreamIdentity(*Source, Spec, Input, DefaultBatchEvents);
  const TraceArenaStats S = Warm.stats();
  EXPECT_EQ(S.MmapLoads, 1u);
  EXPECT_EQ(S.MmapStores, 0u);
  EXPECT_EQ(S.Materializations, 0u);
  EXPECT_EQ(S.ResidentBytes, 0u);
  EXPECT_TRUE(Warm.materialize(Spec, Input)->mapped());
}

TEST(TraceArenaTest, CacheServesPackedAndAlignedFiles) {
  // The cache maps any well-formed SCT2 file at the key's path: the
  // page-aligned file a miss writes, and the packed layout (what
  // `specctrl-trace --migrate` writes without --align) -- both
  // bit-identical.
  const WorkloadSpec Spec = makeBenchmark("gzip", TestScale);
  const InputConfig Input = Spec.refInput();
  TempDir Dir;

  { // a miss writes the aligned layout ...
    TraceArena::Config Cfg;
    Cfg.CacheDir = Dir.str();
    TraceArena A(std::move(Cfg));
    const std::unique_ptr<EventSource> Source = A.open(Spec, Input);
    expectStreamIdentity(*Source, Spec, Input, DefaultBatchEvents);
    EXPECT_EQ(A.stats().MmapStores, 1u);
    const std::shared_ptr<const MaterializedTrace> Trace =
        A.materialize(Spec, Input);
    EXPECT_GT(Trace->bytes(), TraceV2HeaderBytes + Trace->encodedBlockBytes())
        << "aligned files carry pad frames";
  }

  // ... rewritten in place in the packed layout ...
  const std::filesystem::path Cached = cachedFile(Dir);
  {
    std::ifstream In(Cached, std::ios::binary);
    std::ostringstream Packed(std::ios::binary);
    ASSERT_EQ(migrateTrace(In, Packed), Input.Events);
    In.close();
    std::ofstream Out(Cached, std::ios::binary | std::ios::trunc);
    Out << Packed.str();
  }

  // ... is served as a hit too.
  TraceArena::Config Cfg;
  Cfg.CacheDir = Dir.str();
  TraceArena B(std::move(Cfg));
  const std::unique_ptr<EventSource> Source = B.open(Spec, Input);
  expectStreamIdentity(*Source, Spec, Input, 257);
  EXPECT_EQ(B.stats().MmapLoads, 1u);
  EXPECT_EQ(B.stats().MmapStores, 0u);
  const std::shared_ptr<const MaterializedTrace> Trace =
      B.materialize(Spec, Input);
  EXPECT_EQ(Trace->bytes(), TraceV2HeaderBytes + Trace->encodedBlockBytes())
      << "packed files carry no pad frames";
}

TEST(TraceArenaTest, CorruptCacheFileIsRegeneratedNotServed) {
  const WorkloadSpec Spec = makeBenchmark("gzip", TestScale);
  const InputConfig Input = Spec.refInput();
  TempDir Dir;

  {
    TraceArena::Config Cfg;
    Cfg.CacheDir = Dir.str();
    TraceArena Cold(std::move(Cfg));
    (void)Cold.materialize(Spec, Input);
  }

  // Flip one payload byte in the cached file: every block is
  // checksum-verified before a cache hit is served, so the corruption
  // must be detected and the trace regenerated (and re-stored), never
  // replayed -- and never allowed to fail mid-replay.
  const std::filesystem::path Cached = cachedFile(Dir);
  {
    std::fstream F(Cached, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(F.is_open());
    F.seekp(-1, std::ios::end);
    const char Flip = static_cast<char>(F.peek() ^ 0x40);
    F.write(&Flip, 1);
  }

  // The mapped file fails verification, is rewritten page-aligned, and
  // the fresh mapping serves the pristine stream.
  TraceArena::Config Cfg;
  Cfg.CacheDir = Dir.str();
  TraceArena Arena(std::move(Cfg));
  const std::unique_ptr<EventSource> Source = Arena.open(Spec, Input);
  expectStreamIdentity(*Source, Spec, Input, DefaultBatchEvents);
  const TraceArenaStats S = Arena.stats();
  EXPECT_EQ(S.MmapLoads, 0u);
  EXPECT_EQ(S.MmapStores, 1u); // the bad file was replaced
  EXPECT_EQ(S.Materializations, 0u);
}

TEST(TraceArenaTest, NonzeroPadByteIsRejectedByEveryReader) {
  // An aligned file with one nonzero byte inside a pad payload is
  // malformed, and every reader must say so: the streaming reader stops
  // at the pad having delivered only the blocks before it, the mapped
  // image refuses to open, runTraceFile throws, and an arena whose cache
  // holds the file regenerates it rather than serve it.
  const WorkloadSpec Spec = makeBenchmark("gzip", TestScale);
  const InputConfig Input = Spec.refInput();
  TempDir Dir;
  {
    TraceArena::Config Cfg;
    Cfg.CacheDir = Dir.str();
    TraceArena Cold(std::move(Cfg));
    ASSERT_TRUE(Cold.materialize(Spec, Input));
  }

  // Find the third pad frame and the events of the blocks before it.
  const std::filesystem::path Cached = cachedFile(Dir);
  std::string Bytes;
  {
    std::ifstream In(Cached, std::ios::binary);
    Bytes.assign(std::istreambuf_iterator<char>(In),
                 std::istreambuf_iterator<char>());
  }
  const auto *Base = reinterpret_cast<const uint8_t *>(Bytes.data());
  size_t Pos = TraceV2HeaderBytes;
  size_t PadAt = 0;
  unsigned Pads = 0;
  uint64_t EventsBefore = 0;
  while (Pos + TraceV2FrameBytes <= Bytes.size()) {
    const TraceV2Frame F = readTraceV2Frame(Base + Pos);
    if (F.isPad() && ++Pads == 3) {
      ASSERT_GT(F.PayloadBytes, 1u);
      PadAt = Pos;
      break;
    }
    EventsBefore += F.Events;
    Pos += TraceV2FrameBytes + F.PayloadBytes;
  }
  ASSERT_NE(PadAt, 0u);
  ASSERT_GT(EventsBefore, 0u);
  Bytes[PadAt + TraceV2FrameBytes + 1] = 1;
  {
    std::ofstream Out(Cached, std::ios::binary | std::ios::trunc);
    Out << Bytes;
  }

  {
    std::ifstream In(Cached, std::ios::binary);
    TraceFileReader Reader(In);
    ASSERT_TRUE(Reader.valid());
    TraceGenerator Reference(Spec, Input);
    BranchEvent Got, Expected;
    uint64_t Count = 0;
    while (Reader.next(Got)) {
      ASSERT_TRUE(Reference.next(Expected));
      ASSERT_EQ(Got, Expected) << "event " << Count;
      ++Count;
    }
    EXPECT_EQ(Count, EventsBefore);
    EXPECT_TRUE(Reader.failed());
    EXPECT_NE(Reader.error().find("pad"), std::string::npos)
        << Reader.error();
  }

  {
    std::string Error;
    EXPECT_EQ(MaterializedTrace::map(Cached.string(), &Error), nullptr);
    EXPECT_NE(Error.find("pad"), std::string::npos) << Error;
  }

  {
    core::ReactiveController C(core::ReactiveConfig::baseline());
    EXPECT_THROW(core::runTraceFile(C, Cached.string()), std::runtime_error);
    EXPECT_EQ(C.stats().EventsConsumed, 0u);
  }

  TraceArena::Config Cfg;
  Cfg.CacheDir = Dir.str();
  TraceArena Arena(std::move(Cfg));
  const std::unique_ptr<EventSource> Source = Arena.open(Spec, Input);
  expectStreamIdentity(*Source, Spec, Input, DefaultBatchEvents);
  const TraceArenaStats S = Arena.stats();
  EXPECT_EQ(S.MmapLoads, 0u);
  EXPECT_EQ(S.MmapStores, 1u); // the bad file was replaced
}

TEST(TraceArenaTest, UnencodableTraceFallsBackToGenerator) {
  // Gaps above 127 are beyond the SCT2 packed taken/gap byte, so this
  // workload cannot be materialized; open() must serve a private
  // generator with the identical stream and count the fallback.
  WorkloadSpec Spec;
  Spec.Name = "wide-gap";
  Spec.RefEvents = 5000;
  Spec.TrainEvents = 1000;
  Spec.MinGap = 120;
  Spec.MaxGap = 200;
  for (unsigned I = 0; I < 8; ++I) {
    SiteSpec S;
    S.Behavior.BiasA = 0.9;
    Spec.Sites.push_back(S);
  }
  const InputConfig Input = Spec.refInput();

  TraceArena Arena;
  EXPECT_EQ(Arena.materialize(Spec, Input), nullptr);
  const std::unique_ptr<EventSource> Source = Arena.open(Spec, Input);
  expectStreamIdentity(*Source, Spec, Input, 257);

  const TraceArenaStats S = Arena.stats();
  EXPECT_EQ(S.Materializations, 0u);
  EXPECT_EQ(S.Fallbacks, 1u);
  EXPECT_EQ(S.CursorOpens, 1u);
  EXPECT_EQ(S.ResidentBytes, 0u);
}

TEST(TraceArenaTest, MaterializedTraceReportsCompression) {
  const WorkloadSpec Spec = makeBenchmark("gzip", TestScale);
  TraceArena Arena;
  const std::shared_ptr<const MaterializedTrace> Trace =
      Arena.materialize(Spec, Spec.refInput());
  ASSERT_TRUE(Trace);
  EXPECT_EQ(Trace->totalEvents(), Spec.RefEvents);
  EXPECT_EQ(Trace->numSites(), Spec.numSites());
  EXPECT_GT(Trace->numBlocks(), 1u);
  // ~2 B/event vs v1's fixed 4 B/event.
  EXPECT_GT(Trace->compressionVsV1(), 1.5);
}
