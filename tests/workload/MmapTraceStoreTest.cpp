//===- tests/workload/MmapTraceStoreTest.cpp ------------------------------===//
//
// The mmap trace store's contract: an ArenaReplaySource over a mapped
// MaterializedTrace streams events bit-identical to TraceFileReader over
// the same file -- across the whole benchmark suite, both inputs, packed
// and page-aligned layouts, and any consumer chunk size; mapped bytes stay
// untrusted until their block's first-touch checksum + checked decode
// passes, so corruption and truncation are rejected whole-block with zero
// fabricated events; the SWAR trusted decoder is bit-identical to the
// scalar baseline; and the registry shares one mapping per file.
//
//===----------------------------------------------------------------------===//

#include "workload/MmapTraceStore.h"

#include "workload/SpecSuite.h"
#include "workload/TraceGenerator.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <span>
#include <vector>

using namespace specctrl;
using namespace specctrl::workload;

namespace {

/// Small enough that the 12-benchmark x 2-input sweep runs in seconds,
/// large enough for multi-block traces (matches TraceArenaTest).
constexpr SuiteScale TestScale{3.0e3, 0.1};

constexpr size_t TestBatches[] = {DefaultBatchEvents, 257};

/// A scratch directory removed on destruction.
class TempDir {
public:
  TempDir() {
    Path = std::filesystem::temp_directory_path() /
           ("specctrl-mmap-test-" +
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

/// Records (Spec, Input) to \p Path as SCT2, optionally page-aligned.
void recordTrace(const std::string &Path, const WorkloadSpec &Spec,
                 const InputConfig &Input, uint32_t AlignBytes) {
  std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(OS.is_open());
  TraceGenerator Gen(Spec, Input);
  ASSERT_EQ(writeTraceV2(OS, Gen, TraceV2BlockEvents, AlignBytes),
            Input.Events);
}

/// Drains \p Source in chunks of \p Batch and compares every event -- all
/// fields -- against TraceFileReader over the same file.
void expectFileIdentity(ArenaReplaySource &Source, const std::string &Path,
                        size_t Batch, uint64_t WantEvents) {
  std::ifstream In(Path, std::ios::binary);
  ASSERT_TRUE(In.is_open());
  TraceFileReader Reference(In);
  ASSERT_TRUE(Reference.valid());
  std::vector<BranchEvent> Chunk(Batch);
  BranchEvent Expected;
  uint64_t Count = 0;
  while (const size_t N = Source.nextBatch(Chunk)) {
    for (size_t I = 0; I < N; ++I) {
      ASSERT_TRUE(Reference.next(Expected))
          << Path << ": mmap stream too long at event " << Count;
      ASSERT_EQ(Chunk[I], Expected)
          << Path << " batch=" << Batch << " event " << Count;
      ++Count;
    }
  }
  EXPECT_FALSE(Source.failed()) << Source.error();
  EXPECT_FALSE(Reference.next(Expected))
      << Path << ": mmap stream too short at event " << Count;
  EXPECT_EQ(Count, WantEvents);
}

} // namespace

TEST(MmapTraceStoreTest, ReplayMatchesFileReaderAcrossSuiteAndLayouts) {
  TempDir Dir;
  MmapTraceStore Store;
  for (const BenchmarkProfile &P : suiteProfiles()) {
    const WorkloadSpec Spec = makeBenchmark(P, TestScale);
    for (const InputConfig &Input : {Spec.refInput(), Spec.trainInput()})
      for (const uint32_t Align : {0u, TraceV2AlignBytes}) {
        const std::string Path =
            (Dir.Path / (Spec.Name + "-" + Input.Name +
                         (Align ? "-aligned" : "-packed") + ".sct2"))
                .string();
        recordTrace(Path, Spec, Input, Align);
        // Both cursors first (so the second open finds the live mapping),
        // then replay each at its chunk size.
        std::vector<std::unique_ptr<ArenaReplaySource>> Cursors;
        for (size_t C = 0; C < std::size(TestBatches); ++C) {
          std::string Error;
          Cursors.push_back(Store.openCursor(Path, &Error));
          ASSERT_TRUE(Cursors.back()) << Error;
        }
        for (size_t C = 0; C < std::size(TestBatches); ++C)
          expectFileIdentity(*Cursors[C], Path, TestBatches[C],
                             Input.Events);
      }
  }
  const MmapTraceStoreStats S = Store.stats();
  EXPECT_EQ(S.Failures, 0u);
  EXPECT_GT(S.Mmaps, 0u);
  EXPECT_GT(S.Opens, S.Mmaps); // repeat opens shared the mapping
}

TEST(MmapTraceStoreTest, PerEventNextMatchesGenerator) {
  const WorkloadSpec Spec = makeBenchmark("gzip", TestScale);
  const InputConfig Input = Spec.refInput();
  TempDir Dir;
  const std::string Path = (Dir.Path / "gzip.sct2").string();
  recordTrace(Path, Spec, Input, TraceV2AlignBytes);

  std::string Error;
  const std::unique_ptr<ArenaReplaySource> Source =
      MmapTraceStore().openCursor(Path, &Error);
  ASSERT_TRUE(Source) << Error;
  TraceGenerator Reference(Spec, Input);
  BranchEvent Got, Expected;
  uint64_t Count = 0;
  while (Source->next(Got)) {
    ASSERT_TRUE(Reference.next(Expected));
    ASSERT_EQ(Got, Expected) << "event " << Count;
    ++Count;
  }
  EXPECT_FALSE(Source->failed()) << Source->error();
  EXPECT_FALSE(Reference.next(Expected));
  EXPECT_EQ(Count, Input.Events);
}

TEST(MmapTraceStoreTest, ResetRestartsTheStreamAndRunsVerifiedPath) {
  const WorkloadSpec Spec = makeBenchmark("gzip", TestScale);
  const InputConfig Input = Spec.refInput();
  TempDir Dir;
  const std::string Path = (Dir.Path / "gzip.sct2").string();
  recordTrace(Path, Spec, Input, TraceV2AlignBytes);

  std::string Error;
  MmapTraceStore Store;
  const std::unique_ptr<ArenaReplaySource> Source =
      Store.openCursor(Path, &Error);
  ASSERT_TRUE(Source) << Error;
  // First pass verifies every block (checked decode); the second pass
  // replays entirely on the trusted SWAR path.  Both must be identical to
  // the file reader.
  expectFileIdentity(*Source, Path, DefaultBatchEvents, Input.Events);
  EXPECT_TRUE(Source->trace().fullyVerified());
  Source->reset();
  expectFileIdentity(*Source, Path, 257, Input.Events);
}

TEST(MmapTraceStoreTest, MappingIsSharedAndIndexIsLean) {
  const WorkloadSpec Spec = makeBenchmark("gzip", TestScale);
  const InputConfig Input = Spec.refInput();
  TempDir Dir;
  const std::string Path = (Dir.Path / "gzip.sct2").string();
  recordTrace(Path, Spec, Input, TraceV2AlignBytes);

  MmapTraceStore Store;
  std::string Error;
  const std::unique_ptr<ArenaReplaySource> A = Store.openCursor(Path, &Error);
  const std::unique_ptr<ArenaReplaySource> B = Store.openCursor(Path, &Error);
  ASSERT_TRUE(A);
  ASSERT_TRUE(B);
  EXPECT_EQ(&A->trace(), &B->trace()); // one mapping, two cursors

  // Lockstep cursors over the shared mapping see identical streams.
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

  const MmapTraceStoreStats S = Store.stats();
  EXPECT_EQ(S.Opens, 2u);
  EXPECT_EQ(S.Mmaps, 1u);
  EXPECT_EQ(S.MappedBytes, std::filesystem::file_size(Path));
  EXPECT_EQ(A->trace().totalEvents(), Input.Events);
  EXPECT_EQ(A->trace().numSites(), Spec.numSites());
  EXPECT_GT(A->trace().numBlocks(), 1u);
}

TEST(MmapTraceStoreTest, PayloadCorruptionIsRejectedWholeBlock) {
  const WorkloadSpec Spec = makeBenchmark("gzip", TestScale);
  const InputConfig Input = Spec.refInput();
  TempDir Dir;
  const std::string Path = (Dir.Path / "gzip.sct2").string();
  recordTrace(Path, Spec, Input, TraceV2AlignBytes);

  // Flip one byte in the final block's payload: the mapped file still
  // opens (structure intact), but the cursor must fail at that block after
  // delivering only the preceding -- still verified -- events, all
  // bit-identical to the pristine stream.
  {
    std::fstream F(Path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(F.is_open());
    F.seekp(-1, std::ios::end);
    const char Flip = static_cast<char>(F.peek() ^ 0x40);
    F.write(&Flip, 1);
  }

  std::string Error;
  const std::unique_ptr<ArenaReplaySource> Source =
      MmapTraceStore().openCursor(Path, &Error);
  ASSERT_TRUE(Source) << Error;
  TraceGenerator Reference(Spec, Input);
  std::vector<BranchEvent> Chunk(DefaultBatchEvents);
  BranchEvent Expected;
  uint64_t Count = 0;
  while (const size_t N = Source->nextBatch(Chunk)) {
    for (size_t I = 0; I < N; ++I) {
      ASSERT_TRUE(Reference.next(Expected));
      ASSERT_EQ(Chunk[I], Expected) << "event " << Count;
      ++Count;
    }
  }
  EXPECT_TRUE(Source->failed());
  EXPECT_NE(Source->error().find("checksum"), std::string::npos)
      << Source->error();
  EXPECT_LT(Count, Input.Events); // the corrupt block delivered nothing
  BranchEvent E;
  EXPECT_FALSE(Source->next(E)); // and the cursor stays failed
}

TEST(MmapTraceStoreTest, TruncatedFileIsRejectedAtOpen) {
  const WorkloadSpec Spec = makeBenchmark("gzip", TestScale);
  const InputConfig Input = Spec.refInput();
  TempDir Dir;
  const std::string Path = (Dir.Path / "gzip.sct2").string();
  recordTrace(Path, Spec, Input, TraceV2AlignBytes);

  // Chop the file mid-block: the structural index walk sees missing
  // events and refuses to map (a truncated trace can never be partially
  // served by the store -- the file reader handles resumable streams).
  const auto Full = std::filesystem::file_size(Path);
  std::filesystem::resize_file(Path, Full - Full / 3);
  std::string Error;
  EXPECT_EQ(MmapTraceStore().open(Path, &Error), nullptr);
  EXPECT_FALSE(Error.empty());
}

TEST(MmapTraceStoreTest, ZeroedEventCountDoesNotBecomeAPad) {
  const WorkloadSpec Spec = makeBenchmark("gzip", TestScale);
  const InputConfig Input = Spec.refInput();
  TempDir Dir;
  const std::string Path = (Dir.Path / "gzip.sct2").string();
  recordTrace(Path, Spec, Input, TraceV2AlignBytes);

  // Zero the second block's event count (the first frame after the first
  // aligned boundary).  Without the pad-frame sentinel check this would
  // silently skip a real block; it must instead fail the open.
  {
    std::fstream F(Path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(F.is_open());
    F.seekp(TraceV2AlignBytes, std::ios::beg);
    const char Zeros[4] = {0, 0, 0, 0};
    F.write(Zeros, 4);
  }
  std::string Error;
  EXPECT_EQ(MmapTraceStore().open(Path, &Error), nullptr);
  EXPECT_FALSE(Error.empty());
}

TEST(MmapTraceStoreTest, NonTraceFilesAreRejected) {
  TempDir Dir;
  const std::string Garbage = (Dir.Path / "garbage.sct2").string();
  {
    std::ofstream OS(Garbage, std::ios::binary);
    OS << "this is not a trace but is long enough to pass the size check";
  }
  std::string Error;
  MmapTraceStore Store;
  EXPECT_EQ(Store.open(Garbage, &Error), nullptr);
  EXPECT_NE(Error.find("SCT2"), std::string::npos) << Error;
  EXPECT_EQ(Store.open((Dir.Path / "missing.sct2").string(), &Error),
            nullptr);
  EXPECT_EQ(Store.stats().Failures, 2u);
}

TEST(MmapTraceStoreTest, SwarDecoderMatchesScalarBaseline) {
  // Exercise every varint shape: tiny deltas (1-byte), suite-scale site
  // counts (2-byte), and a wide-site workload forcing >= 3-byte deltas,
  // at ragged block sizes that leave scalar tails after the SWAR loop.
  std::mt19937_64 Rng(20050313);
  for (const uint32_t NumSites : {3u, 300u, 40000u, 3000000u}) {
    for (const uint32_t EventCount : {1u, 2u, 7u, 64u, 4096u}) {
      std::vector<BranchEvent> Original(EventCount);
      uint32_t Site = 0;
      for (uint32_t I = 0; I < EventCount; ++I) {
        Site = static_cast<uint32_t>(Rng() % NumSites);
        Original[I].Site = Site;
        Original[I].Taken = (Rng() & 1) != 0;
        Original[I].Gap = static_cast<uint32_t>(Rng() % 128);
      }
      // Encode through the writer, then decode the lone block's payload
      // with both trusted decoders.
      std::ostringstream OS(std::ios::binary);
      TraceWriterV2 Writer(OS, NumSites, EventCount, 0, 127, EventCount);
      ASSERT_TRUE(Writer.append(
          std::span<const BranchEvent>(Original.data(), EventCount)));
      ASSERT_TRUE(Writer.finish());
      const std::string File = OS.str();
      const uint8_t *Payload =
          reinterpret_cast<const uint8_t *>(File.data()) +
          TraceV2HeaderBytes + TraceV2FrameBytes;
      const size_t PayloadBytes =
          File.size() - TraceV2HeaderBytes - TraceV2FrameBytes;

      std::vector<BranchEvent> Swar(EventCount), Scalar(EventCount);
      uint64_t IndexA = 1000, InstA = 2000; // nonzero starting counters
      uint64_t IndexB = 1000, InstB = 2000;
      decodeTraceBlockPayloadTrusted(Payload, PayloadBytes, EventCount,
                                     IndexA, InstA, Swar.data());
      decodeTraceBlockPayloadTrustedScalar(Payload, PayloadBytes, EventCount,
                                           IndexB, InstB, Scalar.data());
      EXPECT_EQ(IndexA, IndexB);
      EXPECT_EQ(InstA, InstB);
      for (uint32_t I = 0; I < EventCount; ++I) {
        ASSERT_EQ(Swar[I], Scalar[I])
            << "sites=" << NumSites << " n=" << EventCount << " event " << I;
        ASSERT_EQ(Swar[I].Site, Original[I].Site);
      }
    }
  }
}

TEST(MmapTraceStoreTest, AlignedLayoutStartsBlocksOnPageBoundaries) {
  const WorkloadSpec Spec = makeBenchmark("gzip", TestScale);
  const InputConfig Input = Spec.refInput();
  TempDir Dir;
  const std::string Path = (Dir.Path / "gzip.sct2").string();
  recordTrace(Path, Spec, Input, TraceV2AlignBytes);

  // Walk the frames directly: every non-pad frame must start on a page
  // boundary (that is the layout contract madvise relies on).
  std::ifstream In(Path, std::ios::binary);
  std::vector<char> Bytes((std::istreambuf_iterator<char>(In)),
                          std::istreambuf_iterator<char>());
  const auto U32 = [&](size_t Pos) {
    return static_cast<uint32_t>(static_cast<uint8_t>(Bytes[Pos])) |
           (static_cast<uint32_t>(static_cast<uint8_t>(Bytes[Pos + 1])) << 8) |
           (static_cast<uint32_t>(static_cast<uint8_t>(Bytes[Pos + 2]))
            << 16) |
           (static_cast<uint32_t>(static_cast<uint8_t>(Bytes[Pos + 3]))
            << 24);
  };
  size_t Pos = TraceV2HeaderBytes;
  size_t RealBlocks = 0;
  while (Pos + TraceV2FrameBytes <= Bytes.size()) {
    const uint32_t Events = U32(Pos);
    const uint32_t PayloadBytes = U32(Pos + 4);
    if (Events != 0) {
      EXPECT_EQ(Pos % TraceV2AlignBytes, 0u) << "block at offset " << Pos;
      ++RealBlocks;
    }
    Pos += TraceV2FrameBytes + PayloadBytes;
  }
  EXPECT_EQ(Pos, Bytes.size());
  EXPECT_GT(RealBlocks, 1u);
}
