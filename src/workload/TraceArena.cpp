//===- workload/TraceArena.cpp - Materialize-once trace store -------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "workload/TraceArena.h"

#include "support/Hash.h"
#include "support/RunConfig.h"
#include "workload/MmapTraceStore.h"
#include "workload/TraceGenerator.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <ostream>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace specctrl;
using namespace specctrl::workload;

namespace {

/// An ostream sink appending straight into a byte vector, so the SCT2
/// writer encodes into the arena's resident image with no intermediate
/// string copy.
class VectorBuf final : public std::streambuf {
public:
  explicit VectorBuf(std::vector<uint8_t> &Out) : Out(Out) {}

private:
  int_type overflow(int_type Ch) override {
    if (Ch != traits_type::eof())
      Out.push_back(static_cast<uint8_t>(Ch));
    return Ch;
  }
  std::streamsize xsputn(const char *S, std::streamsize N) override {
    Out.insert(Out.end(), S, S + N);
    return N;
  }

  std::vector<uint8_t> &Out;
};

//===----------------------------------------------------------------------===//
// Key serialization
//===----------------------------------------------------------------------===//
// Injective, length-prefixed serialization (the distill::CodeCache keying
// idiom): two distinct (spec, input) pairs can never serialize to the same
// byte string, so arena sharing is decided by content, not by name.

void putU64(std::string &K, uint64_t V) {
  for (unsigned I = 0; I < 8; ++I)
    K.push_back(static_cast<char>((V >> (8 * I)) & 0xFF));
}

void putF64(std::string &K, double V) {
  putU64(K, std::bit_cast<uint64_t>(V));
}

void putStr(std::string &K, const std::string &S) {
  putU64(K, S.size());
  K.append(S);
}

} // namespace

//===----------------------------------------------------------------------===//
// MaterializedTrace
//===----------------------------------------------------------------------===//

MaterializedTrace::~MaterializedTrace() {
  if (Mapped)
    ::munmap(const_cast<uint8_t *>(Base),
             Len); // NOLINT(cppcoreguidelines-pro-type-const-cast)
}

double MaterializedTrace::compressionVsV1() const {
  return EncodedBlockBytes
             ? 4.0 * static_cast<double>(Header.TotalEvents) /
                   static_cast<double>(EncodedBlockBytes)
             : 0.0;
}

void MaterializedTrace::advise(uint64_t Begin, uint64_t End,
                               int Advice) const {
  if (!Mapped)
    return;
  const uint64_t Page = static_cast<uint64_t>(PageSize);
  // Round the range out to page boundaries for WILLNEED (over-advising is
  // harmless) but *in* for DONTNEED (never drop a page the range does not
  // fully cover -- it may hold a neighboring block another cursor needs).
  uint64_t B = Begin, E = std::min<uint64_t>(End, Len);
  if (Advice == MADV_DONTNEED) {
    B = (B + Page - 1) / Page * Page;
    E = E / Page * Page;
  } else {
    B = B / Page * Page;
    E = (E + Page - 1) / Page * Page;
    E = std::min<uint64_t>(E, (Len + Page - 1) / Page * Page);
  }
  if (B >= E)
    return;
  // Advice is best-effort by definition; errors are deliberately ignored.
  ::madvise(const_cast<uint8_t *>(Base) + B, // NOLINT
            static_cast<size_t>(E - B), Advice);
}

bool MaterializedTrace::index(std::string &Error) {
  if (Len < TraceV2HeaderBytes) {
    Error = "too small for an SCT2 header";
    return false;
  }
  if (std::memcmp(Base, "SCT2", 4) != 0) {
    Error = "not an SCT2 trace (v1 traces must be migrated first)";
    return false;
  }
  if (!parseTraceV2Header(Base, Header)) {
    Error = "malformed SCT2 header";
    return false;
  }
  // Structural walk: frame bounds, event accounting, pad frames (sentinel
  // and zero bytes).  No block payload is read -- checksums and decode
  // happen per block on first touch.  The header is untrusted too, so a
  // corrupt event count must not size the index beyond what the image
  // can frame.
  Blocks.reserve(static_cast<size_t>(
      std::min<uint64_t>(Header.TotalEvents / Header.BlockEvents + 1,
                         Len / (TraceV2FrameBytes + 2))));
  uint64_t Indexed = 0;
  uint64_t Pos = TraceV2HeaderBytes;
  // In the aligned layout every frame header sits on its own page, so the
  // walk would fault a whole mapped file; dropping behind it every few MB
  // keeps the open-time peak resident set bounded regardless of size.
  uint64_t Dropped = 0;
  while (Pos < Len) {
    if (Mapped && Pos - Dropped >= (1u << 22)) {
      const uint64_t E = Pos / PageSize * PageSize;
      advise(Dropped, E, MADV_DONTNEED);
      Dropped = E;
    }
    if (Len - Pos < TraceV2FrameBytes) {
      Error = "truncated SCT2 block frame";
      return false;
    }
    const TraceV2Frame F = readTraceV2Frame(Base + Pos);
    const uint64_t PayloadOffset = Pos + TraceV2FrameBytes;
    if (F.PayloadBytes > Len - PayloadOffset) {
      Error = "truncated SCT2 block payload";
      return false;
    }
    if (const char *Why =
            checkTraceV2Frame(Header, Indexed, F, Base + PayloadOffset)) {
      Error = Why;
      return false;
    }
    Pos = PayloadOffset + F.PayloadBytes;
    if (F.isPad())
      continue;
    Blocks.push_back({F.Events, F.PayloadBytes, PayloadOffset, F.Checksum});
    Indexed += F.Events;
    EncodedBlockBytes += TraceV2FrameBytes + F.PayloadBytes;
  }
  if (Indexed != Header.TotalEvents) {
    Error = "SCT2 trace is missing events (truncated)";
    return false;
  }
  Verified = std::unique_ptr<std::atomic<uint8_t>[]>(
      new std::atomic<uint8_t>[std::max<size_t>((Blocks.size() + 7) / 8,
                                                1)]());
  // Drop the pages the walk faulted: an opened mapping holds only its
  // index resident until a cursor starts reading.
  advise(0, Len, MADV_DONTNEED);
  return true;
}

std::shared_ptr<const MaterializedTrace>
MaterializedTrace::map(const std::string &Path, std::string *Error) {
  auto Fail = [&](const std::string &Message) {
    if (Error)
      *Error = Message;
    return std::shared_ptr<const MaterializedTrace>();
  };
  const auto ErrnoFail = [&](const char *What) {
    return Fail(std::string(What) + " '" + Path + "': " +
                std::strerror(errno));
  };

  const int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0)
    return ErrnoFail("cannot open");
  struct stat St{};
  if (::fstat(Fd, &St) != 0) {
    const int Saved = errno;
    ::close(Fd);
    errno = Saved;
    return ErrnoFail("cannot stat");
  }
  const size_t Len = static_cast<size_t>(St.st_size);
  if (Len < TraceV2HeaderBytes) {
    ::close(Fd);
    return Fail("'" + Path + "': too small for an SCT2 header");
  }
  void *Base = ::mmap(nullptr, Len, PROT_READ, MAP_SHARED, Fd, 0);
  ::close(Fd); // the mapping keeps its own reference
  if (Base == MAP_FAILED)
    return ErrnoFail("cannot mmap");

  // From here the destructor owns the mapping, so every early return
  // unmaps it.
  auto Trace = std::shared_ptr<MaterializedTrace>(new MaterializedTrace());
  Trace->Base = static_cast<const uint8_t *>(Base);
  Trace->Len = Len;
  Trace->Mapped = true;
  if (const long P = ::sysconf(_SC_PAGESIZE); P > 0)
    Trace->PageSize = P;
  std::string Why;
  if (!Trace->index(Why))
    return Fail("'" + Path + "': " + Why);
  return Trace;
}

std::shared_ptr<const MaterializedTrace>
MaterializedTrace::adopt(std::vector<uint8_t> Image) {
  auto Trace = std::shared_ptr<MaterializedTrace>(new MaterializedTrace());
  Trace->Owned = std::move(Image);
  Trace->Base = Trace->Owned.data();
  Trace->Len = Trace->Owned.size();
  std::string Why;
  if (!Trace->index(Why))
    return nullptr;
  // Writer-produced blocks are trusted (the writer enforced the limits),
  // so replay skips the first-touch checksum and checked decode.
  for (size_t B = 0; B < Trace->Blocks.size(); ++B)
    Trace->setVerified(B);
  return Trace;
}

bool MaterializedTrace::fullyVerified() const {
  for (size_t B = 0; B < Blocks.size(); ++B)
    if (!isVerified(B))
      return false;
  return true;
}

const char *MaterializedTrace::verifyBlock(size_t B, uint64_t &NextIndex,
                                           uint64_t &InstRet,
                                           BranchEvent *Out) const {
  const BlockRef &Ref = Blocks[B];
  const uint8_t *Payload = Base + Ref.PayloadOffset;
  if (hash64(Payload, Ref.PayloadBytes) != Ref.Checksum)
    return "trace block checksum mismatch (corrupt or tampered trace)";
  // The checked decoder commits the counters only on success.
  if (!decodeTraceBlockPayload(Payload, Ref.PayloadBytes, Ref.Events,
                               Header.NumSites, NextIndex, InstRet, Out))
    return "malformed event encoding in trace block";
  setVerified(B);
  return nullptr;
}

bool MaterializedTrace::verifyAllBlocks() const {
  std::vector<BranchEvent> Scratch;
  uint64_t DroppedBelow = 0;
  for (size_t B = 0; B < Blocks.size(); ++B) {
    if (isVerified(B))
      continue;
    // Verification does not depend on the reconstructed Index/InstRet,
    // so each block is checked on its own with scratch counters.
    uint64_t Index = 0, Inst = 0;
    Scratch.resize(Blocks[B].Events);
    if (verifyBlock(B, Index, Inst, Scratch.data()))
      return false;
    // Keep a mapped scan's footprint bounded: drop the pages it passed.
    const uint64_t Done = Blocks[B].PayloadOffset - TraceV2FrameBytes;
    if (Done - DroppedBelow >= (1u << 22)) {
      advise(DroppedBelow, Done, MADV_DONTNEED);
      DroppedBelow = Done;
    }
  }
  advise(DroppedBelow, Len, MADV_DONTNEED);
  return true;
}

//===----------------------------------------------------------------------===//
// ArenaReplaySource
//===----------------------------------------------------------------------===//

ArenaReplaySource::ArenaReplaySource(
    std::shared_ptr<const MaterializedTrace> Trace)
    : Trace(std::move(Trace)) {
  assert(this->Trace && "cursor needs a materialized trace");
}

void ArenaReplaySource::reset() {
  NextBlock = 0;
  NextIndex = 0;
  InstRet = 0;
  Error.clear();
  Staged.clear();
  StagedPos = 0;
  DroppedBelow = 0;
}

void ArenaReplaySource::adviseAround(size_t B) {
  const auto &Blocks = Trace->Blocks;
  // Read ahead: the next few blocks the cursor will decode.
  const size_t AheadFirst = B + 1;
  if (AheadFirst < Blocks.size()) {
    const size_t AheadLast =
        std::min(AheadFirst + PrefetchAheadBlocks, Blocks.size()) - 1;
    Trace->advise(Blocks[AheadFirst].PayloadOffset - TraceV2FrameBytes,
                  Blocks[AheadLast].PayloadOffset +
                      Blocks[AheadLast].PayloadBytes,
                  MADV_WILLNEED);
  }
  // Drop behind: pages fully below the retain window are done for this
  // cursor.  DONTNEED rounds inward, so a page shared with the retained
  // region survives; another cursor that still needs a dropped page just
  // refaults it from the page cache or disk.
  if (B > RetainBehindBlocks) {
    const uint64_t KeepFrom =
        Blocks[B - RetainBehindBlocks].PayloadOffset - TraceV2FrameBytes;
    if (KeepFrom > DroppedBelow) {
      Trace->advise(DroppedBelow, KeepFrom, MADV_DONTNEED);
      DroppedBelow = KeepFrom;
    }
  }
}

bool ArenaReplaySource::decodeBlock(size_t B, BranchEvent *Out) {
  const MaterializedTrace &T = *Trace;
  const MaterializedTrace::BlockRef &Ref = T.Blocks[B];
  if (T.isVerified(B)) {
    // Writer-produced, or already proven well-formed in this process: the
    // validation-free SWAR decode.
    decodeTraceBlockPayloadTrusted(T.Base + Ref.PayloadOffset,
                                   Ref.PayloadBytes, Ref.Events, NextIndex,
                                   InstRet, Out);
  } else {
    // First touch of a mapped block: the bytes are untrusted input.  A
    // rejected block stages nothing and delivers nothing.
    if (const char *Why = T.verifyBlock(B, NextIndex, InstRet, Out)) {
      Error = Why;
      return false;
    }
  }
  if (T.Mapped)
    adviseAround(B);
  return true;
}

bool ArenaReplaySource::next(BranchEvent &Event) {
  if (StagedPos >= Staged.size()) {
    if (failed() || NextBlock >= Trace->Blocks.size())
      return false;
    Staged.resize(Trace->Blocks[NextBlock].Events);
    StagedPos = 0;
    if (!decodeBlock(NextBlock, Staged.data())) {
      Staged.clear();
      return false;
    }
    ++NextBlock;
  }
  Event = Staged[StagedPos++];
  return true;
}

size_t ArenaReplaySource::nextBatch(std::span<BranchEvent> Buffer) {
  size_t Filled = 0;
  while (Filled < Buffer.size()) {
    // Drain any partially-consumed staged block first.
    if (StagedPos < Staged.size()) {
      const size_t Take =
          std::min(Buffer.size() - Filled, Staged.size() - StagedPos);
      std::memcpy(Buffer.data() + Filled, Staged.data() + StagedPos,
                  Take * sizeof(BranchEvent));
      StagedPos += Take;
      Filled += Take;
      continue;
    }
    if (failed() || NextBlock >= Trace->Blocks.size())
      break;
    const uint32_t BlockN = Trace->Blocks[NextBlock].Events;
    if (Buffer.size() - Filled >= BlockN) {
      // The zero-copy fast path: decode the whole block straight into the
      // caller's buffer (the common case when the driver's chunk size
      // matches the block size).
      if (!decodeBlock(NextBlock, Buffer.data() + Filled))
        break;
      Filled += BlockN;
    } else {
      Staged.resize(BlockN);
      StagedPos = 0;
      if (!decodeBlock(NextBlock, Staged.data())) {
        Staged.clear();
        break;
      }
    }
    ++NextBlock;
  }
  return Filled;
}

//===----------------------------------------------------------------------===//
// TraceArena
//===----------------------------------------------------------------------===//

TraceArena::TraceArena() : TraceArena(Config{}) {}

TraceArena::TraceArena(Config C) : Cfg(std::move(C)) {
  if (RunConfig::global().ArenaVerbose)
    Cfg.Verbose = true;
}

std::string TraceArena::keyOf(const WorkloadSpec &Spec,
                              const InputConfig &Input) {
  std::string K;
  K.reserve(64 + Spec.Sites.size() * 56);
  K.append("SCTA1"); // key-format version
  putStr(K, Spec.Name);
  putU64(K, Spec.Seed);
  putU64(K, Spec.NumPhases);
  putU64(K, Spec.MinGap);
  putU64(K, Spec.MaxGap);
  putU64(K, Spec.Sites.size());
  for (const SiteSpec &S : Spec.Sites) {
    putU64(K, static_cast<uint64_t>(S.Behavior.Kind));
    putF64(K, S.Behavior.BiasA);
    putF64(K, S.Behavior.BiasB);
    putU64(K, S.Behavior.ChangeAt);
    putU64(K, S.Behavior.Period);
    putU64(K, S.Behavior.GroupId);
    putF64(K, S.Weight);
    putU64(K, S.PhaseMask);
    putU64(K, S.InputGated);
  }
  putU64(K, Spec.GroupOn.size());
  for (const std::vector<bool> &Row : Spec.GroupOn) {
    putU64(K, Row.size());
    for (const bool On : Row)
      K.push_back(On ? 1 : 0);
  }
  putStr(K, Input.Name);
  putU64(K, Input.Seed);
  putU64(K, Input.Events);
  putF64(K, Input.CoverProb);
  return K;
}

std::unique_ptr<EventSource> TraceArena::open(const WorkloadSpec &Spec,
                                              const InputConfig &Input) {
  std::shared_ptr<const MaterializedTrace> Trace = materialize(Spec, Input);
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Stats.CursorOpens;
    if (!Trace)
      ++Stats.Fallbacks;
  }
  if (!Trace)
    return std::make_unique<TraceGenerator>(Spec, Input);
  return std::make_unique<ArenaReplaySource>(std::move(Trace));
}

std::string TraceArena::cachePathOf(const std::string &Key) const {
  char Name[48];
  std::snprintf(Name, sizeof(Name), "%016llx%016llx.sct2",
                static_cast<unsigned long long>(
                    hash64(Key.data(), Key.size(), 0)),
                static_cast<unsigned long long>(
                    hash64(Key.data(), Key.size(), 1)));
  return (std::filesystem::path(Cfg.CacheDir) / Name).string();
}

std::shared_ptr<const MaterializedTrace>
TraceArena::materialize(const WorkloadSpec &Spec, const InputConfig &Input) {
  const std::string Key = keyOf(Spec, Input);
  Entry *E = nullptr;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    std::unique_ptr<Entry> &Slot = Entries[Key];
    if (!Slot)
      Slot = std::make_unique<Entry>();
    E = Slot.get();
  }
  if (E->Ready.load())
    return E->Trace;
  // First caller materializes; racing callers for the same key block here
  // (and only here -- other keys proceed independently) and are counted.
  const auto Start = std::chrono::steady_clock::now();
  bool Ran = false;
  std::call_once(E->Once, [&] {
    E->Trace = materializeKey(Key, Spec, Input);
    E->Ready.store(true);
    Ran = true;
  });
  if (!Ran) {
    const std::chrono::duration<double> Waited =
        std::chrono::steady_clock::now() - Start;
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Stats.BlockedOpens;
    Stats.BlockedSeconds += Waited.count();
  }
  return E->Trace;
}

std::shared_ptr<const MaterializedTrace>
TraceArena::materializeKey(const std::string &Key, const WorkloadSpec &Spec,
                           const InputConfig &Input) {
  if (!Cfg.CacheDir.empty())
    if (std::shared_ptr<const MaterializedTrace> Trace =
            mapCached(Key, Spec, Input))
      return Trace;
  // No cache directory -- or the disk could not serve the key (disk
  // trouble, or a trace beyond the SCT2 limits, which fails here again
  // and stays a fallback key).
  return generateOwned(Spec, Input);
}

std::shared_ptr<const MaterializedTrace>
TraceArena::mapCached(const std::string &Key, const WorkloadSpec &Spec,
                      const InputConfig &Input) {
  namespace fs = std::filesystem;
  const std::string Path = cachePathOf(Key);
  MmapTraceStore &Store = MmapTraceStore::global();

  // A cached file is untrusted input: beyond the index walk's framing
  // checks, every block is checksummed and check-decoded (bounded by one
  // block buffer) before the mapping is served, so a stale or corrupt
  // file is regenerated, never replayed -- and never fails mid-replay.
  const auto Serve = [&](bool Stored)
      -> std::shared_ptr<const MaterializedTrace> {
    std::shared_ptr<const MaterializedTrace> Trace = Store.open(Path);
    if (!Trace)
      return nullptr;
    if (Trace->totalEvents() != Input.Events ||
        Trace->numSites() != Spec.numSites() || !Trace->verifyAllBlocks()) {
      Store.invalidate(Path);
      return nullptr;
    }
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Stats.MmapLoads += !Stored;
      Stats.MmapStores += Stored;
      Stats.MappedBytes += Trace->bytes();
    }
    if (Cfg.Verbose)
      std::fprintf(stderr,
                   "specctrl-arena: %s/%s: %llu events, %zu bytes "
                   "(%.2fx vs v1, %zu blocks) [mmap%s]\n",
                   Spec.Name.c_str(), Input.Name.c_str(),
                   static_cast<unsigned long long>(Trace->totalEvents()),
                   Trace->bytes(), Trace->compressionVsV1(),
                   Trace->numBlocks(), Stored ? ", generated" : "");
    return Trace;
  };
  if (std::shared_ptr<const MaterializedTrace> Trace = Serve(/*Stored=*/false))
    return Trace;

  // Miss (or a rejected file): stream-generate straight to a page-aligned
  // file -- the trace is never resident -- then map that.  Temp name +
  // rename keeps concurrent processes from seeing a partial file.
  std::error_code EC;
  fs::create_directories(fs::path(Path).parent_path(), EC);
  const std::string Tmp =
      Path + ".tmp." + std::to_string(static_cast<uint64_t>(::getpid())) +
      "." + std::to_string(reinterpret_cast<uintptr_t>(this));
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return nullptr;
    TraceGenerator Gen(Spec, Input);
    if (writeTraceV2(Out, Gen, Cfg.BlockEvents, TraceV2AlignBytes) !=
            Input.Events ||
        !Out) {
      Out.close();
      fs::remove(Tmp, EC);
      return nullptr;
    }
  }
  fs::rename(Tmp, Path, EC);
  if (EC) {
    fs::remove(Tmp, EC);
    return nullptr;
  }
  Store.invalidate(Path); // never serve a stale mapping of the old inode
  return Serve(/*Stored=*/true);
}

std::shared_ptr<const MaterializedTrace>
TraceArena::generateOwned(const WorkloadSpec &Spec, const InputConfig &Input) {
  std::vector<uint8_t> Image;
  // Encoded events land near 2 B each; reserving ~3 B/event keeps the
  // image's growth to one allocation in practice.
  Image.reserve(TraceV2HeaderBytes + 3 * Input.Events);
  {
    VectorBuf Buf(Image);
    std::ostream OS(&Buf);
    TraceGenerator Gen(Spec, Input);
    TraceWriterV2 Writer(OS, Spec.numSites(), Input.Events, Spec.MinGap,
                         Spec.MaxGap, Cfg.BlockEvents);
    std::vector<BranchEvent> Chunk(Cfg.BlockEvents ? Cfg.BlockEvents
                                                   : TraceV2BlockEvents);
    while (const size_t N = Gen.nextBatch(Chunk))
      if (!Writer.append(std::span<const BranchEvent>(Chunk.data(), N)))
        return nullptr; // beyond SCT2 limits: the key stays a fallback
    if (!Writer.finish() || Writer.eventsWritten() != Input.Events)
      return nullptr;
  }
  std::shared_ptr<const MaterializedTrace> Trace =
      MaterializedTrace::adopt(std::move(Image));
  assert(Trace && "fresh SCT2 image failed to index");
  if (!Trace)
    return nullptr;

  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Stats.Materializations;
    Stats.ResidentEvents += Trace->totalEvents();
    Stats.ResidentBytes += Trace->bytes();
  }
  if (Cfg.Verbose)
    std::fprintf(stderr,
                 "specctrl-arena: %s/%s: %llu events, %zu bytes "
                 "(%.2fx vs v1, %zu blocks) [generated]\n",
                 Spec.Name.c_str(), Input.Name.c_str(),
                 static_cast<unsigned long long>(Trace->totalEvents()),
                 Trace->bytes(), Trace->compressionVsV1(),
                 Trace->numBlocks());
  return Trace;
}

TraceArenaStats TraceArena::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Stats;
}
