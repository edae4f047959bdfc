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
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <ostream>
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

uint32_t loadU32(const uint8_t *P) {
  return static_cast<uint32_t>(P[0]) | (static_cast<uint32_t>(P[1]) << 8) |
         (static_cast<uint32_t>(P[2]) << 16) |
         (static_cast<uint32_t>(P[3]) << 24);
}

uint64_t loadU64(const uint8_t *P) {
  return static_cast<uint64_t>(loadU32(P)) |
         (static_cast<uint64_t>(loadU32(P + 4)) << 32);
}

} // namespace

//===----------------------------------------------------------------------===//
// MaterializedTrace
//===----------------------------------------------------------------------===//

double MaterializedTrace::compressionVsV1() const {
  return EncodedBlockBytes
             ? 4.0 * static_cast<double>(TotalEvents) /
                   static_cast<double>(EncodedBlockBytes)
             : 0.0;
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
  Staged.clear();
  StagedPos = 0;
}

void ArenaReplaySource::decodeBlock(size_t B, BranchEvent *Out) {
  // Every block was writer-produced or fully verified at load time, so the
  // replay hot loop takes the validation-free decoder.
  const MaterializedTrace::BlockRef &Ref = Trace->Blocks[B];
  decodeTraceBlockPayloadTrusted(Trace->Image.data() + Ref.PayloadOffset,
                                 Ref.PayloadBytes, Ref.Events, NextIndex,
                                 InstRet, Out);
}

bool ArenaReplaySource::next(BranchEvent &Event) {
  if (StagedPos >= Staged.size()) {
    if (NextBlock >= Trace->Blocks.size())
      return false;
    Staged.resize(Trace->Blocks[NextBlock].Events);
    StagedPos = 0;
    decodeBlock(NextBlock, Staged.data());
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
    if (NextBlock >= Trace->Blocks.size())
      break;
    const uint32_t BlockN = Trace->Blocks[NextBlock].Events;
    if (Buffer.size() - Filled >= BlockN) {
      // The zero-copy fast path: decode the whole block straight into the
      // caller's buffer (the common case when the driver's chunk size
      // matches the arena's block size).
      decodeBlock(NextBlock, Buffer.data() + Filled);
      Filled += BlockN;
    } else {
      Staged.resize(BlockN);
      StagedPos = 0;
      decodeBlock(NextBlock, Staged.data());
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
  // Zero-copy tier first: with a disk cache and mmap enabled, serve the
  // stream in place from the shared mapping -- no resident copy at all.
  if (mmapEnabled()) {
    if (std::shared_ptr<const MappedTrace> Mapped = mapFor(Spec, Input)) {
      std::lock_guard<std::mutex> Lock(Mutex);
      ++Stats.CursorOpens;
      return std::make_unique<MmapReplaySource>(std::move(Mapped));
    }
    // Not mmap-servable (unencodable trace or disk failure): fall through
    // to the resident path, which shares the fallback accounting.
  }
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

bool TraceArena::mmapEnabled() const {
  return Cfg.UseMmap && !Cfg.CacheDir.empty() &&
         RunConfig::global().TraceMmap;
}

std::string TraceArena::cachePathOf(const std::string &Key) const {
  if (Cfg.CacheDir.empty())
    return {};
  char Name[48];
  std::snprintf(Name, sizeof(Name), "%016llx%016llx.sct2",
                static_cast<unsigned long long>(
                    hash64(Key.data(), Key.size(), 0)),
                static_cast<unsigned long long>(
                    hash64(Key.data(), Key.size(), 1)));
  return (std::filesystem::path(Cfg.CacheDir) / Name).string();
}

std::shared_ptr<const MappedTrace>
TraceArena::mapFor(const WorkloadSpec &Spec, const InputConfig &Input) {
  const std::string Key = keyOf(Spec, Input);
  MmapEntry *E = nullptr;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    std::unique_ptr<MmapEntry> &Slot = MmapEntries[Key];
    if (!Slot)
      Slot = std::make_unique<MmapEntry>();
    E = Slot.get();
  }
  std::call_once(E->Once, [&] { E->Trace = mapKey(Key, Spec, Input); });
  return E->Trace;
}

std::shared_ptr<const MappedTrace>
TraceArena::mapKey(const std::string &Key, const WorkloadSpec &Spec,
                   const InputConfig &Input) {
  namespace fs = std::filesystem;
  const std::string Path = cachePathOf(Key);
  MmapTraceStore &Store = MmapTraceStore::global();

  // Cache hit: map it, then verify the whole file up front (checksums +
  // checked decode, bounded by one block buffer).  A mapped stream must
  // never fail mid-replay on stale corruption -- the resident tier's
  // regenerate-on-mismatch guarantee carries over unchanged.
  const auto Serve = [&](bool Stored)
      -> std::shared_ptr<const MappedTrace> {
    std::string Error;
    std::shared_ptr<const MappedTrace> Trace = Store.open(Path, &Error);
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
                   "(%zu blocks) [mmap%s]\n",
                   Spec.Name.c_str(), Input.Name.c_str(),
                   static_cast<unsigned long long>(Trace->totalEvents()),
                   Trace->bytes(), Trace->numBlocks(),
                   Stored ? ", generated" : "");
    return Trace;
  };
  if (std::shared_ptr<const MappedTrace> Trace = Serve(/*Stored=*/false))
    return Trace;

  // Cache miss (or stale/corrupt file): stream-generate straight to an
  // aligned file -- the trace is never resident -- then map that.  Temp
  // name + rename keeps concurrent processes from seeing a partial file.
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
      return nullptr; // beyond SCT2 limits (or disk trouble): fallback
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

bool TraceArena::indexAndVerify(MaterializedTrace &Trace,
                                bool VerifyPayload) {
  const std::vector<uint8_t> &Image = Trace.Image;
  if (Image.size() < TraceV2HeaderBytes ||
      std::memcmp(Image.data(), "SCT2", 4) != 0)
    return false;
  Trace.NumSites = loadU32(Image.data() + 4);
  Trace.TotalEvents = loadU64(Image.data() + 8);
  Trace.MinGap = loadU32(Image.data() + 16);
  Trace.MaxGap = loadU32(Image.data() + 20);
  const uint32_t BlockEvents = loadU32(Image.data() + 24);
  if (BlockEvents == 0 || BlockEvents > (1u << 20))
    return false;

  Trace.Blocks.clear();
  Trace.EncodedBlockBytes = 0;
  uint64_t Indexed = 0;
  uint64_t InstRet = 0;
  std::vector<BranchEvent> Scratch;
  size_t Pos = TraceV2HeaderBytes;
  while (Pos < Image.size()) {
    if (Image.size() - Pos < TraceV2FrameBytes)
      return false;
    MaterializedTrace::BlockRef Ref;
    Ref.Events = loadU32(Image.data() + Pos);
    Ref.PayloadBytes = loadU32(Image.data() + Pos + 4);
    const uint64_t Checksum = loadU64(Image.data() + Pos + 8);
    Ref.PayloadOffset = Pos + TraceV2FrameBytes;
    if (Ref.Events == 0) {
      // Alignment pad frame: skip, index no block.  The sentinel and the
      // all-zero payload are required, so a corrupted real block (event
      // count flipped to zero) is rejected, never silently skipped.
      if (Checksum != TraceV2PadMagic ||
          Ref.PayloadBytes > TraceV2MaxPadBytes ||
          Ref.PayloadBytes > Image.size() - Ref.PayloadOffset)
        return false;
      const uint8_t *Pad = Image.data() + Ref.PayloadOffset;
      if (VerifyPayload &&
          std::any_of(Pad, Pad + Ref.PayloadBytes,
                      [](uint8_t B) { return B != 0; }))
        return false;
      Pos = Ref.PayloadOffset + Ref.PayloadBytes;
      continue;
    }
    if (Ref.Events > BlockEvents ||
        Ref.Events > Trace.TotalEvents - Indexed ||
        Ref.PayloadBytes > Image.size() - Ref.PayloadOffset)
      return false;
    if (VerifyPayload) {
      if (hash64(Image.data() + Ref.PayloadOffset, Ref.PayloadBytes) !=
          Checksum)
        return false;
      Scratch.resize(Ref.Events);
      if (!decodeTraceBlockPayload(Image.data() + Ref.PayloadOffset,
                                   Ref.PayloadBytes, Ref.Events,
                                   Trace.NumSites, Indexed, InstRet,
                                   Scratch.data()))
        return false;
    } else {
      Indexed += Ref.Events;
    }
    Trace.Blocks.push_back(Ref);
    Trace.EncodedBlockBytes += TraceV2FrameBytes + Ref.PayloadBytes;
    Pos = Ref.PayloadOffset + Ref.PayloadBytes;
  }
  return Indexed == Trace.TotalEvents;
}

std::shared_ptr<const MaterializedTrace>
TraceArena::loadFromDisk(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return nullptr;
  auto Trace = std::make_shared<MaterializedTrace>();
  In.seekg(0, std::ios::end);
  const std::streamoff Size = In.tellg();
  if (Size <= 0)
    return nullptr;
  In.seekg(0);
  Trace->Image.resize(static_cast<size_t>(Size));
  if (!In.read(reinterpret_cast<char *>(Trace->Image.data()), Size))
    return nullptr;
  // A cached file is untrusted input: verify every block checksum and
  // fully decode before serving it (a stale or corrupt cache must fall
  // through to regeneration, never into results).
  if (!indexAndVerify(*Trace, /*VerifyPayload=*/true))
    return nullptr;
  return Trace;
}

std::shared_ptr<const MaterializedTrace>
TraceArena::materializeKey(const std::string &Key, const WorkloadSpec &Spec,
                           const InputConfig &Input) {
  namespace fs = std::filesystem;
  const std::string Path = cachePathOf(Key);
  if (!Path.empty()) {
    if (std::shared_ptr<const MaterializedTrace> Trace = loadFromDisk(Path)) {
      {
        std::lock_guard<std::mutex> Lock(Mutex);
        ++Stats.DiskLoads;
        Stats.ResidentEvents += Trace->totalEvents();
        Stats.ResidentBytes += Trace->bytes();
      }
      if (Cfg.Verbose)
        std::fprintf(stderr,
                     "specctrl-arena: %s/%s: %llu events, %zu bytes "
                     "(%.2fx vs v1, %zu blocks) [disk]\n",
                     Spec.Name.c_str(), Input.Name.c_str(),
                     static_cast<unsigned long long>(Trace->totalEvents()),
                     Trace->bytes(), Trace->compressionVsV1(),
                     Trace->numBlocks());
      return Trace;
    }
  }

  auto Trace = std::make_shared<MaterializedTrace>();
  // Encoded events land near 2 B each; reserving ~3 B/event keeps the
  // image's growth to one allocation in practice.
  Trace->Image.reserve(TraceV2HeaderBytes + 3 * Input.Events);
  {
    VectorBuf Buf(Trace->Image);
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
  // Freshly-encoded blocks are trusted (the writer enforced the limits),
  // so indexing skips the redundant checksum/decode pass.
  const bool Indexed = indexAndVerify(*Trace, /*VerifyPayload=*/false);
  assert(Indexed && "fresh SCT2 image failed to index");
  if (!Indexed)
    return nullptr;

  bool Stored = false;
  if (!Path.empty()) {
    // Best-effort disk store: write to a temp name, then rename, so a
    // concurrent process never observes a half-written cache file.
    std::error_code EC;
    fs::create_directories(fs::path(Path).parent_path(), EC);
    const std::string Tmp =
        Path + ".tmp." + std::to_string(static_cast<uint64_t>(::getpid())) +
        "." + std::to_string(reinterpret_cast<uintptr_t>(this));
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (Out.write(reinterpret_cast<const char *>(Trace->Image.data()),
                  static_cast<std::streamsize>(Trace->Image.size()))) {
      Out.close();
      fs::rename(Tmp, Path, EC);
      Stored = !EC;
    }
    if (!Stored)
      fs::remove(Tmp, EC);
  }

  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Stats.Materializations;
    Stats.DiskStores += Stored;
    Stats.ResidentEvents += Trace->totalEvents();
    Stats.ResidentBytes += Trace->bytes();
  }
  if (Cfg.Verbose)
    std::fprintf(stderr,
                 "specctrl-arena: %s/%s: %llu events, %zu bytes "
                 "(%.2fx vs v1, %zu blocks) [generated%s]\n",
                 Spec.Name.c_str(), Input.Name.c_str(),
                 static_cast<unsigned long long>(Trace->totalEvents()),
                 Trace->bytes(), Trace->compressionVsV1(),
                 Trace->numBlocks(), Stored ? ", cached" : "");
  return Trace;
}

TraceArenaStats TraceArena::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Stats;
}
