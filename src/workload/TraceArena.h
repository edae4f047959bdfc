//===- workload/TraceArena.h - Materialize-once trace store -----*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide, thread-safe, generate-once store for materialized branch
/// traces.  Parameter sweeps (Tables 3/4, Figs. 5/6) replay the identical
/// (workload, input) event stream under many controller configurations;
/// without the arena every sweep cell re-synthesizes that stream from the
/// statistical model, so sweep wall time scales with configurations x
/// synthesis cost.  The arena materializes each trace exactly once -- in
/// the compact SCT2 block encoding -- and hands out independent zero-copy
/// ArenaReplaySource cursors that decode blocks straight into the caller's
/// batch buffer, making sweeps scale with configurations x replay cost.
///
/// Guarantees:
///  * Stream identity -- a cursor's event stream is bit-identical to the
///    TraceGenerator stream for the same (spec, input), including Index and
///    InstRet (the SCT2 round-trip property; pinned by TraceArenaTest).
///  * Generate-once under concurrency -- the first thread to request a key
///    materializes under a per-key std::call_once; racing threads block on
///    that key only, then share the immutable encoded trace.  Those waits
///    are counted (TraceArenaStats::BlockedOpens/BlockedSeconds); a warm
///    hit reads no clock.
///  * Graceful fallback -- a trace that cannot be encoded (site or gap
///    beyond the SCT2 format limits) is served by a private TraceGenerator
///    instead, so callers never need a non-arena code path for
///    correctness.
///
/// One SCT2 image type and one cursor serve every replay:
///  * MaterializedTrace -- the SCT2 image: header facts, a block index
///    built by one structural walk, and a shared first-touch verification
///    bitmap.  It is backed either by owned bytes (written by
///    TraceWriterV2 here; every block verified when built) or by a
///    read-only mapping of a file (workload/MmapTraceStore.h; each block
///    checksummed and check-decoded on its first touch, or all at once by
///    verifyAllBlocks()).
///  * ArenaReplaySource -- the cursor: whole-block decode into the
///    caller's buffer, first-touch verification with failed()/error(),
///    and, for mapped images only, a block-granular madvise window.
///
/// Without Config::CacheDir the arena materializes owned bytes.  With one
/// it maps the key's cache file instead: a hit is fully verified before it
/// is served, and a miss (or a stale or corrupt file) stream-generates a
/// page-aligned file, renames it into place and maps it -- so the trace is
/// never resident beyond the kernel's page cache, which every process
/// replaying the same file shares.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_WORKLOAD_TRACEARENA_H
#define SPECCTRL_WORKLOAD_TRACEARENA_H

#include "workload/TraceFile.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace specctrl {
namespace workload {

/// Arena accounting (snapshot via TraceArena::stats()).
struct TraceArenaStats {
  uint64_t Materializations = 0; ///< traces generated into owned bytes
  uint64_t CursorOpens = 0;      ///< replay cursors handed out
  uint64_t Fallbacks = 0;        ///< opens served by a private generator
  uint64_t ResidentEvents = 0;   ///< events of owned images
  uint64_t ResidentBytes = 0;    ///< encoded bytes of owned images
  uint64_t MmapLoads = 0;        ///< keys served from a verified cache hit
  uint64_t MmapStores = 0;       ///< keys stream-generated to disk and mapped
  uint64_t MappedBytes = 0;      ///< file bytes of mapped images
  /// materialize() calls that found their key cold and waited on another
  /// thread's materialization of it instead of running their own.
  uint64_t BlockedOpens = 0;
  double BlockedSeconds = 0.0; ///< total wait of the BlockedOpens
};

/// One immutable SCT2 image with its block index, shared (shared_ptr) by
/// every cursor replaying it.
class MaterializedTrace {
public:
  /// Maps \p Path read-only and indexes it.  No payload is verified here
  /// (blocks are verified on first touch), but framing is: returns
  /// nullptr, with the reason in \p Error when non-null, on any
  /// structural problem (bad magic or header, truncated or misframed
  /// blocks, malformed pads).  The pages the walk faulted are dropped
  /// again, so an opened trace holds only its index resident.
  static std::shared_ptr<const MaterializedTrace>
  map(const std::string &Path, std::string *Error = nullptr);

  ~MaterializedTrace();
  MaterializedTrace(const MaterializedTrace &) = delete;
  MaterializedTrace &operator=(const MaterializedTrace &) = delete;

  uint32_t numSites() const { return Header.NumSites; }
  uint64_t totalEvents() const { return Header.TotalEvents; }
  uint32_t minGap() const { return Header.MinGap; }
  uint32_t maxGap() const { return Header.MaxGap; }
  /// Image size (header + blocks + pads).
  size_t bytes() const { return Len; }
  size_t numBlocks() const { return Blocks.size(); }
  /// Block framing + payload bytes; bytes() minus this minus the header
  /// is pure alignment padding.
  uint64_t encodedBlockBytes() const { return EncodedBlockBytes; }
  /// Compression achieved vs the 4 B/event v1 encoding.
  double compressionVsV1() const;
  /// True for a file mapping, false for owned bytes.
  bool mapped() const { return Mapped; }
  /// True once every block has passed verification in this process
  /// (replays after that run entirely on the trusted SWAR path).
  bool fullyVerified() const;

  /// Verifies every not-yet-verified block up front (checksum + fully
  /// checked decode into a scratch buffer), so replay runs entirely on
  /// the trusted path.  Resident cost is one block buffer; a mapped scan
  /// drops the pages it has passed.  Returns false on the first rejected
  /// block -- the trace arena then regenerates its cache file rather than
  /// serve a stream that would fail mid-replay.
  bool verifyAllBlocks() const;

private:
  friend class ArenaReplaySource;
  friend class TraceArena;

  MaterializedTrace() = default;

  /// Indexes an image TraceWriterV2 just produced and takes ownership of
  /// it; every block counts as verified.  Returns nullptr if the image
  /// does not index.
  static std::shared_ptr<const MaterializedTrace>
  adopt(std::vector<uint8_t> Image);

  struct BlockRef {
    uint32_t Events = 0;        ///< events in this block
    uint32_t PayloadBytes = 0;  ///< encoded payload size
    uint64_t PayloadOffset = 0; ///< payload start within the image
    uint64_t Checksum = 0;      ///< frame's XXH64, verified on first touch
  };

  /// The structural index walk over [Base, Base + Len): header, then every
  /// frame through checkTraceV2Frame.  Returns false with the reason in
  /// \p Error.
  bool index(std::string &Error);

  bool isVerified(size_t B) const {
    return Verified[B >> 3].load(std::memory_order_acquire) &
           (1u << (B & 7));
  }
  void setVerified(size_t B) const {
    Verified[B >> 3].fetch_or(static_cast<uint8_t>(1u << (B & 7)),
                              std::memory_order_release);
  }
  /// Checksums and check-decodes block \p B into \p Out, advancing the
  /// reconstruction counters; returns the reason for a rejection, or
  /// nullptr (and marks the block verified).
  const char *verifyBlock(size_t B, uint64_t &NextIndex, uint64_t &InstRet,
                          BranchEvent *Out) const;

  /// Page-rounded madvise over image byte range [Begin, End); a no-op for
  /// owned images.
  void advise(uint64_t Begin, uint64_t End, int Advice) const;

  std::vector<uint8_t> Owned; ///< the image, when not mapped
  const uint8_t *Base = nullptr;
  size_t Len = 0;
  bool Mapped = false;
  std::vector<BlockRef> Blocks;
  /// Shared verification bitmap (one bit per block).  Mutable state of an
  /// immutable trace: it only ever transitions unverified -> verified, and
  /// a redundant re-verification is harmless, so racing cursors need no
  /// stronger coordination.
  std::unique_ptr<std::atomic<uint8_t>[]> Verified;
  TraceV2Header Header;
  uint64_t EncodedBlockBytes = 0; ///< framing + payload (pads excluded)
  long PageSize = 4096;
};

/// A replay cursor over one MaterializedTrace: an EventSource whose stream
/// is bit-identical to the generator's (for an arena key) and to
/// TraceFileReader over the same file.  Cursors are independent (each
/// holds only its own decode position), so any number can replay the same
/// image concurrently; whole blocks are decoded directly into the caller's
/// batch buffer whenever it has room for them.  On corruption the cursor
/// fails like the file reader: failed()/error() report it and no event of
/// the bad block is delivered.
class ArenaReplaySource final : public EventSource {
public:
  explicit ArenaReplaySource(std::shared_ptr<const MaterializedTrace> Trace);

  bool next(BranchEvent &Event) override;
  size_t nextBatch(std::span<BranchEvent> Buffer) override;

  /// Restarts the stream from the beginning (clears any failure).
  void reset();

  /// True if a block was rejected (checksum mismatch or malformed
  /// encoding); error() carries the message.
  bool failed() const { return !Error.empty(); }
  const std::string &error() const { return Error; }

  const MaterializedTrace &trace() const { return *Trace; }

  /// Blocks of WILLNEED read-ahead issued ahead of a mapped cursor.
  static constexpr size_t PrefetchAheadBlocks = 8;
  /// Blocks kept mapped behind the cursor before DONTNEED drops them.
  static constexpr size_t RetainBehindBlocks = 2;

private:
  /// Decodes block \p B into \p Out (capacity >= its event count),
  /// verifying it first on the process's first touch.  Returns false (and
  /// fails the cursor) on rejection.
  bool decodeBlock(size_t B, BranchEvent *Out);
  /// Issues the madvise window around the cursor at block \p B.
  void adviseAround(size_t B);

  std::shared_ptr<const MaterializedTrace> Trace;
  size_t NextBlock = 0;
  uint64_t NextIndex = 0;
  uint64_t InstRet = 0;
  std::string Error;
  /// Partial-consumption staging: filled when the caller's buffer cannot
  /// hold the next whole block.
  std::vector<BranchEvent> Staged;
  size_t StagedPos = 0;
  /// High-water mark of pages already dropped behind the cursor.
  uint64_t DroppedBelow = 0;
};

/// The materialize-once store.  Keyed by an injective serialization of
/// (WorkloadSpec, InputConfig) -- every field that can influence the
/// generated stream, seeds included -- so distinct runs never alias.
class TraceArena {
public:
  struct Config {
    /// Cache directory; empty keeps every trace in owned memory.  With a
    /// directory, each key is served by mapping its SCT2 cache file
    /// (named by the key hash), generated there on a miss.
    std::string CacheDir;
    /// Events per SCT2 block (default matches the pipeline chunk size).
    uint32_t BlockEvents = TraceV2BlockEvents;
    /// Log materializations (events, encoded bytes, per-block compression
    /// ratio, backing) to stderr.  Also enabled by SPECCTRL_ARENA_VERBOSE=1
    /// (RunConfig).
    bool Verbose = false;
  };

  TraceArena();
  explicit TraceArena(Config C);
  TraceArena(const TraceArena &) = delete;
  TraceArena &operator=(const TraceArena &) = delete;

  /// Returns a replay cursor for (Spec, Input), materializing the trace on
  /// first use.  Thread-safe; concurrent opens of a cold key block until
  /// the single materialization finishes.  When the trace cannot be
  /// encoded, returns a private TraceGenerator instead (identical stream,
  /// no sharing).
  std::unique_ptr<EventSource> open(const WorkloadSpec &Spec,
                                    const InputConfig &Input);

  /// The materialized trace for (Spec, Input), or nullptr when the trace
  /// cannot be encoded.  Same thread-safety as open().
  std::shared_ptr<const MaterializedTrace>
  materialize(const WorkloadSpec &Spec, const InputConfig &Input);

  TraceArenaStats stats() const;

private:
  struct Entry {
    std::once_flag Once;
    /// Set once Trace is final: the warm path skips call_once.
    std::atomic<bool> Ready{false};
    std::shared_ptr<const MaterializedTrace> Trace; ///< null = fallback key
  };

  /// Injective byte-string key over every stream-relevant field.
  static std::string keyOf(const WorkloadSpec &Spec,
                           const InputConfig &Input);

  std::shared_ptr<const MaterializedTrace>
  materializeKey(const std::string &Key, const WorkloadSpec &Spec,
                 const InputConfig &Input);
  /// Generates (Spec, Input) into an owned image; nullptr when the trace
  /// is beyond the SCT2 limits.
  std::shared_ptr<const MaterializedTrace>
  generateOwned(const WorkloadSpec &Spec, const InputConfig &Input);
  /// The verified mapping of \p Key's cache file, generating the file on
  /// a miss or after a rejected hit.  nullptr when the key cannot be
  /// served from disk (unencodable trace, disk failure).
  std::shared_ptr<const MaterializedTrace>
  mapCached(const std::string &Key, const WorkloadSpec &Spec,
            const InputConfig &Input);
  /// The cache file path for \p Key.
  std::string cachePathOf(const std::string &Key) const;

  Config Cfg;
  mutable std::mutex Mutex;
  std::unordered_map<std::string, std::unique_ptr<Entry>> Entries;
  TraceArenaStats Stats; ///< guarded by Mutex
};

} // namespace workload
} // namespace specctrl

#endif // SPECCTRL_WORKLOAD_TRACEARENA_H
