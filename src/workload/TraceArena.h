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
/// An optional disk tier (Config::CacheDir) persists materializations as
/// ordinary v2 trace files, so repeated tool invocations amortize the same
/// way sweep cells do.  Cached files are fully checksum-verified on load
/// and regenerated on any mismatch.
///
/// When the disk tier is active (and SPECCTRL_TRACE_MMAP has not disabled
/// it), open() serves cache hits through the zero-copy mmap store
/// (workload/MmapTraceStore.h) instead of reloading the file into memory:
/// cursors decode blocks in place from a read-only mapping the kernel
/// shares across every process replaying the same file, and cache misses
/// stream-generate straight to a page-aligned file and map it -- the trace
/// is never resident at all.  The mapped file is fully verified (checksums
/// + checked decode, bounded by one block buffer) before it is served, so
/// the corrupt-cache-regenerates guarantee is unchanged.  materialize()
/// keeps the resident image semantics for callers that need the bytes.
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

class MappedTrace;

/// Arena accounting (snapshot via TraceArena::stats()).
struct TraceArenaStats {
  uint64_t Materializations = 0; ///< traces generated from the model
  uint64_t DiskLoads = 0;        ///< traces loaded resident from disk
  uint64_t DiskStores = 0;       ///< traces written to the disk tier
  uint64_t CursorOpens = 0;      ///< replay cursors handed out
  uint64_t Fallbacks = 0;        ///< opens served by a private generator
  uint64_t ResidentEvents = 0;   ///< events materialized in memory
  uint64_t ResidentBytes = 0;    ///< encoded bytes resident in memory
  uint64_t MmapLoads = 0;        ///< keys served zero-copy from a cache hit
  uint64_t MmapStores = 0;       ///< keys stream-generated to disk for mmap
  uint64_t MappedBytes = 0;      ///< file bytes served via the mmap tier
  /// materialize() calls that found their key cold and waited on another
  /// thread's materialization of it instead of running their own.
  uint64_t BlockedOpens = 0;
  double BlockedSeconds = 0.0; ///< total wait of the BlockedOpens
};

/// One immutable materialized trace: the full SCT2 file image plus a block
/// index for sequential zero-copy decode.  Blocks were checksum-verified
/// and fully decoded once at materialization time, so cursors skip both.
class MaterializedTrace {
public:
  uint32_t numSites() const { return NumSites; }
  uint64_t totalEvents() const { return TotalEvents; }
  uint32_t minGap() const { return MinGap; }
  uint32_t maxGap() const { return MaxGap; }
  /// Encoded size (header + blocks).
  size_t bytes() const { return Image.size(); }
  size_t numBlocks() const { return Blocks.size(); }
  /// Compression achieved vs the 4 B/event v1 encoding.
  double compressionVsV1() const;

private:
  friend class TraceArena;
  friend class ArenaReplaySource;

  struct BlockRef {
    uint32_t Events = 0;       ///< events in this block
    uint32_t PayloadBytes = 0; ///< encoded payload size
    size_t PayloadOffset = 0;  ///< payload start within Image
  };

  std::vector<uint8_t> Image; ///< full SCT2 file image
  std::vector<BlockRef> Blocks;
  uint32_t NumSites = 0;
  uint64_t TotalEvents = 0;
  uint32_t MinGap = 0;
  uint32_t MaxGap = 0;
  uint64_t EncodedBlockBytes = 0; ///< framing + payload (header excluded)
};

/// A replay cursor over one materialized trace: an EventSource whose
/// stream is bit-identical to the generator's.  Cursors are independent
/// (each holds only its own decode position), so any number can replay the
/// same trace concurrently; whole blocks are decoded directly into the
/// caller's batch buffer whenever it has room for them.
class ArenaReplaySource final : public EventSource {
public:
  explicit ArenaReplaySource(std::shared_ptr<const MaterializedTrace> Trace);

  bool next(BranchEvent &Event) override;
  size_t nextBatch(std::span<BranchEvent> Buffer) override;

  /// Restarts the stream from the beginning.
  void reset();

  const MaterializedTrace &trace() const { return *Trace; }

private:
  /// Decodes block \p B into \p Out (capacity >= its event count),
  /// advancing the Index/InstRet reconstruction counters.
  void decodeBlock(size_t B, BranchEvent *Out);

  std::shared_ptr<const MaterializedTrace> Trace;
  size_t NextBlock = 0;
  uint64_t NextIndex = 0;
  uint64_t InstRet = 0;
  /// Partial-consumption staging: filled when the caller's buffer cannot
  /// hold the next whole block.
  std::vector<BranchEvent> Staged;
  size_t StagedPos = 0;
};

/// The materialize-once store.  Keyed by an injective serialization of
/// (WorkloadSpec, InputConfig) -- every field that can influence the
/// generated stream, seeds included -- so distinct runs never alias.
class TraceArena {
public:
  struct Config {
    /// Disk tier directory; empty disables the tier.  Misses fall back to
    /// reading/writing ordinary v2 trace files named by the key hash.
    std::string CacheDir;
    /// Events per SCT2 block (default matches the pipeline chunk size).
    uint32_t BlockEvents = TraceV2BlockEvents;
    /// Log materializations (events, encoded bytes, per-block compression
    /// ratio, tier) to stderr.  Also enabled by SPECCTRL_ARENA_VERBOSE=1 (RunConfig).
    bool Verbose = false;
    /// Serve disk-tier opens through the zero-copy mmap store.  Effective
    /// only with a CacheDir, and also gated by SPECCTRL_TRACE_MMAP
    /// (RunConfig::TraceMmap) so one env knob disables the tier fleetwide.
    bool UseMmap = true;
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
  struct MmapEntry {
    std::once_flag Once;
    std::shared_ptr<const MappedTrace> Trace; ///< null = not mmap-servable
  };

  /// Injective byte-string key over every stream-relevant field.
  static std::string keyOf(const WorkloadSpec &Spec,
                           const InputConfig &Input);

  std::shared_ptr<const MaterializedTrace>
  materializeKey(const std::string &Key, const WorkloadSpec &Spec,
                 const InputConfig &Input);
  std::shared_ptr<const MaterializedTrace>
  loadFromDisk(const std::string &Path);
  /// The disk-tier cache file path for \p Key (empty without a CacheDir).
  std::string cachePathOf(const std::string &Key) const;
  /// True when opens should try the zero-copy mmap tier.
  bool mmapEnabled() const;
  /// The shared mapping for (Spec, Input) -- mapping the cache file on a
  /// hit, stream-generating an aligned file and mapping it on a miss.
  /// Returns nullptr when the key cannot be served via mmap (unencodable
  /// trace, disk failure); the caller falls back to the resident path.
  std::shared_ptr<const MappedTrace> mapFor(const WorkloadSpec &Spec,
                                            const InputConfig &Input);
  std::shared_ptr<const MappedTrace> mapKey(const std::string &Key,
                                            const WorkloadSpec &Spec,
                                            const InputConfig &Input);
  /// Indexes and validates the SCT2 image in Trace->Image (checksums +
  /// full decode).  Returns false on any inconsistency.
  static bool indexAndVerify(MaterializedTrace &Trace, bool VerifyPayload);

  Config Cfg;
  mutable std::mutex Mutex;
  std::unordered_map<std::string, std::unique_ptr<Entry>> Entries;
  std::unordered_map<std::string, std::unique_ptr<MmapEntry>> MmapEntries;
  TraceArenaStats Stats; ///< guarded by Mutex
};

} // namespace workload
} // namespace specctrl

#endif // SPECCTRL_WORKLOAD_TRACEARENA_H
