//===- workload/MmapTraceStore.h - Zero-copy mmap trace store ---*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The path-keyed registry of mapped SCT2 trace files.  A mapped trace is
/// the same MaterializedTrace image the trace arena builds in memory (see
/// workload/TraceArena.h), backed by a read-only mapping of the file, and
/// it replays through the same ArenaReplaySource cursor: blocks decode
/// *in place* from the mapping, each verified (checksum + checked decode)
/// on its first touch in the process, with a block-granular madvise
/// window keeping the resident set bounded.  Nothing of the trace is
/// resident beyond the decode buffers and the kernel's page cache --
/// which is shared across every process replaying the same file, so a
/// multi-process sweep pays the trace's I/O once, not once per worker.
///
/// The registry lets every consumer of the same file in a process share
/// one mapping (and one verification bitmap).
///
/// Files in the page-aligned layout (TraceWriterV2 with AlignBytes, or
/// `specctrl-trace --migrate --align`) start every block frame on a page
/// boundary, making the madvise window exact; packed files work
/// identically with page-rounded advice.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_WORKLOAD_MMAPTRACESTORE_H
#define SPECCTRL_WORKLOAD_MMAPTRACESTORE_H

#include "workload/TraceArena.h"

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace specctrl {
namespace workload {

/// Store accounting (snapshot via MmapTraceStore::stats()).
struct MmapTraceStoreStats {
  uint64_t Opens = 0;       ///< cursor/mapping requests served
  uint64_t Mmaps = 0;       ///< files actually mapped (cache misses)
  uint64_t MappedBytes = 0; ///< cumulative bytes of file mapped
  uint64_t Failures = 0;    ///< open attempts rejected
};

/// Process-wide path-keyed registry of mapped traces.  Entries are weak: a
/// mapping unmaps when its last cursor drops, and a later open remaps it.
class MmapTraceStore {
public:
  /// The process-wide instance.
  static MmapTraceStore &global();

  MmapTraceStore() = default;
  MmapTraceStore(const MmapTraceStore &) = delete;
  MmapTraceStore &operator=(const MmapTraceStore &) = delete;

  /// The shared mapping for \p Path, mapping it on first use.  Returns
  /// nullptr (reason in \p Error) on structural rejection.
  std::shared_ptr<const MaterializedTrace>
  open(const std::string &Path, std::string *Error = nullptr);

  /// Convenience: a replay cursor over open(Path).
  std::unique_ptr<ArenaReplaySource>
  openCursor(const std::string &Path, std::string *Error = nullptr);

  /// Drops the registry entry for \p Path so the next open remaps the
  /// file (used after rewriting a corrupt cache file in place: live
  /// cursors keep the old mapping, new opens see the new bytes).
  void invalidate(const std::string &Path);

  MmapTraceStoreStats stats() const;

private:
  mutable std::mutex Mutex;
  std::unordered_map<std::string, std::weak_ptr<const MaterializedTrace>>
      Entries;
  mutable MmapTraceStoreStats Stats; ///< guarded by Mutex
};

} // namespace workload
} // namespace specctrl

#endif // SPECCTRL_WORKLOAD_MMAPTRACESTORE_H
