//===- workload/MmapTraceStore.cpp - Zero-copy mmap trace store -----------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "workload/MmapTraceStore.h"

#include <filesystem>

using namespace specctrl;
using namespace specctrl::workload;

namespace {

/// Registry key: the canonical path, so aliases of one file share a
/// mapping.
std::string keyOf(const std::string &Path) {
  std::error_code EC;
  std::string Key = std::filesystem::weakly_canonical(Path, EC).string();
  return EC || Key.empty() ? Path : Key;
}

} // namespace

MmapTraceStore &MmapTraceStore::global() {
  static MmapTraceStore Store;
  return Store;
}

std::shared_ptr<const MaterializedTrace>
MmapTraceStore::open(const std::string &Path, std::string *Error) {
  const std::string Key = keyOf(Path);
  std::lock_guard<std::mutex> Lock(Mutex);
  ++Stats.Opens;
  if (auto Existing = Entries[Key].lock())
    return Existing;
  std::shared_ptr<const MaterializedTrace> Trace =
      MaterializedTrace::map(Path, Error);
  if (!Trace) {
    ++Stats.Failures;
    return nullptr;
  }
  Entries[Key] = Trace;
  ++Stats.Mmaps;
  Stats.MappedBytes += Trace->bytes();
  return Trace;
}

std::unique_ptr<ArenaReplaySource>
MmapTraceStore::openCursor(const std::string &Path, std::string *Error) {
  std::shared_ptr<const MaterializedTrace> Trace = open(Path, Error);
  if (!Trace)
    return nullptr;
  return std::make_unique<ArenaReplaySource>(std::move(Trace));
}

void MmapTraceStore::invalidate(const std::string &Path) {
  const std::string Key = keyOf(Path);
  std::lock_guard<std::mutex> Lock(Mutex);
  Entries.erase(Key);
}

MmapTraceStoreStats MmapTraceStore::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Stats;
}
