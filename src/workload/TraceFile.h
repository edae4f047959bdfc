//===- workload/TraceFile.h - Binary trace record/replay --------*- C++ -*-===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compact binary recording and replay of branch-event traces, the
/// real-system workflow of trace-driven studies: record a run once, then
/// replay it against any number of controller configurations without
/// paying generation cost (or needing the workload's seeds at all).
///
/// Two on-disk formats:
///
///  * "SCT1" (v1): a 24-byte header (magic, site count, event count,
///    min/max gap) followed by one 32-bit word per event
///    (site:24 | taken:1 | gap:7).
///
///  * "SCT2" (v2): the same header fields plus a block-events count,
///    followed by independently-decodable blocks.  Each block frames up to
///    BlockEvents events as {u32 event count, u32 payload bytes, u64
///    XXH64 payload checksum, payload}; the payload stores one event as a
///    zigzag-varint site delta (from the previous event in the block) plus
///    a packed taken/gap byte.  Blocks feed the batched replay path
///    directly (one checksum + decode per chunk), and a corrupted or
///    truncated block is rejected whole: no event of a bad block is ever
///    delivered to observers.
///
/// Event index and cumulative instruction counts are reconstructed during
/// replay, so a replayed stream is bit-identical to the recorded one in
/// either format.
///
//===----------------------------------------------------------------------===//

#ifndef SPECCTRL_WORKLOAD_TRACEFILE_H
#define SPECCTRL_WORKLOAD_TRACEFILE_H

#include "workload/TraceGenerator.h"

#include <iosfwd>
#include <string>
#include <vector>

namespace specctrl {
namespace workload {

/// Hard limits of the on-disk formats.
struct TraceFileLimits {
  static constexpr uint32_t MaxSite = (1u << 24) - 1;
  static constexpr uint32_t MaxGap = (1u << 7) - 1;
};

/// Default events per v2 block (matches the pipeline's chunk size so one
/// block decode fills one arena buffer).
inline constexpr uint32_t TraceV2BlockEvents = 4096;

/// SCT2 fixed-layout sizes, shared by every component that walks the
/// format directly (TraceFileReader, MaterializedTrace).
/// Header: magic + sites + total events + min/max gap + block events.
inline constexpr size_t TraceV2HeaderBytes = 4 + 4 + 8 + 4 + 4 + 4;
/// Per-block frame: event count + payload bytes + XXH64 checksum.
inline constexpr size_t TraceV2FrameBytes = 4 + 4 + 8;
/// Default alignment for mmap-friendly files: each block frame starts on
/// a page boundary (pad frames fill the gaps), so block-granular madvise
/// and in-place decode never straddle an unrelated block's pages.
inline constexpr uint32_t TraceV2AlignBytes = 4096;

/// A v2 frame whose event count is zero is a *pad frame*: PayloadBytes of
/// zeros carrying no events.  Writers emit pads to page-align block
/// frames; every reader skips them.  Pre-alignment files never contain
/// pads, so the extension is backward compatible.  A pad's checksum field
/// holds TraceV2PadMagic and its payload must be all zeros -- both are
/// verified on read, so a bit flip that zeroes a real block's event count
/// (or corrupts a pad into a block) is still rejected, never skipped.
inline constexpr uint32_t TraceV2MaxPadBytes = 1u << 20;
/// "SCT2PAD\0", little-endian: the sentinel a pad frame stores where a
/// block frame stores its XXH64 payload checksum.
inline constexpr uint64_t TraceV2PadMagic = 0x0044415032544353ull;

/// The SCT2 file header (everything after the magic).
struct TraceV2Header {
  uint32_t NumSites = 0;
  uint64_t TotalEvents = 0;
  uint32_t MinGap = 0;
  uint32_t MaxGap = 0;
  uint32_t BlockEvents = 0; ///< max events per block
};

/// One SCT2 frame header: a block of events, or an alignment pad.
struct TraceV2Frame {
  uint32_t Events = 0;       ///< 0 marks a pad frame
  uint32_t PayloadBytes = 0; ///< bytes following the frame header
  uint64_t Checksum = 0;     ///< payload XXH64, or TraceV2PadMagic for a pad
  bool isPad() const { return Events == 0; }
};

/// Parses the TraceV2HeaderBytes at \p P, magic included.  Returns false
/// when the magic is not "SCT2" or the block size is out of range.
bool parseTraceV2Header(const uint8_t *P, TraceV2Header &Out);

/// Reads the TraceV2FrameBytes at \p P (no validation).
TraceV2Frame readTraceV2Frame(const uint8_t *P);

/// The SCT2 frame validator every reader goes through (the streaming
/// TraceFileReader and the MaterializedTrace index walk), so framing is
/// decided in one place.  Returns nullptr when \p F may follow
/// \p EventsSoFar (<= H.TotalEvents) events of a trace with header \p H,
/// else the reason:
///  * a pad needs the TraceV2PadMagic sentinel, at most TraceV2MaxPadBytes
///    of payload and, when \p PadPayload is non-null, all-zero payload
///    bytes (a streaming reader checks the frame before reading the
///    payload, then again with it);
///  * a block holds at most H.BlockEvents events and no more than remain,
///    in a payload of [2, 6] bytes per event (the shortest and longest
///    event encodings).
const char *checkTraceV2Frame(const TraceV2Header &H, uint64_t EventsSoFar,
                              const TraceV2Frame &F,
                              const uint8_t *PadPayload = nullptr);

/// Drains \p Gen to \p OS in SCT1 format.  Returns the number of events
/// written, or 0 on failure (an event exceeded the format limits or the
/// stream went bad).
uint64_t writeTrace(std::ostream &OS, TraceGenerator &Gen);

/// Decodes one SCT2 block payload of \p EventCount events into \p Out
/// (capacity >= EventCount), reconstructing Index/InstRet from the running
/// counters, which are committed only when the whole block decodes cleanly.
/// Returns false on malformed encoding, out-of-range site, or trailing
/// payload bytes -- the all-or-nothing block contract shared by
/// TraceFileReader and the in-memory trace arena.
bool decodeTraceBlockPayload(const uint8_t *Payload, size_t PayloadBytes,
                             uint32_t EventCount, uint32_t NumSites,
                             uint64_t &NextIndex, uint64_t &InstRet,
                             BranchEvent *Out);

/// Validation-free variant of decodeTraceBlockPayload for payloads already
/// proven well-formed (ArenaReplaySource: owned images come straight from
/// TraceWriterV2, and a mapped block is checksummed and check-decoded on
/// its first touch before any trusted decode).  Same event reconstruction, no bounds or range checks,
/// cannot fail; the payload size only delimits the encoded bytes and is
/// never re-validated.  Implementation is the SWAR batch decoder: four
/// events per 8-byte load on the 1-byte varint fast path, falling back to
/// the scalar step per event when a wide site delta breaks the lane
/// layout (the scalar loop remains available below as the benchmark
/// baseline).
void decodeTraceBlockPayloadTrusted(const uint8_t *Payload,
                                    size_t PayloadBytes, uint32_t EventCount,
                                    uint64_t &NextIndex, uint64_t &InstRet,
                                    BranchEvent *Out);

/// The pre-SWAR scalar trusted decoder (branchless 1/2-byte fast path, one
/// event per iteration).  Bit-identical output to the SWAR decoder; kept
/// as the `bench/trace_decode` baseline and as the portability fallback.
void decodeTraceBlockPayloadTrustedScalar(const uint8_t *Payload,
                                          size_t PayloadBytes,
                                          uint32_t EventCount,
                                          uint64_t &NextIndex,
                                          uint64_t &InstRet, BranchEvent *Out);

/// Streaming SCT2 writer: construct with the header facts, append event
/// chunks (any chunking -- block framing is internal), then finish().
/// With \p AlignBytes nonzero every block frame is preceded by a pad
/// frame sized to start it on an AlignBytes boundary (the mmap-friendly
/// layout; see TraceV2AlignBytes).
class TraceWriterV2 {
public:
  TraceWriterV2(std::ostream &OS, uint32_t NumSites, uint64_t TotalEvents,
                uint32_t MinGap, uint32_t MaxGap,
                uint32_t BlockEvents = TraceV2BlockEvents,
                uint32_t AlignBytes = 0);

  /// Appends events to the current block, flushing full blocks.  Returns
  /// false if an event exceeded format limits or the stream went bad.
  bool append(std::span<const BranchEvent> Events);

  /// Flushes the final partial block.  Returns overall success.
  bool finish();

  uint64_t eventsWritten() const { return Written; }
  /// Block bytes emitted so far (framing + payload, header excluded;
  /// alignment pads are accounted separately in padBytes()).
  uint64_t encodedBytes() const { return EncodedBytes; }
  uint64_t blocksWritten() const { return Blocks; }
  /// Alignment pad bytes emitted so far (frames + zero payloads).
  uint64_t padBytes() const { return PadBytes; }
  /// Compression achieved vs the 4 B/event v1 encoding, averaged over the
  /// blocks written so far (e.g. 2.0 = half the bytes).
  double compressionVsV1() const {
    return EncodedBytes ? 4.0 * static_cast<double>(Written) /
                              static_cast<double>(EncodedBytes)
                        : 0.0;
  }

private:
  void flushBlock();

  std::ostream &OS;
  uint32_t BlockEvents;
  uint32_t AlignBytes;            ///< 0 = packed layout (no pad frames)
  std::vector<uint8_t> Payload;   ///< worst-case-sized block encode buffer
  size_t PayloadBytes = 0;        ///< encoded bytes in the current block
  uint32_t BlockCount = 0;        ///< events in the current block
  uint32_t PrevSite = 0;          ///< delta base within the current block
  uint64_t Written = 0;
  uint64_t EncodedBytes = 0;
  uint64_t PadBytes = 0;
  uint64_t Offset = 0;            ///< stream bytes emitted (header included)
  uint64_t Blocks = 0;
  bool Ok = true;
};

/// Drains \p Gen to \p OS in SCT2 format via the batched generator path.
/// Returns events written, or 0 on failure.  Nonzero \p AlignBytes emits
/// the pad-framed mmap-friendly layout.
uint64_t writeTraceV2(std::ostream &OS, TraceGenerator &Gen,
                      uint32_t BlockEvents = TraceV2BlockEvents,
                      uint32_t AlignBytes = 0);

/// Streams a recorded trace (either format, auto-detected) back as
/// BranchEvents.  The batched nextBatch path decodes v2 one whole
/// (checksum-verified) block at a time.
class TraceFileReader : public EventSource {
public:
  /// Binds to \p IS and parses the header; valid() reports success.
  explicit TraceFileReader(std::istream &IS);

  bool valid() const { return Valid; }
  /// Format version (1 or 2); meaningful when valid().
  unsigned version() const { return Version; }
  uint32_t numSites() const { return Header.NumSites; }
  uint64_t totalEvents() const { return Header.TotalEvents; }
  uint32_t minGap() const { return Header.MinGap; }
  uint32_t maxGap() const { return Header.MaxGap; }

  /// Produces the next event; false at end or on any error (which
  /// truncated()/failed() then distinguish).
  bool next(BranchEvent &Event) override;

  /// Bulk decode into \p Buffer; same stream as repeated next().
  size_t nextBatch(std::span<BranchEvent> Buffer) override;

  /// True if the stream ended before totalEvents() were read.
  bool truncated() const { return Truncated; }
  /// True if the trace payload was rejected (checksum mismatch, bad
  /// encoding, out-of-range site).  error() carries the message.
  bool failed() const { return !Error.empty(); }
  const std::string &error() const { return Error; }

private:
  bool refillBlock();
  void fail(const std::string &Message);

  std::istream &IS;
  bool Valid = false;
  bool Truncated = false;
  unsigned Version = 1;
  std::string Error;
  TraceV2Header Header; ///< both versions (BlockEvents is v2 only)
  uint64_t NextIndex = 0;
  uint64_t InstRet = 0;
  // v2 staging: the current verified, decoded block.
  std::vector<BranchEvent> Block;
  size_t BlockPos = 0;
  std::vector<uint8_t> Payload; ///< reused block read buffer
};

/// Encoding accounting of one migration (optional out-param).
struct TraceMigrateStats {
  uint64_t Events = 0;       ///< events rewritten
  uint64_t Blocks = 0;       ///< v2 blocks emitted
  uint64_t EncodedBytes = 0; ///< block bytes (framing + payload)
  uint64_t PadBytes = 0;     ///< alignment pad bytes (aligned layout only)
  /// Compression vs the 4 B/event v1 encoding (per-block average).
  double CompressionVsV1 = 0.0;
};

/// Reads a trace in either format from \p In and rewrites it as SCT2 to
/// \p Out.  Returns events migrated, or 0 on failure (invalid, truncated,
/// or corrupt input; write error).  \p Stats, when non-null, receives the
/// encoding accounting of a successful migration.  Nonzero \p AlignBytes
/// emits the pad-framed mmap-friendly layout.
uint64_t migrateTrace(std::istream &In, std::ostream &Out,
                      uint32_t BlockEvents = TraceV2BlockEvents,
                      TraceMigrateStats *Stats = nullptr,
                      uint32_t AlignBytes = 0);

} // namespace workload
} // namespace specctrl

#endif // SPECCTRL_WORKLOAD_TRACEFILE_H
