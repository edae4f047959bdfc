//===- workload/TraceFile.cpp - Binary trace record/replay ----------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "workload/TraceFile.h"

#include "support/Hash.h"

#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>

using namespace specctrl;
using namespace specctrl::workload;

namespace {

constexpr char MagicV1[4] = {'S', 'C', 'T', '1'};
constexpr char MagicV2[4] = {'S', 'C', 'T', '2'};

/// Worst-case encoded bytes per v2 event: 5-byte site-delta varint + the
/// packed taken/gap byte.
constexpr size_t MaxEventBytes = 6;

void putU32(std::ostream &OS, uint32_t V) {
  // Little-endian, explicitly, so traces are portable.
  const char Bytes[4] = {
      static_cast<char>(V & 0xFF), static_cast<char>((V >> 8) & 0xFF),
      static_cast<char>((V >> 16) & 0xFF),
      static_cast<char>((V >> 24) & 0xFF)};
  OS.write(Bytes, 4);
}

void putU64(std::ostream &OS, uint64_t V) {
  putU32(OS, static_cast<uint32_t>(V & 0xFFFFFFFFu));
  putU32(OS, static_cast<uint32_t>(V >> 32));
}

bool getU32(std::istream &IS, uint32_t &V) {
  unsigned char Bytes[4];
  if (!IS.read(reinterpret_cast<char *>(Bytes), 4))
    return false;
  V = static_cast<uint32_t>(Bytes[0]) |
      (static_cast<uint32_t>(Bytes[1]) << 8) |
      (static_cast<uint32_t>(Bytes[2]) << 16) |
      (static_cast<uint32_t>(Bytes[3]) << 24);
  return true;
}

bool getU64(std::istream &IS, uint64_t &V) {
  uint32_t Lo = 0, Hi = 0;
  if (!getU32(IS, Lo) || !getU32(IS, Hi))
    return false;
  V = static_cast<uint64_t>(Hi) << 32 | Lo;
  return true;
}

uint32_t zigzag(int64_t V) {
  return static_cast<uint32_t>((V << 1) ^ (V >> 63));
}

int64_t unzigzag(uint32_t V) {
  return static_cast<int64_t>(V >> 1) ^ -static_cast<int64_t>(V & 1);
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
// SCT2 header and frame validation (shared by every reader)
//===----------------------------------------------------------------------===//

bool workload::parseTraceV2Header(const uint8_t *P, TraceV2Header &Out) {
  if (!std::equal(P, P + 4, MagicV2))
    return false;
  Out.NumSites = loadU32(P + 4);
  Out.TotalEvents = loadU64(P + 8);
  Out.MinGap = loadU32(P + 16);
  Out.MaxGap = loadU32(P + 20);
  Out.BlockEvents = loadU32(P + 24);
  return Out.BlockEvents != 0 && Out.BlockEvents <= (1u << 20);
}

TraceV2Frame workload::readTraceV2Frame(const uint8_t *P) {
  return {loadU32(P), loadU32(P + 4), loadU64(P + 8)};
}

const char *workload::checkTraceV2Frame(const TraceV2Header &H,
                                        uint64_t EventsSoFar,
                                        const TraceV2Frame &F,
                                        const uint8_t *PadPayload) {
  if (F.isPad()) {
    // A pad must carry the sentinel and an all-zero payload -- a corrupted
    // real block (event count flipped to zero), or a block corrupted into
    // a pad, is rejected here, never silently skipped.
    if (F.Checksum != TraceV2PadMagic || F.PayloadBytes > TraceV2MaxPadBytes ||
        (PadPayload && std::any_of(PadPayload, PadPayload + F.PayloadBytes,
                                   [](uint8_t B) { return B != 0; })))
      return "malformed trace pad frame";
    return nullptr;
  }
  if (F.Events > H.BlockEvents || F.Events > H.TotalEvents - EventsSoFar ||
      F.PayloadBytes < 2 * static_cast<uint64_t>(F.Events) ||
      F.PayloadBytes > MaxEventBytes * static_cast<uint64_t>(F.Events))
    return "malformed trace block header";
  return nullptr;
}

//===----------------------------------------------------------------------===//
// v1 writer
//===----------------------------------------------------------------------===//

uint64_t workload::writeTrace(std::ostream &OS, TraceGenerator &Gen) {
  OS.write(MagicV1, 4);
  putU32(OS, Gen.spec().numSites());
  const uint64_t Remaining = Gen.totalEvents() - Gen.eventsGenerated();
  putU64(OS, Remaining);
  putU32(OS, Gen.spec().MinGap);
  putU32(OS, Gen.spec().MaxGap);

  uint64_t Written = 0;
  BranchEvent E;
  while (Gen.next(E)) {
    if (E.Site > TraceFileLimits::MaxSite || E.Gap > TraceFileLimits::MaxGap)
      return 0;
    const uint32_t Word = (E.Site << 8) |
                          (static_cast<uint32_t>(E.Taken) << 7) | E.Gap;
    putU32(OS, Word);
    ++Written;
  }
  return OS.good() ? Written : 0;
}

//===----------------------------------------------------------------------===//
// v2 writer
//===----------------------------------------------------------------------===//

TraceWriterV2::TraceWriterV2(std::ostream &OS, uint32_t NumSites,
                             uint64_t TotalEvents, uint32_t MinGap,
                             uint32_t MaxGap, uint32_t BlockEvents,
                             uint32_t AlignBytes)
    : OS(OS), BlockEvents(BlockEvents ? BlockEvents : TraceV2BlockEvents),
      AlignBytes(AlignBytes) {
  OS.write(MagicV2, 4);
  putU32(OS, NumSites);
  putU64(OS, TotalEvents);
  putU32(OS, MinGap);
  putU32(OS, MaxGap);
  putU32(OS, this->BlockEvents);
  Offset = TraceV2HeaderBytes;
  // Sized for the worst-case block up front so append() can emit through a
  // raw pointer with no per-byte capacity checks.
  Payload.resize(static_cast<size_t>(this->BlockEvents) * MaxEventBytes);
}

void TraceWriterV2::flushBlock() {
  if (BlockCount == 0)
    return;
  if (AlignBytes) {
    // Pad so this block's frame starts on an AlignBytes boundary.  A gap
    // too small to hold the 16-byte pad frame spills to the next boundary.
    uint64_t Gap = (AlignBytes - Offset % AlignBytes) % AlignBytes;
    if (Gap != 0 && Gap < TraceV2FrameBytes)
      Gap += AlignBytes;
    if (Gap != 0) {
      putU32(OS, 0); // event count 0 marks a pad frame
      putU32(OS, static_cast<uint32_t>(Gap - TraceV2FrameBytes));
      putU64(OS, TraceV2PadMagic);
      static constexpr char Zeros[512] = {};
      for (uint64_t Left = Gap - TraceV2FrameBytes; Left != 0;) {
        const uint64_t N = std::min<uint64_t>(Left, sizeof(Zeros));
        OS.write(Zeros, static_cast<std::streamsize>(N));
        Left -= N;
      }
      Offset += Gap;
      PadBytes += Gap;
    }
  }
  putU32(OS, BlockCount);
  putU32(OS, static_cast<uint32_t>(PayloadBytes));
  putU64(OS, hash64(Payload.data(), PayloadBytes));
  OS.write(reinterpret_cast<const char *>(Payload.data()),
           static_cast<std::streamsize>(PayloadBytes));
  Written += BlockCount;
  EncodedBytes += TraceV2FrameBytes + PayloadBytes;
  Offset += TraceV2FrameBytes + PayloadBytes;
  ++Blocks;
  BlockCount = 0;
  PrevSite = 0;
  PayloadBytes = 0;
}

bool TraceWriterV2::append(std::span<const BranchEvent> Events) {
  if (!Ok)
    return false;
  uint8_t *const Base = Payload.data();
  uint8_t *P = Base + PayloadBytes;
  uint32_t Prev = PrevSite;
  uint32_t Count = BlockCount;
  for (const BranchEvent &E : Events) {
    if (E.Site > TraceFileLimits::MaxSite ||
        E.Gap > TraceFileLimits::MaxGap) {
      Ok = false;
      return false;
    }
    uint32_t V = zigzag(static_cast<int64_t>(E.Site) -
                        static_cast<int64_t>(Prev));
    while (V >= 0x80) {
      *P++ = static_cast<uint8_t>(V) | 0x80;
      V >>= 7;
    }
    *P++ = static_cast<uint8_t>(V);
    *P++ = static_cast<uint8_t>((static_cast<uint8_t>(E.Taken) << 7) | E.Gap);
    Prev = E.Site;
    if (++Count == BlockEvents) {
      PayloadBytes = static_cast<size_t>(P - Base);
      BlockCount = Count;
      flushBlock();
      P = Base;
      Prev = 0;
      Count = 0;
    }
  }
  PayloadBytes = static_cast<size_t>(P - Base);
  BlockCount = Count;
  PrevSite = Prev;
  Ok = OS.good();
  return Ok;
}

bool TraceWriterV2::finish() {
  if (!Ok)
    return false;
  flushBlock();
  Ok = OS.good();
  return Ok;
}

uint64_t workload::writeTraceV2(std::ostream &OS, TraceGenerator &Gen,
                                uint32_t BlockEvents, uint32_t AlignBytes) {
  TraceWriterV2 Writer(OS, Gen.spec().numSites(),
                       Gen.totalEvents() - Gen.eventsGenerated(),
                       Gen.spec().MinGap, Gen.spec().MaxGap, BlockEvents,
                       AlignBytes);
  std::vector<BranchEvent> Chunk(BlockEvents ? BlockEvents
                                             : TraceV2BlockEvents);
  while (const size_t N = Gen.nextBatch(Chunk))
    if (!Writer.append(std::span<const BranchEvent>(Chunk.data(), N)))
      return 0;
  return Writer.finish() ? Writer.eventsWritten() : 0;
}

//===----------------------------------------------------------------------===//
// Block payload decoding (shared by the file reader and the trace arena)
//===----------------------------------------------------------------------===//

namespace {

/// The checked decode loop: every bound and range validated, counters
/// committed only on whole-block success (untrusted input -- the file
/// reader, arena/mmap first-touch verification).
///
/// Site arithmetic is done in uint32 like the trusted path: sites are
/// < 2^24 and |unzigzag delta| <= 2^31, so a negative or overflowing
/// int64 site can never wrap back into [0, NumSites) -- the single
/// unsigned compare is exactly equivalent to the signed range pair.
bool decodeBlockChecked(const uint8_t *P, const uint8_t *End,
                        uint32_t EventCount, uint32_t NumSites,
                        uint64_t &NextIndex, uint64_t &InstRet,
                        BranchEvent *Out) {
  uint64_t Index = NextIndex;
  uint64_t Inst = InstRet;
  uint32_t PrevSite = 0;
  for (uint32_t I = 0; I < EventCount; ++I) {
    // Shortest event: one varint byte + the packed taken/gap byte.
    if (End - P < 2)
      return false;
    uint32_t Byte = *P++;
    uint32_t Delta = Byte & 0x7F;
    if (Byte & 0x80) {
      unsigned Shift = 7;
      do {
        if (P == End || Shift >= 35)
          return false;
        Byte = *P++;
        Delta |= (Byte & 0x7F) << Shift;
        Shift += 7;
      } while (Byte & 0x80);
      if (P == End) // the packed byte must still follow
        return false;
    }
    const uint32_t Site =
        PrevSite + static_cast<uint32_t>(unzigzag(Delta));
    if (Site >= NumSites)
      return false;
    const uint32_t Packed = *P++;
    BranchEvent &E = Out[I];
    E.Site = Site;
    E.Taken = (Packed >> 7) != 0;
    E.Gap = Packed & 0x7F;
    E.Index = Index++;
    Inst += (Packed & 0x7F) + 1;
    E.InstRet = Inst;
    PrevSite = Site;
  }
  if (P != End)
    return false;
  NextIndex = Index;
  InstRet = Inst;
  return true;
}

/// One trusted event at \p P; returns the byte after it.  The scalar step
/// shared by the scalar baseline decoder, the SWAR tail, and the SWAR
/// rare-continuation path.
///
/// Branchless 1/2-byte fast path.  Both loads are always in bounds: a
/// one-byte varint is followed by the packed byte, so P[1] exists either
/// way.  Wide-site workloads alternate varint lengths event to event,
/// which the predictor cannot learn -- masking the second byte in
/// unconditionally beats a mispredicting length branch.
inline const uint8_t *decodeOneTrusted(const uint8_t *P, uint32_t &PrevSite,
                                       uint64_t &Index, uint64_t &Inst,
                                       BranchEvent &E) {
  const uint32_t B0 = P[0];
  const uint32_t B1 = P[1];
  const uint32_t More = B0 >> 7;
  uint32_t Delta = (B0 & 0x7F) | (((B1 & 0x7F) << 7) & (0u - More));
  P += 1 + More;
  if (More & (B1 >> 7)) { // rare >= 3-byte continuation
    unsigned Shift = 14;
    uint32_t Byte;
    do {
      Byte = *P++;
      Delta |= (Byte & 0x7F) << Shift;
      Shift += 7;
    } while (Byte & 0x80);
  }
  const uint32_t Site = PrevSite + static_cast<uint32_t>(unzigzag(Delta));
  const uint32_t Packed = *P++;
  E.Site = Site;
  E.Taken = (Packed >> 7) != 0;
  E.Gap = Packed & 0x7F;
  E.Index = Index++;
  Inst += (Packed & 0x7F) + 1;
  E.InstRet = Inst;
  PrevSite = Site;
  return P;
}

/// Unaligned little-endian 8-byte load (byte-swapped on big-endian hosts
/// so the SWAR lane math below is endian-independent).
inline uint64_t load64le(const uint8_t *P) {
  uint64_t V;
  std::memcpy(&V, P, 8);
#if defined(__BYTE_ORDER__) && defined(__ORDER_BIG_ENDIAN__) &&                \
    __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  V = __builtin_bswap64(V);
#endif
  return V;
}

} // namespace

bool workload::decodeTraceBlockPayload(const uint8_t *Payload,
                                       size_t PayloadBytes,
                                       uint32_t EventCount, uint32_t NumSites,
                                       uint64_t &NextIndex, uint64_t &InstRet,
                                       BranchEvent *Out) {
  return decodeBlockChecked(Payload, Payload + PayloadBytes, EventCount,
                            NumSites, NextIndex, InstRet, Out);
}

void workload::decodeTraceBlockPayloadTrusted(const uint8_t *Payload,
                                              size_t PayloadBytes,
                                              uint32_t EventCount,
                                              uint64_t &NextIndex,
                                              uint64_t &InstRet,
                                              BranchEvent *Out) {
  const uint8_t *P = Payload;
  const uint8_t *const End = Payload + PayloadBytes;
  uint64_t Index = NextIndex;
  uint64_t Inst = InstRet;
  uint32_t PrevSite = 0;
  uint32_t I = 0;
  // SWAR batch loop: one 8-byte load holding four complete 1-byte-varint
  // events (varint starts at byte offsets 0/2/4/6; the mask tests exactly
  // their continuation bits, never the packed bytes' taken bits, and
  // fails the moment any varint spills, so the lane layout below always
  // holds).  Every lane shift is a constant and the pointer advances by a
  // constant 8, so consecutive loads pipeline instead of waiting on the
  // previous iteration's length computation -- this is where the SWAR
  // decoder earns its speedup on the Zipf-clustered suite traces, where
  // almost every site delta fits one varint byte.  A quad miss (a wide
  // delta somewhere in the window) decodes a single event through the
  // branchless scalar step and re-tests.  The >= 16-byte guard keeps the
  // wide load -- and that scalar step -- strictly inside the payload,
  // which matters for mmap'd blocks decoded in place: bytes past the
  // payload may be beyond the mapping.
  while (I + 4 <= EventCount && End - P >= 16) {
    const uint64_t W = load64le(P);
    if ((W & 0x0080008000800080ull) == 0) {
      const uint32_t S0 =
          PrevSite + static_cast<uint32_t>(
                         unzigzag(static_cast<uint32_t>(W) & 0x7F));
      const uint32_t S1 =
          S0 + static_cast<uint32_t>(
                   unzigzag(static_cast<uint32_t>(W >> 16) & 0x7F));
      const uint32_t S2 =
          S1 + static_cast<uint32_t>(
                   unzigzag(static_cast<uint32_t>(W >> 32) & 0x7F));
      const uint32_t S3 =
          S2 + static_cast<uint32_t>(
                   unzigzag(static_cast<uint32_t>(W >> 48) & 0x7F));
      const uint32_t Pk0 = static_cast<uint32_t>(W >> 8) & 0xFF;
      const uint32_t Pk1 = static_cast<uint32_t>(W >> 24) & 0xFF;
      const uint32_t Pk2 = static_cast<uint32_t>(W >> 40) & 0xFF;
      const uint32_t Pk3 = static_cast<uint32_t>(W >> 56) & 0xFF;
      BranchEvent &E0 = Out[I];
      E0.Site = S0;
      E0.Taken = (Pk0 >> 7) != 0;
      E0.Gap = Pk0 & 0x7F;
      E0.Index = Index++;
      Inst += (Pk0 & 0x7F) + 1;
      E0.InstRet = Inst;
      BranchEvent &E1 = Out[I + 1];
      E1.Site = S1;
      E1.Taken = (Pk1 >> 7) != 0;
      E1.Gap = Pk1 & 0x7F;
      E1.Index = Index++;
      Inst += (Pk1 & 0x7F) + 1;
      E1.InstRet = Inst;
      BranchEvent &E2 = Out[I + 2];
      E2.Site = S2;
      E2.Taken = (Pk2 >> 7) != 0;
      E2.Gap = Pk2 & 0x7F;
      E2.Index = Index++;
      Inst += (Pk2 & 0x7F) + 1;
      E2.InstRet = Inst;
      BranchEvent &E3 = Out[I + 3];
      E3.Site = S3;
      E3.Taken = (Pk3 >> 7) != 0;
      E3.Gap = Pk3 & 0x7F;
      E3.Index = Index++;
      Inst += (Pk3 & 0x7F) + 1;
      E3.InstRet = Inst;
      PrevSite = S3;
      P += 8;
      I += 4;
      continue;
    }
    // Quad miss: a multi-byte varint somewhere in the window.  One scalar
    // event (it knows the continuation encoding) and re-test -- on
    // wide-site traces this degenerates to the scalar decoder's speed
    // rather than paying a variable-shift lane extraction that is slower
    // than the scalar step on every tested host.
    P = decodeOneTrusted(P, PrevSite, Index, Inst, Out[I]);
    ++I;
  }
  // Scalar tail: the final events the 16-byte guard excluded.
  for (; I < EventCount; ++I)
    P = decodeOneTrusted(P, PrevSite, Index, Inst, Out[I]);
  NextIndex = Index;
  InstRet = Inst;
}

void workload::decodeTraceBlockPayloadTrustedScalar(
    const uint8_t *Payload, size_t PayloadBytes, uint32_t EventCount,
    uint64_t &NextIndex, uint64_t &InstRet, BranchEvent *Out) {
  const uint8_t *P = Payload;
  (void)PayloadBytes; // delimits the encoding; trusted decode never checks
  uint64_t Index = NextIndex;
  uint64_t Inst = InstRet;
  uint32_t PrevSite = 0;
  for (uint32_t I = 0; I < EventCount; ++I)
    P = decodeOneTrusted(P, PrevSite, Index, Inst, Out[I]);
  NextIndex = Index;
  InstRet = Inst;
}

//===----------------------------------------------------------------------===//
// Reader (both formats)
//===----------------------------------------------------------------------===//

TraceFileReader::TraceFileReader(std::istream &IS) : IS(IS) {
  uint8_t Bytes[TraceV2HeaderBytes];
  if (!IS.read(reinterpret_cast<char *>(Bytes), 4))
    return;
  if (std::equal(Bytes, Bytes + 4, MagicV1)) {
    Version = 1;
    Valid = getU32(IS, Header.NumSites) && getU64(IS, Header.TotalEvents) &&
            getU32(IS, Header.MinGap) && getU32(IS, Header.MaxGap);
    return;
  }
  Version = 2;
  if (!IS.read(reinterpret_cast<char *>(Bytes) + 4, TraceV2HeaderBytes - 4) ||
      !parseTraceV2Header(Bytes, Header))
    return;
  Block.reserve(Header.BlockEvents);
  Valid = true;
}

void TraceFileReader::fail(const std::string &Message) {
  Error = Message;
  Block.clear();
  BlockPos = 0;
}

/// Loads, verifies, and decodes the next v2 block into the staging buffer.
/// Returns false at clean end, on truncation, or on corruption -- in every
/// failure case zero events of the offending block are staged.
bool TraceFileReader::refillBlock() {
  Block.clear();
  BlockPos = 0;
  if (NextIndex >= Header.TotalEvents)
    return false;

  TraceV2Frame F;
  for (;;) {
    uint8_t Frame[TraceV2FrameBytes];
    if (!IS.read(reinterpret_cast<char *>(Frame), TraceV2FrameBytes)) {
      Truncated = true; // stream ended between or inside frame headers
      return false;
    }
    F = readTraceV2Frame(Frame);
    if (const char *Why = checkTraceV2Frame(Header, NextIndex, F)) {
      fail(Why);
      return false;
    }
    if (!F.isPad())
      break;
    Payload.resize(F.PayloadBytes);
    if (!IS.read(reinterpret_cast<char *>(Payload.data()), F.PayloadBytes)) {
      Truncated = true; // stream ended inside a pad
      return false;
    }
    if (const char *Why =
            checkTraceV2Frame(Header, NextIndex, F, Payload.data())) {
      fail(Why);
      return false;
    }
  }

  Payload.resize(F.PayloadBytes);
  if (!IS.read(reinterpret_cast<char *>(Payload.data()), F.PayloadBytes)) {
    Truncated = true; // partially-written final block
    return false;
  }
  if (hash64(Payload.data(), Payload.size()) != F.Checksum) {
    fail("trace block checksum mismatch (corrupt or tampered trace)");
    return false;
  }

  Block.resize(F.Events);
  // The shared decoder commits NextIndex/InstRet only on success, so a
  // rejected block leaves the accounting untouched and stages no events.
  if (!decodeTraceBlockPayload(Payload.data(), Payload.size(), F.Events,
                               Header.NumSites, NextIndex, InstRet,
                               Block.data())) {
    fail("malformed event encoding in trace block");
    return false;
  }
  return true;
}

bool TraceFileReader::next(BranchEvent &Event) {
  if (!Valid || Truncated || failed())
    return false;

  if (Version == 2) {
    if (BlockPos >= Block.size() && !refillBlock())
      return false;
    Event = Block[BlockPos++];
    return true;
  }

  if (NextIndex >= Header.TotalEvents)
    return false;
  uint32_t Word = 0;
  if (!getU32(IS, Word)) {
    Truncated = true;
    return false;
  }
  Event.Site = Word >> 8;
  Event.Taken = (Word >> 7) & 1;
  Event.Gap = Word & 0x7F;
  Event.Index = NextIndex++;
  InstRet += Event.Gap + 1;
  Event.InstRet = InstRet;
  return true;
}

size_t TraceFileReader::nextBatch(std::span<BranchEvent> Buffer) {
  if (!Valid || Truncated || failed())
    return 0;

  if (Version == 2) {
    size_t Filled = 0;
    while (Filled < Buffer.size()) {
      if (BlockPos >= Block.size() && !refillBlock())
        break;
      const size_t Take =
          std::min(Buffer.size() - Filled, Block.size() - BlockPos);
      std::memcpy(Buffer.data() + Filled, Block.data() + BlockPos,
                  Take * sizeof(BranchEvent));
      BlockPos += Take;
      Filled += Take;
    }
    return Filled;
  }

  // v1: one bulk read per chunk instead of one 4-byte read per event.
  const size_t Want = static_cast<size_t>(std::min<uint64_t>(
      Buffer.size(), Header.TotalEvents - NextIndex));
  if (Want == 0)
    return 0;
  Payload.resize(Want * 4);
  IS.read(reinterpret_cast<char *>(Payload.data()),
          static_cast<std::streamsize>(Payload.size()));
  const size_t Got = static_cast<size_t>(IS.gcount()) / 4;
  if (Got < Want)
    Truncated = true;
  for (size_t I = 0; I < Got; ++I) {
    // Stored little-endian; reassemble byte-wise for portability.
    const uint8_t *B = Payload.data() + I * 4;
    const uint32_t Word =
        static_cast<uint32_t>(B[0]) | (static_cast<uint32_t>(B[1]) << 8) |
        (static_cast<uint32_t>(B[2]) << 16) |
        (static_cast<uint32_t>(B[3]) << 24);
    BranchEvent &E = Buffer[I];
    E.Site = Word >> 8;
    E.Taken = (Word >> 7) & 1;
    E.Gap = Word & 0x7F;
    E.Index = NextIndex++;
    InstRet += E.Gap + 1;
    E.InstRet = InstRet;
  }
  return Got;
}

//===----------------------------------------------------------------------===//
// Migration
//===----------------------------------------------------------------------===//

uint64_t workload::migrateTrace(std::istream &In, std::ostream &Out,
                                uint32_t BlockEvents,
                                TraceMigrateStats *Stats,
                                uint32_t AlignBytes) {
  TraceFileReader Reader(In);
  if (!Reader.valid())
    return 0;
  TraceWriterV2 Writer(Out, Reader.numSites(), Reader.totalEvents(),
                       Reader.minGap(), Reader.maxGap(), BlockEvents,
                       AlignBytes);
  std::vector<BranchEvent> Chunk(BlockEvents ? BlockEvents
                                             : TraceV2BlockEvents);
  while (const size_t N = Reader.nextBatch(Chunk))
    if (!Writer.append(std::span<const BranchEvent>(Chunk.data(), N)))
      return 0;
  if (Reader.truncated() || Reader.failed())
    return 0;
  if (!Writer.finish())
    return 0;
  if (Writer.eventsWritten() != Reader.totalEvents())
    return 0;
  if (Stats) {
    Stats->Events = Writer.eventsWritten();
    Stats->Blocks = Writer.blocksWritten();
    Stats->EncodedBytes = Writer.encodedBytes();
    Stats->PadBytes = Writer.padBytes();
    Stats->CompressionVsV1 = Writer.compressionVsV1();
  }
  return Writer.eventsWritten();
}
