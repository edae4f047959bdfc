//===- perfbench/cpp/Serve.cpp - The `serve` workload ---------------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//
//
// One serve::StreamServer with two consumer shards hosting 1024 streams,
// fed by this thread (1 producer + 2 consumers = 3 threads).  Stream i
// replays a seeded window of suite benchmark i mod 12's reference trace
// under the Table 2 baseline control.  The windows are materialized and
// decoded during set-up, so the producer only pushes.  A run is a series
// of sessions, each with its own set-up and two phases:
//
//  * closed loop -- rounds of pushing as fast as the rings accept, each
//    round timed until every stream's controller has consumed it;
//  * open loop -- one 1024-event batch per tick at a fixed aggregate rate
//    (OpenRateEventsPerSec), each batch timed from when it was due until
//    processed() covers it.
//
// Sessions run back to back until the run's time is used, so the medians
// sample the host across the whole run (idle pauses would not do: on the
// guest this was written on, a paused run came back at half speed).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/Driver.h"
#include "core/ReactiveController.h"
#include "serve/StreamServer.h"
#include "workload/SpecSuite.h"
#include "workload/TraceArena.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace perfbench;
using namespace specctrl;

namespace {

constexpr unsigned NumStreams = 1024;
constexpr size_t BatchEvents = 1024;
/// Events each stream receives per closed-loop round (two rings' worth,
/// so backpressure engages every round).
constexpr uint64_t RoundEvents = 16384;
/// Open-loop offered load, fixed when the benchmark was written at about
/// 40% of the closed-loop saturation rate measured then (~90 M events/s
/// with two consumer shards on a 4-vCPU x86-64 guest; at 50% the host's
/// capacity swings pushed some runs past saturation).  Never recomputed,
/// so a faster server shows as lower latency.
constexpr double OpenRateEventsPerSec = 36.0e6;
/// A batch its ring keeps rejecting for this long counts as refused.
constexpr uint64_t RefuseAfterNs = 1'000'000'000;
/// Closed-loop rounds and open-loop seconds of one session.
constexpr unsigned Rounds = 8;
constexpr double OpenSeconds = 2.0;
/// Streams whose live stats are checked against a batch run.
constexpr unsigned CheckedStreams = 8;
/// Every ProbeStride-th stream is replayed by the consumer-cost probe.
constexpr unsigned ProbeStride = 8;

/// Table 2's baseline under the same rescaling as the sweep's baseline.
core::ReactiveConfig serveControl() {
  core::ReactiveConfig C = core::ReactiveConfig::baseline();
  C.OptLatency = 10000;
  C.WaitPeriod = 50000;
  return C;
}

/// Replays a span of events (the batch side of the live == batch check).
class SpanSource final : public workload::EventSource {
public:
  explicit SpanSource(std::span<const workload::BranchEvent> Events)
      : Events(Events) {}
  bool next(workload::BranchEvent &E) override {
    if (Pos == Events.size())
      return false;
    E = Events[Pos++];
    return true;
  }
  size_t nextBatch(std::span<workload::BranchEvent> Buf) override {
    const size_t N = std::min(Buf.size(), Events.size() - Pos);
    std::memcpy(Buf.data(), Events.data() + Pos, N * sizeof(Events[0]));
    Pos += N;
    return N;
  }

private:
  std::span<const workload::BranchEvent> Events;
  size_t Pos = 0;
};

/// Everything set-up builds: decoded trace prefixes, windows, the server
/// and its open streams.
struct ServeSetup {
  std::vector<std::vector<workload::BranchEvent>> Prefix; ///< per benchmark
  std::vector<std::span<const workload::BranchEvent>> Window; ///< per stream
  std::vector<uint64_t> InstBase; ///< instret before each window
  std::unique_ptr<serve::StreamServer> Server;
  std::vector<serve::StreamServer::StreamHandle> Streams;
};

std::unique_ptr<ServeSetup> setUp(uint64_t Seed, uint64_t WindowEvents,
                                  Tracer *T) {
  auto S = std::make_unique<ServeSetup>();
  // Prefix long enough that seeded window offsets spread over 64K events.
  const uint64_t PrefixEvents = WindowEvents + 65536;
  workload::TraceArena Arena;
  const std::vector<workload::BenchmarkProfile> &Profiles =
      workload::suiteProfiles();
  std::vector<workload::BranchEvent> Buf(workload::DefaultBatchEvents);
  for (size_t B = 0; B < Profiles.size(); ++B) {
    workload::WorkloadSpec Spec = workload::makeBenchmark(Profiles[B]);
    Spec.RefEvents = PrefixEvents;
    const workload::InputConfig Input = Spec.refInput();
    std::shared_ptr<const workload::MaterializedTrace> Trace;
    {
      ScopedSpan M(T, T ? T->name("workload.materialize") : 0, B);
      Trace = Arena.materialize(Spec, Input);
      M.setCount(Trace ? Trace->totalEvents() : 0);
    }
    if (!Trace)
      throw std::runtime_error("trace of " + Spec.Name + " not encodable");
    if (T) {
      T->count("workload.arena_bytes", static_cast<double>(Trace->bytes()));
      T->count("workload.arena_events",
               static_cast<double>(Trace->totalEvents()));
    }
    std::vector<workload::BranchEvent> &Out = S->Prefix.emplace_back();
    Out.reserve(PrefixEvents);
    workload::ArenaReplaySource Cursor(Trace);
    while (true) {
      ScopedSpan D(T, T ? T->name("workload.nextBatch") : 0, B);
      const size_t N = Cursor.nextBatch(Buf);
      D.setCount(N);
      if (N == 0)
        break;
      Out.insert(Out.end(), Buf.begin(), Buf.begin() + N);
    }
  }

  uint64_t Pick = mixSeed(Seed ^ 0x53455256ull);
  for (unsigned I = 0; I < NumStreams; ++I) {
    const std::vector<workload::BranchEvent> &P = S->Prefix[I % Profiles.size()];
    Pick = mixSeed(Pick);
    const uint64_t Offset = Pick % (P.size() - WindowEvents + 1);
    S->Window.emplace_back(P.data() + Offset, WindowEvents);
    S->InstBase.push_back(Offset ? P[Offset - 1].InstRet : 0);
  }

  serve::ServeConfig Cfg;
  Cfg.Consumers = threadBudget() > 1 ? threadBudget() - 1 : 1;
  S->Server = std::make_unique<serve::StreamServer>(Cfg);
  const core::ReactiveConfig Control = serveControl();
  for (unsigned I = 0; I < NumStreams; ++I) {
    ScopedSpan O(T, T ? T->name("serve.openStream") : 0, I);
    S->Streams.push_back(S->Server->openStream(Control));
  }
  return S;
}

/// Spans and counts of the push boundary (traced runs only).
struct PushTrace {
  Tracer *T = nullptr;
  uint64_t Name = 0;
  uint64_t Pushes = 0, ZeroPushes = 0;

  size_t push(workload::SpscRing &Ring,
              std::span<const workload::BranchEvent> Events, uint64_t Req) {
    if (!T)
      return Ring.push(Events);
    ScopedSpan S(T, Name, Req);
    const size_t N = Ring.push(Events);
    S.setCount(N);
    ++Pushes;
    ZeroPushes += N == 0;
    return N;
  }
};

/// One session: set-up, closed loop, open loop, output checks.  Appends its
/// measurements to \p R; traced sessions record spans into \p T.
class Session {
public:
  Session(const Options &Opt, Results &R, Tracer *T) : Opt(Opt), R(R), T(T) {
    if (T) {
      Traced = {T, T->name("serve.push")};
      RoundName = T->name("bench.round");
      UntracedRoundName = T->name("bench.round_untraced");
      FirstRoundName = T->name("bench.round_first");
    }
  }

  void run() {
    const uint64_t Start = nowNs();
    S = setUp(Opt.Seed, WindowEvents, T);
    R.add("setup_s", secondsBetween(Start, nowNs()));
    Pos.assign(NumStreams, 0);
    for (unsigned Round = 0; Round < Rounds; ++Round)
      closedRound(Round);
    openLoop();
    check();
  }

  /// Pooled stats of every stream (exact for a given seed and length).
  double Correct = 0, Incorrect = 0, Branches = 0, Requests = 0;
  double ClosedWall = 0;
  PushTrace Traced;

  /// Controller time for the closed-loop events of every ProbeStride-th
  /// stream, replayed one stream at a time on this thread (traced runs).
  void probe(Tracer &Tr) {
    const uint64_t ProbeName = Tr.name("probe.onBatch");
    std::vector<core::BranchVerdict> Verdicts(workload::DefaultBatchEvents);
    for (unsigned I = 0; I < NumStreams; I += ProbeStride) {
      core::ReactiveController Ctl(serveControl());
      std::span<const workload::BranchEvent> Events =
          S->Window[I].first(ClosedEvents);
      while (!Events.empty()) {
        const size_t N = std::min(Events.size(), Verdicts.size());
        ScopedSpan P(&Tr, ProbeName, I);
        P.setCount(N);
        Ctl.onBatch(Events.first(N), Verdicts.data());
        Events = Events.subspan(N);
      }
    }
  }

private:
  static constexpr uint64_t ClosedEvents = uint64_t(Rounds) * RoundEvents;
  static constexpr uint64_t OpenBatches = static_cast<uint64_t>(
      OpenRateEventsPerSec * OpenSeconds / BatchEvents);
  // Every stream gets the same number of open-loop batches, +1.
  static constexpr uint64_t WindowEvents =
      ClosedEvents + (OpenBatches / NumStreams + 1) * BatchEvents;

  void closedRound(unsigned Round) {
    // Traced runs alternate traced and untraced rounds (tracing overhead)
    // after the first, which also warms the fresh controllers.
    const bool TracedRound = T && Round % 2 == 0 && Round > 0;
    PushTrace &P = TracedRound ? Traced : Plain;
    ScopedSpan RoundSpan(T,
                         Round == 0    ? FirstRoundName
                         : TracedRound ? RoundName
                                       : UntracedRoundName,
                         Round, 0);
    const uint64_t Target = uint64_t(Round + 1) * RoundEvents;
    const uint64_t Start = nowNs();
    double Insts = 0;
    for (unsigned I = 0; I < NumStreams; ++I)
      Insts -= static_cast<double>(
          Pos[I] ? S->Window[I][Pos[I] - 1].InstRet : S->InstBase[I]);
    while (true) {
      bool Active = false, Progress = false;
      for (unsigned I = 0; I < NumStreams; ++I) {
        if (Pos[I] == Target)
          continue;
        const size_t N = std::min<uint64_t>(BatchEvents, Target - Pos[I]);
        const size_t Got = P.push(*S->Streams[I].Ring,
                                  S->Window[I].subspan(Pos[I], N), I);
        Pos[I] += Got;
        Progress |= Got != 0;
        Active |= Pos[I] != Target;
      }
      if (!Active)
        break;
      if (!Progress)
        std::this_thread::yield();
    }
    for (unsigned I = 0; I < NumStreams; ++I)
      while (S->Server->processed(S->Streams[I].Id) < Pos[I])
        std::this_thread::yield();
    const double Wall = secondsBetween(Start, nowNs());
    ClosedWall += Wall;
    for (unsigned I = 0; I < NumStreams; ++I)
      Insts += static_cast<double>(S->Window[I][Pos[I] - 1].InstRet);
    const double Events = double(NumStreams) * double(RoundEvents);
    RoundSpan.setCount(static_cast<uint64_t>(Events));
    R.Attempted += NumStreams * (RoundEvents / BatchEvents);
    if (!TracedRound) {
      R.add("events_per_s", Events / Wall);
      R.add("sim_insts_per_s", Insts / Wall);
    }
  }

  void openLoop() {
    struct Outstanding {
      uint32_t Stream;
      uint64_t Target;
      uint64_t DueNs;
      uint64_t Batch;
    };
    std::vector<Outstanding> Open;
    std::vector<double> Latency(OpenBatches); // in due order
    PushTrace &Push = T ? Traced : Plain;
    const double IntervalNs =
        1e9 * static_cast<double>(BatchEvents) / OpenRateEventsPerSec;
    const uint64_t OpenStart = nowNs() + 1'000'000;
    uint64_t NextSample = OpenStart;
    uint64_t Next = 0;
    while (Next < OpenBatches || !Open.empty()) {
      const uint64_t Now = nowNs();
      for (size_t K = 0; K < Open.size();) {
        if (S->Server->processed(S->Streams[Open[K].Stream].Id) >=
            Open[K].Target) {
          Latency[Open[K].Batch] = (Now - Open[K].DueNs) * 1e-3;
          Open[K] = Open.back();
          Open.pop_back();
        } else {
          ++K;
        }
      }
      if (T && Now >= NextSample) {
        double Backlog = 0;
        for (const auto &H : S->Streams)
          Backlog += static_cast<double>(H.Ring->sizeApprox());
        T->sample("serve.backlog_events", Backlog);
        NextSample += 1'000'000;
      }
      if (Next == OpenBatches)
        continue;
      const uint64_t Due =
          OpenStart + static_cast<uint64_t>(static_cast<double>(Next) *
                                            IntervalNs);
      if (Now < Due)
        continue;
      const unsigned I = static_cast<unsigned>(Next % NumStreams);
      R.add("gen_late_us", (Now - Due) * 1e-3);
      std::span<const workload::BranchEvent> Batch =
          S->Window[I].subspan(Pos[I], BatchEvents);
      const uint64_t PushStart = nowNs();
      while (!Batch.empty()) {
        const size_t Got = Push.push(*S->Streams[I].Ring, Batch, Next);
        Batch = Batch.subspan(Got);
        if (!Got)
          std::this_thread::yield();
      }
      if (nowNs() - PushStart > RefuseAfterNs)
        R.fail("open-loop batch not accepted within its refusal limit");
      Pos[I] += BatchEvents;
      Open.push_back({I, Pos[I], Due, Next});
      ++Next;
    }
    std::vector<double> &All = R.Samples["latency_us"];
    All.insert(All.end(), Latency.begin(), Latency.end());
    R.Attempted += OpenBatches;
  }

  /// Every stream finishes with all it was sent; live == batch on a
  /// seeded sample of streams.
  void check() {
    serve::StreamServer &Server = *S->Server;
    for (const auto &H : S->Streams)
      H.Ring->close();
    for (const auto &H : S->Streams)
      Server.waitFinished(H.Id);
    for (unsigned I = 0; I < NumStreams; ++I) {
      const serve::StreamId Id = S->Streams[I].Id;
      ++R.Attempted;
      if (!Server.finished(Id) || Server.processed(Id) != Pos[I]) {
        R.fail("stream " + std::to_string(Id) + " unfinished");
        continue;
      }
      const core::ControlStats &St = Server.streamStats(Id);
      Correct += static_cast<double>(St.CorrectSpecs);
      Incorrect += static_cast<double>(St.IncorrectSpecs);
      Branches += static_cast<double>(St.Branches);
      Requests += static_cast<double>(St.DeployRequests + St.RevokeRequests);
    }
    uint64_t Pick = mixSeed(Opt.Seed ^ 0x4C495645ull);
    for (unsigned K = 0; K < CheckedStreams; ++K) {
      Pick = mixSeed(Pick);
      const unsigned I = static_cast<unsigned>(Pick % NumStreams);
      core::ReactiveController Ctl(serveControl());
      SpanSource Source(S->Window[I].first(Pos[I]));
      core::runTrace(Ctl, Source);
      ++R.Attempted;
      if (!(Ctl.stats() == Server.streamStats(S->Streams[I].Id)))
        R.fail("live != batch for stream " + std::to_string(I));
    }
  }

  const Options &Opt;
  Results &R;
  Tracer *T;
  PushTrace Plain;
  uint64_t RoundName = 0, UntracedRoundName = 0, FirstRoundName = 0;
  std::unique_ptr<ServeSetup> S;
  std::vector<uint64_t> Pos; ///< events pushed per stream
};

} // namespace

void perfbench::runServe(const Options &Opt, Results &R, Tracer *T) {
  const uint64_t RunStart = nowNs();
  std::unique_ptr<Session> Last;
  double LastWall = 0;
  unsigned Sessions = 0;
  double Pushes = 0, ZeroPushes = 0;
  double Stats[4] = {0, 0, 0, 0}; // the first session's pooled stats
  while (Sessions == 0 ||
         secondsBetween(RunStart, nowNs()) + LastWall <= Opt.Seconds) {
    Last.reset(); // the previous session's server and windows go first
    releaseFreeMemory();
    const uint64_t Start = nowNs();
    // Traced runs trace their first session only: one session's spans
    // give every per-layer metric, and all of them would take gigabytes.
    Last = std::make_unique<Session>(Opt, R, Sessions == 0 ? T : nullptr);
    Last->run();
    LastWall = secondsBetween(Start, nowNs());
    Pushes += static_cast<double>(Last->Traced.Pushes);
    ZeroPushes += static_cast<double>(Last->Traced.ZeroPushes);
    // Every session replays the same windows, so its stats must repeat.
    const double These[4] = {Last->Correct, Last->Incorrect, Last->Branches,
                             Last->Requests};
    if (Sessions == 0)
      std::copy(These, These + 4, Stats);
    else if (!std::equal(These, These + 4, Stats))
      R.fail("session " + std::to_string(Sessions) +
             " stats differ from the first session's");
    ++R.Attempted;
    ++Sessions;
  }
  R.Values["sessions"] = Sessions;
  R.Values["correct_pct"] =
      Last->Branches ? 100.0 * Last->Correct / Last->Branches : 0;
  R.Values["misspec_pct"] =
      Last->Branches ? 100.0 * Last->Incorrect / Last->Branches : 0;
  R.Values["core.requests"] = Last->Requests;
  if (!T)
    return;
  T->count("core.requests", Last->Requests);
  T->count("serve.pushes", Pushes);
  T->count("serve.zero_pushes", ZeroPushes);
  T->count("serve.consumers", threadBudget() > 1 ? threadBudget() - 1 : 1);
  T->count("serve.closed_wall_s", Last->ClosedWall);
  T->count("serve.probe_scale", ProbeStride);
  Last->probe(*T);
}
