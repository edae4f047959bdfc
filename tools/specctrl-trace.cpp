//===- tools/specctrl-trace.cpp - Workload/trace inspection tool ----------===//
//
// Inspection tooling for the workload substrate:
//
//   specctrl-trace --bench=NAME [--input=ref|train] ...
//     --list-sites            dump the static site table (behavior, weight)
//     --dump-profile[=FILE]   run and save the whole-run branch profile
//     --synthesize            print the benchmark-like SimIR program
//     --head=N                print the first N branch events
//     --record=FILE           record the run as a binary trace
//     --trace-format=v1|v2    on-disk format for --record (default v2)
//     --align                 page-align v2 blocks (--record/--migrate),
//                             the exact-madvise layout for the mmap store
//     --replay=FILE           summarize a recorded trace (either format)
//     --mmap                  replay zero-copy through the mmap store and
//                             report peak resident memory
//     --migrate=FILE          rewrite FILE as v2 into --record=DST
//     --stats=FILE            structural stats: blocks, pad bytes,
//                             bytes/event, layout
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "ir/Printer.h"
#include "profile/BranchProfile.h"
#include "support/Format.h"
#include "support/Options.h"
#include "support/Table.h"
#include "workload/ProgramSynthesizer.h"
#include "workload/SpecSuite.h"
#include "workload/MmapTraceStore.h"
#include "workload/TraceFile.h"
#include "workload/TraceGenerator.h"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>

using namespace specctrl;
using namespace specctrl::workload;

int main(int Argc, char **Argv) {
  OptionSet Opts("specctrl-trace: inspect the synthetic workloads");
  Opts.addString("bench", "gzip", "benchmark name");
  Opts.addString("input", "ref", "input data set: ref or train");
  Opts.addFlag("list-sites", "dump the static site table");
  Opts.addString("dump-profile", "", "run fully and save the profile here");
  Opts.addString("record", "", "record the run as a binary trace file");
  Opts.addString("trace-format", "v2", "trace format for --record: v1 or v2");
  Opts.addString("replay", "", "summarize a recorded binary trace file");
  Opts.addFlag("mmap", "replay zero-copy through the mmap store (v2 files) "
                       "and report peak resident memory");
  Opts.addString("migrate", "", "rewrite this trace as v2 into --record=DST");
  Opts.addString("stats", "",
                 "print structural stats for this trace file (blocks, pad "
                 "bytes, bytes/event, layout)");
  Opts.addFlag("align",
               "page-align v2 blocks written by --record/--migrate so the "
               "mmap store's madvise windows are exact");
  Opts.addFlag("synthesize", "print the benchmark-like SimIR program");
  Opts.addInt("head", 0, "print the first N branch events");
  bench::addScaleOptions(Opts); // shared with the bench harnesses
  if (!Opts.parse(Argc, Argv))
    return Opts.wasError() ? 1 : 0;

  const SuiteScale Scale = bench::readScale(Opts);
  const WorkloadSpec Spec = makeBenchmark(Opts.getString("bench"), Scale);
  const InputConfig Input = Opts.getString("input") == "train"
                                ? Spec.trainInput()
                                : Spec.refInput();

  if (Opts.getFlag("synthesize")) {
    SynthProgram P = synthesize(makeSynthSpecFor(
        profileByName(Spec.Name), /*Iterations=*/1000));
    ir::printModule(P.Mod, std::cout);
    return 0;
  }

  if (Opts.getFlag("list-sites")) {
    const std::vector<double> Execs = Spec.expectedSiteExecs(Input);
    Table Out({"site", "behavior", "P(taken)", "expected execs", "gated",
               "phases"});
    for (SiteId S = 0; S < Spec.numSites(); ++S) {
      const SiteSpec &Site = Spec.Sites[S];
      std::string Phases;
      for (unsigned P = 0; P < Spec.NumPhases; ++P)
        Phases += (Site.PhaseMask >> P) & 1 ? '#' : '.';
      Out.row()
          .cell(static_cast<uint64_t>(S))
          .cell(behaviorKindName(Site.Behavior.Kind))
          .cell(Site.Behavior.BiasA, 4)
          .cell(formatMagnitude(Execs[S]))
          .cell(Site.InputGated ? "yes" : "")
          .cell(Phases);
    }
    Out.printText(std::cout);
    return 0;
  }

  if (!Opts.getString("stats").empty()) {
    const std::string &Path = Opts.getString("stats");
    std::string Error;
    const std::shared_ptr<const MaterializedTrace> Trace =
        MaterializedTrace::map(Path, &Error);
    if (!Trace) {
      std::cerr << "error: " << Error << '\n';
      return 1;
    }
    const uint64_t PadBytes = Trace->bytes() - TraceV2HeaderBytes -
                              Trace->encodedBlockBytes();
    char PerEvent[32];
    std::snprintf(PerEvent, sizeof(PerEvent), "%.2f",
                  Trace->totalEvents()
                      ? static_cast<double>(Trace->encodedBlockBytes()) /
                            static_cast<double>(Trace->totalEvents())
                      : 0.0);
    Table Out({"stat", "value"});
    Out.row().cell("events").cell(Trace->totalEvents());
    Out.row().cell("sites").cell(static_cast<uint64_t>(Trace->numSites()));
    Out.row().cell("blocks").cell(static_cast<uint64_t>(Trace->numBlocks()));
    Out.row().cell("file bytes").cell(static_cast<uint64_t>(Trace->bytes()));
    Out.row().cell("encoded bytes").cell(Trace->encodedBlockBytes());
    Out.row().cell("pad bytes").cell(PadBytes);
    Out.row().cell("bytes/event").cell(PerEvent);
    Out.row().cell("layout").cell(PadBytes != 0 ? "aligned" : "packed");
    Out.printText(std::cout);
    return 0;
  }

  if (!Opts.getString("replay").empty() && Opts.getFlag("mmap")) {
    const std::string &Path = Opts.getString("replay");
    std::string Error;
    const std::unique_ptr<ArenaReplaySource> Cursor =
        MmapTraceStore::global().openCursor(Path, &Error);
    if (!Cursor) {
      std::cerr << "error: " << Error << '\n';
      return 1;
    }
    const auto Start = std::chrono::steady_clock::now();
    uint64_t Events = 0;
    std::vector<BranchEvent> Chunk(DefaultBatchEvents);
    while (const size_t N = Cursor->nextBatch(Chunk))
      Events += N;
    if (Cursor->failed()) {
      std::cerr << "error: " << Cursor->error() << '\n';
      return 1;
    }
    const double Seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      Start)
            .count();
    struct rusage Usage {};
    ::getrusage(RUSAGE_SELF, &Usage);
    std::cout << "replayed "
              << formatMagnitude(static_cast<double>(Events))
              << " events (v2, mmap) over " << Cursor->trace().numSites()
              << " sites in " << formatMagnitude(Seconds) << "s ("
              << formatMagnitude(Seconds > 0.0
                                     ? static_cast<double>(Events) / Seconds
                                     : 0.0)
              << " events/s), peak RSS "
              << formatMagnitude(static_cast<double>(Usage.ru_maxrss) *
                                 1024.0)
              << "B over a "
              << formatMagnitude(static_cast<double>(Cursor->trace().bytes()))
              << "B mapping\n";
    return 0;
  }

  if (!Opts.getString("replay").empty()) {
    std::ifstream In(Opts.getString("replay"), std::ios::binary);
    TraceFileReader Reader(In);
    if (!Reader.valid()) {
      std::cerr << "error: not a trace file\n";
      return 1;
    }
    profile::BranchProfile P(Reader.numSites());
    std::vector<BranchEvent> Chunk(DefaultBatchEvents);
    while (const size_t N = Reader.nextBatch(Chunk))
      for (size_t I = 0; I < N; ++I)
        P.addOutcome(Chunk[I].Site, Chunk[I].Taken);
    if (Reader.failed()) {
      std::cerr << "error: " << Reader.error() << '\n';
      return 1;
    }
    std::cout << "replayed " << formatMagnitude(static_cast<double>(
                     P.totalExecutions()))
              << " events (v" << Reader.version() << ") over "
              << P.touchedSites() << " sites"
              << (Reader.truncated() ? " (TRUNCATED FILE)" : "") << '\n';
    return Reader.truncated() ? 1 : 0;
  }

  if (!Opts.getString("migrate").empty()) {
    const std::string &Dst = Opts.getString("record");
    if (Dst.empty()) {
      std::cerr << "error: --migrate requires --record=DST\n";
      return 1;
    }
    std::ifstream In(Opts.getString("migrate"), std::ios::binary);
    if (!In) {
      std::cerr << "error: cannot read '" << Opts.getString("migrate")
                << "'\n";
      return 1;
    }
    std::ofstream Out(Dst, std::ios::binary);
    if (!Out) {
      std::cerr << "error: cannot write trace file\n";
      return 1;
    }
    workload::TraceMigrateStats Stats;
    const uint32_t Align = Opts.getFlag("align") ? TraceV2AlignBytes : 0;
    const uint64_t N =
        migrateTrace(In, Out, TraceV2BlockEvents, &Stats, Align);
    if (N == 0) {
      std::cerr << "error: migration failed (invalid, truncated, or "
                   "corrupt input)\n";
      return 1;
    }
    char Ratio[32];
    std::snprintf(Ratio, sizeof(Ratio), "%.2f", Stats.CompressionVsV1);
    std::cout << "migrated " << formatMagnitude(static_cast<double>(N))
              << " events to " << Dst << " (v2, " << Stats.Blocks
              << " blocks, " << Ratio << "x vs v1)\n";
    return 0;
  }

  if (!Opts.getString("record").empty()) {
    const std::string &Format = Opts.getString("trace-format");
    if (Format != "v1" && Format != "v2") {
      std::cerr << "error: unknown --trace-format '" << Format << "'\n";
      return 1;
    }
    std::ofstream OutFile(Opts.getString("record"), std::ios::binary);
    if (!OutFile) {
      std::cerr << "error: cannot write trace file\n";
      return 1;
    }
    if (Opts.getFlag("align") && Format != "v2") {
      std::cerr << "error: --align requires --trace-format=v2\n";
      return 1;
    }
    TraceGenerator Gen(Spec, Input);
    const uint32_t Align = Opts.getFlag("align") ? TraceV2AlignBytes : 0;
    const uint64_t N = Format == "v1"
                           ? writeTrace(OutFile, Gen)
                           : writeTraceV2(OutFile, Gen,
                                          TraceV2BlockEvents, Align);
    if (N == 0) {
      std::cerr << "error: trace write failed\n";
      return 1;
    }
    std::cout << "recorded " << formatMagnitude(static_cast<double>(N))
              << " events (" << Format << ") to "
              << Opts.getString("record") << '\n';
    return 0;
  }

  const int64_t Head = Opts.getInt("head");
  if (Head > 0) {
    TraceGenerator Gen(Spec, Input);
    BranchEvent E;
    Table Out({"index", "site", "taken", "instret"});
    for (int64_t I = 0; I < Head && Gen.next(E); ++I)
      Out.row()
          .cell(E.Index)
          .cell(static_cast<uint64_t>(E.Site))
          .cell(E.Taken ? "T" : "N")
          .cell(E.InstRet);
    Out.printText(std::cout);
    return 0;
  }

  // Default / --dump-profile: run fully and report.
  profile::BranchProfile P(Spec.numSites());
  TraceGenerator Gen(Spec, Input);
  BranchEvent E;
  while (Gen.next(E))
    P.addOutcome(E.Site, E.Taken);

  const std::string &File = Opts.getString("dump-profile");
  if (!File.empty()) {
    std::ofstream OS(File);
    if (!OS) {
      std::cerr << "error: cannot write '" << File << "'\n";
      return 1;
    }
    P.save(OS);
    std::cout << "wrote profile for " << Spec.Name << "/" << Input.Name
              << " (" << P.touchedSites() << " sites, "
              << formatMagnitude(static_cast<double>(P.totalExecutions()))
              << " events) to " << File << '\n';
    return 0;
  }

  std::cout << Spec.Name << "/" << Input.Name << ": "
            << formatMagnitude(static_cast<double>(P.totalExecutions()))
            << " events over " << P.touchedSites() << " touched sites, "
            << formatMagnitude(
                   static_cast<double>(Gen.instructionsRetired()))
            << " instructions\n";
  return 0;
}
