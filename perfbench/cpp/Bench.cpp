//===- perfbench/cpp/Bench.cpp - Benchmark binary plumbing ----------------===//
//
// Part of the specctrl project (CGO 2005 reactive speculation reproduction).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

extern char **environ;

using namespace perfbench;

uint64_t perfbench::nowNs() {
  static const Clock::time_point Epoch = Clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           Epoch)
          .count());
}

uint64_t perfbench::mixSeed(uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

unsigned perfbench::threadBudget() {
  // One hardware thread stays free: with every vCPU of a 4-vCPU guest busy,
  // the host preempts the load in millisecond gaps (measured: up to a fifth
  // of each thread's time), which no repetition count averages out.
  const unsigned Hw = std::min(std::thread::hardware_concurrency(), 4u);
  return Hw > 1 ? Hw - 1 : 1;
}

double perfbench::peakRssMb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // KiB
  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0;
}

void perfbench::resetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

void perfbench::releaseFreeMemory() { malloc_trim(0); }

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

void Results::fail(const std::string &What) {
  ++Failed;
  if (Failures.size() < 16)
    Failures.push_back(What);
}

namespace {

void writeNumber(std::ostream &OS, double V) {
  if (!std::isfinite(V)) {
    OS << "null";
    return;
  }
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  OS << Buf;
}

void writeString(std::ostream &OS, const std::string &S) {
  OS << '"';
  for (char C : S) {
    if (C == '"' || C == '\\')
      OS << '\\' << C;
    else if (static_cast<unsigned char>(C) < 0x20)
      OS << ' ';
    else
      OS << C;
  }
  OS << '"';
}

void writeSeries(std::ostream &OS,
                 const std::map<std::string, std::vector<double>> &M) {
  OS << '{';
  bool First = true;
  for (const auto &[Key, Values] : M) {
    if (!First)
      OS << ',';
    First = false;
    writeString(OS, Key);
    OS << ":[";
    for (size_t I = 0; I < Values.size(); ++I) {
      if (I)
        OS << ',';
      writeNumber(OS, Values[I]);
    }
    OS << ']';
  }
  OS << '}';
}

void writeScalars(std::ostream &OS, const std::map<std::string, double> &M) {
  OS << '{';
  bool First = true;
  for (const auto &[Key, V] : M) {
    if (!First)
      OS << ',';
    First = false;
    writeString(OS, Key);
    OS << ':';
    writeNumber(OS, V);
  }
  OS << '}';
}

} // namespace

bool Results::write(const std::string &Path, const Options &Opt) const {
  std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
  if (!OS)
    return false;
  OS << "{\"workload\":";
  writeString(OS, Opt.Workload);
  OS << ",\"seed\":" << Opt.Seed << ",\"traced\":" << (Opt.Trace ? 1 : 0)
     << ",\"threads\":" << threadBudget() << ",\"attempted\":" << Attempted
     << ",\"failed\":" << Failed << ",\"failures\":[";
  for (size_t I = 0; I < Failures.size(); ++I) {
    if (I)
      OS << ',';
    writeString(OS, Failures[I]);
  }
  OS << "],\"samples\":";
  writeSeries(OS, Samples);
  OS << ",\"values\":";
  writeScalars(OS, Values);
  OS << "}\n";
  return static_cast<bool>(OS.flush());
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

namespace {
thread_local uint64_t CurrentSpanId = 0;
thread_local std::vector<SpanRecord> *LocalSpans = nullptr;
} // namespace

Tracer::Tracer() { Names.push_back(""); }

uint64_t Tracer::name(const std::string &Name) {
  for (size_t I = 0; I < Names.size(); ++I)
    if (Names[I] == Name)
      return I;
  Names.push_back(Name);
  return Names.size() - 1;
}

std::vector<SpanRecord> &Tracer::localBuffer() {
  // One tracer per process, so a plain thread_local buffer pointer works.
  if (!LocalSpans) {
    auto Buf = std::make_unique<std::vector<SpanRecord>>();
    Buf->reserve(1 << 12);
    LocalSpans = Buf.get();
    std::lock_guard<std::mutex> Lock(Mutex);
    Buffers.push_back(std::move(Buf));
  }
  return *LocalSpans;
}

void Tracer::record(const SpanRecord &S) { localBuffer().push_back(S); }

void Tracer::count(const std::string &Key, double Delta) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Counters[Key] += Delta;
}

void Tracer::sample(const std::string &Key, double V) {
  std::lock_guard<std::mutex> Lock(Mutex);
  SampleSeries[Key].push_back(V);
}

bool Tracer::write(const std::string &Path,
                   const std::string &Workload) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  size_t Total = 0;
  for (const auto &B : Buffers)
    Total += B->size();
  std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
  if (!OS)
    return false;
  OS << "{\"format\":\"perfbench-spans-1\",\"workload\":";
  writeString(OS, Workload);
  OS << ",\"threads\":" << threadBudget() << ",\"names\":[";
  for (size_t I = 0; I < Names.size(); ++I) {
    if (I)
      OS << ',';
    writeString(OS, Names[I]);
  }
  OS << "],\"counters\":";
  writeScalars(OS, Counters);
  OS << ",\"samples\":";
  writeSeries(OS, SampleSeries);
  OS << ",\"spans\":" << Total << "}\n";
  for (const auto &B : Buffers)
    for (const SpanRecord &S : *B) {
      const uint64_t Fields[7] = {S.Id,    S.Parent, S.Request, S.StartNs,
                                  S.EndNs, S.Name,   S.Count};
      unsigned char Bytes[sizeof(Fields)];
      for (size_t F = 0; F < 7; ++F)
        for (size_t K = 0; K < 8; ++K)
          Bytes[F * 8 + K] = static_cast<unsigned char>(Fields[F] >> (8 * K));
      OS.write(reinterpret_cast<const char *>(Bytes), sizeof(Bytes));
    }
  return static_cast<bool>(OS.flush());
}

ScopedSpan::ScopedSpan(Tracer *T, uint64_t Name, uint64_t Request,
                       uint64_t Parent)
    : T(T) {
  if (!T)
    return;
  Rec.Id = T->newId();
  Rec.Parent = Parent == ~0ull ? CurrentSpanId : Parent;
  Rec.Request = Request;
  Rec.Name = Name;
  SavedCurrent = CurrentSpanId;
  CurrentSpanId = Rec.Id;
  Rec.StartNs = nowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!T)
    return;
  Rec.EndNs = nowNs();
  CurrentSpanId = SavedCurrent;
  T->record(Rec);
}

OpenSpan::OpenSpan(Tracer *T, uint64_t Name, uint64_t Request,
                   uint64_t Parent)
    : T(T) {
  if (!T)
    return;
  Rec.Id = T->newId();
  Rec.Parent = Parent;
  Rec.Request = Request;
  Rec.Name = Name;
  SavedCurrent = CurrentSpanId;
  CurrentSpanId = Rec.Id;
  Rec.StartNs = nowNs();
}

void OpenSpan::close(uint64_t Count) {
  if (!T || Closed)
    return;
  Closed = true;
  Rec.EndNs = nowNs();
  Rec.Count = Count;
  CurrentSpanId = SavedCurrent;
  T->record(Rec);
}

//===----------------------------------------------------------------------===//
// main
//===----------------------------------------------------------------------===//

namespace {

int usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload sweep|mssp|serve --seed N "
               "--seconds S --out RESULTS.json [--trace-out SPANS.bin]\n",
               Msg);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Arg).c_str());
    const std::string Val = Argv[++I];
    if (Arg == "--workload")
      Opt.Workload = Val;
    else if (Arg == "--seed")
      Opt.Seed = std::strtoull(Val.c_str(), nullptr, 10);
    else if (Arg == "--seconds")
      Opt.Seconds = std::strtod(Val.c_str(), nullptr);
    else if (Arg == "--out")
      Opt.OutPath = Val;
    else if (Arg == "--trace-out")
      Opt.TracePath = Val;
    else
      return usage(("unknown option " + Arg).c_str());
  }
  if (Opt.OutPath.empty() || !(Opt.Seconds > 0))
    return usage("--out and a positive --seconds are required");
  Opt.Trace = !Opt.TracePath.empty();

  // An ambient library knob (tier, ring size, epoch, verification...)
  // would silently change what is measured: refuse to run under one.
  for (char **E = environ; *E; ++E)
    if (std::strncmp(*E, "SPECCTRL_", 9) == 0) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set; the benchmark "
                   "measures library defaults only\n",
                   *E);
      return 3;
    }

  (void)nowNs(); // pin the epoch
  Results R;
  std::unique_ptr<Tracer> T;
  if (Opt.Trace)
    T = std::make_unique<Tracer>();

  void (*Run)(const Options &, Results &, Tracer *) =
      Opt.Workload == "sweep"   ? runSweep
      : Opt.Workload == "mssp"  ? runMssp
      : Opt.Workload == "serve" ? runServe
                                : nullptr;
  if (!Run)
    return usage(("unknown workload '" + Opt.Workload + "'").c_str());
  try {
    Run(Opt, R, T.get());
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", Opt.Workload.c_str(),
                 E.what());
    return 1;
  }

  if (!R.Samples.count("peak_rss_mb"))
    R.add("peak_rss_mb", peakRssMb());
  if (!R.write(Opt.OutPath, Opt)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", Opt.OutPath.c_str());
    return 1;
  }
  if (T && !T->write(Opt.TracePath, Opt.Workload)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 Opt.TracePath.c_str());
    return 1;
  }
  return 0;
}
