//===- bench/vm_throughput.cpp - engine dispatch throughput -------------------===//
//
// Host-time comparison of the two VM engines: executes a slice of the
// workload suite on the reference switch interpreter and on the
// predecoded threaded engine, and reports simulated instructions retired
// per host second. Two legs: uninstrumented runs under the default
// 16 KB caches, and Context+Flow+HW profiled runs under the 256 B
// I-cache the repository benchmark's profile-cold workload uses, so the
// profiling code and the small-cache miss path are timed too. The
// threaded engine's predecode pass runs inside the timed region — it is
// part of that engine's cost.
//
// Writes BENCH_vm_throughput.json (machine-readable, stamped with the
// host it ran on; the committed copy at the repository root records the
// numbers this change was merged with) and prints the same data as
// tables. With --check it exits non-zero when either leg's aggregate
// threaded/reference speedup falls below its committed floor — the
// regression tripwire CI runs.
//
//===----------------------------------------------------------------------===//

#include "Host.h"

#include "prof/Session.h"
#include "support/TableWriter.h"
#include "workloads/Spec.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

using namespace pp;

namespace {

/// The committed floors for each leg's aggregate threaded/reference
/// speedup (--check / the CI job). Release builds on a 4-core Xeon with
/// GCC 12 measured 1.51x-1.62x uninstrumented over five runs once the
/// threaded engine got its hook-free instantiation, and 1.31x-1.38x
/// before it; that floor sits under the first range, so host noise passes
/// while losing that instantiation's gain fails. The profiled leg
/// measured 1.31x-1.41x over six runs on the same host; its floor leaves
/// the same margin under that range.
constexpr double PlainSpeedupFloor = 1.40;
constexpr double ProfiledSpeedupFloor = 1.20;

struct Sample {
  uint64_t Insts = 0;
  double Seconds = 0;
  double instsPerSec() const { return double(Insts) / Seconds; }
};

/// One timed execution of a workload on one engine: instrument and load
/// untimed, then time the run itself.
Sample timeOnce(const std::string &Name, int Scale,
                const prof::SessionOptions &Options, vm::Engine E) {
  auto M = workloads::buildWorkload(Name, Scale);
  if (!M) {
    std::fprintf(stderr, "unknown workload %s\n", Name.c_str());
    std::exit(1);
  }
  prof::SessionOptions O = Options;
  O.Engine = E;
  prof::RunStager Stager(*M, O);
  Stager.instrument();
  Stager.load();
  auto T0 = std::chrono::steady_clock::now();
  Stager.execute();
  auto T1 = std::chrono::steady_clock::now();
  vm::RunResult R = Stager.extract().Result;
  if (!R.Ok) {
    std::fprintf(stderr, "%s failed: %s\n", Name.c_str(), R.Error.c_str());
    std::exit(1);
  }
  return {R.ExecutedInsts, std::chrono::duration<double>(T1 - T0).count()};
}

/// Times one workload on both engines as N back-to-back pairs (the
/// within-pair order alternating per rep) and reports the pair whose
/// speedup is the median of the per-pair speedups. Pairing is the noise
/// defence: host frequency drift or a co-tenant burst slows both halves
/// of a pair roughly equally, so the per-pair ratio stays stable even
/// when absolute rates swing; taking the median pair (not the fastest
/// halves independently) keeps the reported rates and ratio
/// self-consistent samples from one moment in time.
void timePair(const std::string &Name, int Scale,
              const prof::SessionOptions &Options, Sample &RefOut,
              Sample &ThrOut) {
  constexpr int Reps = 9;
  timeOnce(Name, Scale, Options, vm::Engine::Reference); // warm the caches
  std::vector<std::pair<Sample, Sample>> Pairs; // (reference, threaded)
  for (int Rep = 0; Rep != Reps; ++Rep) {
    vm::Engine First =
        (Rep & 1) ? vm::Engine::Threaded : vm::Engine::Reference;
    vm::Engine Second =
        (Rep & 1) ? vm::Engine::Reference : vm::Engine::Threaded;
    Sample A = timeOnce(Name, Scale, Options, First);
    Sample B = timeOnce(Name, Scale, Options, Second);
    Pairs.emplace_back((Rep & 1) ? B : A, (Rep & 1) ? A : B);
  }
  std::sort(Pairs.begin(), Pairs.end(), [](const auto &L, const auto &R) {
    return L.second.Seconds * R.first.Seconds <
           R.second.Seconds * L.first.Seconds; // by threaded/reference ratio
  });
  RefOut = Pairs[Reps / 2].first;
  ThrOut = Pairs[Reps / 2].second;
}

std::string fmt(const char *Format, double Value) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), Format, Value);
  return Buf;
}

/// One configuration both engines are compared under.
struct Leg {
  const char *Name;
  const char *Title;
  const prof::SessionOptions *Options;
  double Floor;
};

struct Target {
  const char *Name;
  int Scale;
};

/// Times every target under \p L, prints its table, and returns the
/// aggregate speedup; \p Json receives the leg's JSON object.
double runLeg(const Leg &L, const std::vector<Target> &Targets,
              std::string &Json) {
  TableWriter Table;
  Table.setHeader({"Workload", "MInsts", "Ref MI/s", "Thr MI/s", "Speedup"});
  Table.addSeparator();

  uint64_t TotalInsts = 0;
  double RefSeconds = 0, ThrSeconds = 0;
  std::string Rows;
  for (const Target &T : Targets) {
    Sample Ref, Thr;
    timePair(T.Name, T.Scale, *L.Options, Ref, Thr);
    TotalInsts += Ref.Insts;
    RefSeconds += Ref.Seconds;
    ThrSeconds += Thr.Seconds;
    double Speedup = Thr.instsPerSec() / Ref.instsPerSec();
    Table.addRow({T.Name, fmt("%.1f", double(Ref.Insts) / 1e6),
                  fmt("%.1f", Ref.instsPerSec() / 1e6),
                  fmt("%.1f", Thr.instsPerSec() / 1e6),
                  fmt("%.2fx", Speedup)});
    char Row[256];
    std::snprintf(Row, sizeof(Row),
                  "%s        {\"workload\": \"%s\", \"scale\": %d, "
                  "\"insts\": %llu, \"reference_insts_per_sec\": %.0f, "
                  "\"threaded_insts_per_sec\": %.0f, \"speedup\": %.3f}",
                  Rows.empty() ? "" : ",\n", T.Name, T.Scale,
                  (unsigned long long)Ref.Insts, Ref.instsPerSec(),
                  Thr.instsPerSec(), Speedup);
    Rows += Row;
  }

  double RefAgg = double(TotalInsts) / RefSeconds;
  double ThrAgg = double(TotalInsts) / ThrSeconds;
  double Aggregate = ThrAgg / RefAgg;
  Table.addSeparator();
  Table.addRow({"aggregate", fmt("%.1f", double(TotalInsts) / 1e6),
                fmt("%.1f", RefAgg / 1e6), fmt("%.1f", ThrAgg / 1e6),
                fmt("%.2fx", Aggregate)});
  std::printf("VM engine throughput, %s (median of 9 interleaved reps)\n\n"
              "%s\n",
              L.Title, Table.render().c_str());

  char Agg[256];
  std::snprintf(Agg, sizeof(Agg),
                "      \"reference_insts_per_sec\": %.0f,\n"
                "      \"threaded_insts_per_sec\": %.0f,\n"
                "      \"aggregate_speedup\": %.3f,\n"
                "      \"aggregate_speedup_floor\": %.2f}",
                RefAgg, ThrAgg, Aggregate, L.Floor);
  Json = std::string("    {\"leg\": \"") + L.Name + "\",\n      \"rows\": [\n" +
         Rows + "\n      ],\n" + Agg;
  return Aggregate;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Check = false;
  for (int Index = 1; Index != Argc; ++Index) {
    if (std::strcmp(Argv[Index], "--check") == 0) {
      Check = true;
    } else {
      std::fprintf(stderr, "vm_throughput: unknown option '%s'\n",
                   Argv[Index]);
      return 1;
    }
  }

  // A branchy interpreter shape, a search shape, and a loop-nest FP shape:
  // together they cover the dispatch patterns that matter for an
  // interpreter (unpredictable indirect control flow vs straight lines).
  // Scales chosen so each run retires tens of millions of instructions:
  // long enough to amortise the threaded engine's predecode pass (which
  // is timed as part of that engine) and to push wall-clock noise well
  // under the effect being measured.
  const std::vector<Target> Targets = {
      {"126.gcc", 200}, {"099.go", 200}, {"101.tomcatv", 100}};

  prof::SessionOptions Plain, Profiled;
  Plain.Config.M = prof::Mode::None;
  Profiled.Config.M = prof::Mode::ContextFlowHw;
  Profiled.Config.Pic0 = hw::Event::Cycles;
  Profiled.Config.Pic1 = hw::Event::ICacheMiss;
  Profiled.MachineCfg.ICache = hw::CacheConfig{256, 64, 1};
  const Leg Legs[] = {
      {"plain", "uninstrumented runs, default caches", &Plain,
       PlainSpeedupFloor},
      {"profiled", "Context+Flow+HW runs, 256 B I-cache", &Profiled,
       ProfiledSpeedupFloor}};

  std::ofstream Json("BENCH_vm_throughput.json");
  Json << "{\n  \"bench\": \"vm_throughput\",\n  \"legs\": [\n";
  bool Failed = false;
  for (const Leg &L : Legs) {
    std::string Object;
    double Aggregate = runLeg(L, Targets, Object);
    Json << Object << (&L == &Legs[0] ? ",\n" : "\n");
    std::printf("%s: aggregate speedup %.2fx, floor %.2fx\n\n", L.Name,
                Aggregate, L.Floor);
    if (Check && Aggregate < L.Floor) {
      std::fprintf(stderr,
                   "vm_throughput: %s aggregate speedup %.3fx is below the "
                   "committed floor %.2fx\n",
                   L.Name, Aggregate, L.Floor);
      Failed = true;
    }
  }
  Json << "  ],\n  \"host\": " << bench::hostJson() << "\n}\n";
  std::printf("wrote BENCH_vm_throughput.json\n");
  return Failed ? 1 : 0;
}
