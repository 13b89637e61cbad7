//===- perfbench/src/Main.cpp - The benchmark driver ---------------------===//
//
// usage: ppbench --workload <profile-cold|replay-warm|fleet-ingest>
//                --seed N --seconds S --trace 0|1 --work-dir DIR
//                [--record FILE] [--spans FILE]
//                [--upload-rate R --query-rate Q]
//
// Runs one workload and prints, as its last line, one JSON object with
// the keys correct, attempted, failed and metrics: the end-to-end metrics
// with --trace 0, the per-layer ones with --trace 1. --record writes the
// full result record (host stamp, workload figures, failures); --spans
// writes the traced run's spans. Refuses to run when any PP_* variable is
// set. run.py builds this binary and is the normal way to call it.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Host.h"
#include "Stats.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "ppbench: %s\nusage: ppbench --workload W --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--record FILE] "
               "[--spans FILE] [--upload-rate R --query-rate Q]\n",
               Why);
  return 2;
}

std::string metricsJson(const std::map<std::string, Metric> &Metrics) {
  std::string Out = "{";
  bool First = true;
  for (const auto &[Name, M] : Metrics) {
    Out += (First ? "" : ", ") + jsonString(Name) + ": {\"value\": " +
           jsonNumber(M.Value) + ", \"unit\": " + jsonString(M.Unit) + "}";
    First = false;
  }
  return Out + "}";
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  std::string Record, SpansPath, Trace;
  for (int Index = 1; Index + 1 < Argc; Index += 2) {
    std::string Flag = Argv[Index], Value = Argv[Index + 1];
    char *End = nullptr;
    if (Flag == "--workload")
      O.Workload = Value;
    else if (Flag == "--seed")
      O.Seed = std::strtoull(Value.c_str(), &End, 10);
    else if (Flag == "--seconds")
      O.Seconds = std::strtod(Value.c_str(), &End);
    else if (Flag == "--trace")
      Trace = Value;
    else if (Flag == "--work-dir")
      O.WorkDir = Value;
    else if (Flag == "--record")
      Record = Value;
    else if (Flag == "--spans")
      SpansPath = Value;
    else if (Flag == "--upload-rate")
      O.UploadRate = std::strtod(Value.c_str(), &End);
    else if (Flag == "--query-rate")
      O.QueryRate = std::strtod(Value.c_str(), &End);
    else
      return usage(("unknown flag " + Flag).c_str());
    if (End && *End)
      return usage(("malformed value for " + Flag).c_str());
  }
  if (Argc % 2 == 0)
    return usage("flags take one value each");
  if (Trace != "0" && Trace != "1")
    return usage("--trace must be 0 or 1");
  O.Trace = Trace == "1";
  if (O.WorkDir.empty() || !(O.Seconds > 0))
    return usage("--work-dir and a positive --seconds are required");
  std::string Pp = firstPpVariable();
  if (!Pp.empty()) {
    std::fprintf(stderr,
                 "ppbench: refusing to run with %s set: PP_* variables "
                 "change what is measured\n",
                 Pp.c_str());
    return 2;
  }
  O.Cores = usableCores();

  Result (*Run)(const Options &, Tracer &) = nullptr;
  if (O.Workload == "profile-cold")
    Run = runProfileCold;
  else if (O.Workload == "replay-warm")
    Run = runReplayWarm;
  else if (O.Workload == "fleet-ingest") {
    Run = runFleetIngest;
    if (!(O.UploadRate > 0) || !(O.QueryRate > 0))
      return usage("fleet-ingest needs --upload-rate and --query-rate");
  } else
    return usage("unknown workload");

  std::error_code Ec;
  std::filesystem::remove_all(O.WorkDir, Ec);
  std::filesystem::create_directories(O.WorkDir, Ec);
  if (Ec)
    return usage(("cannot create " + O.WorkDir).c_str());

  Tracer T(O.Trace);
  Result R = Run(O, T);
  std::filesystem::remove_all(O.WorkDir, Ec);

  if (!O.Trace) {
    R.metric("setup_s", median(R.SetupSeconds), "s");
    R.metric("peak_rss_mb", peakRssMiB(), "MiB");
  }
  if (R.Attempted == 0) {
    R.Attempted = 1;
    R.Failed = 1;
  }
  std::string Line =
      "{\"correct\": " + std::string(R.Failed == 0 ? "true" : "false") +
      ", \"attempted\": " + std::to_string(R.Attempted) +
      ", \"failed\": " + std::to_string(R.Failed) +
      ", \"metrics\": " + metricsJson(R.Metrics) + "}";

  if (!SpansPath.empty() && O.Trace) {
    std::string Error;
    if (!T.write(SpansPath, Error))
      std::fprintf(stderr, "ppbench: %s\n", Error.c_str());
  }
  if (!Record.empty()) {
    std::ofstream Out(Record);
    Out << "{\"stamp\": " << stampJson(hostStamp())
        << ", \"workload\": " << jsonString(O.Workload)
        << ", \"seed\": " << O.Seed << ", \"seconds\": "
        << jsonNumber(O.Seconds) << ", \"trace\": " << (O.Trace ? 1 : 0)
        << ", \"result\": " << Line << ", \"detail\": "
        << metricsJson(R.Detail) << ", \"setup_repeats_s\": [";
    for (size_t Index = 0; Index != R.SetupSeconds.size(); ++Index)
      Out << (Index ? ", " : "") << jsonNumber(R.SetupSeconds[Index]);
    Out << "], \"failures\": [";
    for (size_t Index = 0; Index != R.Failures.size(); ++Index)
      Out << (Index ? ", " : "") << jsonString(R.Failures[Index]);
    Out << "]}\n";
  }
  for (const std::string &Why : R.Failures)
    std::fprintf(stderr, "ppbench: failed: %s\n", Why.c_str());
  std::printf("%s\n", Line.c_str());
  return 0;
}
