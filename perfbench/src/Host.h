//===- perfbench/src/Host.h - Host stamp and process limits ----*- C++ -*-===//
///
/// \file
/// The stamp every result record carries (cores, CPU model, compiler,
/// build type), so results from different hosts or builds are never
/// compared, plus the process-level facts the benchmark needs: usable
/// cores, peak resident memory, and the clean-environment check.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HOST_H
#define PERFBENCH_HOST_H

#include <string>

namespace perfbench {

struct HostStamp {
  unsigned Cores = 0;
  std::string Cpu;
  std::string Compiler;
  std::string BuildType;
};

/// Cores in this process's affinity mask (what `nproc` prints).
unsigned usableCores();

HostStamp hostStamp();

/// The stamp as a JSON object.
std::string stampJson(const HostStamp &S);

/// Peak resident set size of this process, MiB.
double peakRssMiB();

/// Current resident set size of this process, MiB.
double residentMiB();

/// The first PP_* variable set in the environment, or "" when none is.
/// Such variables change what the program does, so the benchmark
/// refuses to run under them.
std::string firstPpVariable();

/// JSON string literal for \p Text.
std::string jsonString(const std::string &Text);

/// A finite number formatted with all its significant digits.
std::string jsonNumber(double Value);

} // namespace perfbench

#endif // PERFBENCH_HOST_H
