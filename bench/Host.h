//===- bench/Host.h - Host stamp for BENCH_*.json files -------*- C++ -*-===//
//
// The host a benchmark's figures were measured on: core count, CPU model,
// compiler and build type, as one JSON object. Timing results are only
// comparable between runs with equal stamps.
//
//===----------------------------------------------------------------------===//

#ifndef PP_BENCH_HOST_H
#define PP_BENCH_HOST_H

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

namespace pp {
namespace bench {

/// The CPU model named in /proc/cpuinfo, or "unknown".
inline std::string cpuModel() {
  std::ifstream Info("/proc/cpuinfo");
  std::string Line;
  while (std::getline(Info, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      if (Colon != std::string::npos && Colon + 2 <= Line.size())
        return Line.substr(Colon + 2);
    }
  return "unknown";
}

/// {"cores": N, "cpu": "...", "compiler": "...", "build_type": "..."}.
inline std::string hostJson() {
  char Buf[512];
  std::snprintf(Buf, sizeof(Buf),
                "{\"cores\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", "
                "\"build_type\": \"%s\"}",
                std::thread::hardware_concurrency(), cpuModel().c_str(),
                PP_COMPILER, PP_BUILD_TYPE);
  return Buf;
}

} // namespace bench
} // namespace pp

#endif // PP_BENCH_HOST_H
