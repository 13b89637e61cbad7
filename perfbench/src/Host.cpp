//===- perfbench/src/Host.cpp - Host stamp and process limits ------------===//

#include "Host.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sched.h>
#include <sys/resource.h>

extern char **environ;

using namespace perfbench;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

unsigned perfbench::usableCores() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return 1;
  int Count = CPU_COUNT(&Set);
  return Count > 0 ? static_cast<unsigned>(Count) : 1;
}

HostStamp perfbench::hostStamp() {
  HostStamp S;
  S.Cores = usableCores();
  std::ifstream Info("/proc/cpuinfo");
  std::string Line;
  while (std::getline(Info, Line)) {
    if (Line.rfind("model name", 0) != 0)
      continue;
    size_t Colon = Line.find(':');
    if (Colon != std::string::npos)
      S.Cpu = Line.substr(Line.find_first_not_of(' ', Colon + 1));
    break;
  }
  if (S.Cpu.empty())
    S.Cpu = "unknown";
#if defined(__clang__)
  S.Compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  S.Compiler = std::string("gcc ") + __VERSION__;
#else
  S.Compiler = "unknown";
#endif
  S.BuildType = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
  S.BuildType += " (asserts off)";
#else
  S.BuildType += " (asserts on)";
#endif
  return S;
}

std::string perfbench::stampJson(const HostStamp &S) {
  return "{\"cores\": " + std::to_string(S.Cores) +
         ", \"cpu\": " + jsonString(S.Cpu) +
         ", \"compiler\": " + jsonString(S.Compiler) +
         ", \"build_type\": " + jsonString(S.BuildType) + "}";
}

double perfbench::peakRssMiB() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return double(Usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

double perfbench::residentMiB() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmRSS:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // kB
  return 0;
}

std::string perfbench::firstPpVariable() {
  for (char **Env = environ; Env && *Env; ++Env)
    if (std::strncmp(*Env, "PP_", 3) == 0) {
      const char *Eq = std::strchr(*Env, '=');
      return Eq ? std::string(*Env, size_t(Eq - *Env)) : std::string(*Env);
    }
  return "";
}

std::string perfbench::jsonString(const std::string &Text) {
  std::string Out = "\"";
  for (unsigned char C : Text) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += char(C);
    } else if (C < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += char(C);
    }
  }
  return Out + "\"";
}

std::string perfbench::jsonNumber(double Value) {
  if (!std::isfinite(Value))
    return "0";
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
  return Buf;
}
