//===- perfbench/src/Trace.h - Spans around layer calls --------*- C++ -*-===//
///
/// \file
/// The traced run's span recorder. The benchmark opens one root span
/// ("op") per operation and a child span around each call it makes into a
/// module's public functions, named "<layer>.<call>" (for example
/// "ir.parse" or "driver.get"). Spans live in memory until the run ends
/// and are then written to one file.
///
/// A span's self time is its duration minus the part of its interval its
/// direct children cover. The root's self time is the op's unattributed
/// time, so the self times of one op's spans add up to the op's wall
/// time exactly; attribute() checks that.
///
/// Recording is single-threaded: every span is opened and closed on the
/// thread that drives the workload.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline constexpr int64_t NoParent = -1;

/// One recorded span. Names and tags are string literals.
struct SpanRecord {
  const char *Name = "";
  /// Distinguishes calls of one function in different roles (for
  /// example "plain" and "profiled" runs of vm.execute); may be "".
  const char *Tag = "";
  uint64_t Start = 0;
  uint64_t End = 0;
  int64_t Parent = NoParent;
  uint64_t Op = 0;
};

class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }
  /// Pauses or resumes recording (the traced run measures an untraced
  /// pass first to price the tracing itself).
  void setEnabled(bool On) { Enabled = On; }

  /// Opens span \p Name under the innermost open span; returns its index
  /// or -1 when recording is off.
  int64_t begin(const char *Name, const char *Tag = "");
  void end(int64_t Index);

  /// Opens a root "op" span with a fresh op id.
  int64_t beginOp();

  const std::vector<SpanRecord> &spans() const { return Spans; }

  /// Writes every span as tab-separated
  /// "id name tag start_ns end_ns parent op" lines.
  bool write(const std::string &Path, std::string &Error) const;

private:
  bool Enabled;
  std::vector<SpanRecord> Spans;
  std::vector<int64_t> Open;
  uint64_t NextOp = 0;
};

/// Scoped span; a no-op when the tracer is off.
class Span {
public:
  Span(Tracer &T, const char *Name, const char *Tag = "")
      : T(T), Index(T.begin(Name, Tag)) {}
  ~Span() { T.end(Index); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  Tracer &T;
  int64_t Index;
};

/// Scoped root span of one operation.
class OpSpan {
public:
  explicit OpSpan(Tracer &T) : T(T), Index(T.beginOp()) {}
  ~OpSpan() { close(); }
  /// Ends the op early (idempotent).
  void close() {
    T.end(Index);
    Index = -1;
  }
  OpSpan(const OpSpan &) = delete;
  OpSpan &operator=(const OpSpan &) = delete;

private:
  Tracer &T;
  int64_t Index;
};

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, clipped to its own.
std::vector<uint64_t> selfTimes(const std::vector<SpanRecord> &Spans);

/// Where the time of the recorded ops went.
struct Attribution {
  /// Self-time samples (ns) per "name" or "name@tag" key.
  std::map<std::string, std::vector<double>> SelfNs;
  /// Total self time (ns) per layer (the name up to its first '.');
  /// unattributed op time is charged to layer "bench".
  std::map<std::string, double> LayerNs;
  uint64_t OpWallNs = 0;
  uint64_t UnattributedNs = 0;
  uint64_t Ops = 0;
  /// Ops whose span self times do not add up to their wall time.
  uint64_t Mismatched = 0;
};

Attribution attribute(const std::vector<SpanRecord> &Spans);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
