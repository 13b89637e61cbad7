//===- bench/collectd_ingest.cpp - fleet ingest throughput ----------------------===//
//
// Load-tests the pp-collectd ingest service with a simulated fleet of
// 10,000 clients, twice over:
//
//   1. In process: uploads flow through the bounded-queue thread pool
//      into windowed merge trees while queries run against the folded
//      windows, and the threaded fold is asserted byte-identical to a
//      serial reference.
//   2. Over the wire: the same 10,000 framed client sessions are
//      replayed against the epoll socket server by a pool of forked
//      sender *processes* (real connect/write/EOF lifecycles, not
//      threads), with framed queries in flight from the parent; the
//      windows the server folds must match the serial reference byte
//      for byte.
//
// Reports sustained artifacts/sec and p50/p99 query latency for both
// paths, and writes BENCH_collectd.json (machine-readable; CI uploads
// it as a workflow artifact).
//
// Fork discipline: the parent is threaded (ingest pool, epoll event
// thread), so forked senders touch no heap — every frame stream is
// serialized before the first fork and children only issue syscalls.
//
//===----------------------------------------------------------------------===//

#include "Host.h"

#include "collectd/Ingest.h"
#include "collectd/Server.h"
#include "collectd/Wire.h"
#include "prof/Session.h"
#include "profdb/Artifact.h"
#include "support/TableWriter.h"
#include "workloads/Spec.h"

#include <algorithm>
#include <arpa/inet.h>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace pp;

namespace {

double seconds(std::chrono::steady_clock::time_point From,
               std::chrono::steady_clock::time_point To) {
  return std::chrono::duration<double>(To - From).count();
}

/// Runs one pre-framed client session from a forked child: connect,
/// stream the bytes, half-close, drain replies to EOF. Syscalls only —
/// the parent is threaded, so the child must never malloc.
int replaySession(const sockaddr_in &Addr, const uint8_t *Bytes,
                  size_t Size) {
  int Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return 10;
  if (::connect(Fd, reinterpret_cast<const sockaddr *>(&Addr),
                sizeof(Addr)) != 0) {
    ::close(Fd);
    return 11;
  }
  size_t Off = 0;
  while (Off < Size) {
    ssize_t N = ::send(Fd, Bytes + Off, Size - Off, MSG_NOSIGNAL);
    if (N <= 0) {
      ::close(Fd);
      return 12;
    }
    Off += static_cast<size_t>(N);
  }
  ::shutdown(Fd, SHUT_WR);
  char Sink[4096];
  for (;;) {
    ssize_t N = ::recv(Fd, Sink, sizeof(Sink), 0);
    if (N == 0)
      break;
    if (N < 0) {
      ::close(Fd);
      return 13;
    }
  }
  ::close(Fd);
  return 0;
}

/// Blocking framed client for the parent's in-flight wire queries.
class QueryClient {
public:
  bool connectTo(const sockaddr_in &Addr) {
    Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (Fd < 0)
      return false;
    timeval Timeout{30, 0};
    ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Timeout, sizeof(Timeout));
    int One = 1;
    ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    return ::connect(Fd, reinterpret_cast<const sockaddr *>(&Addr),
                     sizeof(Addr)) == 0;
  }
  bool sendFrame(const collectd::Frame &F) {
    std::vector<uint8_t> Bytes = collectd::encodeFrame(F);
    size_t Off = 0;
    while (Off < Bytes.size()) {
      ssize_t N =
          ::send(Fd, Bytes.data() + Off, Bytes.size() - Off, MSG_NOSIGNAL);
      if (N <= 0)
        return false;
      Off += static_cast<size_t>(N);
    }
    return true;
  }
  bool readFrame(collectd::Frame &F) {
    for (;;) {
      collectd::WireStatus Status = Decoder.next(F);
      if (Status == collectd::WireStatus::Ok)
        return true;
      if (Status != collectd::WireStatus::NeedMore)
        return false;
      uint8_t Buf[4096];
      ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
      if (N <= 0)
        return false;
      Decoder.feed(Buf, static_cast<size_t>(N));
    }
  }
  ~QueryClient() {
    if (Fd >= 0)
      ::close(Fd);
  }

private:
  int Fd = -1;
  collectd::FrameDecoder Decoder;
};

} // namespace

int main() {
  constexpr uint64_t NumClients = 10000;
  constexpr uint64_t UploadsPerClient = 1;
  constexpr uint64_t NumWindows = 4;
  constexpr unsigned NumQueries = 256;
  constexpr unsigned NumSenders = 8;
  constexpr unsigned NumWireQueries = 256;
  const char *Workload = "130.li";

  auto Module = workloads::buildWorkload(Workload, 1);
  if (!Module) {
    std::fprintf(stderr, "collectd_ingest: cannot build %s\n", Workload);
    return 1;
  }

  // One real run; every client uploads its artifact under a per-upload
  // fingerprint (distinct fleet machines reporting the same binary).
  prof::SessionOptions Options;
  Options.Config.M = prof::Mode::ContextFlowHw;
  prof::RunOutcome Outcome = prof::runProfile(*Module, Options);
  if (!Outcome.Result.Ok) {
    std::fprintf(stderr, "collectd_ingest: run failed: %s\n",
                 Outcome.Result.Error.c_str());
    return 1;
  }

  const uint64_t TotalUploads = NumClients * UploadsPerClient;
  std::vector<collectd::Upload> Uploads;
  Uploads.reserve(TotalUploads);
  size_t UploadBytes = 0;
  for (uint64_t Index = 0; Index != TotalUploads; ++Index) {
    profdb::Artifact A = profdb::artifactFromOutcome(
        Outcome, *Module, "fleet;upload" + std::to_string(Index), Workload,
        1, Options.Config);
    uint64_t Client = Index / UploadsPerClient;
    collectd::Upload U{"c" + std::to_string(Client), Client % NumWindows,
                       profdb::encodeArtifact(A)};
    UploadBytes += U.Bytes.size();
    Uploads.push_back(std::move(U));
  }

  // Pre-frame every wire session now, before any service thread exists:
  // HELLO then the client's uploads, one byte stream per client.
  std::vector<std::vector<uint8_t>> Sessions(NumClients);
  for (uint64_t Client = 0; Client != NumClients; ++Client) {
    collectd::Frame Hello;
    Hello.Type = collectd::FrameType::Hello;
    Hello.Tenant = Uploads[Client * UploadsPerClient].Tenant;
    Hello.Acquisition = "exact";
    std::vector<uint8_t> Stream = collectd::encodeFrame(Hello);
    for (uint64_t U = 0; U != UploadsPerClient; ++U) {
      const collectd::Upload &Up = Uploads[Client * UploadsPerClient + U];
      collectd::Frame Frame;
      Frame.Type = collectd::FrameType::Upload;
      Frame.Serial = U + 1;
      Frame.Window = Up.Window;
      Frame.Artifact = Up.Bytes;
      std::vector<uint8_t> Encoded = collectd::encodeFrame(Frame);
      Stream.insert(Stream.end(), Encoded.begin(), Encoded.end());
    }
    Sessions[Client] = std::move(Stream);
  }

  // Serial reference fold for both determinism checks.
  std::vector<std::vector<std::vector<uint8_t>>> Reference(NumWindows);
  {
    collectd::IngestConfig C;
    C.Threads = 0;
    collectd::IngestService Service(C);
    for (const collectd::Upload &U : Uploads)
      Service.submit(U);
    Service.drain();
    for (uint64_t W = 0; W != NumWindows; ++W) {
      std::string Error;
      Reference[W] = Service.windowBytes(W, Error);
      if (Reference[W].empty()) {
        std::fprintf(stderr, "collectd_ingest: reference fold failed: %s\n",
                     Error.c_str());
        return 1;
      }
    }
  }

  unsigned Cores = std::thread::hardware_concurrency();
  collectd::IngestConfig C;
  C.Threads = Cores ? std::min(Cores, 8u) : 4;
  C.QueueCapacity = 512;
  double IngestSeconds = 0;
  double P50 = 0, P99 = 0;
  {
    collectd::IngestService Service(C);

    // Feed the fleet from one producer thread while the main thread
    // runs queries against whatever the windows hold so far — the
    // service's steady state, not an idle postmortem.
    auto T0 = std::chrono::steady_clock::now();
    std::thread Producer([&Service, &Uploads] {
      for (const collectd::Upload &U : Uploads)
        Service.submit(U);
    });

    std::vector<double> QueryLatencies;
    QueryLatencies.reserve(NumQueries);
    for (unsigned Q = 0; Q != NumQueries; ++Q) {
      uint64_t Window = Q % NumWindows;
      std::string Error;
      auto Tq0 = std::chrono::steady_clock::now();
      std::string Out = Service.queryTopProcs(Window, 10, Error);
      auto Tq1 = std::chrono::steady_clock::now();
      // Early queries may beat the first accepted upload of a window;
      // those answer "no such window", which is itself a served query.
      (void)Out;
      QueryLatencies.push_back(seconds(Tq0, Tq1));
    }

    Producer.join();
    Service.drain();
    auto T1 = std::chrono::steady_clock::now();
    IngestSeconds = seconds(T0, T1);

    collectd::IngestStats Stats = Service.stats();
    if (Stats.Accepted != TotalUploads) {
      std::fprintf(stderr,
                   "collectd_ingest: expected %llu accepted, got %llu\n",
                   static_cast<unsigned long long>(TotalUploads),
                   static_cast<unsigned long long>(Stats.Accepted));
      return 1;
    }

    std::string Error;
    if (Service.windowBytes(0, Error) != Reference[0]) {
      std::fprintf(stderr, "collectd_ingest: threaded fold diverged from "
                           "the serial reference\n");
      return 1;
    }

    std::sort(QueryLatencies.begin(), QueryLatencies.end());
    auto Percentile = [&QueryLatencies](double P) {
      size_t Index = static_cast<size_t>(P * (QueryLatencies.size() - 1));
      return QueryLatencies[Index];
    };
    P50 = Percentile(0.50);
    P99 = Percentile(0.99);
  }

  // --- Wire phase: the same 10k sessions through real sockets. -------
  collectd::IngestConfig WireCfg;
  WireCfg.Threads = 0;
  collectd::IngestService WireService(WireCfg);
  collectd::ServerConfig ServerCfg;
  ServerCfg.IdleTimeoutMs = 60000;
  collectd::Server Server(ServerCfg, WireService);
  std::string Error;
  if (!Server.start(Error)) {
    std::fprintf(stderr, "collectd_ingest: server: %s\n", Error.c_str());
    return 1;
  }

  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr);

  // Each forked sender replays a contiguous slice of sessions, one
  // connection at a time — NumSenders concurrent connections against
  // the loop, with full connect/upload/EOF lifecycles per client.
  auto W0 = std::chrono::steady_clock::now();
  std::vector<pid_t> Senders;
  for (unsigned S = 0; S != NumSenders; ++S) {
    uint64_t Begin = NumClients * S / NumSenders;
    uint64_t End = NumClients * (S + 1) / NumSenders;
    pid_t Pid = ::fork();
    if (Pid < 0) {
      std::fprintf(stderr, "collectd_ingest: fork failed\n");
      return 1;
    }
    if (Pid == 0) {
      for (uint64_t Client = Begin; Client != End; ++Client) {
        int Rc = replaySession(Addr, Sessions[Client].data(),
                               Sessions[Client].size());
        if (Rc != 0)
          ::_exit(Rc);
      }
      ::_exit(0);
    }
    Senders.push_back(Pid);
  }

  // Framed queries ride alongside the upload storm on the parent's own
  // connection; their latency includes the server's synchronous folds.
  std::vector<double> WireLatencies;
  WireLatencies.reserve(NumWireQueries);
  {
    QueryClient Client;
    collectd::Frame Hello;
    Hello.Type = collectd::FrameType::Hello;
    Hello.Tenant = "bench-query";
    Hello.Acquisition = "exact";
    collectd::Frame Reply;
    if (!Client.connectTo(Addr) || !Client.sendFrame(Hello) ||
        !Client.readFrame(Reply)) {
      std::fprintf(stderr, "collectd_ingest: query client hello failed\n");
      return 1;
    }
    for (unsigned Q = 0; Q != NumWireQueries; ++Q) {
      collectd::Frame Query;
      Query.Type = collectd::FrameType::Query;
      Query.Serial = Q + 1;
      Query.Kind = collectd::QueryKind::TopProcs;
      Query.Window = Q % NumWindows;
      Query.Limit = 10;
      auto Tq0 = std::chrono::steady_clock::now();
      if (!Client.sendFrame(Query) || !Client.readFrame(Reply)) {
        std::fprintf(stderr, "collectd_ingest: wire query %u failed\n", Q);
        return 1;
      }
      auto Tq1 = std::chrono::steady_clock::now();
      WireLatencies.push_back(seconds(Tq0, Tq1));
    }
  }

  for (pid_t Pid : Senders) {
    int Status = 0;
    if (::waitpid(Pid, &Status, 0) != Pid || !WIFEXITED(Status) ||
        WEXITSTATUS(Status) != 0) {
      std::fprintf(stderr, "collectd_ingest: sender %d failed (status %d)\n",
                   Pid, Status);
      return 1;
    }
  }
  auto W1 = std::chrono::steady_clock::now();
  double WireSeconds = seconds(W0, W1);
  Server.stop();

  collectd::IngestStats WireStats = WireService.stats();
  collectd::ServerStats NetStats = Server.stats();
  if (WireStats.Accepted != TotalUploads) {
    std::fprintf(stderr,
                 "collectd_ingest: wire expected %llu accepted, got %llu\n",
                 static_cast<unsigned long long>(TotalUploads),
                 static_cast<unsigned long long>(WireStats.Accepted));
    return 1;
  }
  for (uint64_t W = 0; W != NumWindows; ++W) {
    if (WireService.windowBytes(W, Error) != Reference[W]) {
      std::fprintf(stderr, "collectd_ingest: wire fold of window %llu "
                           "diverged from the serial reference\n",
                   static_cast<unsigned long long>(W));
      return 1;
    }
  }

  std::sort(WireLatencies.begin(), WireLatencies.end());
  auto WirePercentile = [&WireLatencies](double P) {
    size_t Index = static_cast<size_t>(P * (WireLatencies.size() - 1));
    return WireLatencies[Index];
  };
  double WireP50 = WirePercentile(0.50), WireP99 = WirePercentile(0.99);
  double PerSec = TotalUploads / IngestSeconds;
  double WirePerSec = TotalUploads / WireSeconds;

  auto Ms = [](double Seconds) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.3f", Seconds * 1e3);
    return std::string(Buf);
  };
  TableWriter Table;
  Table.setHeader({"Path", "Clients", "Uploads", "Artifacts/s",
                   "Query p50 ms", "Query p99 ms"});
  Table.addRow({"in-process", std::to_string(NumClients),
                std::to_string(TotalUploads),
                std::to_string((uint64_t)PerSec), Ms(P50), Ms(P99)});
  Table.addRow({"wire", std::to_string(NumClients),
                std::to_string(TotalUploads),
                std::to_string((uint64_t)WirePerSec), Ms(WireP50),
                Ms(WireP99)});
  std::printf("Fleet ingest (%llu clients, %u sender processes on the "
              "wire path; every fold byte-identical to the serial "
              "reference)\n\n%s",
              static_cast<unsigned long long>(NumClients), NumSenders,
              Table.render().c_str());

  std::ofstream Json("BENCH_collectd.json");
  char Buf[1536];
  std::snprintf(Buf, sizeof(Buf),
                "{\n  \"bench\": \"collectd_ingest\",\n"
                "  \"clients\": %llu,\n"
                "  \"uploads\": %llu,\n"
                "  \"upload_bytes\": %zu,\n"
                "  \"windows\": %llu,\n"
                "  \"ingest_threads\": %u,\n"
                "  \"hardware_cores\": %u,\n"
                "  \"ingest_seconds\": %.6f,\n"
                "  \"artifacts_per_second\": %.1f,\n"
                "  \"queries\": %u,\n"
                "  \"query_p50_seconds\": %.6f,\n"
                "  \"query_p99_seconds\": %.6f,\n"
                "  \"bit_identical\": true,\n"
                "  \"wire_sender_processes\": %u,\n"
                "  \"wire_seconds\": %.6f,\n"
                "  \"wire_artifacts_per_second\": %.1f,\n"
                "  \"wire_queries\": %u,\n"
                "  \"wire_query_p50_seconds\": %.6f,\n"
                "  \"wire_query_p99_seconds\": %.6f,\n"
                "  \"wire_connections\": %llu,\n"
                "  \"wire_frames_in\": %llu,\n"
                "  \"wire_bytes_in\": %llu,\n"
                "  \"wire_bytes_out\": %llu,\n"
                "  \"wire_bit_identical\": true,\n"
                "  \"host\": %s\n}\n",
                static_cast<unsigned long long>(NumClients),
                static_cast<unsigned long long>(TotalUploads), UploadBytes,
                static_cast<unsigned long long>(NumWindows), C.Threads,
                Cores, IngestSeconds, PerSec, NumQueries, P50, P99, NumSenders,
                WireSeconds, WirePerSec, NumWireQueries, WireP50, WireP99,
                static_cast<unsigned long long>(NetStats.ConnectionsAccepted),
                static_cast<unsigned long long>(NetStats.FramesIn),
                static_cast<unsigned long long>(NetStats.BytesIn),
                static_cast<unsigned long long>(NetStats.BytesOut),
                bench::hostJson().c_str());
  Json << Buf;
  std::printf("\nwrote BENCH_collectd.json (%.0f artifacts/s in process, "
              "%.0f artifacts/s over the wire, wire query p99 %.2f ms)\n",
              PerSec, WirePerSec, WireP99 * 1e3);
  return 0;
}
