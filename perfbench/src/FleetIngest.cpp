//===- perfbench/src/FleetIngest.cpp - The fleet-ingest workload ---------===//
//
// pp-collectd serving a fleet. Set-up profiles the 18 programs once each
// under exact Context+Flow+HW, exact Flow+HW and overflow-sampled Flow+HW,
// and starts an in-process collectd::Server (one event thread) over an
// IngestService that folds synchronously on that thread. The seed draws
// the upload stream: a Zipf-skewed program per upload (a few hot binaries
// dominate), its profile variant, its window, a unique fingerprint, and
// about 2% uploads corrupted in flight. Sampled uploads and corrupted ones
// must come back as their typed REJECT.
//
//   Wire:    WireUploads uploads over loopback from this thread's
//            non-blocking sockets, two connections with one upload in
//            flight each (two threads plus two connections stay within
//            the usable cores).
//   Phase A: closed loop driving the ingest path (IngestService::
//            ingestNow) from this thread; gives throughput.
//   Phase B: open loop on fresh windows preloaded with a fixed number of
//            uploads (so its state does not depend on how far phase A
//            got); uploads and TopProcs/TopPaths/CctStats queries fall due
//            on a fixed schedule and are timed from their due time.
//
// The oracle (after the phases): each window's fold, on the server and on
// the directly driven service, is byte-identical to a serial in-process
// left fold of the uploads expected to be accepted, and the final query
// answers (over the wire for the server) hold exactly the reports
// rendered from that fold.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Stats.h"
#include "Streams.h"

#include "collectd/Ingest.h"
#include "collectd/MergeTree.h"
#include "collectd/Server.h"
#include "collectd/Wire.h"
#include "profdb/Merge.h"
#include "profdb/Report.h"
#include "workloads/Spec.h"

#include <arpa/inet.h>
#include <cerrno>
#include <deque>
#include <fcntl.h>
#include <memory>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace perfbench;
using namespace pp;

namespace {

constexpr uint64_t OverflowPeriod = 1024;
constexpr uint64_t QueryLimit = 5;
/// Uploads the traced run replays in process to split the server's work.
constexpr uint64_t ReplayUploads = 6000;
constexpr uint64_t ReplayQueries = 300;
/// Uploads phase B's fresh windows receive before the open loop starts.
constexpr uint64_t PreloadUploads = 2000;
/// Uploads sent over loopback.
constexpr uint64_t WireUploads = 3000;

using Templates = std::vector<std::array<profdb::Artifact, NumVariants>>;

/// One profile per program and variant; the uploads are these with a
/// fresh fingerprint each.
bool profileFleet(Templates &Out, std::string &Error) {
  const std::vector<workloads::WorkloadSpec> &Suite = workloads::spec95Suite();
  Out.clear();
  Out.resize(Suite.size());
  for (size_t P = 0; P != Suite.size(); ++P) {
    auto M = Suite[P].Build(1);
    for (unsigned V = 0; V != NumVariants; ++V) {
      prof::SessionOptions O;
      O.Engine = vm::Engine::Threaded;
      O.Config.M = Variant(V) == Variant::ContextFlowHw ? prof::Mode::ContextFlowHw
                                                        : prof::Mode::FlowHw;
      if (Variant(V) == Variant::FlowHwSampled) {
        O.Acq.Kind = prof::Acquisition::Overflow;
        O.Acq.Period = OverflowPeriod;
        O.Acq.Seed = 1;
      }
      prof::RunOutcome R = prof::runProfile(*M, O);
      if (!R.Result.Ok) {
        Error = Suite[P].Name + ": " + R.Result.Error;
        return false;
      }
      Out[P][V] = profdb::artifactFromOutcome(
          R, *M, "", Suite[P].Name, 1, O.Config,
          prof::acquisitionName(O.Acq.Kind));
    }
  }
  return true;
}

std::string fingerprintOf(uint64_t Seed, uint64_t Index) {
  return "perfbench;fleet;seed=" + std::to_string(Seed) +
         ";upload=" + std::to_string(Index);
}

/// What the collector must answer to an upload.
struct Expect {
  bool Accept = true;
  collectd::RejectReason Reason = collectd::RejectReason::None;
  profdb::DecodeStatus Decode = profdb::DecodeStatus::Ok;
};

Expect expectedFor(const UploadSpec &U) {
  if (U.Damage == Corruption::BitFlip)
    return {false, collectd::RejectReason::Corrupt,
            profdb::DecodeStatus::BadChecksum};
  if (U.Damage == Corruption::BadMagic)
    return {false, collectd::RejectReason::Corrupt,
            profdb::DecodeStatus::BadMagic};
  if (U.V == Variant::FlowHwSampled)
    return {false, collectd::RejectReason::CrossAcquisition,
            profdb::DecodeStatus::Ok};
  return {};
}

/// Encodes upload \p Index's artifact and applies its damage.
std::vector<uint8_t> uploadBytes(Tracer &T, Templates &Tpl, uint64_t Seed,
                                 uint64_t Index, const UploadSpec &U) {
  profdb::Artifact &A = Tpl[U.Program][unsigned(U.V)];
  A.Fingerprint = fingerprintOf(Seed, Index);
  std::vector<uint8_t> Bytes;
  {
    Span Sp(T, "profdb.encode");
    Bytes = profdb::encodeArtifact(A);
  }
  // A flip past the 16-byte magic + version header and before the CRC
  // trailer can only break the checksum.
  if (U.Damage == Corruption::BitFlip && Bytes.size() > 20)
    Bytes[16 + U.FlipAt % (Bytes.size() - 20)] ^= 0x10;
  else if (U.Damage == Corruption::BadMagic)
    Bytes[0] ^= 0xff;
  return Bytes;
}

/// An upload awaiting its reply.
struct Pending {
  uint64_t Index = 0;
  uint64_t SentNs = 0;
  Expect Want;
};

struct Conn {
  int Fd = -1;
  collectd::FrameDecoder Decoder;
  std::vector<uint8_t> Out;
  size_t OutStart = 0;
  /// Whether the connection is registered for EPOLLOUT.
  bool Writing = false;
  std::deque<Pending> InFlight;
};

/// The fleet's single client thread: a few non-blocking connections
/// multiplexed with epoll.
class Client {
public:
  explicit Client(Tracer &T) : T(T) {}
  ~Client() { close(); }
  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;

  bool open(uint16_t Port, unsigned NumConns, std::string &Error) {
    Epoll = epoll_create1(EPOLL_CLOEXEC);
    if (Epoll < 0) {
      Error = "epoll_create1 failed";
      return false;
    }
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(Port);
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    for (unsigned Index = 0; Index != NumConns; ++Index) {
      auto C = std::make_unique<Conn>();
      C->Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (C->Fd < 0 ||
          ::connect(C->Fd, reinterpret_cast<const sockaddr *>(&Addr),
                    sizeof(Addr)) != 0) {
        if (C->Fd >= 0)
          ::close(C->Fd);
        Error = "cannot connect to the collector";
        return false;
      }
      int One = 1;
      setsockopt(C->Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
      fcntl(C->Fd, F_SETFL, fcntl(C->Fd, F_GETFL, 0) | O_NONBLOCK);
      epoll_event Ev{};
      Ev.events = EPOLLIN;
      Ev.data.u32 = Index;
      epoll_ctl(Epoll, EPOLL_CTL_ADD, C->Fd, &Ev);
      Conns.push_back(std::move(C));

      collectd::Frame Hello;
      Hello.Type = collectd::FrameType::Hello;
      Hello.Tenant = "fleet-" + std::to_string(Index);
      Hello.Acquisition = "exact";
      send(Index, collectd::encodeFrame(Hello));
      collectd::Frame Reply;
      if (!await(Index, Reply) || Reply.Type != collectd::FrameType::Ack) {
        Error = "hello refused";
        return false;
      }
    }
    return true;
  }

  void close() {
    for (auto &C : Conns)
      if (C->Fd >= 0)
        ::close(C->Fd);
    Conns.clear();
    if (Epoll >= 0)
      ::close(Epoll);
    Epoll = -1;
  }

  size_t size() const { return Conns.size(); }
  Conn &conn(size_t Index) { return *Conns[Index]; }

  bool idle() const {
    for (const auto &C : Conns)
      if (!C->InFlight.empty())
        return false;
    return true;
  }

  /// Queues \p Bytes on connection \p Index and writes what the socket
  /// takes now.
  void send(size_t Index, const std::vector<uint8_t> &Bytes) {
    Conn &C = *Conns[Index];
    C.Out.insert(C.Out.end(), Bytes.begin(), Bytes.end());
    flush(Index);
  }

  /// Waits up to \p TimeoutNs for socket events and hands every complete
  /// reply to \p OnReply(connection, frame, done time). False on a
  /// broken connection.
  template <typename Fn> bool pump(uint64_t TimeoutNs, Fn OnReply) {
    epoll_event Events[8];
    timespec Timeout{static_cast<time_t>(TimeoutNs / 1000000000),
                     static_cast<long>(TimeoutNs % 1000000000)};
    int N;
    {
      Span Sp(T, "collectd.wait");
      N = epoll_pwait2(Epoll, Events, 8, &Timeout, nullptr);
    }
    if (N < 0)
      return errno == EINTR;
    for (int E = 0; E != N; ++E) {
      size_t Index = Events[E].data.u32;
      if (Events[E].events & EPOLLOUT)
        flush(Index);
      if (Events[E].events & (EPOLLIN | EPOLLHUP | EPOLLERR))
        if (!readReplies(Index, OnReply))
          return false;
    }
    return true;
  }

private:
  Tracer &T;
  int Epoll = -1;
  std::vector<std::unique_ptr<Conn>> Conns;

  void flush(size_t Index) {
    Conn &C = *Conns[Index];
    {
      Span Sp(T, "collectd.socket");
      while (C.OutStart < C.Out.size()) {
        ssize_t Sent = ::send(C.Fd, C.Out.data() + C.OutStart,
                              C.Out.size() - C.OutStart, MSG_NOSIGNAL);
        if (Sent < 0)
          break; // EAGAIN: wait for EPOLLOUT
        C.OutStart += static_cast<size_t>(Sent);
      }
    }
    bool Blocked = C.OutStart < C.Out.size();
    if (!Blocked) {
      C.Out.clear();
      C.OutStart = 0;
    }
    if (Blocked == C.Writing)
      return;
    C.Writing = Blocked;
    epoll_event Ev{};
    Ev.events = EPOLLIN | (Blocked ? EPOLLOUT : 0u);
    Ev.data.u32 = static_cast<uint32_t>(Index);
    epoll_ctl(Epoll, EPOLL_CTL_MOD, C.Fd, &Ev);
  }

  template <typename Fn> bool readReplies(size_t Index, Fn &OnReply) {
    Conn &C = *Conns[Index];
    uint8_t Buf[64 * 1024];
    while (true) {
      ssize_t Got;
      {
        Span Sp(T, "collectd.socket");
        Got = ::recv(C.Fd, Buf, sizeof(Buf), 0);
      }
      if (Got == 0)
        return false;
      if (Got < 0)
        return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
      uint64_t Done = nowNs();
      while (true) {
        collectd::Frame F;
        collectd::WireStatus Status;
        {
          Span Sp(T, "collectd.decodeFrame");
          C.Decoder.feed(Buf, static_cast<size_t>(Got));
          Got = 0;
          Status = C.Decoder.next(F);
        }
        if (Status == collectd::WireStatus::NeedMore)
          break;
        if (Status != collectd::WireStatus::Ok)
          return false;
        OnReply(Index, F, Done);
      }
    }
  }

  /// Blocking wait for one reply on connection \p Index (handshakes).
  bool await(size_t Index, collectd::Frame &Out) {
    bool Got = false;
    uint64_t Deadline = nowNs() + 5000000000ULL;
    while (!Got && nowNs() < Deadline)
      if (!pump(100000000, [&](size_t I, collectd::Frame &F, uint64_t) {
            if (I == Index) {
              Out = std::move(F);
              Got = true;
            }
          }))
        return false;
    return Got;
  }
};

/// The collector under test and its client connections.
struct Fleet {
  std::unique_ptr<collectd::IngestService> Service;
  std::unique_ptr<collectd::Server> Server;
  std::unique_ptr<Client> Clients;

  bool start(Tracer &T, unsigned NumConns, std::string &Error) {
    collectd::IngestConfig C;
    C.Threads = 0; // fold synchronously on the server's event thread
    C.Acquisition = "exact";
    C.RetainWindows = 0;
    Service = std::make_unique<collectd::IngestService>(C);
    Server = std::make_unique<collectd::Server>(collectd::ServerConfig{},
                                                *Service);
    if (!Server->start(Error))
      return false;
    Clients = std::make_unique<Client>(T);
    return Clients->open(Server->port(), NumConns, Error);
  }

  void stop() {
    if (Clients)
      Clients->close();
    if (Server)
      Server->stop();
    Clients.reset();
    Server.reset();
    Service.reset();
  }
};

const char *const RejectNames[] = {"none",          "corrupt",
                                   "cross_acquisition", "quota_exceeded",
                                   "merge_failed",  "rate_limited",
                                   "window_expired"};
static_assert(sizeof(RejectNames) / sizeof(RejectNames[0]) ==
              size_t(collectd::RejectReason::NumReasons));

/// Runs query \p Q on \p Service in process.
std::string directQuery(collectd::IngestService &Service, const QuerySpec &Q,
                        std::string &Error) {
  switch (Q.What) {
  case QueryWhat::TopPaths:
    return Service.queryTopPaths(Q.Window, QueryLimit, Error);
  case QueryWhat::TopProcs:
    return Service.queryTopProcs(Q.Window, QueryLimit, Error);
  case QueryWhat::CctStats:
    return Service.queryCctStats(Q.Window, Error);
  }
  return "";
}

/// Every upload a collector was sent: (stream index, window).
using Ledger = std::vector<std::pair<uint64_t, uint64_t>>;

/// Checks a collector's answer to upload \p Index against the expected
/// outcome; a difference fails the upload.
void checkUpload(Result &Res, uint64_t Index, const Expect &Want,
                 bool Accepted, collectd::RejectReason Reason,
                 profdb::DecodeStatus Decode, const std::string &Message) {
  bool Ok = Want.Accept ? Accepted
                        : !Accepted && Reason == Want.Reason &&
                              Decode == Want.Decode;
  if (!Ok)
    Res.fail("upload " + std::to_string(Index) + ": unexpected reply (" +
             (Accepted ? std::string("ACK") : "REJECT " + Message) + ")");
}

/// Drives uploads through the collector's wire front end and checks every
/// reply.
class Generator {
public:
  Generator(Tracer &T, Templates &Tpl, Fleet &F, uint64_t Seed, Result &Res)
      : T(T), Tpl(Tpl), F(F), Seed(Seed), Res(Res) {}

  const Ledger &sent() const { return Sent; }

  /// Sends \p Count uploads, every connection keeping one in flight; RTTs
  /// go to \p Rtt (us). Each turn of the client loop is one op.
  void closedLoop(uint64_t Count, std::vector<double> &Rtt) {
    Client &C = *F.Clients;
    uint64_t Last = NextUpload + Count;
    for (size_t Index = 0; Index != C.size(); ++Index)
      issueUpload(Index);
    bool Broken = false;
    while (!C.idle() && !Broken) {
      OpSpan Root(T);
      Broken = !C.pump(50000000, [&](size_t Index, collectd::Frame &Fr,
                                     uint64_t Done) {
        Pending P = complete(Index, Fr);
        Rtt.push_back(double(Done - P.SentNs) * 1e-3);
        if (NextUpload < Last)
          issueUpload(Index);
      });
    }
    if (Broken)
      Res.fail("connection to the collector broke");
  }

  /// Sends one query and waits for its answer.
  bool query(const QuerySpec &Q, std::string &Text) {
    Client &C = *F.Clients;
    size_t Conn = C.size() - 1;
    collectd::Frame Fr;
    Fr.Type = collectd::FrameType::Query;
    Fr.Serial = ++Serial;
    Fr.Window = Q.Window;
    Fr.Limit = QueryLimit;
    Fr.Kind = Q.What == QueryWhat::TopPaths   ? collectd::QueryKind::TopPaths
              : Q.What == QueryWhat::TopProcs ? collectd::QueryKind::TopProcs
                                              : collectd::QueryKind::CctStats;
    C.send(Conn, collectd::encodeFrame(Fr));
    bool Got = false, Ok = false;
    uint64_t Deadline = nowNs() + 10000000000ULL;
    while (!Got && nowNs() < Deadline)
      if (!C.pump(100000000,
                  [&](size_t, collectd::Frame &Reply, uint64_t) {
                    Got = true;
                    Ok = Reply.Type == collectd::FrameType::Ack;
                    Text = Reply.Text;
                  }))
        return false;
    return Ok;
  }

private:
  Tracer &T;
  Templates &Tpl;
  Fleet &F;
  uint64_t Seed;
  Result &Res;
  uint64_t NextUpload = 0;
  uint64_t Serial = 0;
  Ledger Sent;

  void issueUpload(size_t Conn) {
    uint64_t Index = NextUpload++;
    UploadSpec U = fleetUpload(Seed, Index, Tpl.size());
    collectd::Frame Fr;
    Fr.Type = collectd::FrameType::Upload;
    Fr.Serial = ++Serial;
    Fr.Window = U.Window;
    Fr.Artifact = uploadBytes(T, Tpl, Seed, Index, U);
    std::vector<uint8_t> Bytes;
    {
      Span Sp(T, "collectd.encodeFrame");
      Bytes = collectd::encodeFrame(Fr);
    }
    F.Clients->conn(Conn).InFlight.push_back(
        {Index, nowNs(), expectedFor(U)});
    Sent.push_back({Index, Fr.Window});
    ++Res.Attempted;
    F.Clients->send(Conn, Bytes);
  }

  /// Matches a reply to the oldest request on its connection and checks
  /// it.
  Pending complete(size_t Conn, const collectd::Frame &Fr) {
    std::deque<Pending> &Q = F.Clients->conn(Conn).InFlight;
    if (Q.empty()) {
      Res.fail("reply without a request");
      return {};
    }
    Pending P = Q.front();
    Q.pop_front();
    checkUpload(Res, P.Index, P.Want, Fr.Type == collectd::FrameType::Ack,
                Fr.Reason, Fr.Decode, Fr.Message);
    return P;
  }
};

/// The collector's ingest path driven from this thread: what the event
/// thread does per frame once the bytes have arrived, without the
/// sockets. A single thread folds synchronously, so a slow fold or query
/// delays every request behind it, as on the server.
class Local {
public:
  Local(Tracer &T, Templates &Tpl, uint64_t Seed, Result &Res)
      : T(T), Tpl(Tpl), Seed(Seed), Res(Res), Service(config()) {}

  collectd::IngestService &service() { return Service; }
  const Ledger &sent() const { return Sent; }

  /// Uploads from now on, and queries, address windows Base and up.
  void setWindowBase(uint64_t Base) { WindowBase = Base; }

  /// Closed loop for \p Seconds of ingest time, or \p MaxUploads uploads.
  /// Returns uploads per second of ingest time, the median over chunks of
  /// ChunkUploads so that a burst of host noise moves one chunk only; each
  /// chunk's median and p90 upload time (ms) go to \p ChunkP50/P90.
  /// With \p UntracedRate, even chunks run traced and odd ones untraced:
  /// the return value is the traced chunks' rate, *UntracedRate the
  /// others'.
  double closedLoop(double Seconds, uint64_t MaxUploads = UINT64_MAX,
                    double *UntracedRate = nullptr,
                    std::vector<double> *ChunkP50 = nullptr,
                    std::vector<double> *ChunkP90 = nullptr) {
    constexpr uint64_t ChunkUploads = 500;
    std::vector<double> Rates[2], ChunkMs;
    uint64_t BusyNs = 0, ChunkNs = 0;
    for (uint64_t Count = 0;
         Count != MaxUploads && double(BusyNs) * 1e-9 < Seconds; ++Count) {
      bool Traced = UntracedRate && Count / ChunkUploads % 2 == 0;
      if (UntracedRate)
        T.setEnabled(Traced);
      Prepared P = prepare();
      OpSpan Root(T);
      uint64_t Start = nowNs();
      ingest(P);
      uint64_t Ns = nowNs() - Start;
      BusyNs += Ns;
      ChunkNs += Ns;
      ChunkMs.push_back(double(Ns) * 1e-6);
      if ((Count + 1) % ChunkUploads == 0) {
        Rates[Traced].push_back(ChunkUploads / (double(ChunkNs) * 1e-9));
        if (ChunkP50 && ChunkP90) {
          ChunkP50->push_back(median(ChunkMs));
          ChunkP90->push_back(percentile(ChunkMs, 90));
        }
        ChunkNs = 0;
        ChunkMs.clear();
      }
    }
    if (!UntracedRate)
      return median(Rates[0]);
    T.setEnabled(false);
    *UntracedRate = median(Rates[0]);
    return median(Rates[1]);
  }

  /// Open loop for \p Seconds: uploads due at \p UploadRate/s and queries
  /// at \p QueryRate/s, each run when due (or as soon as the requests
  /// ahead of it finish) and timed from its due time. Upload latencies go
  /// to \p UploadMs by SliceNs slice of their due time.
  void openLoop(double Seconds, double UploadRate, double QueryRate,
                std::vector<std::vector<double>> &UploadMs,
                std::vector<double> &QueryMs, std::vector<double> &LagMs) {
    constexpr uint64_t SliceNs = 1000000000;
    uint64_t Start = nowNs() + 1000000;
    uint64_t End = Start + static_cast<uint64_t>(Seconds * 1e9);
    OpenLoop Uploads(Start, UploadRate);
    OpenLoop Queries(Start + static_cast<uint64_t>(0.5e9 / QueryRate),
                     QueryRate);
    uint64_t NextU = 0, NextQ = 0;
    Prepared Next = prepare();
    while (true) {
      uint64_t DueU = Uploads.due(NextU), DueQ = Queries.due(NextQ);
      uint64_t Due = std::min(DueU, DueQ);
      if (Due >= End)
        break;
      // Spin until due: sleeping would add wake-up latency to the
      // schedule.
      uint64_t Now = nowNs();
      while (Now < Due)
        Now = nowNs();
      LagMs.push_back(double(Now - Due) * 1e-6);
      if (DueU <= DueQ) {
        ingest(Next);
        size_t Slice = (DueU - Start) / SliceNs;
        if (UploadMs.size() <= Slice)
          UploadMs.resize(Slice + 1);
        UploadMs[Slice].push_back(sinceDueMs(DueU, nowNs()));
        ++NextU;
        Next = prepare(); // the next upload's bytes, made while idle
      } else {
        query(fleetQuery(Seed, NextQ));
        QueryMs.push_back(sinceDueMs(DueQ, nowNs()));
        ++NextQ;
      }
    }
  }

  /// Runs query \p Q (its window relative to the current base).
  std::string query(QuerySpec Q) {
    Q.Window += WindowBase;
    std::string Error, Text;
    {
      Span Sp(T, "collectd.query");
      Text = directQuery(Service, Q, Error);
    }
    ++Res.Attempted;
    if (!Error.empty() || Text.empty())
      Res.fail("query of window " + std::to_string(Q.Window) +
               " failed: " + Error);
    return Text;
  }

private:
  struct Prepared {
    uint64_t Index = 0;
    UploadSpec U;
    std::vector<uint8_t> Bytes;
  };

  Tracer &T;
  Templates &Tpl;
  uint64_t Seed;
  Result &Res;
  collectd::IngestService Service;
  uint64_t NextUpload = 0;
  uint64_t WindowBase = 0;
  Ledger Sent;

  static collectd::IngestConfig config() {
    collectd::IngestConfig C;
    C.Threads = 0;
    C.Acquisition = "exact";
    return C;
  }

  /// The next upload's bytes, as a fleet host would send them.
  Prepared prepare() {
    Prepared P;
    P.Index = NextUpload++;
    P.U = fleetUpload(Seed, P.Index, Tpl.size());
    Tracer Off(false);
    P.Bytes = uploadBytes(Off, Tpl, Seed, P.Index, P.U);
    return P;
  }

  void ingest(Prepared &P) {
    uint64_t Window = P.U.Window + WindowBase;
    Sent.push_back({P.Index, Window});
    collectd::UploadResult R;
    {
      Span Sp(T, "collectd.ingest");
      R = Service.ingestNow(
          collectd::Upload{"fleet", Window, std::move(P.Bytes)});
    }
    ++Res.Attempted;
    checkUpload(Res, P.Index, expectedFor(P.U), R.Accepted, R.Reason,
                R.Decode, collectd::rejectReasonName(R.Reason));
  }
};

/// (window, program, variant) — one fold group.
using GroupKey = std::tuple<uint64_t, unsigned, unsigned>;

/// The serial in-process reference fold of every upload in \p Sent that
/// is expected to be accepted.
bool referenceFold(Templates &Tpl, uint64_t Seed, const Ledger &Sent,
                   std::map<GroupKey, profdb::Artifact> &Folds,
                   std::string &Error) {
  for (const auto &[Index, Window] : Sent) {
    UploadSpec U = fleetUpload(Seed, Index, Tpl.size());
    if (!expectedFor(U).Accept)
      continue;
    profdb::Artifact &A = Tpl[U.Program][unsigned(U.V)];
    A.Fingerprint = fingerprintOf(Seed, Index);
    GroupKey Key{Window, U.Program, unsigned(U.V)};
    auto It = Folds.find(Key);
    if (It == Folds.end()) {
      Folds.emplace(Key, profdb::cloneArtifact(A));
      continue;
    }
    profdb::Artifact Merged;
    if (!profdb::mergeArtifacts(It->second, A, Merged, Error))
      return false;
    It->second = std::move(Merged);
  }
  return true;
}

std::string render(const QuerySpec &Q, const profdb::Artifact &A) {
  switch (Q.What) {
  case QueryWhat::TopPaths:
    return profdb::reportTopPaths(A, QueryLimit);
  case QueryWhat::TopProcs:
    return profdb::reportTopProcs(A, QueryLimit);
  case QueryWhat::CctStats:
    return profdb::reportCctStats(A);
  }
  return "";
}

/// Checks a collector's windows (0 to \p Windows - 1) and its answers to
/// \p Query against the reference fold of \p Sent; each mismatch fails
/// one check.
template <typename QueryFn>
void checkFolds(collectd::IngestService &Service, const Ledger &Sent,
                uint64_t Windows, Templates &Tpl, uint64_t Seed,
                QueryFn Query, Result &Res) {
  std::map<GroupKey, profdb::Artifact> Folds;
  std::string Error;
  if (!referenceFold(Tpl, Seed, Sent, Folds, Error)) {
    Res.fail("reference fold failed: " + Error);
    return;
  }
  for (uint64_t W = 0; W != Windows; ++W) {
    std::vector<std::vector<uint8_t>> Want;
    for (const auto &[Key, A] : Folds)
      if (std::get<0>(Key) == W)
        Want.push_back(profdb::encodeArtifact(A));
    std::vector<std::vector<uint8_t>> Got = Service.windowBytes(W, Error);
    std::sort(Want.begin(), Want.end());
    std::sort(Got.begin(), Got.end());
    ++Res.Attempted;
    if (Got != Want)
      Res.fail("window " + std::to_string(W) +
               " fold differs from the serial reference fold");

    for (QueryWhat What :
         {QueryWhat::TopPaths, QueryWhat::TopProcs, QueryWhat::CctStats}) {
      QuerySpec Q{What, W};
      std::string Text;
      ++Res.Attempted;
      if (!Query(Q, Text)) {
        Res.fail("final query of window " + std::to_string(W) + " failed");
        continue;
      }
      // The answer is every group's report, each followed by a newline,
      // in the collector's group order.
      size_t Expected = 0;
      bool Found = true;
      for (const auto &[Key, A] : Folds) {
        if (std::get<0>(Key) != W)
          continue;
        std::string Block = render(Q, A) + "\n";
        Expected += Block.size();
        Found = Found && Text.find(Block) != std::string::npos;
      }
      if (!Found || Expected != Text.size())
        Res.fail("final query of window " + std::to_string(W) +
                 " differs from the reference fold's reports");
    }
  }
}

/// The traced run's in-process replay of the stream's first uploads:
/// decode, fold and whole-ingest time per upload, and direct queries.
void replayInProcess(Tracer &T, Templates &Tpl, uint64_t Seed,
                     uint64_t Count, Result &Res) {
  collectd::IngestConfig C;
  C.Threads = 0;
  C.Acquisition = "exact";
  collectd::IngestService Service(C);
  std::map<GroupKey, collectd::MergeTree> Trees;
  Tracer Off(false);
  for (uint64_t Index = 0; Index != Count; ++Index) {
    UploadSpec U = fleetUpload(Seed, Index, Tpl.size());
    std::vector<uint8_t> Bytes = uploadBytes(Off, Tpl, Seed, Index, U);
    OpSpan Root(T);
    profdb::Artifact A;
    profdb::DecodeStatus Status;
    {
      Span Sp(T, "profdb.decode");
      Status = profdb::decodeArtifact(Bytes, A);
    }
    if (Status == profdb::DecodeStatus::Ok && expectedFor(U).Accept) {
      auto It = Trees.try_emplace(GroupKey{U.Window, U.Program, unsigned(U.V)},
                                  8, 1)
                    .first;
      std::string Error;
      Span Sp(T, "collectd.fold");
      if (!It->second.add(std::move(A), Error))
        Res.fail("in-process fold refused upload " + std::to_string(Index));
    }
    Span Sp(T, "collectd.ingest");
    Service.ingestNow(collectd::Upload{"replay", U.Window, std::move(Bytes)});
  }
  for (uint64_t Index = 0; Index != ReplayQueries; ++Index) {
    QuerySpec Q = fleetQuery(Seed, Index);
    OpSpan Root(T);
    std::string Error;
    Span Sp(T, "collectd.query");
    directQuery(Service, Q, Error);
  }
  size_t Resident = 0;
  for (const auto &[Key, Tree] : Trees)
    Resident += Tree.residentArtifacts();
  Res.metric("collectd.resident_artifacts", double(Resident), "count");
}

} // namespace

Result perfbench::runFleetIngest(const Options &O, Tracer &T) {
  Result Res;
  // Two threads (this one and the server's event thread) plus the
  // connections stay within the usable cores.
  unsigned NumConns = O.Cores >= 4 ? 2 : 1;
  Templates Tpl;
  Fleet F;
  T.setEnabled(false);
  for (unsigned Repeat = 0; Repeat != SetupRepeats; ++Repeat) {
    F.stop();
    uint64_t Start = nowNs();
    std::string Error;
    if (!profileFleet(Tpl, Error) || !F.start(T, NumConns, Error)) {
      Res.fail("set-up: " + Error);
      F.stop();
      return Res;
    }
    Res.SetupSeconds.push_back(double(nowNs() - Start) * 1e-9);
  }

  // The wire: a fixed number of uploads over loopback, every reply
  // checked; the traced run's per-call wire figures come from here.
  Generator Wire(T, Tpl, F, O.Seed, Res);
  std::vector<double> Rtt;
  T.setEnabled(O.Trace);
  Wire.closedLoop(WireUploads, Rtt);
  T.setEnabled(false);

  // The collector's ingest path from this thread: phase A, closed loop,
  // gives throughput; phase B, open loop, gives latency. Over loopback
  // both swung 25-50% between runs with the wake-ups of two threads on a
  // shared 4-vCPU host, so the timed phases leave the sockets out.
  Local L(T, Tpl, O.Seed, Res);
  double Throughput = 0, TraceOverhead = 0;
  double PhaseA = O.Seconds / 2;
  std::vector<double> ChunkP50, ChunkP90;
  if (!O.Trace) {
    Throughput = L.closedLoop(PhaseA, UINT64_MAX, nullptr, &ChunkP50,
                              &ChunkP90);
  } else {
    // Chunks alternate between traced and untraced, so host drift
    // cancels out of the tracing overhead.
    double Plain = 0;
    double Traced = L.closedLoop(PhaseA, UINT64_MAX, &Plain);
    TraceOverhead = Plain / Traced - 1;
  }
  // Phase B starts from fresh windows holding PreloadUploads uploads, so
  // its starting state does not depend on how far phase A got.
  L.setWindowBase(FleetWindows);
  L.closedLoop(1e9, PreloadUploads);
  std::vector<std::vector<double>> UploadMs; // by due-time slice
  std::vector<double> QueryMs, LagMs;
  L.openLoop(O.Seconds - PhaseA, O.UploadRate, O.QueryRate, UploadMs,
             QueryMs, LagMs);

  checkFolds(*F.Service, Wire.sent(), FleetWindows, Tpl, O.Seed,
             [&Wire](const QuerySpec &Q, std::string &Text) {
               return Wire.query(Q, Text);
             },
             Res);
  collectd::IngestService &Direct = L.service();
  checkFolds(Direct, L.sent(), 2 * FleetWindows, Tpl, O.Seed,
             [&Direct](const QuerySpec &Q, std::string &Text) {
               std::string Error;
               Text = directQuery(Direct, Q, Error);
               return Error.empty();
             },
             Res);

  collectd::IngestStats Stats = F.Service->stats();
  collectd::ServerStats Net = F.Server->stats();
  F.stop();

  if (!O.Trace) {
    // Gated: phase A's throughput and per-upload ingest latency (chunk
    // medians). Phase B's open-loop latencies, timed from the due time,
    // swung 20-45% between runs of one seed (queueing behind compaction
    // stalls amplifies host noise), so they are reported ungated.
    Res.metric("throughput_per_s", Throughput, "1/s");
    Res.metric("latency_ms_p50", median(ChunkP50), "ms");
    Res.metric("latency_ms_p90", median(ChunkP90), "ms");
    std::vector<double> P50, P90, All;
    for (const std::vector<double> &Slice : UploadMs) {
      if (Slice.empty())
        continue;
      P50.push_back(median(Slice));
      P90.push_back(percentile(Slice, 90));
      All.insert(All.end(), Slice.begin(), Slice.end());
    }
    Res.detail("open_loop_upload_ms_p50", median(P50), "ms");
    Res.detail("open_loop_upload_ms_p90", median(P90), "ms");
    Tail Up = tailPercentile(All), Qu = tailPercentile(QueryMs);
    Res.detail("upload_ms_tail", Up.Value, "ms");
    Res.detail("upload_ms_tail_percentile", Up.Percentile, "%");
    Res.detail("upload_samples", double(Up.Count), "count");
    Res.detail("query_ms_p50", median(QueryMs), "ms");
    Res.detail("query_ms_tail", Qu.Value, "ms");
    Res.detail("query_ms_tail_percentile", Qu.Percentile, "%");
    Res.detail("query_samples", double(Qu.Count), "count");
    Res.detail("wire_rtt_us_p50", median(Rtt), "us");
    return Res;
  }

  Res.metric("bench.generator_lag_ms", percentile(LagMs, 90), "ms");
  Res.metric("collectd.upload_rtt_us", median(Rtt), "us");
  Res.metric("collectd.compactions", double(Stats.Compactions), "count");
  Res.metric("collectd.read_pauses", double(Net.ReadPauses), "count");
  Res.metric("collectd.frames_in", double(Net.FramesIn), "count");
  Res.metric("collectd.bytes_in", double(Net.BytesIn), "bytes");
  Res.metric("collectd.accepted", double(Stats.Accepted), "count");
  for (size_t R = 1; R != size_t(collectd::RejectReason::NumReasons); ++R)
    Res.metric(std::string("collectd.rejected.") + RejectNames[R],
               double(Stats.RejectedBy[R]), "count");
  Res.metric("collectd.accept_ratio",
             Stats.Submitted ? double(Stats.Accepted) / double(Stats.Submitted)
                             : 0,
             "ratio");

  // Split the server's work by replaying the stream in process.
  T.setEnabled(true);
  replayInProcess(T, Tpl, O.Seed, ReplayUploads, Res);
  T.setEnabled(false);
  Attribution A = attribute(T.spans());
  reportAttribution(Res, A, TraceOverhead);
  Res.metric("collectd.frame_encode_us",
             medianSelf(A, "collectd.encodeFrame", 1e-3), "us");
  Res.metric("profdb.encode_us", medianSelf(A, "profdb.encode", 1e-3), "us");
  Res.metric("profdb.decode_us", medianSelf(A, "profdb.decode", 1e-3), "us");
  Res.metric("collectd.fold_us", medianSelf(A, "collectd.fold", 1e-3), "us");
  double Ingest = medianSelf(A, "collectd.ingest", 1e-3);
  Res.metric("collectd.ingest_us", Ingest, "us");
  Res.metric("collectd.wire_us", median(Rtt) - Ingest, "us");
  Res.metric("collectd.query_direct_us",
             medianSelf(A, "collectd.query", 1e-3), "us");
  return Res;
}
