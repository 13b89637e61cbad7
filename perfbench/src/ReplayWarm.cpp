//===- perfbench/src/ReplayWarm.cpp - The replay-warm workload -----------===//
//
// Regenerates the paper's Tables 1-5 and the pp-report reports from stored
// results, in a closed loop. Set-up cold-runs the run set into a disk
// RunCache (depositing artifacts as it goes) and renders the reference
// outputs. Each op then:
//
//   constructs a fresh driver::Driver on that cache, depositing into a
//   fresh directory (scheduler().setProfileOutDir), and submits and gets
//   every ticket of the five tables plus the report shards;
//   renders Tables 3-5 through analysis::renderTable3/4/5;
//   reads every deposited .ppa back (profdb::listArtifactFiles,
//   readArtifactFile), merges each program's shards with mergeAll and
//   renders reportTopPaths/reportTopProcs/reportCctStats;
//   renders Tables 3-5 again from the artifacts alone, as
//   `pp-report --repo` does.
//
// The run set is Tables 1-5's 72 runs plus each program's Flow+HW and
// Context+Flow runs on three other D-cache geometries (a small fleet of
// differing hosts), so every program has four mergeable shards per mode.
// The seed permutes the submission order and the merge shard order.
//
// The oracle (outside the op timing): no op executes a run, every run is
// a disk hit, and every table, digest and report is byte-identical to the
// cold set-up render; the repository tables equal the live ones.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Host.h"
#include "Stats.h"
#include "Streams.h"

#include "analysis/HotPaths.h"
#include "analysis/PaperTables.h"
#include "analysis/SiteStats.h"
#include "cct/Export.h"
#include "driver/Driver.h"
#include "driver/RunKey.h"
#include "prof/Instrumenter.h"
#include "profdb/Merge.h"
#include "profdb/Report.h"
#include "profdb/Store.h"
#include "support/Format.h"
#include "workloads/Spec.h"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <memory>
#include <set>
#include <unistd.h>

using namespace perfbench;
using namespace pp;
namespace fs = std::filesystem;
using prof::Mode;

namespace {

/// Ops an untraced run measures at least (24 renders each, so p90 has
/// ten samples beyond it); each traced pass measures at least
/// MinTracedOps.
constexpr uint64_t MinOps = 5;
constexpr uint64_t MinTracedOps = 2;
/// Ops of the traced run that deposit every run's artifact.
constexpr uint64_t DepositOps = 4;
constexpr size_t ReportLimit = 10;

/// Machine 0 is the paper's; 1-3 vary the D-cache for the report shards.
constexpr unsigned NumMachines = 4;
hw::MachineConfig machine(unsigned Index) {
  hw::MachineConfig Cfg;
  static const hw::CacheConfig Shards[] = {
      {8 * 1024, 32, 1}, {32 * 1024, 32, 2}, {64 * 1024, 64, 4}};
  if (Index)
    Cfg.DCache = Shards[Index - 1];
  return Cfg;
}

struct RunSpec {
  unsigned Program = 0;
  Mode M = Mode::None;
  unsigned Machine = 0;
};

driver::RunPlan planOf(const RunSpec &S) {
  driver::RunPlan Plan;
  Plan.Workload = workloads::spec95Suite()[S.Program].Name;
  Plan.Scale = 1;
  Plan.Options.Config.M = S.M;
  Plan.Options.MachineCfg = machine(S.Machine);
  Plan.Options.Engine = vm::Engine::Threaded;
  return Plan;
}

/// The tickets of one op in canonical order, and where each table's
/// inputs sit among them.
struct TicketSet {
  std::vector<RunSpec> Tickets;
  /// Per program: ticket of Table 3's Context+Flow run, Table 4's and
  /// Table 5's Flow+HW runs, and the machine-indexed shard tickets.
  std::vector<size_t> Table3, Table4, Table5;
  std::vector<std::array<size_t, NumMachines>> FlowShards, CtxShards;
};

TicketSet ticketSet() {
  TicketSet S;
  size_t NumPrograms = workloads::spec95Suite().size();
  auto Add = [&S](unsigned P, Mode M, unsigned Machine) {
    S.Tickets.push_back({P, M, Machine});
    return S.Tickets.size() - 1;
  };
  for (unsigned P = 0; P != NumPrograms; ++P) {
    // Table 1 and Table 2 (whose runs the driver folds onto Table 1's).
    for (Mode M : {Mode::None, Mode::FlowHw, Mode::ContextHw,
                   Mode::ContextFlow})
      Add(P, M, 0);
    for (Mode M : {Mode::None, Mode::FlowHw, Mode::ContextHw})
      Add(P, M, 0);
    S.Table3.push_back(Add(P, Mode::ContextFlow, 0));
    S.Table4.push_back(Add(P, Mode::FlowHw, 0));
    S.Table5.push_back(Add(P, Mode::FlowHw, 0));
    std::array<size_t, NumMachines> Flow{}, Ctx{};
    Flow[0] = S.Table4.back();
    Ctx[0] = S.Table3.back();
    for (unsigned Machine = 1; Machine != NumMachines; ++Machine) {
      Flow[Machine] = Add(P, Mode::FlowHw, Machine);
      Ctx[Machine] = Add(P, Mode::ContextFlow, Machine);
    }
    S.FlowShards.push_back(Flow);
    S.CtxShards.push_back(Ctx);
  }
  return S;
}

/// The numbers Tables 1 and 2 are computed from, one line per ticket.
std::string outcomeDigest(const std::vector<driver::OutcomePtr> &Outcomes) {
  std::string Out;
  for (const driver::OutcomePtr &O : Outcomes) {
    if (!O) {
      Out += "missing\n";
      continue;
    }
    Out += formatString("%d %llu %llu", O->Result.Ok ? 1 : 0,
                        (unsigned long long)O->Result.ExitValue,
                        (unsigned long long)O->Result.ExecutedInsts);
    for (uint64_t Total : O->Totals)
      Out += formatString(" %llu", (unsigned long long)Total);
    Out += "\n";
  }
  return Out;
}

std::vector<analysis::PathRecord>
pathRecordsOf(const profdb::Artifact &A) {
  std::vector<analysis::PathRecord> Records;
  for (const prof::FunctionPathProfile &Profile : A.PathProfiles) {
    if (!Profile.HasProfile)
      continue;
    for (const prof::PathEntry &Entry : Profile.Paths)
      Records.push_back({Profile.FuncId, Entry.PathSum, Entry.Freq,
                         Entry.Metric0, Entry.Metric1});
  }
  return Records;
}

/// Everything one op produced, for the oracle.
struct OpOutput {
  std::vector<driver::OutcomePtr> Outcomes;
  /// Render name -> bytes.
  std::map<std::string, std::string> Renders;
  std::vector<double> RenderMs;
  std::vector<std::string> Files;
  uint64_t RunsExecuted = 0;
  driver::RunCache::Stats Cache;
  uint64_t DriverNs = 0;
  uint64_t WallNs = 0;
  uint64_t ReadNs = 0, ReadBytes = 0;
  std::string Error;
};

class Replayer {
public:
  Replayer(Tracer &T, unsigned Threads) : T(T), Threads(Threads) {
    for (const RunSpec &S : Set.Tickets)
      TicketFile.push_back(profdb::artifactFileName(
          driver::RunKey::of(planOf(S)).Fingerprint));
  }

  /// One op over \p CacheDir, depositing into \p DepositDir (none when
  /// empty) and reading the artifact repository \p RepoDir back.
  OpOutput run(const std::string &CacheDir, const std::string &DepositDir,
               const std::string &RepoDir, const ReplayOrder &Order) {
    OpOutput Out;
    Out.Outcomes.resize(Set.Tickets.size());
    uint64_t Start = nowNs();
    OpSpan Root(T);
    runDriver(CacheDir, DepositDir, Order, Out);
    renderLive(Out);
    readBack(RepoDir, Order, Out);
    Root.close();
    Out.WallNs = nowNs() - Start;
    return Out;
  }

  const TicketSet &tickets() const { return Set; }

  /// File name each ticket deposits its artifact under.
  std::vector<std::string> TicketFile;
  /// Size of each ticket's deposited artifact (known after set-up), for
  /// the decode rate.
  std::vector<uint64_t> TicketBytes;

private:
  Tracer &T;
  unsigned Threads;
  TicketSet Set = ticketSet();
  const std::vector<workloads::WorkloadSpec> &Suite =
      workloads::spec95Suite();

  void runDriver(const std::string &CacheDir, const std::string &DepositDir,
                 const ReplayOrder &Order, OpOutput &Out) {
    uint64_t Start = nowNs();
    std::unique_ptr<driver::Driver> D;
    {
      Span Sp(T, "driver.construct");
      D = std::make_unique<driver::Driver>(CacheDir, Threads);
      D->scheduler().setProfileOutDir(DepositDir);
    }
    std::vector<size_t> Ticket(Set.Tickets.size());
    for (size_t Index : Order.Submit) {
      Span Sp(T, "driver.submit");
      Ticket[Index] = D->submit(planOf(Set.Tickets[Index]));
    }
    for (size_t Index : Order.Submit) {
      Span Sp(T, "driver.get", DepositDir.empty() ? "" : "deposit");
      Out.Outcomes[Index] = D->get(Ticket[Index]);
    }
    Out.RunsExecuted = D->scheduler().runsExecuted();
    Out.Cache = D->cache().stats();
    {
      Span Sp(T, "driver.destroy");
      D.reset();
    }
    Out.DriverNs = nowNs() - Start;
  }

  /// Table 3 rows from CCTs; \p Instr gives each program's
  /// instrumentation metadata.
  analysis::Table3Row table3Row(size_t P, const cct::CallingContextTree &Tree,
                                const prof::Instrumented *Instr) {
    std::unique_ptr<ir::Module> Module;
    {
      Span Sp(T, "workloads.build");
      Module = Suite[P].Build(1);
    }
    prof::Instrumented Local;
    if (!Instr) {
      Span Sp(T, "prof.instrument");
      prof::ProfileConfig Config;
      Config.M = Mode::ContextFlow;
      Local = prof::instrument(*Module, Config);
      Instr = &Local;
    }
    analysis::Table3Row Row;
    Row.Name = Suite[P].Name;
    {
      Span Sp(T, "cct.stats");
      Row.Stats = Tree.computeStats();
      Row.ProfileBytes = cct::serialize(Tree).size() + Tree.heapBytes();
    }
    {
      Span Sp(T, "analysis.sites");
      Row.Sites = analysis::computeSitePathStats(Tree, *Module, *Instr);
    }
    return Row;
  }

  void timedRender(OpOutput &Out, const std::string &Name,
                   const std::function<std::string()> &Render) {
    uint64_t Start = nowNs();
    Out.Renders[Name] = Render();
    Out.RenderMs.push_back(double(nowNs() - Start) * 1e-6);
  }

  void renderLive(OpOutput &Out) {
    timedRender(Out, "live.table3", [&] {
      std::vector<analysis::Table3Row> Rows;
      for (size_t P = 0; P != Suite.size(); ++P) {
        const driver::OutcomePtr &Run = Out.Outcomes[Set.Table3[P]];
        if (Run && Run->Result.Ok && Run->Tree)
          Rows.push_back(table3Row(P, *Run->Tree, &Run->Instr));
      }
      Span Sp(T, "analysis.render");
      return analysis::renderTable3(Rows);
    });
    for (bool Table5 : {false, true})
      timedRender(Out, Table5 ? "live.table5" : "live.table4", [&] {
        std::vector<analysis::SuitePathRows> Rows;
        for (size_t P = 0; P != Suite.size(); ++P) {
          const driver::OutcomePtr &Run =
              Out.Outcomes[(Table5 ? Set.Table5 : Set.Table4)[P]];
          if (!Run || !Run->Result.Ok)
            continue;
          Span Sp(T, "analysis.records");
          Rows.push_back({Suite[P].Name, Suite[P].IsFloat,
                          analysis::collectPathRecords(*Run)});
        }
        Span Sp(T, "analysis.render");
        return Table5 ? analysis::renderTable5(Rows)
                      : analysis::renderTable4(Rows);
      });
  }

  void readBack(const std::string &RepoDir, const ReplayOrder &Order,
                OpOutput &Out) {
    {
      Span Sp(T, "profdb.list");
      Out.Files = profdb::listArtifactFiles(RepoDir);
    }
    // File name -> path of this op's deposit.
    std::map<std::string, std::string> Path;
    for (const std::string &File : Out.Files)
      Path[fs::path(File).filename().string()] = File;
    std::vector<profdb::Artifact> Flow0(Suite.size()), Ctx0(Suite.size());
    for (size_t P = 0; P != Suite.size(); ++P) {
      timedRender(Out, "report." + Suite[P].Name, [&]() -> std::string {
        std::string Text;
        for (bool Ctx : {false, true}) {
          const std::array<size_t, NumMachines> &Shards =
              (Ctx ? Set.CtxShards : Set.FlowShards)[P];
          std::vector<profdb::Artifact> Inputs;
          for (size_t Shard : Order.Shards[P * 2 + Ctx]) {
            auto It = Path.find(TicketFile[Shards[Shard]]);
            if (It == Path.end()) {
              Out.Error = "no deposited artifact for a shard of " +
                          Suite[P].Name;
              return "";
            }
            profdb::Artifact A;
            uint64_t ReadStart = nowNs();
            profdb::DecodeStatus Status;
            {
              Span Sp(T, "profdb.read");
              Status = profdb::readArtifactFile(It->second, A);
            }
            Out.ReadNs += nowNs() - ReadStart;
            if (Shards[Shard] < TicketBytes.size())
              Out.ReadBytes += TicketBytes[Shards[Shard]];
            if (Status != profdb::DecodeStatus::Ok) {
              Out.Error = It->second + ": " + profdb::decodeStatusName(Status);
              return "";
            }
            if (Shard == 0) {
              Span Sp(T, "profdb.clone");
              (Ctx ? Ctx0 : Flow0)[P] = profdb::cloneArtifact(A);
            }
            Inputs.push_back(std::move(A));
          }
          profdb::Artifact Merged;
          std::string Error;
          bool Ok;
          {
            Span Sp(T, "profdb.merge");
            Ok = profdb::mergeAll(std::move(Inputs), Merged, Error);
          }
          if (!Ok) {
            Out.Error = Suite[P].Name + ": merge failed: " + Error;
            return "";
          }
          Span Sp(T, "profdb.report");
          if (Ctx) {
            Text += profdb::reportCctStats(Merged);
          } else {
            Text += profdb::reportTopPaths(Merged, ReportLimit);
            Text += profdb::reportTopProcs(Merged, ReportLimit);
          }
        }
        return Text;
      });
    }
    if (!Out.Error.empty())
      return;

    // Tables 3-5 from the repository alone, as `pp-report --repo` does.
    timedRender(Out, "repo.table3", [&] {
      std::vector<analysis::Table3Row> Rows;
      for (size_t P = 0; P != Suite.size(); ++P)
        if (Ctx0[P].Tree)
          Rows.push_back(table3Row(P, *Ctx0[P].Tree, nullptr));
      Span Sp(T, "analysis.render");
      return analysis::renderTable3(Rows);
    });
    for (bool Table5 : {false, true})
      timedRender(Out, Table5 ? "repo.table5" : "repo.table4", [&] {
        std::vector<analysis::SuitePathRows> Rows;
        for (size_t P = 0; P != Suite.size(); ++P)
          Rows.push_back(
              {Suite[P].Name, Suite[P].IsFloat, pathRecordsOf(Flow0[P])});
        Span Sp(T, "analysis.render");
        return Table5 ? analysis::renderTable5(Rows)
                      : analysis::renderTable4(Rows);
      });
  }
};

/// Reference outputs of the cold set-up op.
struct Reference {
  std::string Digest;
  std::map<std::string, std::string> Renders;
  std::set<std::string> FileNames;
};

/// Checks one warm op against the reference; "" when it matches.
std::string check(const OpOutput &Out, const Reference &Ref,
                  size_t UniqueRuns) {
  if (!Out.Error.empty())
    return Out.Error;
  if (Out.RunsExecuted != 0)
    return std::to_string(Out.RunsExecuted) +
           " runs executed on a warm cache (misses " +
           std::to_string(Out.Cache.Misses) + ", decode failures " +
           std::to_string(Out.Cache.DecodeFailures) + ", memory hits " +
           std::to_string(Out.Cache.MemoryHits) + ")";
  if (Out.Cache.DiskHits != UniqueRuns || Out.Cache.DecodeFailures)
    return "cache served " + std::to_string(Out.Cache.DiskHits) + " of " +
           std::to_string(UniqueRuns) + " runs from disk";
  if (outcomeDigest(Out.Outcomes) != Ref.Digest)
    return "Tables 1-2 inputs differ from the cold run";
  for (const auto &[Name, Bytes] : Ref.Renders) {
    auto It = Out.Renders.find(Name);
    if (It == Out.Renders.end() || It->second != Bytes)
      return Name + " differs from the cold render";
  }
  std::set<std::string> Names;
  for (const std::string &File : Out.Files)
    Names.insert(fs::path(File).filename().string());
  if (Names != Ref.FileNames)
    return "deposited artifact set differs from the cold run's";
  return "";
}

/// Resident memory each fresh one-worker Driver leaves behind once it is
/// destroyed, MiB: the mean over \p Count drivers that each serve one
/// cached run.
double workerRetainedMiB(const std::string &CacheDir, const RunSpec &Run,
                         unsigned Count) {
  double Before = residentMiB();
  for (unsigned Index = 0; Index != Count; ++Index) {
    driver::Driver D(CacheDir, 1);
    D.get(D.submit(planOf(Run)));
  }
  return (residentMiB() - Before) / Count;
}

uint64_t directoryBytes(const std::string &Dir) {
  uint64_t Total = 0;
  std::error_code Ec;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir, Ec))
    if (E.is_regular_file(Ec))
      Total += E.file_size(Ec);
  return Total;
}

} // namespace

Result perfbench::runReplayWarm(const Options &O, Tracer &T) {
  Result Res;
  // Each op's Driver runs serially (Threads = 0): every hit is served on
  // this thread inside its get(), so driver.get_us is the whole per-hit
  // cost and no thread hand-off noise enters the op times. Worker threads
  // are priced separately (driver.worker_rss_mib).
  unsigned Threads = 0;
  Replayer Replay(T, Threads);
  const TicketSet &Set = Replay.tickets();
  const size_t NumPrograms = workloads::spec95Suite().size();
  std::set<std::string> Unique;
  for (const RunSpec &S : Set.Tickets)
    Unique.insert(driver::RunKey::of(planOf(S)).Fingerprint);

  // Set-up: cold-run everything into a fresh disk cache, depositing every
  // run's artifact, and render the reference outputs; repeated, the last
  // repeat's cache and artifact repository are kept.
  std::string CacheDir, RepoDir;
  Reference Ref;
  T.setEnabled(false);
  for (unsigned Repeat = 0; Repeat != SetupRepeats; ++Repeat) {
    std::string Dir = O.WorkDir + "/setup" + std::to_string(Repeat);
    uint64_t Start = nowNs();
    // RunCache creates only the last path component of its directory.
    fs::create_directories(Dir);
    OpOutput Cold =
        Replay.run(Dir + "/cache", Dir + "/deposit", Dir + "/deposit",
                   replayOrder(O.Seed, 0, Set.Tickets.size(),
                               NumPrograms * 2, NumMachines));
    Res.SetupSeconds.push_back(double(nowNs() - Start) * 1e-9);
    if (!Cold.Error.empty() || Cold.RunsExecuted != Unique.size()) {
      Res.fail("set-up: cold run: " + Cold.Error +
               " (executed " + std::to_string(Cold.RunsExecuted) + ")");
      return Res;
    }
    for (const char *Table : {"table3", "table4", "table5"})
      if (Cold.Renders[std::string("live.") + Table] !=
          Cold.Renders[std::string("repo.") + Table]) {
        Res.fail(std::string("set-up: repository ") + Table +
                 " differs from the live one");
        return Res;
      }
    Ref.Digest = outcomeDigest(Cold.Outcomes);
    Ref.Renders = Cold.Renders;
    Ref.FileNames.clear();
    for (const std::string &File : Cold.Files)
      Ref.FileNames.insert(fs::path(File).filename().string());
    Replay.TicketBytes.clear();
    for (const std::string &File : Replay.TicketFile) {
      std::error_code Ec;
      uintmax_t Size = fs::file_size(Dir + "/deposit/" + File, Ec);
      Replay.TicketBytes.push_back(Ec ? 0 : Size);
    }
    if (!CacheDir.empty())
      fs::remove_all(fs::path(CacheDir).parent_path());
    CacheDir = Dir + "/cache";
    RepoDir = Dir + "/deposit";
  }

  // Write back what set-up (and any earlier run) left dirty now, so the
  // kernel does not flush it in the middle of the measured ops.
  sync();

  struct Pass {
    std::vector<OpOutput> Ops;
    uint64_t WallNs = 0;
    /// Traced runs: op time of the untraced twin of every traced op.
    uint64_t UntracedWallNs = 0;
    std::vector<double> DepositBytes;
  };
  uint64_t OpCounter = 1;
  // One op, checked against the reference. Measured ops read the set-up's
  // repository and deposit nothing: with a fresh deposit directory per op
  // the op time follows the file system's journal (runs served per second
  // swung 5x between consecutive runs on the host in config.json). The
  // traced run prices deposits in ops of their own (\p Deposit).
  auto RunOp = [&](Pass &P, bool Deposit) {
    uint64_t OpId = OpCounter++;
    std::string Dir =
        Deposit ? O.WorkDir + "/op" + std::to_string(OpId) : std::string();
    OpOutput Out = Replay.run(
        CacheDir, Dir, Deposit ? Dir : RepoDir,
        replayOrder(O.Seed, OpId, Set.Tickets.size(), NumPrograms * 2,
                    NumMachines));
    ++Res.Attempted;
    std::string Why = check(Out, Ref, Unique.size());
    if (!Why.empty())
      Res.fail(Why);
    if (Deposit)
      P.DepositBytes.push_back(double(directoryBytes(Dir)));
    Out.Outcomes.clear();
    Out.Renders.clear();
    Out.Files.clear();
    return Out;
  };
  // Ops until \p Budget seconds of op time and \p MinOpsHere ops. With
  // \p Traced, each op also runs untraced, alternating which goes first;
  // only the traced one is kept.
  auto RunPass = [&](Pass &P, double Budget, uint64_t MinOpsHere,
                     bool Traced) {
    for (uint64_t Index = 0;
         Index < MinOpsHere || double(P.WallNs) * 1e-9 < Budget; ++Index) {
      auto Untraced = [&] {
        T.setEnabled(false);
        P.UntracedWallNs += RunOp(P, false).WallNs;
        T.setEnabled(true);
      };
      if (Traced && Index % 2)
        Untraced();
      OpOutput Out = RunOp(P, false);
      if (Traced && !(Index % 2))
        Untraced();
      P.WallNs += Out.WallNs;
      P.Ops.push_back(std::move(Out));
    }
  };

  if (!O.Trace) {
    Pass P;
    RunPass(P, O.Seconds, MinOps, false);
    // Runs served per second: the median over ops of each op's rate, so a
    // file-system stall during one op does not move the figure.
    std::vector<double> Lat, Rate;
    for (const OpOutput &Op : P.Ops) {
      Lat.insert(Lat.end(), Op.RenderMs.begin(), Op.RenderMs.end());
      if (Op.DriverNs)
        Rate.push_back(double(Op.Cache.DiskHits) / double(Op.DriverNs) * 1e9);
    }
    Res.metric("throughput_per_s", median(Rate), "1/s");
    Res.metric("latency_ms_p50", median(Lat), "ms");
    Res.metric("latency_ms_p90", percentile(Lat, 90), "ms");
    Tail Tl = tailPercentile(Lat);
    Res.detail("report_ms_tail", Tl.Value, "ms");
    Res.detail("report_ms_tail_percentile", Tl.Percentile, "%");
    Res.detail("report_samples", double(Tl.Count), "count");
    Res.detail("replay_ops", double(P.Ops.size()), "count");
    return Res;
  }

  Pass Traced, Deposits;
  T.setEnabled(true);
  RunPass(Traced, O.Seconds / 2, MinTracedOps, true);
  for (uint64_t Index = 0; Index != DepositOps; ++Index)
    RunOp(Deposits, true);
  T.setEnabled(false);
  Attribution A = attribute(T.spans());
  reportAttribution(Res, A,
                    double(Traced.WallNs) / double(Traced.UntracedWallNs) - 1);

  std::vector<double> Hits, HitRatio, ReadRate;
  double Executed = 0;
  for (const OpOutput &Op : Traced.Ops) {
    const driver::RunCache::Stats &C = Op.Cache;
    Hits.push_back(double(C.DiskHits));
    double Lookups = double(C.MemoryHits + C.DiskHits + C.Misses);
    HitRatio.push_back(Lookups ? double(C.MemoryHits + C.DiskHits) / Lookups
                               : 0);
    Executed += double(Op.RunsExecuted);
    if (Op.ReadNs)
      ReadRate.push_back(double(Op.ReadBytes) / double(Op.ReadNs) * 1e3);
  }
  Res.metric("driver.get_us", medianSelf(A, "driver.get", 1e-3), "us");
  Res.metric("driver.deposit_get_us",
             medianSelf(A, "driver.get@deposit", 1e-3), "us");
  Res.metric("driver.worker_rss_mib",
             workerRetainedMiB(CacheDir, Set.Tickets.front(), 8), "MiB");
  Res.metric("driver.disk_hits", median(Hits), "count");
  Res.metric("driver.runs_executed", Executed, "count");
  Res.metric("driver.hit_ratio", median(HitRatio), "ratio");
  Res.metric("profdb.deposit_bytes", median(Deposits.DepositBytes), "bytes");
  Res.metric("profdb.read_us", medianSelf(A, "profdb.read", 1e-3), "us");
  Res.metric("profdb.decode_mb_per_s", median(ReadRate), "MB/s");
  Res.metric("profdb.merge_ms", medianSelf(A, "profdb.merge", 1e-6), "ms");
  Res.metric("workloads.build_ms", medianSelf(A, "workloads.build", 1e-6),
             "ms");
  Res.metric("analysis.render_ms", medianSelf(A, "analysis.render", 1e-6),
             "ms");
  Res.metric("profdb.report_ms", medianSelf(A, "profdb.report", 1e-6), "ms");
  return Res;
}
