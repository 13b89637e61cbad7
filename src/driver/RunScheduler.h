//===- driver/RunScheduler.h - Parallel run execution ----------*- C++ -*-===//
///
/// \file
/// Executes declared runs on a pool of worker threads. Every run is
/// independent — one Machine and one Vm per execution, no shared mutable
/// state anywhere in pp_vm/pp_hw/pp_prof — so runs proceed concurrently
/// and results are collected deterministically in submission order.
/// Duplicate submissions of the same RunKey fold onto one execution, and a
/// RunCache (when attached) is consulted before executing and updated
/// after.
///
/// Failure isolation: a run that cannot execute (unknown workload,
/// injected fault) resolves to a structured outcome with Result.Ok ==
/// false and Result.Error set, is never cached to disk, and leaves every
/// other submitted run untouched — one bad run degrades one table cell
/// instead of aborting the suite.
///
/// Environment knobs: PP_DRIVER_THREADS sets the worker count (a
/// non-numeric value warns and keeps the hardware default; 0 means
/// serial), PP_DRIVER_SERIAL=1 forces in-order execution on the calling
/// thread, and PP_PROFILE_OUT names a directory every successful run
/// (fresh or cache-hit) deposits a profile artifact into (see
/// profdb/Store.h).
///
//===----------------------------------------------------------------------===//

#ifndef PP_DRIVER_RUNSCHEDULER_H
#define PP_DRIVER_RUNSCHEDULER_H

#include "driver/RunKey.h"
#include "driver/RunPlan.h"

#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace pp {
namespace driver {

class RunCache;

class RunScheduler {
public:
  /// \p Threads worker threads (0 = serial: runs execute on the calling
  /// thread, in submission order, when their results are requested).
  explicit RunScheduler(RunCache *Cache = nullptr,
                        unsigned Threads = defaultWorkerThreads());
  ~RunScheduler();

  RunScheduler(const RunScheduler &) = delete;
  RunScheduler &operator=(const RunScheduler &) = delete;

  /// Declares a run and returns its ticket. Workers pick it up
  /// immediately; a cacheable plan whose key was already submitted shares
  /// the earlier execution.
  size_t submit(RunPlan Plan);

  /// Blocks until ticket \p Ticket's run finished and returns its outcome.
  OutcomePtr get(size_t Ticket);

  /// Number of tickets issued so far.
  size_t numTickets() const;
  /// Worker threads (0 in serial mode).
  unsigned numThreads() const {
    return static_cast<unsigned>(Workers.size());
  }
  /// Runs actually executed (cache hits and folded duplicates excluded).
  uint64_t runsExecuted() const;
  /// Runs that resolved to a failed outcome (Result.Ok == false), whether
  /// executed or synthesised (unknown workload, injected fault).
  uint64_t runsFailed() const;

  /// PP_DRIVER_SERIAL / PP_DRIVER_THREADS, defaulting to the hardware
  /// concurrency clamped to [4, 16].
  static unsigned defaultWorkerThreads();

  /// Redirects artifact emission ("" disables it). Initialised from
  /// $PP_PROFILE_OUT; tools/pp's --profile-out flag overrides it.
  void setProfileOutDir(std::string Dir);

private:
  struct Task {
    RunPlan Plan;
    RunKey Key;
    bool Claimed = false;
    bool Done = false;
    OutcomePtr Outcome;
  };

  void workerLoop();
  void executeTask(Task &T);
  OutcomePtr executePlan(const RunPlan &Plan, const RunKey &Key);
  /// Deposits \p Record as a profile artifact when a profile-out
  /// directory is configured, the run succeeded, and the artifact is not
  /// already on disk. Emission failures warn on stderr; they never fail
  /// the run itself.
  void maybeEmitArtifact(const RunPlan &Plan, const RunKey &Key,
                         const RunRecord &Record);
  /// A structured failure outcome (Ok = false, \p Error attached).
  static OutcomePtr failedOutcome(std::string Error);

  RunCache *Cache;
  std::string ProfileOutDir;
  std::vector<std::thread> Workers;

  mutable std::mutex Mu;
  std::condition_variable WorkReady;
  std::condition_variable TaskDone;
  std::vector<std::unique_ptr<Task>> Tasks;
  /// Ticket -> task index (several tickets may alias one task).
  std::vector<size_t> TicketToTask;
  /// Fingerprint -> task index, for duplicate folding.
  std::unordered_map<std::string, size_t> TaskOfKey;
  size_t NextUnclaimed = 0;
  uint64_t Executed = 0;
  uint64_t Failed = 0;
  bool ShuttingDown = false;
};

} // namespace driver
} // namespace pp

#endif // PP_DRIVER_RUNSCHEDULER_H
