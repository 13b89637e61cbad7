//===- driver/RunScheduler.cpp - Parallel run execution -----------------------===//

#include "driver/RunScheduler.h"

#include "driver/FaultInjector.h"
#include "driver/RunCache.h"
#include "obs/Obs.h"
#include "prof/Mode.h"
#include "profdb/Store.h"
#include "support/Env.h"
#include "workloads/Spec.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include <sys/stat.h>

using namespace pp;
using namespace pp::driver;

unsigned RunScheduler::defaultWorkerThreads() {
  if (envFlag("PP_DRIVER_SERIAL", "pp-driver"))
    return 0;
  unsigned Hardware = std::thread::hardware_concurrency();
  unsigned Default = std::clamp(Hardware ? Hardware : 4u, 4u, 16u);
  uint64_t Value;
  switch (envUint64("PP_DRIVER_THREADS", "pp-driver", Value)) {
  case EnvParse::Ok:
    return static_cast<unsigned>(std::min<uint64_t>(Value, 64));
  case EnvParse::Malformed:
    // A typo must not silently drop the suite into serial mode (atol
    // would read "max" as 0); the shared helper warned, keep the
    // hardware default.
    std::fprintf(stderr, "pp-driver: using %u threads\n", Default);
    return Default;
  case EnvParse::Unset:
    break;
  }
  return Default;
}

RunScheduler::RunScheduler(RunCache *Cache, unsigned Threads)
    : Cache(Cache), ProfileOutDir(profdb::profileOutDirFromEnv()) {
  // Touch the obs collector before spawning any worker: function-local
  // statics are destroyed in reverse construction order, so this
  // guarantees the collector outlives a static Driver — its destructor
  // (which joins the workers) runs before the collector flushes the
  // report, and no worker can append to a destroyed ring buffer.
  (void)obs::enabled();
  Workers.reserve(Threads);
  for (unsigned Index = 0; Index != Threads; ++Index)
    Workers.emplace_back([this] { workerLoop(); });
}

RunScheduler::~RunScheduler() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    ShuttingDown = true;
  }
  WorkReady.notify_all();
  for (std::thread &Worker : Workers)
    Worker.join();
}

size_t RunScheduler::submit(RunPlan Plan) {
  RunKey Key = RunKey::of(Plan);
  std::lock_guard<std::mutex> Lock(Mu);

  obs::add(obs::Counter::SchedulerSubmitted);
  size_t TaskIndex;
  auto Folded = Key.Cacheable ? TaskOfKey.find(Key.Fingerprint)
                              : TaskOfKey.end();
  if (Folded != TaskOfKey.end()) {
    obs::add(obs::Counter::SchedulerFolded);
    TaskIndex = Folded->second;
  } else {
    TaskIndex = Tasks.size();
    auto T = std::make_unique<Task>();
    T->Plan = std::move(Plan);
    T->Key = std::move(Key);
    Tasks.push_back(std::move(T));
    if (Tasks.back()->Key.Cacheable)
      TaskOfKey.emplace(Tasks.back()->Key.Fingerprint, TaskIndex);
    obs::gauge("scheduler.queue_depth",
               static_cast<int64_t>(Tasks.size() - NextUnclaimed));
    WorkReady.notify_one();
  }

  size_t Ticket = TicketToTask.size();
  TicketToTask.push_back(TaskIndex);
  return Ticket;
}

OutcomePtr RunScheduler::get(size_t Ticket) {
  std::unique_lock<std::mutex> Lock(Mu);
  assert(Ticket < TicketToTask.size() && "unknown ticket");
  size_t TaskIndex = TicketToTask[Ticket];
  Task &T = *Tasks[TaskIndex];
  if (T.Done)
    return T.Outcome;

  if (Workers.empty()) {
    // Serial mode: execute on the calling thread (unless a previous get()
    // already claimed it — impossible serially, but cheap to honour).
    if (!T.Claimed) {
      T.Claimed = true;
      Lock.unlock();
      executeTask(T);
      Lock.lock();
    }
  }
  TaskDone.wait(Lock, [&T] { return T.Done; });
  return T.Outcome;
}

size_t RunScheduler::numTickets() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return TicketToTask.size();
}

uint64_t RunScheduler::runsExecuted() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Executed;
}

uint64_t RunScheduler::runsFailed() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Failed;
}

void RunScheduler::setProfileOutDir(std::string Dir) {
  std::lock_guard<std::mutex> Lock(Mu);
  ProfileOutDir = std::move(Dir);
}

void RunScheduler::workerLoop() {
  // Per-worker run tally; a trace-only gauge (the sample lands in this
  // worker's trace lane), never part of the deterministic report.
  uint64_t WorkerRuns = 0;
  for (;;) {
    Task *Claimed;
    {
      std::unique_lock<std::mutex> Lock(Mu);
      WorkReady.wait(Lock, [this] {
        while (NextUnclaimed != Tasks.size() && Tasks[NextUnclaimed]->Claimed)
          ++NextUnclaimed;
        return ShuttingDown || NextUnclaimed != Tasks.size();
      });
      if (NextUnclaimed == Tasks.size())
        return; // shutting down with no work left
      Claimed = Tasks[NextUnclaimed++].get();
      Claimed->Claimed = true;
      obs::gauge("scheduler.queue_depth",
                 static_cast<int64_t>(Tasks.size() - NextUnclaimed));
    }
    executeTask(*Claimed);
    obs::gauge("scheduler.worker_runs", static_cast<int64_t>(++WorkerRuns));
  }
}

void RunScheduler::executeTask(Task &T) {
  // The Task lives on the heap and the claiming thread owns it until Done,
  // so the plan and key are safe to read without the lock. (The Tasks
  // vector itself is not: submit() may be reallocating it concurrently.)
  OutcomePtr Outcome = executePlan(T.Plan, T.Key);
  if (!Outcome || !Outcome->Result.Ok)
    obs::add(obs::Counter::SchedulerFailed);
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (!Outcome || !Outcome->Result.Ok)
      ++Failed;
    T.Outcome = std::move(Outcome);
    T.Done = true;
  }
  TaskDone.notify_all();
}

OutcomePtr RunScheduler::failedOutcome(std::string Error) {
  auto Outcome = std::make_shared<prof::RunOutcome>();
  Outcome->Result.Ok = false;
  Outcome->Result.Error = std::move(Error);
  return Outcome;
}

void RunScheduler::maybeEmitArtifact(const RunPlan &Plan, const RunKey &Key,
                                     const RunRecord &Record) {
  std::string Dir;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Dir = ProfileOutDir;
  }
  if (Dir.empty() || !Record.Result.Ok)
    return;
  std::string Path = Dir + "/" + profdb::artifactFileName(Key.Fingerprint);
  struct stat St;
  if (::stat(Path.c_str(), &St) == 0)
    return; // the fingerprint names the content; an existing file is it
  obs::SpanScope Deposit("driver", "artifact_deposit",
                         Plan.Workload + "@" + std::to_string(Plan.Scale) +
                             "/" + prof::modeName(Plan.Options.Config.M));
  std::string Error;
  if (!profdb::writeArtifactFile(Path, runArtifact(Plan, Key, Record), Error))
    std::fprintf(stderr,
                 "pp-driver: warning: profile artifact not written: %s\n",
                 Error.c_str());
}

OutcomePtr RunScheduler::executePlan(const RunPlan &Plan, const RunKey &Key) {
  // One span label per run, shared by all of its stage spans, so the
  // report aggregates by run identity: "workload@scale/mode".
  std::string Label = Plan.Workload + "@" + std::to_string(Plan.Scale) +
                      "/" + prof::modeName(Plan.Options.Config.M);

  if (Cache) {
    obs::SpanScope Probe("driver", "cache_probe", Label);
    if (RecordPtr Hit = Cache->lookup(Key)) {
      maybeEmitArtifact(Plan, Key, *Hit);
      return Hit;
    }
  }

  // One bad run degrades one result, never the suite: failures come back
  // as structured outcomes (Ok = false, Error set) that are not cached,
  // while every other submitted run proceeds untouched.
  std::string InjectedError;
  if (FaultInjector::instance().shouldFailRun(Key.Fingerprint,
                                              InjectedError))
    return failedOutcome(std::move(InjectedError));

  std::unique_ptr<ir::Module> M;
  {
    obs::SpanScope Build("driver", "build", Label);
    M = Plan.Build ? Plan.Build()
                   : workloads::buildWorkload(Plan.Workload, Plan.Scale);
  }
  if (!M)
    return failedOutcome("unknown workload '" + Plan.Workload + "'");

  // prof records one span per stage (instrument, load, execute, extract).
  auto Record = std::make_shared<RunRecord>();
  static_cast<prof::RunOutcome &>(*Record) = prof::runProfile(*M, Plan.Options);
  Record->Functions = profdb::functionNames(*M);
  obs::add(obs::Counter::SchedulerExecuted);
  {
    std::lock_guard<std::mutex> Lock(Mu);
    ++Executed;
  }
  if (Cache)
    Cache->insert(Plan, Key, Record);
  maybeEmitArtifact(Plan, Key, *Record);
  return Record;
}
