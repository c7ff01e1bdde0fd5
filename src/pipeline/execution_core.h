#ifndef MLCASK_PIPELINE_EXECUTION_CORE_H_
#define MLCASK_PIPELINE_EXECUTION_CORE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <set>
#include <thread>
#include <vector>

#include "common/sim_clock.h"
#include "common/status.h"

namespace mlcask::pipeline {

/// A pool of virtual worker-availability times for list scheduling: a task
/// claims the earliest-free virtual worker slot, executes on whatever real
/// thread picked it up, and releases the slot at its virtual finish time.
/// Decoupling virtual slots from real threads keeps reported makespans from
/// inflating when the OS timeslices the threads unevenly (e.g. a one-core
/// host where a single thread executes most tasks). NOT internally
/// synchronized — callers mutate it under their own scheduler lock. Shared
/// by ExecutionCore::RunGraph and PrioritizedSearch's frontier drain so the
/// two model virtual time identically.
class VirtualWorkerPool {
 public:
  VirtualWorkerPool(size_t num_workers, double start_time_s) {
    for (size_t i = 0; i < num_workers; ++i) free_.insert(start_time_s);
  }

  /// Removes and returns the earliest-available slot time.
  double ClaimEarliest() {
    double slot = *free_.begin();
    free_.erase(free_.begin());
    return slot;
  }

  /// Returns a slot at its new availability time.
  void Release(double free_at_s) { free_.insert(free_at_s); }

 private:
  std::multiset<double> free_;
};

/// The parallel execution core: a worker thread pool plus the scheduling
/// primitives the upper layers build on. Two entry points:
///
///  - RunWorkers(): a fork-join of N bodies, body(0) .. body(N-1). The merge
///    layer fans its shard drains out this way, and PrioritizedSearch its
///    frontier workers (each pulls the best unclaimed candidate, runs it,
///    publishes the score, repeats).
///  - RunGraph(): a topological DAG scheduler over a VIRTUAL machine of a
///    given width. A task is dispatched as soon as all its predecessors have
///    finished, onto the earliest free virtual worker slot; its clock starts
///    at max(that slot, the predecessors' virtual finish times), so the
///    makespan models a W-worker machine. Pipeline runs schedule their
///    components this way, and a merge shard its candidate list (a graph
///    with no edges: FIFO claims in DFS order).
///
/// ## Pool ownership rules
///
/// An ExecutionCore is a LONG-LIVED, SHARED resource: construct one per
/// deployment (or per executor/merge operation) and reuse it for every
/// pipeline run and every merge candidate. Hot paths must never construct a
/// pool per call — `ExecutionCore::instances_created()` is a process-wide
/// counter the regression tests use to prove they don't. Ownership:
///
///  - `sim::Deployment` owns the deployment-wide pool and threads it through
///    `ExecutorOptions::core`.
///  - `Executor` keeps a lazily-built fallback pool for callers that pass no
///    shared pool; it is created at most once per executor, sized by the
///    first request, and reused for the executor's lifetime.
///  - `MergeOperation` / `PrioritizedSearch` use ONE pool per merge or
///    trial: the one injected via their options, or a lazily-built owned
///    pool (a sharded merge sizes it shards × num_workers threads). The
///    shard drains, the frontier workers and every candidate's pipeline run
///    share it, so a merge builds no per-shard or per-executor pool.
///
/// The constructor argument is the REAL thread count; every RunGraph call
/// passes its own VIRTUAL width, so one pool serves serial (width 1) and
/// wide (width N) runs alike — reported makespans depend only on the
/// virtual width, never on how many OS threads happened to execute the
/// tasks. They are run-to-run identical at width 1 and on a one-thread
/// pool; at a wider width on a multi-thread pool, a claim takes the
/// earliest slot already released in REAL time, so thread timing can move
/// a makespan.
///
/// ## Reentrancy (work stealing)
///
/// Scheduling calls are reentrant: a body running ON a pool worker may
/// itself call RunGraph/RunWorkers on the same pool (a merge shard drain
/// whose candidates' pipeline runs enter RunGraph, say). The submitting
/// thread never just blocks on its batch — it HELPS: it claims and runs the
/// still-unclaimed bodies of its own batch (batch-local work stealing), so
/// a nested call always makes progress even when every pool thread is
/// occupied by outer bodies. Without this, nested submission deadlocks: all
/// threads wait for jobs that nobody is left to run.
/// `stats().tasks_stolen` counts the helps.
///
/// A batch of one body — and every batch on a one-thread core — runs inline
/// on the caller, in body order. So a width-1 RunGraph runs its tasks in
/// deterministic FIFO order on the calling thread: the serial paths of the
/// executor and the search stay bit-identical to the pre-parallel
/// implementation, and a one-thread core passed down a whole merge keeps
/// every library call on the thread that started it.
///
/// Real threads do the real (toy) compute, which is what the concurrency
/// tests hammer; reported times come from the virtual clocks, consistent
/// with the repo-wide simulated-time convention (see SimClock).
class ExecutionCore {
 public:
  /// `num_threads` is the REAL worker-thread count. 1 keeps no threads:
  /// every scheduling call runs inline on the caller.
  explicit ExecutionCore(size_t num_threads);
  ~ExecutionCore();

  ExecutionCore(const ExecutionCore&) = delete;
  ExecutionCore& operator=(const ExecutionCore&) = delete;

  /// Fork-join: runs body(0) .. body(num_bodies - 1) on the pool threads
  /// and the caller, and returns once every body has finished. Every body
  /// runs even when another fails; the result is the status of the
  /// lowest-numbered failing body, so a reported error does not depend on
  /// thread timing. Reentrant (see above): the calling thread helps drain
  /// its own batch.
  Status RunWorkers(const std::function<Status(size_t)>& body,
                    size_t num_bodies);

  /// Runs tasks 0..deps.size()-1 respecting `deps` (deps[i] lists the task
  /// indices that must finish before i starts) on a virtual machine of
  /// `virtual_workers` slots (at least 1), whatever the pool's real thread
  /// count. Ready tasks are claimed FIFO, each onto the earliest free slot.
  /// `run(i, clock)` is invoked with the clock already advanced to
  /// max(that slot, dependency finish times); the task's finish time is the
  /// clock value when it returns. A non-ok status cancels all
  /// not-yet-started tasks and is returned. On success returns the makespan;
  /// `finish_times` (optional) receives each task's virtual finish time.
  StatusOr<double> RunGraph(const std::vector<std::vector<size_t>>& deps,
                            const std::function<Status(size_t, SimClock*)>& run,
                            size_t virtual_workers, double start_time_s = 0,
                            std::vector<double>* finish_times = nullptr);

  /// Pool-lifetime counters: evidence that the pool is long-lived and that
  /// the reentrancy path is exercised.
  struct PoolStats {
    uint64_t threads_spawned = 0;  ///< OS threads this pool started (once).
    uint64_t batches_run = 0;      ///< RunWorkers/RunGraph scheduling calls.
    uint64_t tasks_run = 0;        ///< Bodies executed, total.
    uint64_t tasks_stolen = 0;     ///< Bodies the submitting thread claimed
                                   ///< itself (helping / work stealing).
  };
  PoolStats stats() const;

  /// Process-wide count of ExecutionCore instances ever constructed. Hot
  /// paths (Executor::Run, per-merge-candidate runs) must not move this; tests
  /// assert on the delta.
  static uint64_t instances_created() {
    return instances_.load(std::memory_order_relaxed);
  }

 private:
  /// One submitted body invocation, claimable exactly once — either by a
  /// pool thread that popped it from the queue or by the submitting thread
  /// helping with its own batch.
  struct Task {
    std::function<void()> fn;
    std::atomic<bool> claimed{false};
  };

  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable job_cv_;
  std::queue<std::shared_ptr<Task>> jobs_;
  bool stopping_ = false;

  std::atomic<uint64_t> batches_run_{0};
  std::atomic<uint64_t> tasks_run_{0};
  std::atomic<uint64_t> tasks_stolen_{0};

  static std::atomic<uint64_t> instances_;
};

/// Inject-or-own pool resolution implementing the ownership rules above:
/// Get() returns the injected pool when one is provided, and otherwise
/// lazily builds ONE owned pool (sized by the first request's thread
/// count) and reuses it for the owner's lifetime. The single helper behind
/// every fallback path — Executor, MergeOperation, PrioritizedSearch — so
/// no hot path can regress to per-call pool construction.
class LazyExecutionCore {
 public:
  ExecutionCore* Get(ExecutionCore* injected, size_t num_threads) {
    if (injected != nullptr) return injected;
    std::lock_guard<std::mutex> lock(mu_);
    if (owned_ == nullptr) {
      owned_ = std::make_unique<ExecutionCore>(num_threads);
    }
    return owned_.get();
  }

 private:
  std::mutex mu_;
  std::unique_ptr<ExecutionCore> owned_;
};

}  // namespace mlcask::pipeline

#endif  // MLCASK_PIPELINE_EXECUTION_CORE_H_
