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
/// by ExecutionCore::RunGraph and the merge layer's frontier drain so the
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
///  - RunWorkers(): N copies of one body, each with its own virtual
///    SimClock. The merge layer drains its priority frontier this way
///    (workers pull the best unclaimed candidate, run it, publish the
///    score, repeat).
///  - RunGraph(): a topological DAG scheduler. A task is dispatched to an
///    idle worker as soon as all its predecessors have finished; the worker
///    clock is advanced to the predecessors' virtual finish time first, so
///    the final makespan models a W-worker machine.
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
///  - `MergeOperation` / `PrioritizedSearch` accept an injected pool via
///    their options and otherwise fall back to a lazily-built owned pool.
///  - Sharded merge drains add two more lazily-built-once pool families on
///    the MergeOperation: one core per shard (real width = the drain's
///    num_workers) and a dispatch pool with one real thread per shard that
///    runs the per-shard drain bodies concurrently
///    (MergeOptions::concurrent_shard_drains).
///
/// The constructor argument is the REAL thread count; every scheduling call
/// may request a different VIRTUAL width (`num_bodies` / `virtual_workers`),
/// so one pool serves serial (width 1) and wide (width N) runs alike —
/// reported makespans depend only on the virtual width, never on how many
/// OS threads happened to execute the tasks.
///
/// ## Reentrancy (work stealing)
///
/// Scheduling calls are reentrant: a body running ON a pool worker may
/// itself call RunGraph/RunWorkers on the same pool (a merge candidate whose
/// pipeline run enters RunGraph, say). The submitting thread never just blocks
/// on its batch — it HELPS: it claims and runs the still-unclaimed tasks of
/// its own batch (batch-local work stealing), so a nested call always makes
/// progress even when every pool thread is occupied by outer bodies.
/// Without this, nested submission deadlocks: all threads wait for jobs
/// that nobody is left to run. `stats().tasks_stolen` counts the helps.
///
/// With virtual width 1 the single body runs tasks in deterministic FIFO
/// order — the serial paths of the executor and the search stay
/// bit-identical to the pre-parallel implementation.
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

  size_t num_workers() const { return num_threads_; }

  /// Per-worker context for RunWorkers bodies.
  struct WorkerContext {
    size_t worker_index = 0;
    SimClock* clock = nullptr;  ///< This worker's virtual timeline.
  };
  using WorkerBody = std::function<Status(WorkerContext&)>;

  /// Runs `num_bodies` copies of `body` (0 = one per real pool thread, the
  /// historical behaviour); every worker clock starts at `start_time_s`.
  /// Returns the makespan (max worker clock at completion), or the first
  /// non-ok status any body returned. Reentrant (see pool ownership rules
  /// above): the calling thread helps drain its own batch.
  StatusOr<double> RunWorkers(const WorkerBody& body, double start_time_s = 0,
                              size_t num_bodies = 0);

  /// Runs tasks 0..num_tasks-1 respecting `deps` (deps[i] lists the task
  /// indices that must finish before i starts). `run(i, clock)` is invoked
  /// with the worker's clock already advanced to
  /// max(worker time, dependency finish times); the task's finish time is
  /// the clock value when it returns. A non-ok status cancels all
  /// not-yet-started tasks and is returned. On success returns the makespan;
  /// `finish_times` (optional) receives each task's virtual finish time.
  /// `virtual_workers` is the width of the simulated machine (0 = the real
  /// thread count): the makespan models list scheduling over that many
  /// virtual worker slots regardless of how many OS threads participate.
  StatusOr<double> RunGraph(size_t num_tasks,
                            const std::vector<std::vector<size_t>>& deps,
                            const std::function<Status(size_t, SimClock*)>& run,
                            double start_time_s = 0,
                            std::vector<double>* finish_times = nullptr,
                            size_t virtual_workers = 0);

  /// Pool-lifetime counters: evidence that the pool is long-lived and that
  /// the reentrancy path is exercised.
  struct PoolStats {
    uint64_t threads_spawned = 0;  ///< OS threads this pool started (once).
    uint64_t batches_run = 0;      ///< RunWorkers/RunGraph scheduling calls.
    uint64_t tasks_run = 0;        ///< Worker bodies executed, total.
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

  size_t num_threads_;
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
