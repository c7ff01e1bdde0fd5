#include "pipeline/execution_core.h"

#include <algorithm>
#include <set>

namespace mlcask::pipeline {

std::atomic<uint64_t> ExecutionCore::instances_{0};

ExecutionCore::ExecutionCore(size_t num_threads) {
  instances_.fetch_add(1, std::memory_order_relaxed);
  // A single-thread core runs everything inline; no threads to keep.
  if (num_threads <= 1) return;
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ExecutionCore::~ExecutionCore() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  job_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

ExecutionCore::PoolStats ExecutionCore::stats() const {
  PoolStats s;
  s.threads_spawned = threads_.size();
  s.batches_run = batches_run_.load(std::memory_order_relaxed);
  s.tasks_run = tasks_run_.load(std::memory_order_relaxed);
  s.tasks_stolen = tasks_stolen_.load(std::memory_order_relaxed);
  return s;
}

void ExecutionCore::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Task> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      job_cv_.wait(lock, [this] { return stopping_ || !jobs_.empty(); });
      if (jobs_.empty()) return;  // stopping
      task = std::move(jobs_.front());
      jobs_.pop();
    }
    // A task may already have been claimed by its submitter (helping);
    // claiming is a one-shot atomic so each body runs exactly once.
    if (!task->claimed.exchange(true, std::memory_order_acq_rel)) {
      task->fn();
    }
  }
}

Status ExecutionCore::RunWorkers(const std::function<Status(size_t)>& body,
                                 size_t num_bodies) {
  const size_t n = num_bodies;
  batches_run_.fetch_add(1, std::memory_order_relaxed);
  tasks_run_.fetch_add(n, std::memory_order_relaxed);
  std::vector<Status> statuses(n, Status::Ok());

  if (n == 1 || threads_.empty()) {
    // Inline: the bodies run in order on the calling thread. A one-body
    // batch has nothing to overlap with, so even a threaded pool keeps it
    // on its caller instead of handing it to a pool thread.
    for (size_t i = 0; i < n; ++i) statuses[i] = body(i);
  } else {
    // Batch bookkeeping lives on this stack frame. Every task claims
    // exactly once; whoever runs the last one wakes the submitter. Pool
    // threads that pop an already-claimed task only touch its atomic flag
    // (kept alive by the shared_ptr), never the stack state, so unwinding
    // after done == n is safe even while a straggler thread is still
    // discarding its pop.
    std::mutex done_mu;
    std::condition_variable done_cv;
    size_t done = 0;

    std::vector<std::shared_ptr<Task>> tasks;
    tasks.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      auto task = std::make_shared<Task>();
      task->fn = [&, i] {
        statuses[i] = body(i);
        std::lock_guard<std::mutex> lock(done_mu);
        if (++done == n) done_cv.notify_all();
      };
      tasks.push_back(std::move(task));
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const std::shared_ptr<Task>& task : tasks) jobs_.push(task);
    }
    job_cv_.notify_all();

    // Work stealing (helping): the submitting thread drains the unclaimed
    // remainder of its own batch instead of blocking. This is what makes
    // nested scheduling calls from pool workers deadlock-free — a nested
    // submitter can always finish its batch single-handedly even when
    // every pool thread is occupied by outer bodies.
    for (const std::shared_ptr<Task>& task : tasks) {
      if (!task->claimed.exchange(true, std::memory_order_acq_rel)) {
        tasks_stolen_.fetch_add(1, std::memory_order_relaxed);
        task->fn();
      }
    }
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&] { return done == n; });
  }
  for (const Status& s : statuses) MLCASK_RETURN_IF_ERROR(s);
  return Status::Ok();
}

StatusOr<double> ExecutionCore::RunGraph(
    const std::vector<std::vector<size_t>>& deps,
    const std::function<Status(size_t, SimClock*)>& run,
    size_t virtual_workers, double start_time_s,
    std::vector<double>* finish_times) {
  const size_t num_tasks = deps.size();
  const size_t width = std::max<size_t>(1, virtual_workers);

  // Shared scheduler state, guarded by `mu`. Virtual time uses a pool of
  // worker-availability slots (classic list scheduling) DECOUPLED from the
  // real threads: a task starts at max(dependencies ready, earliest free
  // virtual worker). A single real thread executing most tasks (e.g. on a
  // one-core host) therefore does not inflate the makespan; residual
  // run-to-run jitter remains with several workers because the FIFO ready
  // order follows real completion order. With width 1 the schedule is
  // fully deterministic.
  std::mutex mu;
  std::condition_variable cv;
  std::vector<size_t> indegree(num_tasks, 0);
  std::vector<std::vector<size_t>> successors(num_tasks);
  std::vector<double> ready_time(num_tasks, start_time_s);
  std::vector<double> finish(num_tasks, start_time_s);
  VirtualWorkerPool worker_free(width, start_time_s);
  std::queue<size_t> ready;
  size_t remaining = num_tasks;
  size_t in_flight = 0;
  Status error = Status::Ok();

  for (size_t i = 0; i < num_tasks; ++i) {
    indegree[i] = deps[i].size();
    for (size_t d : deps[i]) {
      if (d >= num_tasks) {
        return Status::InvalidArgument("dependency index out of range");
      }
      successors[d].push_back(i);
    }
    if (indegree[i] == 0) ready.push(i);
  }
  if (num_tasks > 0 && ready.empty()) {
    return Status::Corruption("dependency graph has no source task (cycle)");
  }

  auto body = [&](size_t) -> Status {
    for (;;) {
      size_t task;
      SimClock task_clock;
      {
        std::unique_lock<std::mutex> lock(mu);
        for (;;) {
          if (remaining == 0 || !error.ok()) return Status::Ok();
          if (!ready.empty()) break;
          // A drained queue with nothing in flight but tasks remaining
          // means the rest of the graph is an unreachable cycle — error
          // out rather than sleep forever.
          if (in_flight == 0) {
            error = Status::Corruption(
                "dependency graph contains an unreachable cycle");
            cv.notify_all();
            return Status::Ok();
          }
          cv.wait(lock);
        }
        task = ready.front();
        ready.pop();
        in_flight += 1;
        task_clock.AdvanceTo(
            std::max(worker_free.ClaimEarliest(), ready_time[task]));
      }
      Status s = run(task, &task_clock);
      {
        std::lock_guard<std::mutex> lock(mu);
        worker_free.Release(task_clock.Now());
        in_flight -= 1;
        if (!s.ok()) {
          if (error.ok()) error = s;
          cv.notify_all();
          return Status::Ok();  // surfaced below as the graph's error
        }
        finish[task] = task_clock.Now();
        for (size_t succ : successors[task]) {
          ready_time[succ] = std::max(ready_time[succ], finish[task]);
          if (--indegree[succ] == 0) ready.push(succ);
        }
        remaining -= 1;
      }
      cv.notify_all();
    }
  };

  MLCASK_RETURN_IF_ERROR(RunWorkers(body, width));
  double makespan = start_time_s;
  {
    std::lock_guard<std::mutex> lock(mu);
    MLCASK_RETURN_IF_ERROR(error);
    if (remaining != 0) {
      return Status::Corruption("dependency graph never drained (cycle)");
    }
    for (double f : finish) makespan = std::max(makespan, f);
  }
  if (finish_times != nullptr) *finish_times = std::move(finish);
  return makespan;
}

}  // namespace mlcask::pipeline
