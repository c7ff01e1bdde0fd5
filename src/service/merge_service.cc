#include "service/merge_service.h"

#include <algorithm>
#include <cstdio>
#include <random>

#include "merge/merge_op.h"
#include "sim/scenario.h"

namespace mlcask::service {

const char* ServiceStateName(ServiceState state) {
  switch (state) {
    case ServiceState::kInitial: return "initial";
    case ServiceState::kStarting: return "starting";
    case ServiceState::kStarted: return "started";
    case ServiceState::kStopping: return "stopping";
    case ServiceState::kStopped: return "stopped";
  }
  return "unknown";
}

// --- MergeScheduler --------------------------------------------------------

MergeScheduler::MergeScheduler(uint64_t default_weight,
                               std::map<std::string, uint64_t> tenant_weights)
    : default_weight_(std::max<uint64_t>(1, default_weight)),
      tenant_weights_(std::move(tenant_weights)) {}

uint64_t MergeScheduler::WeightOf(const std::string& tenant) const {
  auto it = tenant_weights_.find(tenant);
  // Weight 0 would starve a tenant forever; clamp to 1 so every backlogged
  // tenant makes progress each replenish cycle.
  return it == tenant_weights_.end() ? default_weight_
                                     : std::max<uint64_t>(1, it->second);
}

void MergeScheduler::Enqueue(std::unique_ptr<MergeBatch> batch) {
  const std::string& tenant = batch->spec.tenant;
  auto [it, inserted] = tenants_.try_emplace(tenant);
  if (inserted) {
    it->second.weight = WeightOf(tenant);
    ring_.push_back(tenant);
  }
  it->second.queue.push_back(std::move(batch));
  ++queued_batches_;
}

std::unique_ptr<MergeBatch> MergeScheduler::PickNext() {
  if (queued_batches_ == 0 || ring_.empty()) return nullptr;
  // Two passes: serve a tenant whose deficit covers one batch; when a full
  // scan finds no spender, replenish every backlogged tenant by its weight
  // and scan again. Unit batch cost makes service counts proportional to
  // weights whenever tenants stay backlogged.
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < ring_.size(); ++i) {
      const size_t idx = (cursor_ + i) % ring_.size();
      TenantRow& row = tenants_[ring_[idx]];
      if (row.queue.empty() || row.deficit < 1) continue;
      row.deficit -= 1;
      auto batch = std::move(row.queue.front());
      row.queue.pop_front();
      --queued_batches_;
      // An idle tenant must not hoard credit and later burst past its
      // share: deficit resets when its backlog clears.
      if (row.queue.empty()) row.deficit = 0;
      // Stay on this tenant while its deficit lasts (DRR serves bursts of
      // `weight` batches per cycle).
      cursor_ = idx;
      return batch;
    }
    for (auto& [name, row] : tenants_) {
      if (!row.queue.empty()) row.deficit += row.weight;
    }
    cursor_ = (cursor_ + 1) % ring_.size();
  }
  return nullptr;
}

MergeBatch* MergeScheduler::FindCoalescible(const MergeJobSpec& spec) const {
  auto it = tenants_.find(spec.tenant);
  if (it == tenants_.end()) return nullptr;
  const std::string key = spec.CacheKey();
  for (const auto& batch : it->second.queue) {
    if (batch->spec.CacheKey() == key) return batch.get();
  }
  return nullptr;
}

uint64_t MergeScheduler::QueuedAhead(const MergeBatch* batch) const {
  auto it = tenants_.find(batch->spec.tenant);
  if (it == tenants_.end()) return 0;
  uint64_t ahead = 0;
  for (const auto& queued : it->second.queue) {
    if (queued.get() == batch) return ahead;
    ++ahead;
  }
  return 0;
}

size_t MergeScheduler::queued_for(const std::string& tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.queue.size();
}

// --- MergeService ----------------------------------------------------------

MergeService::MergeService(MergeServiceOptions options)
    : options_(std::move(options)),
      scheduler_(options_.default_weight, options_.tenant_weights) {
  id_salt_ = std::random_device{}();
}

MergeService::~MergeService() { (void)Stop(); }

Status MergeService::Start() {
  std::unique_lock<std::mutex> lock(mu_);
  if (state_ != ServiceState::kInitial) {
    return Status::FailedPrecondition(
        std::string("merge service cannot start from state ") +
        ServiceStateName(state_));
  }
  state_ = ServiceState::kStarting;
  lock.unlock();
  std::vector<std::thread> workers;
  const size_t count = std::max<size_t>(1, options_.worker_threads);
  workers.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    workers.emplace_back([this] { WorkerLoop(); });
  }
  lock.lock();
  workers_ = std::move(workers);
  state_ = ServiceState::kStarted;
  stopped_cv_.notify_all();
  return Status::Ok();
}

Status MergeService::Stop() {
  std::unique_lock<std::mutex> lock(mu_);
  // A racing Start() is mid-spawn; wait for it to settle before stopping.
  stopped_cv_.wait(lock, [this] { return state_ != ServiceState::kStarting; });
  if (state_ == ServiceState::kInitial) {
    state_ = ServiceState::kStopped;
    stopped_cv_.notify_all();
    return Status::Ok();
  }
  if (state_ == ServiceState::kStopped) return Status::Ok();
  if (state_ == ServiceState::kStopping) {
    stopped_cv_.wait(lock,
                     [this] { return state_ == ServiceState::kStopped; });
    return Status::Ok();
  }
  state_ = ServiceState::kStopping;
  work_cv_.notify_all();
  std::vector<std::thread> workers = std::move(workers_);
  lock.unlock();
  for (std::thread& worker : workers) worker.join();
  lock.lock();
  state_ = ServiceState::kStopped;
  stopped_cv_.notify_all();
  return Status::Ok();
}

ServiceState MergeService::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

std::string MergeService::NextSessionIdLocked() {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "s%08x-%llu",
                static_cast<unsigned>(id_salt_),
                static_cast<unsigned long long>(++session_seq_));
  return buf;
}

StatusOr<SubmitResult> MergeService::Submit(const MergeJobSpec& spec,
                                            std::string_view replay_token,
                                            uint64_t deadline_ms) {
  if (spec.tenant.empty()) {
    return Status::InvalidArgument("submit_merge requires a tenant id");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == ServiceState::kInitial || state_ == ServiceState::kStarting) {
    return Status::FailedPrecondition("merge service is not started");
  }
  if (state_ != ServiceState::kStarted) {
    return Status::Unavailable(
        "merge service is stopping: new submissions rejected");
  }
  EvictLocked();

  // Tenant-scoped submit idempotency: the same (tenant, token) pair always
  // lands on one session, and two tenants NEVER share a ledger row even for
  // byte-identical tokens.
  std::string ledger_key;
  if (!replay_token.empty()) {
    ledger_key.reserve(spec.tenant.size() + 1 + replay_token.size());
    ledger_key.append(spec.tenant);
    ledger_key.push_back('\0');
    ledger_key.append(replay_token);
    auto it = replay_ledger_.find(ledger_key);
    if (it != replay_ledger_.end() && sessions_.count(it->second) > 0) {
      ++stats_.replay_hits;
      return SubmitResult{it->second, false};
    }
  }

  MergeBatch* batch = scheduler_.FindCoalescible(spec);
  const bool coalesced = batch != nullptr;
  if (!coalesced &&
      (scheduler_.queued_batches() >= options_.max_queued_batches ||
       scheduler_.queued_for(spec.tenant) >= options_.max_queued_per_tenant)) {
    ++stats_.shed;
    return Status::ResourceExhausted("merge admission queue is full");
  }
  if (sessions_.size() >= options_.max_sessions) {
    ++stats_.shed;
    return Status::ResourceExhausted("merge session table is full");
  }

  auto session = std::make_unique<Session>();
  session->id = NextSessionIdLocked();
  session->tenant = spec.tenant;
  if (deadline_ms > 0) {
    session->deadline = Clock::now() + std::chrono::milliseconds(deadline_ms);
  }
  if (!coalesced) {
    auto owned = std::make_unique<MergeBatch>();
    owned->spec = spec;
    batch = owned.get();
    scheduler_.Enqueue(std::move(owned));
  }
  batch->session_ids.push_back(session->id);
  session->batch = batch;

  const std::string session_id = session->id;
  session_order_.push_back(session_id);
  sessions_.emplace(session_id, std::move(session));
  if (!ledger_key.empty()) {
    replay_ledger_[ledger_key] = session_id;
    replay_order_.push_back(ledger_key);
    while (replay_order_.size() > options_.replay_ledger_cap) {
      replay_ledger_.erase(replay_order_.front());
      replay_order_.pop_front();
    }
  }
  ++stats_.submitted;
  if (coalesced) ++stats_.coalesced;
  ++stats_.sessions_open;
  work_cv_.notify_one();
  return SubmitResult{session_id, coalesced};
}

MergeService::Session* MergeService::FindOwnedLocked(
    std::string_view tenant, std::string_view session_id) {
  auto it = sessions_.find(std::string(session_id));
  if (it == sessions_.end()) return nullptr;
  // A foreign session answers exactly like a missing one: tenants cannot
  // probe whether another tenant's session id exists.
  if (it->second->tenant != tenant) return nullptr;
  return it->second.get();
}

StatusOr<PollResult> MergeService::Poll(std::string_view tenant,
                                        std::string_view session_id) {
  std::lock_guard<std::mutex> lock(mu_);
  EvictLocked();
  Session* session = FindOwnedLocked(tenant, session_id);
  if (session == nullptr) {
    return Status::NotFound("unknown merge session");
  }
  ExpireIfPastDeadlineLocked(session);
  PollResult result;
  result.state = session->state;
  if (session->state == SessionState::kQueued && session->batch != nullptr) {
    result.queued_ahead = scheduler_.QueuedAhead(session->batch);
  }
  if (session->state == SessionState::kFailed) {
    result.error_code = session->error.code();
    result.error_message = session->error.message();
  }
  return result;
}

StatusOr<MergeWinner> MergeService::Fetch(std::string_view tenant,
                                          std::string_view session_id) {
  std::lock_guard<std::mutex> lock(mu_);
  EvictLocked();
  Session* session = FindOwnedLocked(tenant, session_id);
  if (session == nullptr) {
    return Status::NotFound("unknown merge session");
  }
  ExpireIfPastDeadlineLocked(session);
  switch (session->state) {
    case SessionState::kDone:
      return *session->winner;
    case SessionState::kFailed:
      return session->error;
    case SessionState::kCancelled:
      return Status::FailedPrecondition("merge session was cancelled");
    case SessionState::kQueued:
    case SessionState::kRunning:
      return Status::FailedPrecondition(
          std::string("merge session is still ") +
          SessionStateName(session->state));
  }
  return Status::Internal("merge session in unknown state");
}

StatusOr<SessionState> MergeService::Cancel(std::string_view tenant,
                                            std::string_view session_id) {
  std::lock_guard<std::mutex> lock(mu_);
  Session* session = FindOwnedLocked(tenant, session_id);
  if (session == nullptr) {
    return Status::NotFound("unknown merge session");
  }
  if (IsTerminal(session->state)) return session->state;  // idempotent
  if (session->state == SessionState::kRunning) {
    // Too late to stop the batch; the cancellation applies when it lands.
    session->cancel_requested = true;
    return SessionState::kRunning;
  }
  ResolveLocked(session, SessionState::kCancelled, Status::Ok(), nullptr);
  return SessionState::kCancelled;
}

MergeServiceStats MergeService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  MergeServiceStats snapshot = stats_;
  snapshot.sessions_tracked = sessions_.size();
  snapshot.queued_batches = scheduler_.queued_batches();
  return snapshot;
}

void MergeService::ResolveLocked(Session* session, SessionState state,
                                 Status error,
                                 std::shared_ptr<const MergeWinner> winner) {
  if (IsTerminal(session->state)) return;
  if (session->batch != nullptr) {
    auto& ids = session->batch->session_ids;
    ids.erase(std::remove(ids.begin(), ids.end(), session->id), ids.end());
    session->batch = nullptr;
  }
  session->state = state;
  session->error = std::move(error);
  session->winner = std::move(winner);
  session->terminal_at = Clock::now();
  if (stats_.sessions_open > 0) --stats_.sessions_open;
  switch (state) {
    case SessionState::kDone:
      ++stats_.completed;
      ++stats_.tenant_completed[session->tenant];
      break;
    case SessionState::kFailed:
      if (session->error.IsDeadlineExceeded()) {
        ++stats_.expired;
      } else {
        ++stats_.failed;
      }
      break;
    case SessionState::kCancelled:
      ++stats_.cancelled;
      break;
    default:
      break;
  }
}

void MergeService::ExpireIfPastDeadlineLocked(Session* session) {
  if (session->state != SessionState::kQueued) return;
  if (session->deadline == Clock::time_point{}) return;
  if (Clock::now() < session->deadline) return;
  ResolveLocked(session, SessionState::kFailed,
                Status::DeadlineExceeded(
                    "merge session deadline expired while queued"),
                nullptr);
}

void MergeService::EvictLocked() {
  const auto now = Clock::now();
  const auto ttl = std::chrono::milliseconds(options_.session_ttl_ms);
  size_t scanned = 0;
  for (auto it = session_order_.begin();
       it != session_order_.end() && scanned < 128;) {
    auto sit = sessions_.find(*it);
    if (sit == sessions_.end()) {
      it = session_order_.erase(it);
      continue;
    }
    ++scanned;
    Session* session = sit->second.get();
    const bool at_capacity = sessions_.size() >= options_.max_sessions;
    if (IsTerminal(session->state) &&
        (at_capacity || now - session->terminal_at >= ttl)) {
      sessions_.erase(sit);
      it = session_order_.erase(it);
    } else {
      ++it;
    }
  }
}

void MergeService::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    std::unique_ptr<MergeBatch> batch;
    for (;;) {
      batch = scheduler_.PickNext();
      if (batch != nullptr) break;
      // `stopping` drains: workers only exit once every queued batch has
      // been served (new submits are already rejected typed).
      if (state_ == ServiceState::kStopping) return;
      work_cv_.wait(lock);
    }

    // Dispatch-time budget check: members already past their deadline — or
    // whose remaining budget is under the estimated execution time —
    // resolve typed now instead of overrunning mid-merge.
    const auto now = Clock::now();
    const std::vector<std::string> members = batch->session_ids;
    for (const std::string& id : members) {
      auto it = sessions_.find(id);
      if (it == sessions_.end()) continue;
      Session* session = it->second.get();
      if (session->state != SessionState::kQueued) continue;
      if (session->deadline == Clock::time_point{}) continue;
      const double remaining_ms =
          std::chrono::duration<double, std::milli>(session->deadline - now)
              .count();
      if (remaining_ms <= 0) {
        ResolveLocked(session, SessionState::kFailed,
                      Status::DeadlineExceeded(
                          "merge session deadline expired while queued"),
                      nullptr);
      } else if (exec_ewma_ms_ > 0 && remaining_ms < exec_ewma_ms_) {
        ResolveLocked(session, SessionState::kFailed,
                      Status::DeadlineExceeded(
                          "remaining budget below estimated merge time"),
                      nullptr);
      }
    }
    if (batch->session_ids.empty()) continue;  // everyone left: skip the run

    batch->running = true;
    for (const std::string& id : batch->session_ids) {
      auto it = sessions_.find(id);
      if (it != sessions_.end()) {
        it->second->state = SessionState::kRunning;
      }
    }
    ++running_batches_;
    const MergeJobSpec spec = batch->spec;
    lock.unlock();

    const auto t0 = Clock::now();
    StatusOr<MergeWinner> result = Execute(spec);
    const double wall_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

    lock.lock();
    exec_ewma_ms_ = exec_ewma_ms_ == 0
                        ? wall_ms
                        : 0.7 * exec_ewma_ms_ + 0.3 * wall_ms;
    ++stats_.batches_executed;
    ++stats_.tenant_batches[spec.tenant];
    std::shared_ptr<const MergeWinner> winner;
    if (result.ok()) {
      winner = std::make_shared<const MergeWinner>(*std::move(result));
    }
    const std::vector<std::string> resolved = batch->session_ids;
    for (const std::string& id : resolved) {
      auto it = sessions_.find(id);
      if (it == sessions_.end()) continue;
      Session* session = it->second.get();
      if (session->cancel_requested) {
        ResolveLocked(session, SessionState::kCancelled, Status::Ok(),
                      nullptr);
      } else if (!result.ok()) {
        ResolveLocked(session, SessionState::kFailed, result.status(),
                      nullptr);
      } else {
        ResolveLocked(session, SessionState::kDone, Status::Ok(), winner);
      }
    }
    --running_batches_;
    // A stopping peer may be waiting for the queue to drain.
    work_cv_.notify_all();
  }
}

StatusOr<MergeWinner> MergeService::Execute(const MergeJobSpec& spec) {
  if (options_.execute_override) return options_.execute_override(spec);
  sim::DeploymentConfig config;
  config.num_workers = std::max<uint32_t>(1, spec.num_workers);
  config.storage_shards = spec.storage_shards;
  auto deployment = sim::MakeDeployment(spec.workload, spec.scale, config);
  MLCASK_RETURN_IF_ERROR(deployment.status());
  auto d = *std::move(deployment);
  auto scenario = sim::BuildDistributedMergeScenario(
      d.get(), spec.extra_extractor_versions, spec.extra_model_versions);
  MLCASK_RETURN_IF_ERROR(scenario.status());
  merge::MergeOperation op(d->repo.get(), d->libraries.get(),
                           d->registry.get(), d->engine.get(),
                           d->clock.get());
  merge::MergeOptions options;
  options.shards = spec.merge_shards;
  options.num_workers = std::max<uint32_t>(1, spec.num_workers);
  options.optimize_metric = spec.optimize_metric;
  options.seed = spec.seed;
  // Single-node drains ride the deployment's shared ExecutionCore; a
  // sharded drain gets the pool the MergeOperation builds, one thread per
  // shard and worker, so its shards drain concurrently (see
  // MergeOptions::core).
  if (spec.merge_shards <= 1) options.core = d->core.get();
  auto report = op.Merge(scenario->head_branch, scenario->merge_branch,
                         options);
  MLCASK_RETURN_IF_ERROR(report.status());
  return WinnerFromReport(*report, d->repo.get(), scenario->head_branch);
}

StatusOr<MergeWinner> WinnerFromReport(const merge::MergeReport& report,
                                       version::PipelineRepo* repo,
                                       const std::string& head_branch) {
  MergeWinner winner;
  winner.component_executions = report.component_executions;
  winner.best_index = report.best_index;
  winner.best_score = report.best_score;
  winner.candidates_considered = report.candidates_considered;
  winner.makespan_s = report.makespan_s;
  winner.merge_commit = report.merge_commit;
  if (report.best_index >= 0 &&
      static_cast<size_t>(report.best_index) < report.outcomes.size()) {
    const merge::CandidateChain& chain =
        report.outcomes[static_cast<size_t>(report.best_index)].chain;
    for (const pipeline::ComponentVersionSpec* spec : chain) {
      winner.winner_chain.push_back(spec->Key());
    }
  } else if (!report.fast_forward) {
    return Status::Internal("merge report carries no winning candidate");
  }
  auto head = repo->Head(head_branch);
  MLCASK_RETURN_IF_ERROR(head.status());
  for (const version::ComponentRecord& rec : (*head)->snapshot.components) {
    winner.artifact_hashes.push_back(rec.output_id);
  }
  return winner;
}

}  // namespace mlcask::service
