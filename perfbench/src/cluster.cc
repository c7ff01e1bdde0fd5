// `cluster`: a deployed cluster driven over the wire.
//
// Two ForkBaseEngine shards and a MergeService run in this process behind
// SocketTransportServers on Unix sockets, composed the way
// `mlcask_server --serve-merge` composes them (shard 0 also hosts the merge
// front end). The client reaches them through ShardedStorageEngine over
// RemoteStorageEngine proxies and through MergeServiceClient.
//
// The op sequence is a series of developer sessions, the collaborative
// workflow MLCask serves: a developer checks out a pipeline version, commits
// one session of Sec. VII-B updates on a branch and then merges. The op mix
// follows from that session and is not tuned: per session,
//
//   checkout       1  materializes a historical commit of the session's
//                     workload and reads its artifacts and archived library
//                     versions back (values of 256 KiB or more are
//                     chunk-streamed);
//   commit         6  the session's updates (a new dataset version, then two
//                     preprocessor and three model updates in shuffled
//                     order), each an `evolve` iteration over the wire with
//                     2PC on the replicated pipeline/ and library/ keys;
//   merge_session  1  submits the workload's merge to the merge service,
//                     awaits it and fetches the winner.
//
// Sessions rotate over the four paper workloads in shuffled blocks. Every
// session draws a fresh dataset seed and fresh library bytes, so its commits
// insert new chunks on the shards. After its last op the session's versions
// are deleted again, untimed, so the shards return to the state setup left:
// memory stays flat however many sessions a run completes, and every
// session writes into the same store. Hosting the servers in-process puts
// client and servers under one VmHWM and needs no readiness polling.
#include <sys/stat.h>
#include <unistd.h>

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/sha256.h"
#include "lane.h"
#include "merge/merge_op.h"
#include "pipeline/checkout.h"
#include "pipeline/library_repo.h"
#include "service/merge_client.h"
#include "service/merge_frontend.h"
#include "service/merge_service.h"
#include "session.h"
#include "sim/libraries.h"
#include "sim/scenario.h"
#include "sim/workloads.h"
#include "storage/forkbase_engine.h"
#include "storage/remote_engine.h"
#include "storage/sharded_engine.h"
#include "storage/socket_transport.h"
#include "trace.h"

namespace perfbench {

namespace {

using mlcask::Hash256;
using mlcask::Status;
using mlcask::StatusOr;

constexpr double kClusterScale = 0.1;
constexpr size_t kShards = 2;
/// Merge-session specs: one per workload at this scale, fig. 3 widened by
/// one extractor and one model increment.
constexpr double kMergeSpecScale = 0.05;
constexpr int kSpecExtraExtractors = 1;
constexpr int kSpecExtraModels = 1;
/// MergeServiceClient::AwaitWinner's own default poll interval.
constexpr uint64_t kPollIntervalMs = 2;
constexpr uint64_t kAwaitTimeoutMs = 60000;
/// Where the Unix sockets live, relative to the checkout root.
constexpr const char* kRunDir = ".bench_build/run";

/// Server defaults, except the receive-side wire chunk cache (what
/// `mlcask_server --chunk-cache` sets). Every session streams new library
/// bytes, so the cache gains distinct chunks on every commit; at the 64 MiB
/// default it would fill for most of a run and peak memory would grow with
/// run length. At 16 MiB the warm-up fills it, and the timed ops see a
/// cache at its cap.
mlcask::storage::SocketTransportServer::Options ServerOptions() {
  mlcask::storage::SocketTransportServer::Options options;
  options.chunk_cache_bytes = 16u << 20;
  return options;
}

/// The client-local Algorithm 2 result of a spec, computed once per process
/// (it only depends on the spec): the reference a merge session's winner
/// must match field for field.
StatusOr<Hash256> ReferenceFingerprint(const mlcask::service::MergeJobSpec& spec) {
  static std::mutex mu;
  static std::map<std::string, Hash256> cache;
  std::lock_guard<std::mutex> lock(mu);
  const std::string key = spec.CacheKey();
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  mlcask::sim::DeploymentConfig config;
  config.num_workers = spec.num_workers;
  config.storage_shards = spec.storage_shards;
  MLCASK_ASSIGN_OR_RETURN(
      auto d, mlcask::sim::MakeDeployment(spec.workload, spec.scale, config));
  MLCASK_ASSIGN_OR_RETURN(
      mlcask::sim::ScenarioInfo info,
      mlcask::sim::BuildDistributedMergeScenario(
          d.get(), spec.extra_extractor_versions, spec.extra_model_versions));
  mlcask::merge::MergeOperation op(d->repo.get(), d->libraries.get(),
                                   d->registry.get(), d->engine.get(),
                                   d->clock.get());
  mlcask::merge::MergeOptions options;
  options.shards = spec.merge_shards;
  options.num_workers = spec.num_workers;
  options.optimize_metric = spec.optimize_metric;
  options.seed = spec.seed;
  if (spec.merge_shards <= 1) options.core = d->core.get();
  MLCASK_ASSIGN_OR_RETURN(mlcask::merge::MergeReport report,
                          op.Merge(info.head_branch, info.merge_branch,
                                   options));
  MLCASK_ASSIGN_OR_RETURN(
      mlcask::service::MergeWinner winner,
      mlcask::service::WinnerFromReport(report, d->repo.get(),
                                        info.head_branch));
  cache[key] = winner.Fingerprint();
  return cache[key];
}

using VersionSet = std::set<std::pair<std::string, Hash256>>;

VersionSet AllVersions(const mlcask::storage::StorageEngine& engine) {
  const auto all = engine.ListAllVersions();
  return VersionSet(all.begin(), all.end());
}

class ClusterLane : public Lane {
 public:
  ClusterLane(uint64_t seed, bool traced) : seed_(seed), traced_(traced) {}
  ~ClusterLane() override;

  Status Prepare() override;
  Status Setup() override;
  uint64_t StoredBytes() const override { return stored_bytes_; }
  OpOutcome RunNext(uint64_t op_id) override;
  bool remote() const override { return true; }
  LaneCounters counters() const override {
    LaneCounters c;
    if (router_ != nullptr) {
      c.two_phase_transactions = router_->two_phase_stats().transactions;
    }
    return c;
  }

 private:
  struct Shard {
    mlcask::storage::StorageEngine* backend = nullptr;  ///< Untimed reads.
    std::unique_ptr<mlcask::storage::StorageEngineService> service;
    std::unique_ptr<mlcask::storage::SocketTransportServer> server;
    std::string path;
  };
  /// A committed pipeline version a checkout can restore, with what it must
  /// read back.
  struct PoolEntry {
    mlcask::version::Commit commit;
    size_t base = 0;
    std::vector<std::string> keys;  ///< Committed component keys.
    std::vector<Hash256> output_digests;
    std::vector<Hash256> archive_ids;
    std::vector<Hash256> archive_digests;
  };

  Status StartServers();
  Status Connect();
  Status AddPoolEntry(const mlcask::version::Commit& commit, size_t base,
                      const std::vector<Hash256>& output_digests);
  void OpenSession();
  /// Ends the session; after setup it also deletes the session's versions.
  Status CloseSession();
  OpOutcome Checkout(uint64_t op_id);
  OpOutcome Commit(uint64_t op_id);
  OpOutcome MergeSession(uint64_t op_id);

  const uint64_t seed_;
  const bool traced_;

  // Server side.
  std::unique_ptr<mlcask::service::MergeService> merge_service_;
  std::unique_ptr<mlcask::service::MergeFrontend> frontend_;
  std::vector<Shard> shards_;

  // Client side.
  mlcask::pipeline::LibraryRegistry registry_;
  std::unique_ptr<mlcask::pipeline::LibraryRegistry> traced_registry_;
  mlcask::storage::ShardedStorageEngine* router_ = nullptr;
  std::unique_ptr<mlcask::storage::StorageEngine> engine_;
  std::unique_ptr<mlcask::storage::Transport> merge_transport_;
  std::unique_ptr<mlcask::service::MergeServiceClient> merge_client_;

  std::vector<WorkloadBase> bases_;
  /// Per base: the library repository masters and warm-up sessions register
  /// into, which checkouts resolve against.
  std::vector<std::unique_ptr<mlcask::pipeline::LibraryRepo>> libraries_;
  /// Per base: library archive version id and payload digest by spec key.
  std::vector<std::map<std::string, std::pair<Hash256, Hash256>>> archives_;
  /// Per base: the commits a checkout can restore (master and the warm-up
  /// sessions' commits).
  std::vector<std::vector<PoolEntry>> pool_;
  std::vector<mlcask::service::MergeJobSpec> specs_;  ///< Per base.
  std::vector<Hash256> spec_fingerprints_;
  bool in_setup_ = true;
  /// What every session's rollback must restore: the versions and each
  /// shard's physical bytes once setup ends.
  VersionSet setup_versions_;
  std::vector<uint64_t> setup_physical_;
  uint64_t stored_bytes_ = 0;

  // The open session; members are declared in dependency order.
  uint64_t sessions_opened_ = 0;
  std::vector<size_t> block_;  ///< Workload order of the current block.
  size_t session_base_ = 0;
  size_t checkout_ = 0;  ///< Index of the session's checkout in its pool.
  bool checked_out_ = false;
  SessionScript script_;
  /// A timed session's own library repository, dropped with the session.
  std::unique_ptr<mlcask::pipeline::LibraryRepo> session_libraries_;
  std::unique_ptr<Session> session_;
};

ClusterLane::~ClusterLane() {
  // Clients first, so servers see their connections close, then the
  // servers, then the merge service (queued sessions drain typed).
  session_.reset();
  session_libraries_.reset();
  merge_client_.reset();
  merge_transport_.reset();
  libraries_.clear();
  engine_.reset();
  for (Shard& shard : shards_) {
    if (shard.server != nullptr) shard.server->Shutdown();
  }
  if (merge_service_ != nullptr) (void)merge_service_->Stop();
  for (Shard& shard : shards_) {
    shard.server.reset();
    if (!shard.path.empty()) ::unlink(shard.path.c_str());
  }
}

Status ClusterLane::StartServers() {
  static uint64_t instance = 0;
  ::mkdir(".bench_build", 0755);
  ::mkdir(kRunDir, 0755);
  merge_service_ = std::make_unique<mlcask::service::MergeService>();
  MLCASK_RETURN_IF_ERROR(merge_service_->Start());
  frontend_ = std::make_unique<mlcask::service::MergeFrontend>(
      merge_service_.get());
  const uint64_t id = instance++;
  for (size_t i = 0; i < kShards; ++i) {
    Shard shard;
    std::unique_ptr<mlcask::storage::StorageEngine> backend =
        std::make_unique<mlcask::storage::ForkBaseEngine>();
    shard.backend = backend.get();
    if (traced_) {
      backend = std::make_unique<TracingEngine>(std::move(backend),
                                                /*backend=*/true);
    }
    shard.service = std::make_unique<mlcask::storage::StorageEngineService>(
        std::move(backend));
    shard.path = std::string(kRunDir) + "/pb" + std::to_string(::getpid()) +
                 "-" + std::to_string(id) + "-" + std::to_string(i) + ".sock";
    MLCASK_ASSIGN_OR_RETURN(
        shard.server,
        mlcask::storage::SocketTransportServer::Bind("unix:" + shard.path,
                                                     ServerOptions()));
    mlcask::storage::StorageEngineService* service = shard.service.get();
    mlcask::service::MergeFrontend* frontend =
        i == 0 ? frontend_.get() : nullptr;
    mlcask::storage::TransportHandler handler =
        [service, frontend](std::string_view request) {
          if (frontend != nullptr &&
              mlcask::service::MergeFrontend::Handles(request)) {
            return frontend->Handle(request);
          }
          return service->Handle(request);
        };
    if (traced_) handler = TraceHandler(std::move(handler));
    MLCASK_RETURN_IF_ERROR(shard.server->Serve(std::move(handler)));
    shards_.push_back(std::move(shard));
  }
  return Status::Ok();
}

Status ClusterLane::Connect() {
  // The shape of storage::ConnectCluster, with an optional transport
  // decorator under each proxy.
  auto dial = [this](const std::string& path)
      -> StatusOr<std::unique_ptr<mlcask::storage::Transport>> {
    MLCASK_ASSIGN_OR_RETURN(
        std::unique_ptr<mlcask::storage::SocketTransport> socket,
        mlcask::storage::SocketTransport::Connect("unix:" + path));
    std::unique_ptr<mlcask::storage::Transport> transport = std::move(socket);
    if (traced_) {
      transport = std::make_unique<TracingTransport>(std::move(transport));
    }
    return transport;
  };
  std::vector<std::unique_ptr<mlcask::storage::StorageEngine>> proxies;
  for (const Shard& shard : shards_) {
    MLCASK_ASSIGN_OR_RETURN(auto transport, dial(shard.path));
    proxies.push_back(std::make_unique<mlcask::storage::RemoteStorageEngine>(
        std::move(transport)));
  }
  auto router =
      std::make_unique<mlcask::storage::ShardedStorageEngine>(std::move(proxies));
  router_ = router.get();
  engine_ = std::move(router);
  if (traced_) {
    engine_ = std::make_unique<TracingEngine>(std::move(engine_),
                                              /*backend=*/false);
  }
  MLCASK_ASSIGN_OR_RETURN(merge_transport_, dial(shards_.front().path));
  merge_client_ = std::make_unique<mlcask::service::MergeServiceClient>(
      merge_transport_.get(), "bench");
  return Status::Ok();
}

Status ClusterLane::AddPoolEntry(const mlcask::version::Commit& commit,
                                 size_t base,
                                 const std::vector<Hash256>& output_digests) {
  PoolEntry entry;
  entry.commit = commit;
  entry.base = base;
  entry.output_digests = output_digests;
  for (const mlcask::version::ComponentRecord& rec :
       commit.snapshot.components) {
    const std::string key = rec.name + "@" + rec.version.ToString(false);
    entry.keys.push_back(key);
    auto it = archives_[base].find(key);
    if (it == archives_[base].end()) {
      return Status::Internal("no archived library for " + key);
    }
    entry.archive_ids.push_back(it->second.first);
    entry.archive_digests.push_back(it->second.second);
  }
  pool_[base].push_back(std::move(entry));
  return Status::Ok();
}

Status ClusterLane::Prepare() {
  const std::vector<std::string> names = mlcask::sim::WorkloadNames();
  for (size_t i = 0; i < names.size(); ++i) {
    mlcask::service::MergeJobSpec spec;
    spec.workload = names[i];
    spec.scale = kMergeSpecScale;
    spec.extra_extractor_versions = kSpecExtraExtractors;
    spec.extra_model_versions = kSpecExtraModels;
    spec.seed = MixSeed(seed_, 800 + i);
    MLCASK_ASSIGN_OR_RETURN(Hash256 reference, ReferenceFingerprint(spec));
    specs_.push_back(spec);
    spec_fingerprints_.push_back(reference);
  }
  return Status::Ok();
}

Status ClusterLane::Setup() {
  MLCASK_RETURN_IF_ERROR(mlcask::sim::RegisterWorkloadLibraries(&registry_));
  if (traced_) traced_registry_ = WrapRegistry(registry_);
  const std::vector<std::string> names = mlcask::sim::WorkloadNames();
  MLCASK_RETURN_IF_ERROR(StartServers());
  MLCASK_RETURN_IF_ERROR(Connect());
  const mlcask::pipeline::LibraryRegistry* registry =
      traced_ ? traced_registry_.get() : &registry_;
  archives_.resize(names.size());
  pool_.resize(names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    const int64_t dataset_seed =
        static_cast<int64_t>(MixSeed(seed_, 1000 + i) % 1000000) + 1;
    MLCASK_ASSIGN_OR_RETURN(
        WorkloadBase base,
        MakeWorkloadBase(names[i], kClusterScale, dataset_seed));
    bases_.push_back(std::move(base));
    libraries_.push_back(std::make_unique<mlcask::pipeline::LibraryRepo>(
        engine_.get(), nullptr));
  }
  for (size_t i = 0; i < bases_.size(); ++i) {
    const uint64_t bytes_seed = MixSeed(seed_, 1100 + i);
    mlcask::version::Commit master;
    std::vector<Hash256> digests;
    MLCASK_ASSIGN_OR_RETURN(
        auto archived, BuildMaster(&bases_[i], engine_.get(),
                                   libraries_[i].get(), registry, bytes_seed,
                                   &master, &digests));
    for (const auto& spec : bases_[i].master.components()) {
      archives_[i][spec.Key()] = {
          archived[spec.Key()],
          mlcask::Sha256::Digest(LibraryPayload(spec, bytes_seed))};
    }
    MLCASK_RETURN_IF_ERROR(AddPoolEntry(master, i, digests));
  }

  // Warm-up: one full session per workload. Its commits stay and join the
  // checkout pool.
  while (sessions_opened_ < bases_.size() || session_ != nullptr) {
    OpOutcome warm = RunNext(0);
    if (!warm.ok) return Status::Internal("cluster warm-up: " + warm.error);
  }
  setup_versions_ = AllVersions(*engine_);
  for (const Shard& shard : shards_) {
    setup_physical_.push_back(shard.backend->stats().physical_bytes);
    stored_bytes_ += setup_physical_.back();
  }
  in_setup_ = false;
  return Status::Ok();
}

void ClusterLane::OpenSession() {
  const uint64_t k = sessions_opened_++;
  const size_t slot = static_cast<size_t>(k % bases_.size());
  if (slot == 0) {
    mlcask::Pcg32 rng(MixSeed(seed_, 1300 + k));
    block_ = ShuffledBlock(&rng, std::vector<size_t>(bases_.size(), 1));
  }
  session_base_ = block_[slot];
  // Every block holds each workload once, so the block index is the
  // workload's session round.
  script_ = DrawSessionScript(MixSeed(seed_, 1400 + k), session_base_,
                              bases_[session_base_], k / bases_.size(),
                              "c" + std::to_string(k));
  mlcask::Pcg32 rng(MixSeed(seed_, 1500 + k));
  checkout_ = rng.Below(static_cast<uint32_t>(pool_[session_base_].size()));
  checked_out_ = false;
  // Warm-up sessions register into the workload's repository, since their
  // commits are checked out later; a timed session's registrations go with
  // it.
  mlcask::pipeline::LibraryRepo* libraries = libraries_[session_base_].get();
  if (!in_setup_) {
    session_libraries_ =
        std::make_unique<mlcask::pipeline::LibraryRepo>(engine_.get(), nullptr);
    libraries = session_libraries_.get();
  }
  session_ = std::make_unique<Session>(
      &bases_[session_base_], &script_, engine_.get(), libraries,
      traced_ ? traced_registry_.get() : &registry_);
}

Status ClusterLane::CloseSession() {
  session_.reset();
  session_libraries_.reset();
  if (in_setup_) return Status::Ok();
  for (const auto& version : AllVersions(*engine_)) {
    if (setup_versions_.count(version) != 0) continue;
    MLCASK_RETURN_IF_ERROR(engine_->DeleteVersion(version.second).status());
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].backend->stats().physical_bytes != setup_physical_[i]) {
      return Status::Internal("session rollback left shard " +
                              std::to_string(i) + "'s physical bytes changed");
    }
  }
  if (AllVersions(*engine_) != setup_versions_) {
    return Status::Internal("session rollback left the cluster's versions "
                            "changed");
  }
  return Status::Ok();
}

OpOutcome ClusterLane::RunNext(uint64_t op_id) {
  if (session_ == nullptr) OpenSession();
  OpOutcome out;
  bool last = false;
  if (!checked_out_) {
    out = Checkout(op_id);
    checked_out_ = true;
  } else if (!session_->done()) {
    out = Commit(op_id);
  } else {
    out = MergeSession(op_id);
    last = true;
  }
  // A failed session is abandoned; the next op opens a fresh one.
  if (last || !out.ok) {
    const Status closed = CloseSession();
    if (out.ok && !closed.ok()) {
      out.ok = false;
      out.error = closed.ToString();
    }
  }
  return out;
}

OpOutcome ClusterLane::Commit(uint64_t op_id) {
  const IterationInput in = session_->NextInput();
  OpOutcome out;
  out.kind = "commit";
  Status status;
  {
    OpTimer timer(op_id);
    status = session_->Apply(in);
    out.ms = timer.StopMs();
  }
  if (status.ok()) status = session_->Verify(in);
  if (status.ok() && in_setup_) {
    archives_[session_base_][in.spec.Key()] = {
        session_->last_archive_id(), mlcask::Sha256::Digest(in.payload)};
    auto digests = session_->OutputDigests();
    status = digests.status();
    if (status.ok()) {
      status = AddPoolEntry(*session_->last_commit(), session_base_, *digests);
    }
  }
  if (!status.ok()) {
    out.ok = false;
    out.error = status.ToString();
  }
  return out;
}

OpOutcome ClusterLane::Checkout(uint64_t op_id) {
  const PoolEntry& entry = pool_[session_base_][checkout_];
  OpOutcome out;
  out.kind = "checkout";
  std::optional<StatusOr<mlcask::pipeline::Pipeline>> pipeline;
  std::vector<std::string> outputs;
  std::vector<std::string> libraries;
  Status status;
  {
    OpTimer timer(op_id);
    pipeline.emplace(mlcask::pipeline::MaterializePipeline(
        entry.commit, *libraries_[entry.base], bases_[entry.base].name));
    for (const auto& rec : entry.commit.snapshot.components) {
      if (!status.ok()) break;
      auto bytes = engine_->GetVersion(rec.output_id);
      status = bytes.status();
      if (status.ok()) outputs.push_back(*std::move(bytes));
    }
    for (const Hash256& id : entry.archive_ids) {
      if (!status.ok()) break;
      auto bytes = engine_->GetVersion(id);
      status = bytes.status();
      if (status.ok()) libraries.push_back(*std::move(bytes));
    }
    out.ms = timer.StopMs();
  }
  if (status.ok()) status = pipeline->status();
  if (status.ok()) {
    std::vector<std::string> keys;
    for (const auto& spec : (*pipeline)->components()) keys.push_back(spec.Key());
    if (keys != entry.keys) {
      status = Status::Internal("checkout rebuilt different component keys");
    }
  }
  for (size_t i = 0; status.ok() && i < outputs.size(); ++i) {
    if (!(mlcask::Sha256::Digest(outputs[i]) == entry.output_digests[i])) {
      status = Status::Internal("checkout read back a changed artifact of " +
                                entry.keys[i]);
    }
  }
  for (size_t i = 0; status.ok() && i < libraries.size(); ++i) {
    if (!(mlcask::Sha256::Digest(libraries[i]) == entry.archive_digests[i])) {
      status = Status::Internal("checkout read back a changed library of " +
                                entry.keys[i]);
    }
  }
  if (!status.ok()) {
    out.ok = false;
    out.error = status.ToString();
  }
  return out;
}

OpOutcome ClusterLane::MergeSession(uint64_t op_id) {
  const size_t index = session_base_;  // The session's workload.
  OpOutcome out;
  out.kind = "merge_session";
  std::optional<StatusOr<mlcask::service::MergeWinner>> winner;
  Status status;
  {
    OpTimer timer(op_id);
    auto submitted = merge_client_->Submit(specs_[index]);
    status = submitted.status();
    if (status.ok()) {
      Span span(SpanKind::kServiceAwait);
      winner.emplace(merge_client_->AwaitWinner(
          submitted->session_id, kPollIntervalMs, kAwaitTimeoutMs));
    }
    out.ms = timer.StopMs();
  }
  if (status.ok()) status = winner->status();
  if (status.ok() &&
      !((*winner)->Fingerprint() == spec_fingerprints_[index])) {
    status = Status::Internal("merge session winner for " +
                              specs_[index].workload +
                              " differs from the client-local merge");
  }
  if (!status.ok()) {
    out.ok = false;
    out.error = status.ToString();
  }
  return out;
}

}  // namespace

std::unique_ptr<Lane> MakeClusterLane(uint64_t seed, bool traced) {
  return std::make_unique<ClusterLane>(seed, traced);
}

}  // namespace perfbench
