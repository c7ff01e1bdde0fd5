// `evolve`: stationary developer sessions against local ForkBase engines.
//
// Each session works in its own local ForkBaseEngine, so the write path
// (content-defined chunking, SHA-256, chunk-store inserts and dedup) sees
// both brand-new library bytes (a component's first archive in the session)
// and near-duplicates (its later versions), and memory stays bounded however
// many ops a run completes. Sessions rotate over the four paper workloads in
// shuffled blocks of four.
#include <memory>
#include <vector>

#include "lane.h"
#include "pipeline/library_repo.h"
#include "session.h"
#include "sim/libraries.h"
#include "sim/workloads.h"
#include "storage/forkbase_engine.h"
#include "trace.h"

namespace perfbench {

namespace {

using mlcask::Status;

/// Dataset scale of every workload (1 = the paper-calibrated size).
constexpr double kEvolveScale = 0.1;
/// Warm-up: one full session per workload.
constexpr size_t kWarmupSessions = 4;

class EvolveLane : public Lane {
 public:
  EvolveLane(uint64_t seed, bool traced) : seed_(seed), traced_(traced) {}

  Status Setup() override;
  uint64_t StoredBytes() const override { return stored_bytes_; }
  OpOutcome RunNext(uint64_t op_id) override;

 private:
  /// A local engine plus the library repository that writes through it.
  struct Store {
    std::unique_ptr<mlcask::storage::StorageEngine> engine;
    std::unique_ptr<mlcask::pipeline::LibraryRepo> libraries;
  };

  Store NewStore() const;
  void OpenSession();
  void CloseSession();

  const uint64_t seed_;
  const bool traced_;
  mlcask::pipeline::LibraryRegistry registry_;
  std::unique_ptr<mlcask::pipeline::LibraryRegistry> traced_registry_;
  std::vector<WorkloadBase> bases_;
  std::vector<Store> masters_;
  std::vector<size_t> block_;  ///< Workload order of the current block.
  uint64_t sessions_opened_ = 0;
  uint64_t sessions_closed_ = 0;
  bool in_setup_ = true;
  uint64_t stored_bytes_ = 0;
  // The open session; members are declared in dependency order.
  Store store_;
  SessionScript script_;
  std::unique_ptr<Session> session_;
};

EvolveLane::Store EvolveLane::NewStore() const {
  Store store;
  store.engine = std::make_unique<mlcask::storage::ForkBaseEngine>();
  if (traced_) {
    store.engine = std::make_unique<TracingEngine>(std::move(store.engine),
                                                   /*backend=*/false);
  }
  store.libraries = std::make_unique<mlcask::pipeline::LibraryRepo>(
      store.engine.get(), nullptr);
  return store;
}

Status EvolveLane::Setup() {
  MLCASK_RETURN_IF_ERROR(mlcask::sim::RegisterWorkloadLibraries(&registry_));
  if (traced_) traced_registry_ = WrapRegistry(registry_);
  const std::vector<std::string> names = mlcask::sim::WorkloadNames();
  for (size_t i = 0; i < names.size(); ++i) {
    const int64_t dataset_seed =
        static_cast<int64_t>(MixSeed(seed_, 100 + i) % 1000000) + 1;
    MLCASK_ASSIGN_OR_RETURN(WorkloadBase base,
                            MakeWorkloadBase(names[i], kEvolveScale,
                                             dataset_seed));
    bases_.push_back(std::move(base));
    masters_.push_back(NewStore());
  }
  for (size_t i = 0; i < bases_.size(); ++i) {
    MLCASK_RETURN_IF_ERROR(
        BuildMaster(&bases_[i], masters_[i].engine.get(),
                    masters_[i].libraries.get(),
                    traced_ ? traced_registry_.get() : &registry_,
                    MixSeed(seed_, 200 + i), nullptr, nullptr)
            .status());
    stored_bytes_ += masters_[i].engine->stats().physical_bytes;
  }
  while (sessions_closed_ < kWarmupSessions) {
    OpOutcome warm = RunNext(0);
    if (!warm.ok) return Status::Internal("evolve warm-up: " + warm.error);
  }
  in_setup_ = false;
  return Status::Ok();
}

void EvolveLane::OpenSession() {
  const uint64_t k = sessions_opened_++;
  const size_t slot = static_cast<size_t>(k % bases_.size());
  if (slot == 0) {
    mlcask::Pcg32 rng(MixSeed(seed_, 300 + k));
    block_ = ShuffledBlock(&rng, std::vector<size_t>(bases_.size(), 1));
  }
  const size_t base = block_[slot];
  store_ = NewStore();
  // Every block holds each workload once, so the block index is the
  // workload's session round.
  script_ = DrawSessionScript(MixSeed(seed_, 400 + k), base, bases_[base],
                              k / bases_.size(), "s" + std::to_string(k));
  session_ = std::make_unique<Session>(
      &bases_[base], &script_, store_.engine.get(), store_.libraries.get(),
      traced_ ? traced_registry_.get() : &registry_);
}

void EvolveLane::CloseSession() {
  if (in_setup_) stored_bytes_ += store_.engine->stats().physical_bytes;
  session_.reset();
  store_ = Store();
  ++sessions_closed_;
}

OpOutcome EvolveLane::RunNext(uint64_t op_id) {
  if (session_ == nullptr) OpenSession();
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
  if (!status.ok()) {
    out.ok = false;
    out.error = status.ToString();
  }
  // A failed session is abandoned; the next op opens a fresh one.
  if (!out.ok || session_->done()) CloseSession();
  return out;
}

}  // namespace

std::unique_ptr<Lane> MakeEvolveLane(uint64_t seed, bool traced) {
  return std::make_unique<EvolveLane>(seed, traced);
}

}  // namespace perfbench
