// Developer sessions, shared by the `evolve` lane (local engines) and the
// `cluster` lane's commit ops (the sharded cluster over the wire).
//
// A session branches off master, opens with a new dataset version (a fresh
// generator seed) and then applies Sec. VII-B updates: a preprocessor with
// p = 0.4, the model with p = 0.6. Each iteration archives the updated
// component's library bytes (metafile plus executable, as
// baselines::SystemUnderTest::RunIteration does), runs the pipeline with
// prefix reuse, materializes its outputs and commits.
//
// Sessions are stationary: every update sets the component's `variant`
// knob to 1 or 2 instead of raising it on each update (raising it turns op
// latency into a ramp), and every session starts again from master.
#ifndef PERFBENCH_SESSION_H_
#define PERFBENCH_SESSION_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "pipeline/executor.h"
#include "pipeline/library_registry.h"
#include "pipeline/library_repo.h"
#include "pipeline/pipeline.h"
#include "storage/storage_engine.h"
#include "version/pipeline_repo.h"

namespace perfbench {

/// Size of every synthetic library executable (the SystemUnderTest default).
constexpr size_t kExecutableBytes = 512 * 1024;

/// One paper workload with its dataset reseeded, plus the master history a
/// session branches from.
struct WorkloadBase {
  std::string name;
  mlcask::pipeline::Pipeline master;
  std::vector<std::string> preprocessors;
  std::string model;
  std::string dataset;
  mlcask::Json master_state;  ///< PipelineRepo::ExportState of master.
  double master_clock_s = 0;  ///< Sim clock when master was exported.
};

/// The paper workload `name` at `scale` with its generator seed replaced.
mlcask::StatusOr<WorkloadBase> MakeWorkloadBase(const std::string& name,
                                                double scale,
                                                int64_t dataset_seed);

/// Library bytes of one component version: the metafile followed by a
/// seeded executable. Versions of one component share their base bytes and
/// differ in a fixed number of 1 KiB edits, so consecutive versions mostly
/// de-duplicate.
std::string LibraryPayload(const mlcask::pipeline::ComponentVersionSpec& spec,
                           uint64_t seed);

/// A session's fixed update sequence, drawn from the run seed.
struct SessionScript {
  size_t base = 0;  ///< Index of the WorkloadBase.
  std::string branch;
  int64_t dataset_seed = 0;
  uint64_t bytes_seed = 0;
  /// Component updated by each iteration; the first is the dataset.
  std::vector<std::string> updates;
};

/// Two preprocessor and three model updates per session, shuffled: the
/// p = 0.4 / 0.6 split held exactly. Which two preprocessors a session
/// updates rotates with `round` (the workload's session count) rather than
/// with the seed, so every seed does the same work on differently seeded
/// data, bytes and update order.
SessionScript DrawSessionScript(uint64_t seed, size_t base_index,
                                const WorkloadBase& base, uint64_t round,
                                std::string branch);

/// Inputs of one iteration, generated before its op timer starts.
struct IterationInput {
  mlcask::pipeline::ComponentVersionSpec spec;
  mlcask::pipeline::Pipeline pipeline;  ///< The pipeline after the update.
  std::string payload;                  ///< Library bytes to archive.
};

/// One developer's working state: a repo imported from master, a fresh
/// executor (artifact cache) and a sim clock. Storage and the library
/// repository are borrowed.
class Session {
 public:
  Session(const WorkloadBase* base, const SessionScript* script,
          mlcask::storage::StorageEngine* engine,
          mlcask::pipeline::LibraryRepo* libraries,
          const mlcask::pipeline::LibraryRegistry* registry);

  bool done() const { return next_ >= script_->updates.size(); }

  /// Untimed: the next iteration's inputs.
  IterationInput NextInput() const;
  /// Timed: branch off master on the first iteration, then register and
  /// archive the library version, run with prefix reuse and commit.
  mlcask::Status Apply(const IterationInput& in);
  /// Untimed output checks of the last Apply: the run produced a score,
  /// the commit heads the session branch with the run's snapshot, and the
  /// archived library bytes read back unchanged.
  mlcask::Status Verify(const IterationInput& in);

  const mlcask::version::Commit* last_commit() const { return commit_; }
  const mlcask::Hash256& last_archive_id() const { return archive_id_; }
  /// SHA-256 of each component output the last commit references, from
  /// the executor's cache (the bytes that were materialized).
  mlcask::StatusOr<std::vector<mlcask::Hash256>> OutputDigests() const;

 private:
  const WorkloadBase* base_;
  const SessionScript* script_;
  mlcask::storage::StorageEngine* engine_;
  mlcask::pipeline::LibraryRepo* libraries_;
  const mlcask::pipeline::LibraryRegistry* registry_;
  mlcask::SimClock clock_;
  std::optional<mlcask::version::PipelineRepo> repo_;
  std::unique_ptr<mlcask::pipeline::Executor> executor_;
  mlcask::pipeline::Pipeline current_;
  size_t next_ = 0;
  mlcask::pipeline::PipelineRunResult run_;
  const mlcask::version::Commit* commit_ = nullptr;
  mlcask::Hash256 archive_id_;
};

/// Builds a workload's master history on `engine`: registers and archives
/// every component's library version, runs the master pipeline, commits
/// it, and exports the repo state into `base`. Returns the library archive
/// version id of each component, keyed by ComponentVersionSpec::Key().
mlcask::StatusOr<std::map<std::string, mlcask::Hash256>> BuildMaster(
    WorkloadBase* base, mlcask::storage::StorageEngine* engine,
    mlcask::pipeline::LibraryRepo* libraries,
    const mlcask::pipeline::LibraryRegistry* registry, uint64_t bytes_seed,
    mlcask::version::Commit* master_commit,
    std::vector<mlcask::Hash256>* output_digests);

}  // namespace perfbench

#endif  // PERFBENCH_SESSION_H_
