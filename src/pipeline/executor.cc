#include "pipeline/executor.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <unordered_map>

#include "common/sha256.h"
#include "pipeline/execution_core.h"

namespace mlcask::pipeline {

namespace {

/// Deterministic per-component seed: run seed mixed with the node key, so
/// dataset components and model inits are deterministic per pipeline but
/// distinct across components — and identical no matter which worker runs
/// the component or in which order.
uint64_t MixSeed(uint64_t seed, const Hash256& key) {
  for (uint8_t b : key.bytes) seed = seed * 131 + b;
  return seed;
}

/// Chunk boundaries an output table streams across — the granularity of
/// streamed prefix handoff. Row-deterministic (never wall-clock- or
/// worker-dependent) so charged times are reproducible; capped so the
/// overlap model stays coarse-grained rather than pretending per-row
/// pipelining.
uint32_t StreamChunksFor(const data::Table& table) {
  constexpr uint32_t kMaxStreamChunks = 8;
  const size_t rows = table.num_rows();
  if (rows < 2) return 1;
  return static_cast<uint32_t>(
      std::min<size_t>(kMaxStreamChunks, rows));
}

}  // namespace

Hash256 Executor::NodeKey(const ComponentVersionSpec& spec,
                          const std::vector<Hash256>& parent_keys) {
  Sha256 h;
  h.Update(spec.name);
  h.Update("\x1f");
  h.Update(spec.version.ToString(/*simplify_master=*/false));
  h.Update("\x1f");
  h.Update(spec.impl);
  h.Update("\x1f");
  h.Update(spec.params.Dump());
  h.Update("\x1e");
  for (const Hash256& pk : parent_keys) {
    h.Update(pk.bytes.data(), pk.bytes.size());
  }
  return h.Finish();
}

Hash256 Executor::ChainKey(
    const std::vector<const ComponentVersionSpec*>& chain) {
  Hash256 key;
  std::vector<Hash256> parents;
  for (const ComponentVersionSpec* spec : chain) {
    key = NodeKey(*spec, parents);
    parents.assign(1, key);
  }
  return key;
}

void Executor::SeedCache(const Hash256& key, data::Table output, double score,
                         const std::string& metric, const Hash256& output_id,
                         std::map<std::string, double> metrics) {
  ArtifactEntry entry;
  entry.table = std::move(output);
  entry.score = score;
  entry.metric = metric;
  entry.metrics = std::move(metrics);
  entry.output_id = output_id;
  entry.ready_at_s = 0;  // checkpoints are free: materialized before the run
  cache_.Insert(key, std::move(entry));
}

ArtifactCache::EntryPtr Executor::FindCachedEntry(
    const std::vector<const ComponentVersionSpec*>& chain) const {
  return cache_.Find(ChainKey(chain));
}

StatusOr<PipelineRunResult> Executor::Run(const Pipeline& pipeline,
                                          const ExecutorOptions& options) {
  MLCASK_RETURN_IF_ERROR(pipeline.Validate());
  MLCASK_ASSIGN_OR_RETURN(std::vector<const ComponentVersionSpec*> order,
                          pipeline.TopologicalOrder());

  SimClock* clock = options.clock != nullptr ? options.clock : clock_;
  PipelineRunResult result;

  // MLCask checks declared compatibility before spending any compute
  // (Fig. 5's final iteration: "it does not run the pipeline").
  if (options.precheck_compatibility) {
    Status compat = pipeline.CheckCompatibility();
    if (compat.IsIncompatible()) {
      result.compatibility_failure = true;
      result.failed_component = compat.message();
      return result;
    }
    MLCASK_RETURN_IF_ERROR(compat);
  }

  // Recursive node keys H(spec, sorted parent keys). On a chain they fold
  // exactly like ChainKey, so checkpoints seeded per chain prefix are hit.
  const size_t n = order.size();
  std::unordered_map<std::string, size_t> index_of;
  for (size_t i = 0; i < n; ++i) index_of[order[i]->name] = i;

  std::vector<std::vector<size_t>> deps(n);
  std::vector<Hash256> node_keys(n);
  std::vector<size_t> successor_count(n, 0);
  for (size_t i = 0; i < n; ++i) {
    std::vector<std::string> preds = pipeline.Predecessors(order[i]->name);
    std::sort(preds.begin(), preds.end());
    std::vector<Hash256> parent_keys;
    parent_keys.reserve(preds.size());
    deps[i].reserve(preds.size());
    for (const std::string& pred : preds) {
      size_t pi = index_of.at(pred);
      deps[i].push_back(pi);
      successor_count[pi] += 1;
      parent_keys.push_back(node_keys[pi]);
    }
    node_keys[i] = NodeKey(*order[i], parent_keys);
  }

  // Sinks-first plan, Algorithm 2's checkpoint pruning on a DAG: walking
  // the nodes sinks first, probe a node only when it is a sink or an
  // executing successor needs its table. A hit is reused; a miss executes
  // and needs its predecessors. On a chain this is the longest-cached-prefix
  // scan, with the same probes and LRU touches. A hit stays PINNED (EntryPtr
  // held) for the whole run, so a byte-capped cache cannot turn a planned
  // reuse into a missing input mid-run. Nodes nothing needs (ancestors
  // covered by a downstream hit) are looked up only when their task runs.
  std::vector<ArtifactCache::EntryPtr> cached(n);
  std::vector<char> must_execute(n, 0);
  std::vector<char> table_needed(n, 0);
  // Consumer-counted pins: an executed or runtime-hit table stays pinned in
  // its outcome slot until its last executing consumer finishes, then that
  // consumer's task drops it. On a chain this pins exactly the one table
  // the next component reads (while it runs and publishes).
  std::vector<std::atomic<size_t>> unfinished_consumers(n);
  for (size_t i = n; i-- > 0;) {  // order is topological; walk sinks first
    if (successor_count[i] != 0 && !table_needed[i]) continue;
    if (options.reuse_cached_outputs) cached[i] = cache_.Find(node_keys[i]);
    if (cached[i] != nullptr) continue;
    must_execute[i] = 1;
    for (size_t pi : deps[i]) {
      table_needed[pi] = 1;
      ++unfinished_consumers[pi];
    }
  }

  // Per-task outcome slots. Each task writes only its own slot, except that
  // a table's last executing consumer drops its pin once the atomic count
  // shows every other consumer is done; no lock is needed beyond that and
  // the scheduler's happens-before edges.
  struct TaskOutcome {
    ComponentRunInfo info;
    ArtifactCache::EntryPtr entry;  ///< Pinned while consumers are pending.
    bool processed = false;
    bool has_score = false;
    double score = 0;
    std::string metric;
    std::map<std::string, double> metrics;
    double finish_s = 0;  ///< Virtual time when this task's worker finished.
    /// Set when this node's reuse was charged as a stream (first chunk
    /// only): executing successors apply the tail floor from `stream`.
    bool streamed = false;
    StreamSpan stream;
  };
  std::vector<TaskOutcome> outcomes(n);

  // First runtime-compatibility failure (precheck off); guarded by fail_mu.
  std::mutex fail_mu;
  std::string failed_component;

  // A node that does not consume its streamed inputs (it fails, or turns
  // into a runtime cache hit) pays every streamed predecessor's FULL finish,
  // so its timing stays as conservative as full-wait charging.
  auto charge_streamed_inputs_in_full = [&](size_t i, SimClock* task_clock) {
    for (size_t pi : deps[i]) {
      if (outcomes[pi].streamed) {
        task_clock->AdvanceTo(outcomes[pi].stream.ready_at_s);
      }
    }
  };

  // Executes node i under `lease` (null when reuse is disabled: the output
  // is then inserted unconditionally). Predecessor outputs come from their
  // outcome slots — the scheduler guarantees they finished, and its mutex
  // provides the happens-before edge that makes reading them safe.
  auto execute_node = [&](size_t i, ArtifactCache::Lease* lease,
                          SimClock* task_clock) -> Status {
    const ComponentVersionSpec* spec = order[i];
    TaskOutcome& slot = outcomes[i];

    std::vector<const data::Table*> inputs;
    size_t input_rows = 0;
    inputs.reserve(deps[i].size());
    for (size_t pi : deps[i]) {
      const ComponentVersionSpec* pred_spec = order[pi];
      // Runtime incompatibility: without the precheck, upstream components
      // have already burned their time before this one fails (the
      // baselines' behaviour in Fig. 5). The abandoned lease wakes any
      // waiter.
      if (!options.precheck_compatibility &&
          !pred_spec->CompatibleWith(*spec)) {
        charge_streamed_inputs_in_full(i, task_clock);
        std::lock_guard<std::mutex> lock(fail_mu);
        if (failed_component.empty()) failed_component = spec->name;
        return Status::Incompatible("runtime schema mismatch at " +
                                    spec->name);
      }
      if (outcomes[pi].entry == nullptr) {
        return Status::Internal("predecessor '" + pred_spec->name +
                                "' missing from cache during run");
      }
      inputs.push_back(&outcomes[pi].entry->table);
      input_rows = std::max(input_rows, outcomes[pi].entry->table.num_rows());
    }

    MLCASK_ASSIGN_OR_RETURN(const LibraryFn* fn, registry_->Get(spec->impl));
    ExecInput in;
    in.inputs = inputs;
    in.input = inputs.empty() ? nullptr : inputs.front();
    in.params = &spec->params;
    in.seed = MixSeed(options.seed, node_keys[i]);

    MLCASK_ASSIGN_OR_RETURN(ExecOutput out, (*fn)(in));
    executions_.fetch_add(1, std::memory_order_relaxed);
    slot.info.executed = true;

    size_t rows = inputs.empty() ? out.table.num_rows() : input_rows;
    slot.info.exec_s =
        spec->cost_per_krow_s * static_cast<double>(rows) / 1000.0;
    const double exec_start_s = task_clock->Now();
    task_clock->Advance(slot.info.exec_s);
    // Streamed predecessors: this node started at their first chunk
    // boundary (the scheduler's ready_time edge) but cannot finish before
    // processing each producer's LAST chunk.
    for (size_t pi : deps[i]) {
      if (outcomes[pi].streamed) {
        task_clock->AdvanceTo(
            outcomes[pi].stream.ConsumerTailFloorS(slot.info.exec_s));
      }
    }

    if (out.has_score()) {
      slot.has_score = true;
      slot.score = out.score;
      slot.metric = out.metric;
      slot.metrics = out.metrics;
    }

    if (options.store_outputs) {
      std::string bytes = out.table.Serialize();
      MLCASK_ASSIGN_OR_RETURN(
          storage::PutResult put,
          engine_->Put("artifact/" + pipeline.name() + "/" + spec->Key(),
                       bytes));
      slot.info.storage_s = put.storage_time_s;
      slot.info.bytes_written = put.logical_bytes;
      slot.info.output_id = put.id;
      task_clock->Advance(put.storage_time_s);
    }

    ArtifactEntry entry;
    entry.stream_chunks = StreamChunksFor(out.table);
    entry.table = std::move(out.table);
    entry.score = out.score;
    entry.metric = out.metric;
    entry.metrics = std::move(out.metrics);
    entry.output_id = slot.info.output_id;
    // The stream watermark: consumers overlap with [started_at_s,
    // ready_at_s] (compute + storage) in stream_chunks uniform boundaries.
    entry.started_at_s = exec_start_s;
    entry.ready_at_s = task_clock->Now();
    if (lease != nullptr) {
      slot.entry = cache_.Fulfill(lease, std::move(entry));
    } else {
      // Reuse disabled: later runs will not look the entry up, but merge
      // materialization (FindCachedEntry on the winner) still expects the
      // freshest outputs in the cache.
      slot.entry = cache_.Insert(node_keys[i], std::move(entry));
    }
    return Status::Ok();
  };

  // Resolves node i into its outcome slot: reuse, or execute.
  auto resolve_node = [&](size_t i, SimClock* task_clock) -> Status {
    TaskOutcome& slot = outcomes[i];
    auto reuse_entry = [&](const ArtifactCache::EntryPtr& entry) {
      slot.info.reused = true;
      slot.info.output_id = entry->output_id;
      slot.entry = entry;
      if (entry->has_score()) {
        slot.has_score = true;
        slot.score = entry->score;
        slot.metric = entry->metric;
        slot.metrics = entry->metrics;
      }
      // Waiting for an artifact another worker finishes later in virtual
      // time costs exactly that wait. Streamed handoff: when an executing
      // successor consumes this table, finish (= the successor's ready
      // edge) at the first chunk boundary and let the successor's tail
      // floor account the producer's finish. A reused sink, or a reuse no
      // executing successor reads, pays the full finish time: the score or
      // the covering hit is only known once the producer completes.
      const StreamSpan span = entry->stream_span();
      if (options.streamed_handoff && table_needed[i] && span.streamable()) {
        task_clock->AdvanceTo(span.FirstChunkReadyS());
        slot.stream = span;
        slot.streamed = true;
      } else {
        task_clock->AdvanceTo(entry->ready_at_s);
      }
    };

    if (!must_execute[i]) {
      // A planned hit reuses its pinned entry. A node nothing needs is
      // covered by a downstream hit: it only surfaces its output id and
      // score if still resident, and is reused without an entry otherwise.
      ArtifactCache::EntryPtr entry =
          cached[i] != nullptr ? cached[i] : cache_.Find(node_keys[i]);
      if (entry != nullptr) {
        reuse_entry(entry);
      } else {
        slot.info.reused = true;
      }
      return Status::Ok();
    }
    if (!options.reuse_cached_outputs) {
      return execute_node(i, nullptr, task_clock);
    }
    // Every executing node is claimed through the in-flight guard: if a
    // concurrent run is already computing this key, wait for its result
    // instead of recomputing it.
    ArtifactCache::Acquired acquired = cache_.Acquire(node_keys[i]);
    if (acquired.entry != nullptr) {
      // A planned-executing node that turned into a runtime cache hit
      // (another run published it) consumes no streams: its reuse time
      // comes from ANOTHER run's timeline and cannot vouch for its streamed
      // predecessors.
      charge_streamed_inputs_in_full(i, task_clock);
      reuse_entry(acquired.entry);
      return Status::Ok();
    }
    return execute_node(i, acquired.lease.get(), task_clock);
  };

  auto run_task = [&](size_t i, SimClock* task_clock) -> Status {
    const ComponentVersionSpec* spec = order[i];
    TaskOutcome& slot = outcomes[i];
    slot.info.name = spec->name;
    slot.info.version = spec->version;
    slot.info.kind = spec->kind;
    slot.processed = true;
    // Record the worker's virtual finish on every exit path, so a failed
    // run still charges the caller's clock for the time it burned.
    struct FinishRecorder {
      TaskOutcome& slot;
      SimClock* clock;
      ~FinishRecorder() { slot.finish_s = clock->Now(); }
    } finish_recorder{slot, task_clock};

    MLCASK_RETURN_IF_ERROR(resolve_node(i, task_clock));
    // Consumer-counted pins: this task no longer needs its inputs, and a
    // table no executing successor reads is not kept at all.
    if (must_execute[i]) {
      for (size_t pi : deps[i]) {
        if (--unfinished_consumers[pi] == 0) outcomes[pi].entry.reset();
      }
    }
    if (!table_needed[i]) slot.entry.reset();
    return Status::Ok();
  };

  // Schedule on the shared pool (options.core) or the executor's lazy
  // fallback — never a per-call pool. The requested num_workers is the
  // VIRTUAL machine width; the pool's real thread count is whatever the
  // pool owner chose. With width 1 tasks run in FIFO topological order on
  // the calling thread.
  const size_t width = std::max<size_t>(1, options.num_workers);
  ExecutionCore* core = fallback_core_.Get(options.core, width);
  const double base = clock != nullptr ? clock->Now() : 0;
  StatusOr<double> makespan = core->RunGraph(deps, run_task, width, base);
  const bool failed = !makespan.ok();
  if (failed && !makespan.status().IsIncompatible()) return makespan.status();

  // On a runtime incompatibility the components processed before the
  // failure still burned their time (the baselines' behaviour in Fig. 5):
  // charge the partial makespan. A streamed reuse whose consumer was
  // cancelled recorded only its first-chunk time; the failed run still pays
  // the producer's full finish.
  double finish_s = failed ? base : *makespan;
  for (TaskOutcome& slot : outcomes) {
    if (!slot.processed) continue;
    if (failed) {
      finish_s = std::max(finish_s, slot.finish_s);
      if (slot.streamed) finish_s = std::max(finish_s, slot.stream.ready_at_s);
    }
    if (slot.has_score) {
      result.score = slot.score;
      result.metric = slot.metric;
      result.metrics = slot.metrics;
    }
    if (slot.info.kind == ComponentKind::kModel) {
      result.time.train_s += slot.info.exec_s;
    } else {
      result.time.preprocess_s += slot.info.exec_s;
    }
    result.time.storage_s += slot.info.storage_s;
    result.components.push_back(std::move(slot.info));
  }
  if (clock != nullptr) clock->AdvanceTo(finish_s);
  if (failed) {
    result.compatibility_failure = true;
    result.failed_component = failed_component;
    return result;
  }

  // Assemble the commit-ready snapshot.
  for (size_t i = 0; i < n; ++i) {
    version::ComponentRecord rec = order[i]->ToRecord();
    rec.output_id = result.components[i].output_id;
    result.snapshot.components.push_back(std::move(rec));
  }
  result.snapshot.score = result.score;
  result.snapshot.metric = result.metric;
  result.snapshot.metrics = result.metrics;
  return result;
}

}  // namespace mlcask::pipeline
