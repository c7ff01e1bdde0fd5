#include "storage/fault_injector.h"

#include <cstdlib>
#include <utility>

#include "common/strings.h"

namespace mlcask::storage {

namespace {

// Splits "key=value" around the first '='; returns false when absent.
bool SplitKv(std::string_view pair, std::string_view* key,
             std::string_view* value) {
  size_t eq = pair.find('=');
  if (eq == std::string_view::npos) return false;
  *key = pair.substr(0, eq);
  *value = pair.substr(eq + 1);
  return true;
}

StatusOr<double> ParseProb(std::string_view key, std::string_view value) {
  char* end = nullptr;
  std::string copy(value);
  double p = std::strtod(copy.c_str(), &end);
  if (end == copy.c_str() || *end != '\0' || p < 0 || p > 1) {
    return Status::InvalidArgument(
        StrFormat("fault spec: %.*s wants a probability in [0,1], got '%.*s'",
                  static_cast<int>(key.size()), key.data(),
                  static_cast<int>(value.size()), value.data()));
  }
  return p;
}

StatusOr<uint64_t> ParseU64(std::string_view key, std::string_view value) {
  char* end = nullptr;
  std::string copy(value);
  unsigned long long v = std::strtoull(copy.c_str(), &end, 10);
  if (end == copy.c_str() || *end != '\0') {
    return Status::InvalidArgument(
        StrFormat("fault spec: %.*s wants an integer, got '%.*s'",
                  static_cast<int>(key.size()), key.data(),
                  static_cast<int>(value.size()), value.data()));
  }
  return static_cast<uint64_t>(v);
}

}  // namespace

StatusOr<FaultSpec> FaultSpec::Parse(std::string_view spec) {
  FaultSpec out;
  std::string_view rest = spec;
  while (!rest.empty()) {
    size_t comma = rest.find(',');
    std::string_view pair = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view()
                                           : rest.substr(comma + 1);
    if (pair.empty()) continue;
    std::string_view key, value;
    if (!SplitKv(pair, &key, &value)) {
      return Status::InvalidArgument(
          StrFormat("fault spec: '%.*s' is not key=value",
                    static_cast<int>(pair.size()), pair.data()));
    }
    if (key == "seed") {
      MLCASK_ASSIGN_OR_RETURN(out.seed, ParseU64(key, value));
    } else if (key == "drop") {
      MLCASK_ASSIGN_OR_RETURN(out.drop, ParseProb(key, value));
    } else if (key == "dropafter") {
      MLCASK_ASSIGN_OR_RETURN(out.drop_after, ParseProb(key, value));
    } else if (key == "garble") {
      MLCASK_ASSIGN_OR_RETURN(out.garble, ParseProb(key, value));
    } else if (key == "delay_ms") {
      // M:P — milliseconds and the probability of applying them.
      size_t colon = value.find(':');
      if (colon == std::string_view::npos) {
        return Status::InvalidArgument(
            "fault spec: delay_ms wants M:P (millis and probability)");
      }
      MLCASK_ASSIGN_OR_RETURN(out.delay_ms,
                              ParseU64(key, value.substr(0, colon)));
      MLCASK_ASSIGN_OR_RETURN(out.delay_prob,
                              ParseProb(key, value.substr(colon + 1)));
    } else if (key == "drip_ms_per_kib") {
      MLCASK_ASSIGN_OR_RETURN(out.drip_ms_per_kib, ParseU64(key, value));
    } else if (key == "diskfull") {
      MLCASK_ASSIGN_OR_RETURN(out.disk_full, ParseProb(key, value));
    } else if (key == "kill_after") {
      MLCASK_ASSIGN_OR_RETURN(out.kill_after, ParseU64(key, value));
    } else {
      return Status::InvalidArgument(
          StrFormat("fault spec: unknown key '%.*s'",
                    static_cast<int>(key.size()), key.data()));
    }
  }
  return out;
}

std::string FaultSpec::ToString() const {
  std::string out = StrFormat("seed=%llu", (unsigned long long)seed);
  if (drop > 0) out += StrFormat(",drop=%g", drop);
  if (drop_after > 0) out += StrFormat(",dropafter=%g", drop_after);
  if (garble > 0) out += StrFormat(",garble=%g", garble);
  if (delay_prob > 0) {
    out += StrFormat(",delay_ms=%llu:%g", (unsigned long long)delay_ms,
                     delay_prob);
  }
  if (drip_ms_per_kib > 0) {
    out += StrFormat(",drip_ms_per_kib=%llu",
                     (unsigned long long)drip_ms_per_kib);
  }
  if (disk_full > 0) out += StrFormat(",diskfull=%g", disk_full);
  if (kill_after > 0) {
    out += StrFormat(",kill_after=%llu", (unsigned long long)kill_after);
  }
  return out;
}

SendFault FaultInjector::OnClientSend() {
  SendFault fault;
  std::lock_guard<std::mutex> lock(mu_);
  // One connection-killing action at most; drawn in fixed order so a spec
  // with several probabilities still yields one deterministic sequence.
  if (spec_.drop > 0 && rng_.Bernoulli(spec_.drop)) {
    fault.drop_before = true;
  } else if (spec_.drop_after > 0 && rng_.Bernoulli(spec_.drop_after)) {
    fault.drop_after = true;
  } else if (spec_.garble > 0 && rng_.Bernoulli(spec_.garble)) {
    fault.garble = true;
  }
  if (spec_.delay_prob > 0 && rng_.Bernoulli(spec_.delay_prob)) {
    fault.delay_ms = spec_.delay_ms;
  }
  return fault;
}

JobFault FaultInjector::OnServerJob(size_t payload_bytes) {
  JobFault fault;
  uint64_t seen = jobs_seen_.fetch_add(1) + 1;
  if (spec_.kill_after > 0 && seen == spec_.kill_after) {
    fault.kill = true;
    return fault;
  }
  if (spec_.drip_ms_per_kib > 0) {
    fault.delay_ms += spec_.drip_ms_per_kib * (payload_bytes >> 10);
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (spec_.delay_prob > 0 && rng_.Bernoulli(spec_.delay_prob)) {
    fault.delay_ms += spec_.delay_ms;
  }
  return fault;
}

bool FaultInjector::OnEngineWrite() {
  if (spec_.disk_full <= 0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  return rng_.Bernoulli(spec_.disk_full);
}

Status FaultyEngine::Gate(bool mutation) {
  if (unavailable_.load()) return Status::Unavailable("shard down");
  if (shed_.load()) return Status::ResourceExhausted("shard shedding");
  if (mutation && injector_ && injector_->OnEngineWrite()) {
    return Status::Unavailable("disk full (injected)");
  }
  return Status::Ok();
}

StatusOr<PutResult> FaultyEngine::Put(const std::string& key,
                                      std::string_view data) {
  MLCASK_RETURN_IF_ERROR(Gate(/*mutation=*/true));
  return inner_->Put(key, data);
}

StatusOr<std::vector<PutResult>> FaultyEngine::PutMany(
    const std::vector<PutRequest>& batch) {
  MLCASK_RETURN_IF_ERROR(Gate(/*mutation=*/true));
  return inner_->PutMany(batch);
}

StatusOr<PutResult> FaultyEngine::PutWithRecipe(const std::string& key,
                                                std::string_view data,
                                                std::string_view index) {
  MLCASK_RETURN_IF_ERROR(Gate(/*mutation=*/true));
  return inner_->PutWithRecipe(key, data, index);
}

StatusOr<std::vector<PutResult>> FaultyEngine::PutManyWithRecipes(
    const std::vector<RecipePut>& batch) {
  MLCASK_RETURN_IF_ERROR(Gate(/*mutation=*/true));
  return inner_->PutManyWithRecipes(batch);
}

StatusOr<PutResult> FaultyEngine::CopyVersion(const std::string& key,
                                              const Hash256& source) {
  MLCASK_RETURN_IF_ERROR(Gate(/*mutation=*/true));
  return inner_->CopyVersion(key, source);
}

StatusOr<std::string> FaultyEngine::Get(const std::string& key) {
  MLCASK_RETURN_IF_ERROR(Gate(/*mutation=*/false));
  return inner_->Get(key);
}

StatusOr<std::string> FaultyEngine::GetVersion(const Hash256& id) {
  MLCASK_RETURN_IF_ERROR(Gate(/*mutation=*/false));
  return inner_->GetVersion(id);
}

StatusOr<std::string> FaultyEngine::GetWithRecipe(const std::string& key,
                                                  std::string* index) {
  MLCASK_RETURN_IF_ERROR(Gate(/*mutation=*/false));
  return inner_->GetWithRecipe(key, index);
}

StatusOr<std::string> FaultyEngine::GetVersionWithRecipe(const Hash256& id,
                                                         std::string* index) {
  MLCASK_RETURN_IF_ERROR(Gate(/*mutation=*/false));
  return inner_->GetVersionWithRecipe(id, index);
}

// HasVersion/Versions/ListAllVersions have no error channel; a down shard
// simply reports nothing, which is exactly what a dead peer looks like.
bool FaultyEngine::HasVersion(const Hash256& id) const {
  if (unavailable_.load()) return false;
  return inner_->HasVersion(id);
}

std::vector<Hash256> FaultyEngine::Versions(const std::string& key) const {
  if (unavailable_.load()) return {};
  return inner_->Versions(key);
}

std::vector<std::pair<std::string, Hash256>> FaultyEngine::ListAllVersions()
    const {
  if (unavailable_.load()) return {};
  return inner_->ListAllVersions();
}

StatusOr<uint64_t> FaultyEngine::DeleteVersion(const Hash256& id) {
  MLCASK_RETURN_IF_ERROR(Gate(/*mutation=*/true));
  return inner_->DeleteVersion(id);
}

StatusOr<MigrateBatchResult> FaultyEngine::MigrateBatch(
    const std::vector<MigrateKeyVersions>& batch) {
  MLCASK_RETURN_IF_ERROR(Gate(/*mutation=*/true));
  return inner_->MigrateBatch(batch);
}

EngineStats FaultyEngine::stats() const { return inner_->stats(); }

std::string FaultyEngine::Name() const { return inner_->Name(); }

double FaultyEngine::ReadCost(uint64_t bytes) const {
  return inner_->ReadCost(bytes);
}

Deferred<PutResult> FaultyEngine::AsyncPut(const std::string& key,
                                           std::string_view data) {
  Status gate = Gate(/*mutation=*/true);
  if (!gate.ok()) return Deferred<PutResult>(StatusOr<PutResult>(gate));
  return inner_->AsyncPut(key, data);
}

Deferred<std::vector<PutResult>> FaultyEngine::AsyncPutMany(
    const std::vector<PutRequest>& batch) {
  Status gate = Gate(/*mutation=*/true);
  if (!gate.ok()) {
    return Deferred<std::vector<PutResult>>(
        StatusOr<std::vector<PutResult>>(gate));
  }
  return inner_->AsyncPutMany(batch);
}

Deferred<std::vector<PutResult>> FaultyEngine::AsyncPutManyWithRecipes(
    const std::vector<RecipePut>& batch) {
  Status gate = Gate(/*mutation=*/true);
  if (!gate.ok()) {
    return Deferred<std::vector<PutResult>>(
        StatusOr<std::vector<PutResult>>(gate));
  }
  return inner_->AsyncPutManyWithRecipes(batch);
}

Deferred<PutResult> FaultyEngine::AsyncCopyVersion(const std::string& key,
                                                   const Hash256& source) {
  Status gate = Gate(/*mutation=*/true);
  if (!gate.ok()) return Deferred<PutResult>(StatusOr<PutResult>(gate));
  return inner_->AsyncCopyVersion(key, source);
}

Deferred<std::string> FaultyEngine::AsyncGetVersion(const Hash256& id) {
  Status gate = Gate(/*mutation=*/false);
  if (!gate.ok()) return Deferred<std::string>(StatusOr<std::string>(gate));
  return inner_->AsyncGetVersion(id);
}

Deferred<bool> FaultyEngine::AsyncHasVersion(const Hash256& id) const {
  return Deferred<bool>(StatusOr<bool>(HasVersion(id)));
}

Deferred<uint64_t> FaultyEngine::AsyncDeleteVersion(const Hash256& id) {
  Status gate = Gate(/*mutation=*/true);
  if (!gate.ok()) return Deferred<uint64_t>(StatusOr<uint64_t>(gate));
  return inner_->AsyncDeleteVersion(id);
}

Deferred<MigrateBatchResult> FaultyEngine::AsyncMigrateBatch(
    const std::vector<MigrateKeyVersions>& batch) {
  Status gate = Gate(/*mutation=*/true);
  if (!gate.ok()) {
    return Deferred<MigrateBatchResult>(StatusOr<MigrateBatchResult>(gate));
  }
  return inner_->AsyncMigrateBatch(batch);
}

}  // namespace mlcask::storage
