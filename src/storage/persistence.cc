#include "storage/persistence.h"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/json.h"

namespace mlcask::storage {

namespace fs = std::filesystem;

namespace {

std::string ChunkPath(const std::string& dir, const Hash256& hash) {
  std::string hex = hash.ToHex();
  return dir + "/chunks/" + hex.substr(0, 2) + "/" + hex + ".chunk";
}

Status WriteFileAtomic(const std::string& path, const std::string& contents) {
  std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::Internal("cannot open '" + tmp + "' for writing");
    }
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size()));
    if (!out) {
      return Status::Internal("short write to '" + tmp + "'");
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    return Status::Internal("rename '" + tmp + "' failed: " + ec.message());
  }
  return Status::Ok();
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open '" + path + "'");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

Json StatsToJson(const EngineStats& s) {
  Json j = Json::Object();
  j.Set("logical_bytes", Json::Int(static_cast<int64_t>(s.logical_bytes)));
  j.Set("physical_bytes", Json::Int(static_cast<int64_t>(s.physical_bytes)));
  j.Set("storage_time_s", Json::Number(s.storage_time_s));
  j.Set("puts", Json::Int(static_cast<int64_t>(s.puts)));
  j.Set("gets", Json::Int(static_cast<int64_t>(s.gets)));
  return j;
}

EngineStats StatsFromJson(const Json& j) {
  EngineStats s;
  s.logical_bytes = static_cast<uint64_t>(j.GetInt("logical_bytes"));
  s.physical_bytes = static_cast<uint64_t>(j.GetInt("physical_bytes"));
  s.storage_time_s = j.GetDouble("storage_time_s");
  s.puts = static_cast<uint64_t>(j.GetInt("puts"));
  s.gets = static_cast<uint64_t>(j.GetInt("gets"));
  return s;
}

}  // namespace

Status SaveEngine(const ForkBaseEngine& engine, const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir + "/chunks", ec);
  if (ec) {
    return Status::Internal("cannot create '" + dir + "': " + ec.message());
  }

  // Chunk files first (content-addressed; skip any already on disk).
  Status chunk_status = Status::Ok();
  engine.chunk_store().ForEachChunk([&](const Chunk& chunk, uint64_t refs) {
    (void)refs;
    if (!chunk_status.ok()) return;
    std::string path = ChunkPath(dir, chunk.hash());
    if (fs::exists(path)) return;  // immutable: content already saved
    fs::create_directories(fs::path(path).parent_path(), ec);
    if (ec) {
      chunk_status = Status::Internal("mkdir failed: " + ec.message());
      return;
    }
    std::string payload;
    payload.push_back(static_cast<char>(chunk.type()));
    payload.append(chunk.data());
    chunk_status = WriteFileAtomic(path, payload);
  });
  MLCASK_RETURN_IF_ERROR(chunk_status);

  // Manifest: refcounts, blob handles, key index, stats.
  Json manifest = Json::Object();
  manifest.Set("format", Json::Int(1));

  Json chunks = Json::Object();
  engine.chunk_store().ForEachChunk([&](const Chunk& chunk, uint64_t refs) {
    chunks.Set(chunk.hash().ToHex(), Json::Int(static_cast<int64_t>(refs)));
  });
  manifest.Set("chunk_refs", std::move(chunks));

  Json blobs = Json::Object();
  for (const auto& [id, ref] : engine.blobs()) {
    Json b = Json::Object();
    b.Set("root", Json::Str(ref.root.ToHex()));
    b.Set("size", Json::Int(static_cast<int64_t>(ref.size)));
    b.Set("num_chunks", Json::Int(ref.num_chunks));
    blobs.Set(id.ToHex(), std::move(b));
  }
  manifest.Set("blobs", std::move(blobs));

  Json keys = Json::Object();
  for (const auto& [key, versions] : engine.keys()) {
    Json arr = Json::Array();
    for (const Hash256& id : versions) arr.Append(Json::Str(id.ToHex()));
    keys.Set(key, std::move(arr));
  }
  manifest.Set("keys", std::move(keys));
  manifest.Set("stats", StatsToJson(engine.stats()));

  return WriteFileAtomic(dir + "/manifest.json", manifest.Dump());
}

StatusOr<std::unique_ptr<ForkBaseEngine>> LoadEngine(
    const std::string& dir, StorageTimeModel time_model) {
  MLCASK_ASSIGN_OR_RETURN(std::string manifest_bytes,
                          ReadFile(dir + "/manifest.json"));
  MLCASK_ASSIGN_OR_RETURN(Json manifest, Json::Parse(manifest_bytes));
  if (manifest.GetInt("format") != 1) {
    return Status::Corruption("unknown checkpoint format");
  }

  auto engine = std::make_unique<ForkBaseEngine>(time_model);

  const Json* chunk_refs = manifest.Get("chunk_refs");
  if (chunk_refs == nullptr || !chunk_refs->is_object()) {
    return Status::Corruption("manifest missing chunk_refs");
  }
  for (const auto& [hex, refs] : chunk_refs->items()) {
    Hash256 hash;
    if (!Hash256::FromHex(hex, &hash)) {
      return Status::Corruption("bad chunk hash in manifest: " + hex);
    }
    MLCASK_ASSIGN_OR_RETURN(std::string payload,
                            ReadFile(ChunkPath(dir, hash)));
    if (payload.empty()) {
      return Status::Corruption("empty chunk file for " + hex);
    }
    ChunkType type = static_cast<ChunkType>(payload[0]);
    std::string_view data(payload.data() + 1, payload.size() - 1);
    if (Chunk::ComputeHash(type, data) != hash) {
      return Status::Corruption("chunk content does not match address " + hex);
    }
    MLCASK_RETURN_IF_ERROR(engine->mutable_chunk_store()->RestoreChunk(
        type, data, static_cast<uint64_t>(refs.AsInt())));
  }

  const Json* blobs = manifest.Get("blobs");
  const Json* keys = manifest.Get("keys");
  if (blobs == nullptr || keys == nullptr) {
    return Status::Corruption("manifest missing blobs/keys");
  }
  // Build id -> BlobRef, then re-home under keys preserving version order.
  std::unordered_map<std::string, BlobRef> refs_by_hex;
  for (const auto& [hex, b] : blobs->items()) {
    BlobRef ref;
    if (!Hash256::FromHex(b.GetString("root"), &ref.root)) {
      return Status::Corruption("bad blob root for " + hex);
    }
    ref.size = static_cast<uint64_t>(b.GetInt("size"));
    ref.num_chunks = static_cast<uint32_t>(b.GetInt("num_chunks"));
    refs_by_hex[hex] = ref;
  }
  for (const auto& [key, versions] : keys->items()) {
    if (!versions.is_array()) {
      return Status::Corruption("bad version list for key " + key);
    }
    for (size_t i = 0; i < versions.size(); ++i) {
      const std::string& hex = versions.at(i).AsString();
      auto it = refs_by_hex.find(hex);
      if (it == refs_by_hex.end()) {
        return Status::Corruption("key '" + key +
                                  "' references unknown version " + hex);
      }
      Hash256 id;
      if (!Hash256::FromHex(hex, &id)) {
        return Status::Corruption("bad version id " + hex);
      }
      MLCASK_RETURN_IF_ERROR(engine->RestoreVersion(key, id, it->second));
    }
  }

  const Json* stats = manifest.Get("stats");
  if (stats != nullptr) {
    engine->RestoreStats(StatsFromJson(*stats));
  }
  return engine;
}


// ------------------------------------------------------ durable decorator ---

StatusOr<std::unique_ptr<DurableForkBaseEngine>> DurableForkBaseEngine::Open(
    const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create data dir '" + dir +
                            "': " + ec.message());
  }
  std::unique_ptr<ForkBaseEngine> inner;
  if (fs::exists(dir + "/manifest.json")) {
    MLCASK_ASSIGN_OR_RETURN(inner, LoadEngine(dir));
  } else {
    inner = std::make_unique<ForkBaseEngine>();
  }
  return std::unique_ptr<DurableForkBaseEngine>(
      new DurableForkBaseEngine(std::move(inner), dir));
}

StatusOr<PutResult> DurableForkBaseEngine::Put(const std::string& key,
                                               std::string_view data) {
  MLCASK_ASSIGN_OR_RETURN(PutResult result, inner_->Put(key, data));
  MLCASK_RETURN_IF_ERROR(SaveEngine(*inner_, dir_));
  return result;
}

StatusOr<std::vector<PutResult>> DurableForkBaseEngine::PutMany(
    const std::vector<PutRequest>& batch) {
  MLCASK_ASSIGN_OR_RETURN(std::vector<PutResult> results,
                          inner_->PutMany(batch));
  MLCASK_RETURN_IF_ERROR(SaveEngine(*inner_, dir_));
  return results;
}

StatusOr<PutResult> DurableForkBaseEngine::CopyVersion(
    const std::string& key, const Hash256& source) {
  MLCASK_ASSIGN_OR_RETURN(PutResult result, inner_->CopyVersion(key, source));
  MLCASK_RETURN_IF_ERROR(SaveEngine(*inner_, dir_));
  return result;
}

StatusOr<std::string> DurableForkBaseEngine::Get(const std::string& key) {
  return inner_->Get(key);
}

StatusOr<std::string> DurableForkBaseEngine::GetVersion(const Hash256& id) {
  return inner_->GetVersion(id);
}

bool DurableForkBaseEngine::HasVersion(const Hash256& id) const {
  return inner_->HasVersion(id);
}

std::vector<Hash256> DurableForkBaseEngine::Versions(
    const std::string& key) const {
  return inner_->Versions(key);
}

std::vector<std::pair<std::string, Hash256>>
DurableForkBaseEngine::ListAllVersions() const {
  return inner_->ListAllVersions();
}

StatusOr<uint64_t> DurableForkBaseEngine::DeleteVersion(const Hash256& id) {
  MLCASK_ASSIGN_OR_RETURN(uint64_t freed, inner_->DeleteVersion(id));
  MLCASK_RETURN_IF_ERROR(SaveEngine(*inner_, dir_));
  return freed;
}

StatusOr<MigrateBatchResult> DurableForkBaseEngine::MigrateBatch(
    const std::vector<MigrateKeyVersions>& batch) {
  MLCASK_ASSIGN_OR_RETURN(MigrateBatchResult result,
                          inner_->MigrateBatch(batch));
  if (result.applied_versions > 0) {
    MLCASK_RETURN_IF_ERROR(SaveEngine(*inner_, dir_));
  }
  return result;
}

EngineStats DurableForkBaseEngine::stats() const { return inner_->stats(); }

std::string DurableForkBaseEngine::Name() const {
  return "durable(" + inner_->Name() + ")";
}

double DurableForkBaseEngine::ReadCost(uint64_t bytes) const {
  return inner_->ReadCost(bytes);
}

}  // namespace mlcask::storage
