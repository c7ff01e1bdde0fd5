// The binary wire codec (wire version 2): golden encoded-byte vectors that
// freeze the layout, zero-copy guarantees (decoded payload views point INTO
// the message buffer), request/response round trips for every RPC type,
// chunk-stream reassembly with manifest verification, the receive-side
// chunk cache's dedup/eviction accounting, and a proxy over the service
// agreeing with a direct engine.

#include "storage/wire_codec.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "storage/forkbase_engine.h"
#include "storage/remote_engine.h"
#include "storage/transport.h"

namespace mlcask::storage {
namespace {

Hash256 FilledId(uint8_t byte) {
  Hash256 id;
  id.bytes.fill(byte);
  return id;
}

// --------------------------------------------------------------- varint ---

TEST(WireCodecTest, VarintRoundTripsBoundaries) {
  const uint64_t values[] = {0,    1,    127,        128,
                             300,  16383, 16384,     (1ull << 32) - 1,
                             1ull << 32, ~0ull};
  for (uint64_t v : values) {
    std::string encoded;
    wire::PutVarint(&encoded, v);
    std::string_view in(encoded);
    uint64_t decoded = 0;
    ASSERT_TRUE(wire::GetVarint(&in, &decoded)) << v;
    EXPECT_EQ(decoded, v);
    EXPECT_TRUE(in.empty());
  }
  // Truncated continuation byte fails cleanly.
  std::string_view truncated("\x80", 1);
  uint64_t unused = 0;
  EXPECT_FALSE(wire::GetVarint(&truncated, &unused));
}

// --------------------------------------------------------------- golden ---
// These vectors freeze the on-wire layout: a refactor that changes any byte
// here is a wire-format break and must bump kWireVersion instead.

TEST(WireCodecTest, GoldenPutRequest) {
  const std::string encoded = wire::EncodePutRequest("k", "v");
  // magic, opcode kPut, meta_len 3, field key (tag1|bytes)=0x05, len 1,
  // 'k', then the body verbatim.
  const std::string expected = std::string("\xBC\x01\x03\x05\x01", 5) + "kv";
  EXPECT_EQ(encoded, expected);
}

TEST(WireCodecTest, GoldenIdRequest) {
  const std::string encoded =
      wire::EncodeIdRequest(wire::Method::kGetVersion, FilledId(0xAB));
  ASSERT_EQ(encoded.size(), 3u + 1 + 32);
  EXPECT_EQ(static_cast<uint8_t>(encoded[0]), 0xBC);  // magic
  EXPECT_EQ(encoded[1], 0x04);                        // opcode kGetVersion
  EXPECT_EQ(encoded[2], 0x21);  // meta_len 33: field key + 32 raw bytes
  EXPECT_EQ(encoded[3], 0x0A);  // field key (tag2 | hash kind)
  for (size_t i = 4; i < encoded.size(); ++i) {
    EXPECT_EQ(static_cast<uint8_t>(encoded[i]), 0xAB);
  }
}

TEST(WireCodecTest, GoldenCopyVersionRequest) {
  // magic, opcode kCopyVersion (13), meta_len 36: key field (0x05, len 1,
  // 'k') then the source id (tag2 | hash kind = 0x0A, 32 raw bytes); no
  // body — the value never crosses the wire.
  const std::string expected =
      std::string("\xBC\x0D\x24\x05\x01k\x0A", 7) + std::string(32, '\xCD');
  EXPECT_EQ(wire::EncodeCopyVersionRequest("k", FilledId(0xCD)), expected);
}

TEST(WireCodecTest, GoldenReadCostRequest) {
  // varint 300 = 0xAC 0x02; field key (tag3 | varint kind) = 0x0C.
  EXPECT_EQ(wire::EncodeReadCostRequest(300),
            std::string("\xBC\x0B\x03\x0C\xAC\x02", 6));
}

TEST(WireCodecTest, GoldenHasAndDataResponses) {
  EXPECT_EQ(wire::EncodeHasResponse(true),
            std::string("\xBC\x00\x02\x04\x01", 5));
  EXPECT_EQ(wire::EncodeDataResponse("hello"),
            std::string("\xBC\x00\x00", 3) + "hello");
}

// ------------------------------------------------------------ zero copy ---

TEST(WireCodecTest, DecodedRequestBodyIsAViewIntoTheMessage) {
  const std::string payload(100 * 1024, 'x');
  const std::string message = wire::EncodePutRequest("model/w", payload);
  auto request = wire::DecodeRequest(message);
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->method, wire::Method::kPut);
  EXPECT_EQ(request->key, "model/w");
  EXPECT_EQ(request->body, payload);
  // THE zero-copy property: the body view aliases the message buffer (its
  // tail, verbatim) — no intermediate copy, no hex, no re-encode.
  EXPECT_EQ(request->body.data(),
            message.data() + message.size() - payload.size());
}

TEST(WireCodecTest, DecodedDataResponseIsAViewIntoTheMessage) {
  const std::string value(64 * 1024, 'y');
  const std::string message = wire::EncodeDataResponse(value);
  auto data = wire::DecodeDataResponse(message);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, value);
  EXPECT_EQ(data->data(), message.data() + message.size() - value.size());
}

// ---------------------------------------------------- codec round trips ---

TEST(WireCodecTest, RequestRoundTripsEveryMethod) {
  // Decoded requests are VIEWS into the message, so each encoded message
  // lives in a named local for the duration of its assertions.
  const std::string key_message =
      wire::EncodeKeyRequest(wire::Method::kVersions, "alpha");
  auto key_request = wire::DecodeRequest(key_message);
  ASSERT_TRUE(key_request.ok());
  EXPECT_EQ(key_request->method, wire::Method::kVersions);
  EXPECT_EQ(key_request->key, "alpha");

  const std::string id_message =
      wire::EncodeIdRequest(wire::Method::kHasVersion, FilledId(0x5A));
  auto id_request = wire::DecodeRequest(id_message);
  ASSERT_TRUE(id_request.ok());
  EXPECT_EQ(id_request->method, wire::Method::kHasVersion);
  EXPECT_EQ(id_request->id.bytes, FilledId(0x5A).bytes);

  const std::string plain_message =
      wire::EncodePlainRequest(wire::Method::kStats);
  auto plain = wire::DecodeRequest(plain_message);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->method, wire::Method::kStats);

  const std::string cost_message = wire::EncodeReadCostRequest(1u << 20);
  auto cost = wire::DecodeRequest(cost_message);
  ASSERT_TRUE(cost.ok());
  EXPECT_EQ(cost->method, wire::Method::kReadCost);
  EXPECT_EQ(cost->bytes, 1u << 20);

  std::vector<PutRequest> batch = {{"a", "data-a"}, {"b", std::string(1000, 'b')}};
  const std::string many_message = wire::EncodePutManyRequest(batch);
  auto many = wire::DecodeRequest(many_message);
  ASSERT_TRUE(many.ok());
  EXPECT_EQ(many->method, wire::Method::kPutMany);
  ASSERT_EQ(many->batch.size(), 2u);
  EXPECT_EQ(many->batch[0].first, "a");
  EXPECT_EQ(many->batch[0].second, "data-a");
  EXPECT_EQ(many->batch[1].first, "b");
  EXPECT_EQ(many->batch[1].second, std::string(1000, 'b'));

  const std::string copy_message =
      wire::EncodeCopyVersionRequest("library/m", FilledId(0x3C), "sess.9");
  auto copy = wire::DecodeRequest(copy_message);
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(copy->method, wire::Method::kCopyVersion);
  EXPECT_EQ(copy->key, "library/m");
  EXPECT_EQ(copy->id.bytes, FilledId(0x3C).bytes);
  EXPECT_EQ(copy->replay_token, "sess.9");
  EXPECT_TRUE(copy->body.empty());
}

TEST(WireCodecTest, ResponseRoundTripsEveryShape) {
  PutResult result;
  result.id = FilledId(0x11);
  result.logical_bytes = 12345;
  result.new_physical_bytes = 678;
  result.storage_time_s = 0.25;
  result.deduplicated = true;
  auto put = wire::DecodePutResponse(wire::EncodePutResponse(result));
  ASSERT_TRUE(put.ok());
  EXPECT_EQ(put->id.bytes, result.id.bytes);
  EXPECT_EQ(put->logical_bytes, 12345u);
  EXPECT_EQ(put->new_physical_bytes, 678u);
  EXPECT_DOUBLE_EQ(put->storage_time_s, 0.25);
  EXPECT_TRUE(put->deduplicated);

  std::vector<PutResult> results = {result, result};
  results[1].deduplicated = false;
  auto many =
      wire::DecodePutManyResponse(wire::EncodePutManyResponse(results), 2);
  ASSERT_TRUE(many.ok());
  ASSERT_EQ(many->size(), 2u);
  EXPECT_TRUE((*many)[0].deduplicated);
  EXPECT_FALSE((*many)[1].deduplicated);
  // Count mismatch is corruption, not a silent short vector.
  EXPECT_FALSE(
      wire::DecodePutManyResponse(wire::EncodePutManyResponse(results), 3)
          .ok());

  auto has = wire::DecodeHasResponse(wire::EncodeHasResponse(false));
  ASSERT_TRUE(has.ok());
  EXPECT_FALSE(*has);

  auto freed = wire::DecodeFreedResponse(wire::EncodeFreedResponse(4096));
  ASSERT_TRUE(freed.ok());
  EXPECT_EQ(*freed, 4096u);

  std::vector<Hash256> ids = {FilledId(1), FilledId(2), FilledId(3)};
  auto versions =
      wire::DecodeVersionsResponse(wire::EncodeVersionsResponse(ids));
  ASSERT_TRUE(versions.ok());
  ASSERT_EQ(versions->size(), 3u);
  EXPECT_EQ((*versions)[2].bytes, FilledId(3).bytes);

  std::vector<std::pair<std::string, Hash256>> entries = {
      {"k1", FilledId(7)}, {"k2", FilledId(8)}};
  auto decoded_entries =
      wire::DecodeEntriesResponse(wire::EncodeEntriesResponse(entries));
  ASSERT_TRUE(decoded_entries.ok());
  ASSERT_EQ(decoded_entries->size(), 2u);
  EXPECT_EQ((*decoded_entries)[1].first, "k2");
  EXPECT_EQ((*decoded_entries)[1].second.bytes, FilledId(8).bytes);

  EngineStats stats;
  stats.logical_bytes = 10;
  stats.physical_bytes = 20;
  stats.storage_time_s = 1.5;
  stats.puts = 3;
  stats.gets = 4;
  auto decoded_stats =
      wire::DecodeStatsResponse(wire::EncodeStatsResponse(stats));
  ASSERT_TRUE(decoded_stats.ok());
  EXPECT_EQ(decoded_stats->logical_bytes, 10u);
  EXPECT_EQ(decoded_stats->physical_bytes, 20u);
  EXPECT_DOUBLE_EQ(decoded_stats->storage_time_s, 1.5);
  EXPECT_EQ(decoded_stats->puts, 3u);
  EXPECT_EQ(decoded_stats->gets, 4u);

  auto cost = wire::DecodeCostResponse(wire::EncodeCostResponse(0.125));
  ASSERT_TRUE(cost.ok());
  EXPECT_DOUBLE_EQ(*cost, 0.125);

  // Errors round-trip the exact remote Status.
  std::string_view rest;
  Status decoded = wire::DecodeResponseStatus(
      wire::EncodeErrorResponse(Status::NotFound("no version abc")), &rest);
  EXPECT_EQ(decoded.code(), StatusCode::kNotFound);
  EXPECT_EQ(decoded.message(), "no version abc");
}

TEST(WireCodecTest, MalformedRequestsProduceErrorsNotCrashes) {
  // Every input gets a binary error response from the service and never
  // reaches the engine. The JSON-era requests of the retired version-1
  // wire are malformed input too; a replay token inside one claims no
  // ledger slot.
  struct CountingEngine : ForkBaseEngine {
    std::string Name() const override {
      name_calls += 1;
      return ForkBaseEngine::Name();
    }
    mutable int name_calls = 0;
  };
  CountingEngine engine;
  StorageEngineService service(&engine);
  const std::string inputs[] = {
      std::string("\xBC\x63", 2) + "!!!!",  // unknown opcode
      std::string("\xBC\x01\x7F\x05", 4),  // truncated meta section
      "{\"method\":\"name\"}",
      "{\"method\":\"put\",\"key\":\"k\",\"data\":\"00\","
      "\"replay_token\":\"sess.1\"}",
  };
  for (const std::string& input : inputs) {
    std::string_view rest;
    EXPECT_FALSE(
        wire::DecodeResponseStatus(service.Handle(input), &rest).ok())
        << input;
  }
  EXPECT_EQ(engine.name_calls, 0);
  EXPECT_EQ(engine.stats().puts, 0u);
  EXPECT_EQ(service.replay_hits(), 0u);
}

TEST(WireCodecTest, PutManyHostileCountIsRejectedNotReserved) {
  // A put_many whose count varint says 2^64-1 entries but whose body holds
  // none. The count must be rejected against the body size BEFORE reserve()
  // touches it — a thrown length_error would escape the dispatch path and
  // kill the server instead of producing an error response.
  std::string meta;
  wire::PutVarint(&meta, (4u << 2) | 0);  // kTagCount, varint kind
  wire::PutVarint(&meta, ~0ull);
  std::string message;
  message.push_back(static_cast<char>(wire::kBinaryMagic));
  message.push_back(static_cast<char>(wire::Method::kPutMany));
  wire::PutVarint(&message, meta.size());
  message.append(meta);  // empty body follows

  auto decoded = wire::DecodeRequest(message);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);

  // The full server path answers with a binary error, it does not crash.
  ForkBaseEngine engine;
  std::string_view rest;
  Status status = wire::DecodeResponseStatus(
      wire::DispatchBinary(&engine, message), &rest);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(WireCodecTest, EntriesResponseHugeKeyLenIsCorruptionNotOverflow) {
  // key_len near 2^64 makes `key_len + 32` wrap to a small number; the
  // bounds check must not use that sum or the decoder reads far out of the
  // buffer. A hostile ok-response: empty meta, body = huge key_len varint
  // plus a few real bytes.
  std::string message;
  message.push_back(static_cast<char>(wire::kBinaryMagic));
  message.push_back(0);          // status ok
  wire::PutVarint(&message, 0);  // empty meta
  wire::PutVarint(&message, ~0ull - 16);  // key_len: wraps if 32 is added
  message.append(40, 'x');

  auto decoded = wire::DecodeEntriesResponse(message);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

// ------------------------------------------------------- chunk streaming ---

TEST(WireCodecTest, StreamAssemblerReassemblesAndVerifies) {
  std::string value(3 * 1024 * 1024, '\0');
  for (size_t i = 0; i < value.size(); ++i) {
    value[i] = static_cast<char>((i * 2654435761u) >> 13);
  }
  const auto cuts = wire::WireChunker().Split(value);
  ASSERT_GT(cuts.size(), 1u);

  wire::StreamAssembler assembler(value.size() + 1024);
  Sha256 manifest;
  for (const auto& [offset, length] : cuts) {
    std::string_view chunk(value.data() + offset, length);
    const Hash256 address = wire::WireChunkAddress(chunk);
    manifest.Update(address.bytes.data(), address.bytes.size());
    ASSERT_TRUE(assembler.OnChunk(42, chunk).ok());
  }
  EXPECT_EQ(assembler.active_streams(), 1u);
  auto assembled = assembler.OnEnd(
      42, wire::EncodeChunkEnd(value.size(), cuts.size(), manifest.Finish()));
  ASSERT_TRUE(assembled.ok());
  EXPECT_EQ(*assembled, value);
  EXPECT_EQ(assembler.active_streams(), 0u);
}

TEST(WireCodecTest, StreamAssemblerRejectsManifestMismatch) {
  wire::StreamAssembler assembler(1 << 20);
  ASSERT_TRUE(assembler.OnChunk(7, "chunk-one").ok());
  auto bad = assembler.OnEnd(
      7, wire::EncodeChunkEnd(9, 1, FilledId(0xEE)));  // wrong manifest
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(assembler.active_streams(), 0u);  // stream is gone either way
}

TEST(WireCodecTest, StreamAssemblerRejectsEndWithoutStreamAndOverflow) {
  wire::StreamAssembler assembler(16);
  auto orphan =
      assembler.OnEnd(1, wire::EncodeChunkEnd(0, 0, FilledId(0)));
  ASSERT_FALSE(orphan.ok());
  EXPECT_EQ(orphan.status().code(), StatusCode::kCorruption);

  // A stream exceeding the cap dies at the offending chunk.
  ASSERT_TRUE(assembler.OnChunk(2, "0123456789").ok());
  Status overflow = assembler.OnChunk(2, "0123456789");
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.code(), StatusCode::kCorruption);
}

TEST(WireCodecTest, ChunkCacheDedupesAndEvicts) {
  wire::WireChunkCache cache(64);  // tiny: retains a handful of chunks
  const Hash256 a1 = cache.Add("chunk-aaaa");
  const Hash256 a2 = cache.Add("chunk-aaaa");  // identical: dedup hit
  EXPECT_EQ(a1.bytes, a2.bytes);
  ChunkStoreStats stats = cache.stats();
  EXPECT_GE(stats.dedup_hits, 1u);
  EXPECT_LE(stats.physical_bytes, 64u + 10u);

  // Push enough distinct chunks through to force eviction; the cache must
  // stay bounded and keep answering.
  for (int i = 0; i < 100; ++i) {
    cache.Add("filler-chunk-" + std::to_string(i) + std::string(16, 'z'));
  }
  EXPECT_LE(cache.stats().physical_bytes, 256u);
}

TEST(WireCodecTest, ChunkCacheEntryCapBoundsRetainedRefsUnderDedup) {
  // 32 KiB cap -> at most two retained references (32 KiB / 16 KiB floor).
  // Heavy dedup keeps physical bytes flat, so the bytes cap never fires; the
  // reference-count cap must, or retained_ grows for the server's lifetime.
  wire::WireChunkCache cache(32u << 10);
  cache.Add(std::string(100, 'a'));
  const std::string b(100, 'b');
  for (int i = 0; i < 1000; ++i) cache.Add(b);
  const ChunkStoreStats stats = cache.stats();
  EXPECT_GE(stats.dedup_hits, 999u);
  // The entry cap evicted chunk a's only reference long ago: the store holds
  // just b now, at one copy.
  EXPECT_EQ(stats.distinct_chunks, 1u);
  EXPECT_LE(stats.physical_bytes, 100u);
}

// ----------------------------------------------- end-to-end over loopback ---

TEST(WireCodecTest, ProxyAgreesWithTheDirectEngine) {
  // Two engines, identical op sequence: direct, and via the binary codec
  // over loopback. Content addressing makes equal inputs produce equal ids,
  // so any divergence is a codec bug.
  ForkBaseEngine direct;
  StorageEngineService service(std::make_unique<ForkBaseEngine>());
  RemoteStorageEngine remote(std::make_unique<LoopbackTransport>(
      [&service](std::string_view request) {
        return service.Handle(request);
      }));
  EXPECT_EQ(remote.Name(), "remote(forkbase)");

  const std::string blob(100 * 1024, '\x7F');
  auto dp = direct.Put("w", blob);
  auto bp = remote.Put("w", blob);
  ASSERT_TRUE(dp.ok());
  ASSERT_TRUE(bp.ok());
  EXPECT_EQ(bp->id.ToHex(), dp->id.ToHex());
  EXPECT_EQ(bp->logical_bytes, dp->logical_bytes);
  EXPECT_EQ(bp->new_physical_bytes, dp->new_physical_bytes);

  std::vector<PutRequest> batch = {{"w", blob + "2"}, {"x", "tiny"}};
  auto db = direct.PutMany(batch);
  auto bb = remote.PutMany(batch);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(bb.ok());
  for (size_t i = 0; i < db->size(); ++i) {
    EXPECT_EQ((*bb)[i].id.ToHex(), (*db)[i].id.ToHex());
  }

  // Apply by reference: only the key and the source id cross the wire.
  auto dc = direct.CopyVersion("y", dp->id);
  auto bc = remote.CopyVersion("y", bp->id);
  ASSERT_TRUE(dc.ok());
  ASSERT_TRUE(bc.ok()) << bc.status();
  EXPECT_EQ(bc->id.ToHex(), dc->id.ToHex());
  EXPECT_EQ(bc->logical_bytes, dc->logical_bytes);
  EXPECT_EQ(bc->new_physical_bytes, dc->new_physical_bytes);
  EXPECT_EQ(bc->deduplicated, dc->deduplicated);

  auto bg = remote.Get("w");
  ASSERT_TRUE(bg.ok());
  EXPECT_EQ(*bg, blob + "2");
  auto bv = remote.GetVersion(bp->id);
  ASSERT_TRUE(bv.ok());
  EXPECT_EQ(*bv, blob);

  EXPECT_TRUE(remote.HasVersion(bp->id));
  EXPECT_FALSE(remote.HasVersion(FilledId(0xFE)));
  EXPECT_EQ(remote.Versions("w").size(), direct.Versions("w").size());
  EXPECT_EQ(remote.ListAllVersions().size(),
            direct.ListAllVersions().size());
  EXPECT_EQ(remote.stats().puts, direct.stats().puts);
  EXPECT_EQ(remote.stats().logical_bytes, direct.stats().logical_bytes);
  EXPECT_DOUBLE_EQ(remote.ReadCost(1 << 20), direct.ReadCost(1 << 20));

  auto bd = remote.DeleteVersion((*bb)[1].id);
  auto dd = direct.DeleteVersion((*db)[1].id);
  ASSERT_TRUE(bd.ok());
  ASSERT_TRUE(dd.ok());
  EXPECT_EQ(*bd, *dd);

  // Remote status round trip: NotFound comes back typed, not stringly.
  auto missing = remote.GetVersion(FilledId(0xFD));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(remote.CopyVersion("y", FilledId(0xFD)).status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace mlcask::storage
