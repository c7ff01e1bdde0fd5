// The binary wire codec (wire version 2): golden encoded-byte vectors that
// freeze the layout, zero-copy guarantees (decoded payload views point INTO
// the message buffer), request/response round trips for every RPC type,
// chunk-stream reassembly with digest verification, chunk recipes (the
// identity of a recipe put with a direct Put, and hostile recipes that must
// store nothing), and a proxy over the service agreeing with a direct
// engine.

#include "storage/wire_codec.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "storage/forkbase_engine.h"
#include "storage/local_dir_engine.h"
#include "storage/remote_engine.h"
#include "storage/socket_transport.h"
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

/// Feeds `message`'s stream frames (as a sender lays them out) into an
/// assembler and returns the CHUNK_END payload.
std::string FeedStream(wire::StreamAssembler* assembler, uint64_t id,
                       std::string_view message) {
  std::string end;
  for (const wire::StreamFrame& frame : wire::StreamFrames(id, message)) {
    if (frame.length == 0 &&
        frame.header[1] == static_cast<char>(FrameType::kChunkEnd)) {
      end = frame.header.substr(14);
      continue;
    }
    std::string payload = frame.header.substr(14);  // size prefix, if any
    payload.append(message.substr(frame.offset, frame.length));
    EXPECT_TRUE(assembler->OnChunk(id, payload).ok());
  }
  return end;
}

TEST(WireCodecTest, StreamAssemblerReassemblesFixedFramesAndChecksDigest) {
  std::string value(3 * 1024 * 1024 + 17, '\0');
  for (size_t i = 0; i < value.size(); ++i) {
    value[i] = static_cast<char>((i * 2654435761u) >> 13);
  }
  const auto frames = wire::StreamFrames(42, value);
  // Fixed-size frames plus the END: no content-defined cutting.
  EXPECT_EQ(frames.size(),
            (value.size() + wire::kStreamFrameBytes - 1) /
                    wire::kStreamFrameBytes + 1);

  wire::StreamAssembler assembler(value.size() + 1024);
  const std::string end = FeedStream(&assembler, 42, value);
  EXPECT_EQ(assembler.active_streams(), 1u);
  auto assembled = assembler.Take(42);
  ASSERT_TRUE(assembled.ok());
  EXPECT_EQ(*assembled, value);
  EXPECT_EQ(assembler.active_streams(), 0u);
  EXPECT_TRUE(wire::CheckChunkEnd(*assembled, end).ok());

  std::string flipped = value;
  flipped[value.size() / 2] ^= 0x40;
  EXPECT_EQ(wire::CheckChunkEnd(flipped, end).code(), StatusCode::kCorruption);
}

TEST(WireCodecTest, StreamAssemblerRejectsOrphansOverrunsAndOversizeClaims) {
  wire::StreamAssembler assembler(16);
  EXPECT_EQ(assembler.Take(1).status().code(), StatusCode::kCorruption);

  // The first frame's declared size is checked before any allocation.
  std::string claim;
  wire::PutVarint(&claim, 17);
  EXPECT_EQ(assembler.OnChunk(2, claim).code(), StatusCode::kCorruption);

  // A stream that sends more than it declared dies at that chunk.
  std::string first;
  wire::PutVarint(&first, 10);
  first += "01234";
  ASSERT_TRUE(assembler.OnChunk(3, first).ok());
  EXPECT_EQ(assembler.OnChunk(3, "0123456789").code(),
            StatusCode::kCorruption);
  EXPECT_EQ(assembler.active_streams(), 0u);

  // One that ends short of it is caught at the end.
  ASSERT_TRUE(assembler.OnChunk(4, first).ok());
  EXPECT_EQ(assembler.Take(4).status().code(), StatusCode::kCorruption);
}

TEST(WireCodecTest, OnlyARecipeMessageMayLeaveItsBodyUndigested) {
  const std::string value(300 * 1024, 'r');
  const std::string index = PlanBlob(StoreChunker(), value).index;
  const std::string recipe_put = wire::EncodeRecipePutRequest("k", value, index);
  const std::string plain_put = wire::EncodePutRequest("k", value);
  const std::string recipe_read = wire::EncodeRecipeDataResponse(value, index);

  // The digest covers the head of a recipe message, all of any other.
  EXPECT_EQ(wire::StreamDigestBytes(recipe_put),
            recipe_put.size() - value.size());
  EXPECT_EQ(wire::StreamDigestBytes(recipe_read),
            recipe_read.size() - value.size());
  EXPECT_EQ(wire::StreamDigestBytes(plain_put), plain_put.size());
  EXPECT_TRUE(
      wire::CheckChunkEnd(recipe_put, wire::EncodeChunkEnd(recipe_put)).ok());

  // A head-only digest on a message without a recipe is Corruption, even
  // when the head it covers is intact.
  const size_t head = plain_put.size() - value.size();
  std::string end;
  wire::PutVarint(&end, head);
  const Hash256 digest = Sha256::Digest(plain_put.substr(0, head));
  end.append(reinterpret_cast<const char*>(digest.bytes.data()), 32);
  EXPECT_EQ(wire::CheckChunkEnd(plain_put, end).code(),
            StatusCode::kCorruption);
  // So is a head-only digest that stops short of a recipe message's body.
  std::string short_end;
  wire::PutVarint(&short_end, head - 1);
  const Hash256 short_digest = Sha256::Digest(recipe_put.substr(0, head - 1));
  short_end.append(reinterpret_cast<const char*>(short_digest.bytes.data()),
                   32);
  EXPECT_EQ(wire::CheckChunkEnd(recipe_put, short_end).code(),
            StatusCode::kCorruption);
  EXPECT_EQ(wire::CheckChunkEnd(recipe_put, "\x01").code(),
            StatusCode::kCorruption);
}

// -------------------------------------------------------- chunk recipes ---

std::string RandomBytes(size_t size, uint64_t seed) {
  Pcg32 rng(seed);
  std::string out(size, '\0');
  for (char& c : out) c = static_cast<char>(rng.NextU32());
  return out;
}

TEST(WireCodecTest, GoldenRecipePutRequestAndDataResponse) {
  // magic, opcode kPut, meta_len 9: key field (0x05, len 1, 'k'), then the
  // recipe (tag 14 | bytes kind = 0x39, len 4, "IDX!"); then the body.
  EXPECT_EQ(wire::EncodeRecipePutRequest("k", "vv", "IDX!"),
            std::string("\xBC\x01\x09\x05\x01k\x39\x04IDX!vv", 14));
  // magic, status 0, meta_len 6: the recipe field, then the data.
  EXPECT_EQ(wire::EncodeRecipeDataResponse("dd", "IDX!"),
            std::string("\xBC\x00\x06\x39\x04IDX!dd", 11));
  // Put-many: count 2 (0x10 0x02), recipe = [key_len, key, data_len,
  // index_len, index] per value; the body is the values back to back.
  const std::vector<RecipePut> batch = {{"a", "xy", "I"}, {"b", "", ""}};
  EXPECT_EQ(wire::EncodeRecipePutManyRequest(batch),
            std::string("\xBC\x02\x0D\x10\x02\x39\x09"
                        "\x01" "a\x02\x01I"
                        "\x01" "b\x00\x00"
                        "xy",
                        18));
}

/// Server over a twin engine: every value put through a socket proxy must
/// land exactly as a direct Put of the same value would.
TEST(WireCodecTest, RecipePutsThroughASocketEqualDirectPuts) {
  ForkBaseEngine direct;
  ForkBaseEngine shard;
  StorageEngineService service(&shard);
  const std::string spec =
      "unix:/tmp/mlcask-recipe-" + std::to_string(::getpid()) + ".sock";
  auto server = SocketTransportServer::Bind(spec);
  ASSERT_TRUE(server.ok()) << server.status();
  ASSERT_TRUE((*server)
                  ->Serve([&service](std::string_view request) {
                    return service.Handle(request);
                  })
                  .ok());
  auto transport = SocketTransport::Connect(spec);
  ASSERT_TRUE(transport.ok()) << transport.status();
  RemoteStorageEngine remote(*std::move(transport));

  const size_t kSizes[] = {0,         1,         1023,      1024,
                           1025,      16383,     16384,     16385,
                           262143,    262144,    262145,    524288,
                           8u << 20};
  uint64_t seed = 1;
  auto expect_same = [&](const std::string& key, const PutResult& want,
                         const PutResult& got) {
    EXPECT_EQ(got.id, want.id) << key;
    EXPECT_EQ(got.logical_bytes, want.logical_bytes) << key;
    EXPECT_EQ(got.new_physical_bytes, want.new_physical_bytes) << key;
    EXPECT_EQ(got.deduplicated, want.deduplicated) << key;
    EXPECT_DOUBLE_EQ(got.storage_time_s, want.storage_time_s) << key;
    EXPECT_EQ(shard.blobs().at(got.id), direct.blobs().at(want.id)) << key;
  };
  for (size_t size : kSizes) {
    for (bool zeros : {false, true}) {
      const std::string value =
          zeros ? std::string(size, '\0') : RandomBytes(size, seed++);
      const std::string key = "artifact/" + std::to_string(size) +
                              (zeros ? "/zero" : "/random");
      auto want = direct.Put(key, value);
      auto got = remote.Put(key, value);
      ASSERT_TRUE(want.ok() && got.ok()) << key << ": " << got.status();
      expect_same(key, *want, *got);
      auto read = remote.GetVersion(got->id);
      ASSERT_TRUE(read.ok()) << key << ": " << read.status();
      EXPECT_TRUE(*read == value) << key;
      ASSERT_TRUE(direct.GetVersion(want->id).ok());  // same read accounting
    }
  }
  // A put-many over the threshold carries a recipe for every value in it,
  // a tiny and an empty one included.
  const std::vector<PutRequest> batch = {{"many/big", RandomBytes(300000, 99)},
                                         {"many/tiny", "t"},
                                         {"many/empty", ""}};
  auto want = direct.PutMany(batch);
  auto got = remote.PutMany(batch);
  ASSERT_TRUE(want.ok() && got.ok()) << got.status();
  for (size_t i = 0; i < batch.size(); ++i) {
    expect_same(batch[i].key, (*want)[i], (*got)[i]);
  }
  auto latest = remote.Get("many/big");
  ASSERT_TRUE(latest.ok()) << latest.status();
  EXPECT_TRUE(*latest == batch[0].data);
  ASSERT_TRUE(direct.Get("many/big").ok());

  const ChunkStoreStats a = direct.chunk_stats();
  const ChunkStoreStats b = shard.chunk_stats();
  EXPECT_EQ(b.logical_bytes, a.logical_bytes);
  EXPECT_EQ(b.physical_bytes, a.physical_bytes);
  EXPECT_EQ(b.puts, a.puts);
  EXPECT_EQ(b.dedup_hits, a.dedup_hits);
  EXPECT_EQ(b.distinct_chunks, a.distinct_chunks);
  EXPECT_EQ(shard.stats().physical_bytes, direct.stats().physical_bytes);
  EXPECT_DOUBLE_EQ(shard.stats().storage_time_s,
                   direct.stats().storage_time_s);
  (*server)->Shutdown();
}

/// One index entry: 32-byte address, 8-byte little-endian length.
std::string IndexEntry(const Hash256& address, uint64_t length) {
  std::string entry(reinterpret_cast<const char*>(address.bytes.data()), 32);
  for (int i = 0; i < 8; ++i) entry.push_back(static_cast<char>(length >> (8 * i)));
  return entry;
}

Hash256 DataAddress(std::string_view piece) {
  return Chunk::ComputeHash(ChunkType::kData, piece);
}

/// Each request must fail typed at the service and leave the engine and
/// its chunk store exactly as they were.
void ExpectRejectedAndNothingStored(StorageEngineService* service,
                                    ForkBaseEngine* engine,
                                    const std::string& request,
                                    const std::string& what) {
  const EngineStats before = engine->stats();
  const ChunkStoreStats chunks_before = engine->chunk_stats();
  const std::string response = service->Handle(request);
  std::string_view rest;
  const Status status = wire::DecodeResponseStatus(response, &rest);
  EXPECT_TRUE(status.code() == StatusCode::kInvalidArgument ||
              status.code() == StatusCode::kCorruption)
      << what << ": " << status;
  const EngineStats after = engine->stats();
  const ChunkStoreStats chunks_after = engine->chunk_stats();
  EXPECT_EQ(after.puts, before.puts) << what;
  EXPECT_EQ(after.logical_bytes, before.logical_bytes) << what;
  EXPECT_EQ(after.physical_bytes, before.physical_bytes) << what;
  EXPECT_EQ(chunks_after.puts, chunks_before.puts) << what;
  EXPECT_EQ(chunks_after.physical_bytes, chunks_before.physical_bytes) << what;
  EXPECT_EQ(chunks_after.distinct_chunks, chunks_before.distinct_chunks)
      << what;
  EXPECT_TRUE(engine->ListAllVersions().empty()) << what;
}

TEST(WireCodecTest, HostileRecipesAreRejectedAndStoreNothing) {
  ForkBaseEngine engine;
  StorageEngineService service(&engine);
  const std::string value = RandomBytes(300 * 1024, 7);
  const BlobPlan plan = PlanBlob(StoreChunker(), value);
  ASSERT_GT(plan.pieces.size(), 4u);
  const std::string& index = plan.index;
  auto piece = [&](size_t i) {
    return std::string_view(value).substr(plan.pieces[i].first,
                                          plan.pieces[i].second);
  };
  auto put = [&](std::string_view data, std::string_view recipe) {
    return wire::EncodeRecipePutRequest("hostile", data, recipe);
  };

  std::string flipped = value;
  flipped[plan.pieces[2].first + 5] ^= 0x01;
  ExpectRejectedAndNothingStored(&service, &engine, put(flipped, index),
                                 "one flipped byte in one chunk");

  std::string swapped = index;
  std::memcpy(&swapped[0], index.data() + 40, 32);
  ExpectRejectedAndNothingStored(&service, &engine, put(value, swapped),
                                 "a chunk carrying another chunk's address");

  std::string empty_piece =
      index.substr(0, 40) + IndexEntry(DataAddress(""), 0) + index.substr(40);
  ExpectRejectedAndNothingStored(&service, &engine, put(value, empty_piece),
                                 "an empty piece");

  // Piece 0 split in two: the first part, 500 bytes, is below the minimum.
  std::string below_min = IndexEntry(DataAddress(piece(0).substr(0, 500)), 500) +
                          IndexEntry(DataAddress(piece(0).substr(500)),
                                     piece(0).size() - 500) +
                          index.substr(40);
  ExpectRejectedAndNothingStored(&service, &engine, put(value, below_min),
                                 "a piece below the minimum");

  // Leading pieces merged into one above the maximum, honestly hashed.
  size_t merged = 0;
  size_t k = 0;
  while (merged <= kStoreChunkMaxBytes) merged += plan.pieces[k++].second;
  std::string above_max =
      IndexEntry(DataAddress(std::string_view(value).substr(0, merged)),
                 merged) +
      index.substr(40 * k);
  ExpectRejectedAndNothingStored(&service, &engine, put(value, above_max),
                                 "a piece above the maximum");

  std::string short_by_one = index;
  short_by_one[short_by_one.size() - 8] -= 1;
  ExpectRejectedAndNothingStored(&service, &engine, put(value, short_by_one),
                                 "lengths short by one byte");
  std::string long_by_one = index;
  long_by_one[long_by_one.size() - 8] += 1;
  ExpectRejectedAndNothingStored(&service, &engine, put(value, long_by_one),
                                 "lengths long by one byte");
  ExpectRejectedAndNothingStored(&service, &engine,
                                 put(value, index.substr(0, index.size() - 1)),
                                 "an index that is not a multiple of 40");

  // A put-many whose second recipe is bad stores neither value.
  const std::vector<RecipePut> batch = {{"first", value, index},
                                        {"second", flipped, index}};
  ExpectRejectedAndNothingStored(&service, &engine,
                                 wire::EncodeRecipePutManyRequest(batch),
                                 "a put-many with one bad recipe");

  // Hostile varints in a put-many's recipe field.
  auto many = [](uint64_t count, std::string_view recipe,
                 std::string_view body) {
    std::string meta;
    wire::PutMetaVarint(&meta, 4, count);
    wire::PutMetaBytes(&meta, wire::kTagRecipe, recipe);
    return wire::AssembleMessage(
        static_cast<uint8_t>(wire::Method::kPutMany), meta, body);
  };
  auto varint = [](uint64_t v) {
    std::string out;
    wire::PutVarint(&out, v);
    return out;
  };
  ExpectRejectedAndNothingStored(&service, &engine,
                                 many(1ull << 60, "\x01k\x00\x00", ""),
                                 "a 2^60 count");
  ExpectRejectedAndNothingStored(
      &service, &engine, many(1, varint(~0ull) + "k\x00\x00", ""),
      "a 2^64-1 key length");
  ExpectRejectedAndNothingStored(
      &service, &engine, many(1, "\x01k" + varint(1ull << 62) + "\x00", "b"),
      "a 2^62 data length");
  ExpectRejectedAndNothingStored(
      &service, &engine, many(1, "\x01k\x01" + varint(~0ull >> 1), "b"),
      "a 2^63 index length");
  ExpectRejectedAndNothingStored(&service, &engine,
                                 many(1, "\x01k\x01\x00", "bb"),
                                 "body bytes no recipe covers");
  // A recipe on a request that carries no value.
  std::string meta;
  wire::PutMetaBytes(&meta, 1, "k");
  wire::PutMetaBytes(&meta, wire::kTagRecipe, "");
  ExpectRejectedAndNothingStored(
      &service, &engine,
      wire::AssembleMessage(static_cast<uint8_t>(wire::Method::kGet), meta,
                            ""),
      "a recipe on a get");

  // The honest recipe still lands.
  auto ok = wire::DecodePutResponse(service.Handle(put(value, index)));
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->id, ForkBaseEngine().Put("hostile", value)->id);
}

TEST(WireCodecTest, EngineWithoutChunksChecksTheRecipeThenPuts) {
  LocalDirEngine engine;
  const std::string value = RandomBytes(300 * 1024, 8);
  const std::string index = PlanBlob(StoreChunker(), value).index;
  std::string flipped = value;
  flipped[1000] ^= 0x01;
  EXPECT_EQ(engine.PutWithRecipe("k", flipped, index).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(engine.num_keys(), 0u);
  auto put = engine.PutWithRecipe("k", value, index);
  ASSERT_TRUE(put.ok()) << put.status();
  EXPECT_EQ(put->id, LocalDirEngine().Put("k", value)->id);

  // A large read from it carries a recipe planned on the spot.
  StorageEngineService service(&engine);
  const std::string response =
      service.Handle(wire::EncodeIdRequest(wire::Method::kGetVersion, put->id));
  EXPECT_EQ(wire::StreamDigestBytes(response), response.size() - value.size());
  auto read = wire::DecodeDataResponse(response);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_TRUE(*read == value);
}

TEST(WireCodecTest, ReadWithAFlippedBodyByteIsCorruptionAtTheClient) {
  ForkBaseEngine engine;
  StorageEngineService service(&engine);
  const std::string value = RandomBytes(400 * 1024, 9);
  auto stored = engine.Put("big", value);
  ASSERT_TRUE(stored.ok());
  // A wrapping handler flips one byte of every large response's body, as
  // a corrupting link would.
  RemoteStorageEngine remote(std::make_unique<LoopbackTransport>(
      [&service](std::string_view request) {
        std::string response = service.Handle(request);
        if (response.size() > 100 * 1024) response[response.size() - 777] ^= 1;
        return response;
      }));
  EXPECT_EQ(remote.GetVersion(stored->id).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(remote.Get("big").status().code(), StatusCode::kCorruption);
}

/// The service's read response is built around the value the engine read,
/// and the client erases the head in front of it: the bytes must be the
/// ones the codec always sent and the engine always held, for values on
/// both sides of the recipe threshold, from an engine that keeps a recipe
/// and from one that keeps none, through a socket and through a loopback.
TEST(WireCodecTest, ReadsAreBuiltAroundTheStoredValueAndDecodedInPlace) {
  const size_t kSizes[] = {0,      1,      255u << 10, 262143,
                           262144, 262145, 512u << 10, 8u << 20};
  const std::string spec =
      "unix:/tmp/mlcask-inplace-" + std::to_string(::getpid()) + ".sock";
  ForkBaseEngine forkbase;
  LocalDirEngine local_dir;
  for (StorageEngine* engine :
       std::vector<StorageEngine*>{&forkbase, &local_dir}) {
    SCOPED_TRACE(engine->Name());
    StorageEngineService service(engine);
    auto server = SocketTransportServer::Bind(spec);
    ASSERT_TRUE(server.ok()) << server.status();
    ASSERT_TRUE((*server)
                    ->Serve([&service](std::string_view request) {
                      return service.Handle(request);
                    })
                    .ok());
    auto transport = SocketTransport::Connect(spec);
    ASSERT_TRUE(transport.ok()) << transport.status();
    RemoteStorageEngine socket_proxy(*std::move(transport));
    RemoteStorageEngine loopback_proxy(std::make_unique<LoopbackTransport>(
        [&service](std::string_view request) {
          return service.Handle(request);
        }));
    uint64_t seed = 40;
    for (size_t size : kSizes) {
      SCOPED_TRACE(size);
      const std::string value = RandomBytes(size, seed++);
      const std::string key = "read/" + std::to_string(size);
      auto put = engine->Put(key, value);
      ASSERT_TRUE(put.ok()) << put.status();

      // Byte-identical to the copying encoders, and built in the buffer
      // the engine read into whenever that engine keeps the recipe.
      std::string index;
      auto read = engine->GetVersionWithRecipe(put->id, &index);
      ASSERT_TRUE(read.ok()) << read.status();
      const std::string want =
          size < wire::kDefaultChunkThreshold
              ? wire::EncodeDataResponse(value)
              : wire::EncodeRecipeDataResponse(
                    value, index.empty() ? PlanBlob(StoreChunker(), value).index
                                         : index);
      const char* buffer = read->data();
      const std::string response =
          wire::EncodeReadResponse(*std::move(read), index);
      EXPECT_TRUE(response == want);
      if (!index.empty()) {
        EXPECT_EQ(response.data(), buffer);
      }
      EXPECT_TRUE(service.Handle(wire::EncodeIdRequest(
                      wire::Method::kGetVersion, put->id)) == want);

      for (RemoteStorageEngine* proxy : {&socket_proxy, &loopback_proxy}) {
        auto by_id = proxy->GetVersion(put->id);
        ASSERT_TRUE(by_id.ok()) << by_id.status();
        EXPECT_TRUE(*by_id == value);
        auto by_key = proxy->Get(key);
        ASSERT_TRUE(by_key.ok()) << by_key.status();
        EXPECT_TRUE(*by_key == value);
      }

      if (size >= wire::kDefaultChunkThreshold) {
        std::string flipped = response;
        flipped[flipped.size() - size / 2] ^= 0x40;
        EXPECT_EQ(wire::DecodeDataResponse(flipped).status().code(),
                  StatusCode::kCorruption);
      }
    }
    (*server)->Shutdown();
  }
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
