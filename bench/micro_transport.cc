// micro_transport — wire-speed report for the transport stack.
//
//   1. Codec: Get bytes/s and small-RPC round trips/s through a
//      RemoteStorageEngine over LoopbackTransport, so the numbers are the
//      binary codec's serialization and dispatch cost with no wire.
//
//   2. Streaming: does chunked transfer bound the receiver's memory, and
//      does a repeated value cost the shard nothing? Measured over real
//      unix sockets against two epoll servers — one with chunking disabled
//      (monolithic frames), one with the default 256 KiB threshold. GATEs:
//      the streamed client's peak decoder buffer stays under a quarter of
//      the value size, it saw chunk frames, and re-sending the same value
//      adds no physical bytes at the shard.
//
//   3. Cluster: a 512 KiB Put under library/ (replicated, so a two-phase
//      commit to both shards) into a 2-shard ShardedStorageEngine over two
//      in-process unix-socket servers with ForkBase backends, and a 512 KiB
//      GetVersion back — the shape of a `cluster` commit and checkout.
//      Printed in ms per op, not gated.
//
// The socket lanes (2 and 3) also print minor page faults per op: the
// process's getrusage(RUSAGE_SELF).ru_minflt delta around each timed loop,
// client and in-process servers together. Printed only.
//
// Flags: --short (CI-sized iteration counts), --json <path> (write
// BENCH_micro_transport.json for tools/bench_compare.py).

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "bench_util.h"
#include "storage/forkbase_engine.h"
#include "storage/remote_engine.h"
#include "storage/server_cluster.h"
#include "storage/socket_transport.h"
#include "storage/transport.h"
#include "storage/wire_codec.h"

namespace {

using namespace mlcask;
using namespace mlcask::storage;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Deterministic byte soup: varied enough that the content-defined chunker
/// produces realistic cuts, cheap enough to generate at any size. Each
/// `seed` gives different bytes.
std::string PatternedValue(size_t size, uint64_t seed = 0) {
  std::string value(size, '\0');
  uint64_t x = seed * 0x9E3779B97F4A7C15ull + 1;
  for (size_t i = 0; i < size; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    value[i] = seed == 0 ? static_cast<char>((i * 2654435761u) >> 13)
                         : static_cast<char>(x);
  }
  return value;
}

/// Serves `engine` on `spec` until the returned server is shut down.
std::unique_ptr<SocketTransportServer> ServeEngine(
    const std::string& spec, StorageEngineService* service,
    SocketTransportServer::Options options = {}) {
  auto server = SocketTransportServer::Bind(spec, options);
  bench::CheckOk(server.status(), ("Bind " + spec).c_str());
  bench::CheckOk((*server)->Serve([service](std::string_view request) {
    return service->Handle(request);
  }),
                 ("Serve " + spec).c_str());
  return *std::move(server);
}

/// Times `iters` Gets of `key` (whose value is `size` bytes) and returns
/// payload bytes per second. Exits via CheckOk on any failed Get.
double TimeGets(StorageEngine* engine, const std::string& key, size_t size,
                long iters) {
  const double start = NowSeconds();
  for (long i = 0; i < iters; ++i) {
    auto value = engine->Get(key);
    bench::CheckOk(value.status(), ("Get(" + key + ")").c_str());
    if (value->size() != size) {
      std::fprintf(stderr, "FAIL: Get(%s) returned %zu bytes, want %zu\n",
                   key.c_str(), value->size(), size);
      std::exit(1);
    }
  }
  const double elapsed = NowSeconds() - start;
  return static_cast<double>(size) * static_cast<double>(iters) /
         (elapsed > 0 ? elapsed : 1e-9);
}

/// Minor page faults of this process so far.
long MinorFaults() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

std::string HumanSize(size_t bytes) {
  if (bytes >= (1u << 20)) return std::to_string(bytes >> 20) + "m";
  if (bytes >= (1u << 10)) return std::to_string(bytes >> 10) + "k";
  return std::to_string(bytes);
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  bench::Banner("micro_transport",
                "wire codec + chunk streaming throughput");
  bench::JsonReporter reporter("micro_transport");

  const struct {
    size_t size;
    long iters;
    long iters_short;
  } kPayloads[] = {
      {4u << 10, 2000, 400},
      {256u << 10, 96, 24},
      {8u << 20, 8, 3},
  };
  const size_t kLargeSize = 8u << 20;

  // ---- 1. codec throughput over loopback -------------------------------
  bench::Section("codec: binary over loopback");
  StorageEngineService loopback_service(std::make_unique<ForkBaseEngine>());
  RemoteStorageEngine binary(std::make_unique<LoopbackTransport>(
      [&loopback_service](std::string_view request) {
        return loopback_service.Handle(request);
      }));

  for (const auto& p : kPayloads) {
    const long iters = args.short_mode ? p.iters_short : p.iters;
    const std::string key = "payload-" + HumanSize(p.size);
    bench::CheckOk(binary.Put(key, PatternedValue(p.size)).status(),
                   "binary Put");
    const double binary_bps = TimeGets(&binary, key, p.size, iters);
    std::printf("  %6s x%-5ld  binary %8.1f MB/s\n", HumanSize(p.size).c_str(),
                iters, binary_bps / 1e6);
    reporter.Metric("codec", "binary_bytes_per_s_" + HumanSize(p.size),
                    binary_bps);
  }

  // Small-RPC rate: HasVersion round trips carry ~40 bytes each way, so
  // this measures per-call codec+dispatch overhead rather than bandwidth.
  {
    const long iters = args.short_mode ? 5000 : 50000;
    auto id = binary.Put("rpc-probe", "x");
    bench::CheckOk(id.status(), "Put rpc-probe");
    const double start = NowSeconds();
    for (long i = 0; i < iters; ++i) (void)binary.HasVersion(id->id);
    const double binary_rps = iters / (NowSeconds() - start);
    std::printf("  small RPC      binary %8.0f rpc/s\n", binary_rps);
    reporter.Metric("codec", "rpc_per_s_binary", binary_rps);
  }

  // ---- 2. monolithic vs chunk-streamed over unix sockets ---------------
  bench::Section("streaming: monolithic vs chunked over unix sockets");
  char dir_template[] = "/tmp/mlcask-bench-XXXXXX";
  if (::mkdtemp(dir_template) == nullptr) {
    std::fprintf(stderr, "FAIL: mkdtemp: cannot create socket dir\n");
    return 1;
  }
  const std::string dir = dir_template;

  const std::string large = PatternedValue(kLargeSize);
  const long stream_iters = args.short_mode ? 3 : 8;

  struct Lane {
    const char* name;
    size_t threshold;  // SIZE_MAX disables chunking entirely
  } lanes[] = {
      {"monolithic", static_cast<size_t>(-1)},
      {"streamed", wire::kDefaultChunkThreshold},
  };
  for (const Lane& lane : lanes) {
    StorageEngineService service(std::make_unique<ForkBaseEngine>());
    SocketTransportServer::Options server_options;
    server_options.chunk_threshold = lane.threshold;
    const std::string spec = "unix:" + dir + "/" + lane.name + ".sock";
    auto server = ServeEngine(spec, &service, server_options);

    SocketTransport::Options client_options;
    client_options.chunk_threshold = lane.threshold;
    auto transport = SocketTransport::Connect(spec, client_options);
    bench::CheckOk(transport.status(), ("Connect " + spec).c_str());
    SocketTransport* raw_transport = transport->get();
    RemoteStorageEngine remote(std::move(*transport));

    bench::CheckOk(remote.Put("large", large).status(), "Put large");
    const long faults_before = MinorFaults();
    const double bps = TimeGets(&remote, "large", kLargeSize, stream_iters);
    const double faults_per_op =
        static_cast<double>(MinorFaults() - faults_before) / stream_iters;
    const TransportStats stats = raw_transport->stats();
    std::printf("  %-10s  %8.1f MB/s   %7.1f faults/op   chunk frames rx %llu"
                "   peak decoder buffer %llu bytes\n",
                lane.name, bps / 1e6, faults_per_op,
                static_cast<unsigned long long>(stats.chunk_frames_received),
                static_cast<unsigned long long>(
                    stats.peak_decoder_buffer_bytes));
    reporter.Metric("streaming", std::string(lane.name) + "_bytes_per_s", bps);
    reporter.Metric("streaming",
                    std::string(lane.name) + "_peak_decoder_buffer_bytes",
                    static_cast<double>(stats.peak_decoder_buffer_bytes));

    if (lane.threshold != static_cast<size_t>(-1)) {
      // GATE: streamed receive memory is O(chunk), not O(value).
      if (stats.peak_decoder_buffer_bytes * 4 >= kLargeSize) {
        std::fprintf(stderr,
                     "FAIL: streamed peak decoder buffer %llu bytes is not "
                     "under a quarter of the %zu-byte value\n",
                     static_cast<unsigned long long>(
                         stats.peak_decoder_buffer_bytes),
                     kLargeSize);
        return 1;
      }
      if (stats.chunk_frames_received == 0) {
        std::fprintf(stderr, "FAIL: streamed lane never saw a chunk frame\n");
        return 1;
      }
      // GATE: re-sending the same bytes adds nothing at the shard.
      const uint64_t physical_before = service.engine()->stats().physical_bytes;
      auto again = remote.Put("large-again", large);
      bench::CheckOk(again.status(), "Put large-again");
      const uint64_t physical_after = service.engine()->stats().physical_bytes;
      std::printf("  %-10s  repeat put: %llu new bytes, shard physical %llu "
                  "-> %llu bytes\n",
                  "", static_cast<unsigned long long>(again->new_physical_bytes),
                  static_cast<unsigned long long>(physical_before),
                  static_cast<unsigned long long>(physical_after));
      if (again->new_physical_bytes != 0 || physical_after != physical_before) {
        std::fprintf(stderr,
                     "FAIL: re-sending the same value added bytes at the "
                     "shard\n");
        return 1;
      }
    }

    server->Shutdown();
    ::unlink((dir + "/" + lane.name + ".sock").c_str());
  }

  // ---- 3. replicated put + read through a 2-shard router ---------------
  bench::Section("cluster: 512 KiB library put + read, 2 shards over sockets");
  {
    constexpr size_t kLibraryBytes = 512u << 10;
    const long iters = args.short_mode ? 20 : 100;
    std::vector<std::unique_ptr<StorageEngineService>> services;
    std::vector<std::unique_ptr<SocketTransportServer>> servers;
    std::vector<std::string> specs;
    for (int s = 0; s < 2; ++s) {
      specs.push_back("unix:" + dir + "/shard" + std::to_string(s) + ".sock");
      services.push_back(std::make_unique<StorageEngineService>(
          std::make_unique<ForkBaseEngine>()));
      servers.push_back(ServeEngine(specs.back(), services.back().get()));
    }
    auto router = ConnectCluster(specs);
    bench::CheckOk(router.status(), "ConnectCluster");
    std::vector<std::string> values;
    values.reserve(iters);
    for (long i = 0; i < iters; ++i) {
      values.push_back(PatternedValue(kLibraryBytes, 1000 + i));
    }
    std::vector<Hash256> ids;
    ids.reserve(iters);
    long faults = MinorFaults();
    double start = NowSeconds();
    for (long i = 0; i < iters; ++i) {
      auto put = (*router)->Put("library/micro/lib", values[i]);
      bench::CheckOk(put.status(), "router Put");
      ids.push_back(put->id);
    }
    const double put_ms = (NowSeconds() - start) * 1e3 / iters;
    const double put_faults =
        static_cast<double>(MinorFaults() - faults) / iters;
    faults = MinorFaults();
    start = NowSeconds();
    for (long i = 0; i < iters; ++i) {
      auto read = (*router)->GetVersion(ids[i]);
      bench::CheckOk(read.status(), "router GetVersion");
      if (*read != values[i]) {
        std::fprintf(stderr, "FAIL: GetVersion returned other bytes\n");
        return 1;
      }
    }
    const double get_ms = (NowSeconds() - start) * 1e3 / iters;
    const double get_faults =
        static_cast<double>(MinorFaults() - faults) / iters;
    std::printf("  put  %7.3f ms/op %7.1f faults/op   get_version  %7.3f "
                "ms/op %7.1f faults/op   (x%ld)\n",
                put_ms, put_faults, get_ms, get_faults, iters);
    router->reset();
    for (size_t s = 0; s < servers.size(); ++s) {
      servers[s]->Shutdown();
      ::unlink(specs[s].substr(5).c_str());
    }
  }
  ::rmdir(dir.c_str());

  reporter.Metric("summary", "pass", true);
  reporter.Write(args.json_path);
  std::printf("PASS\n");
  return 0;
}
